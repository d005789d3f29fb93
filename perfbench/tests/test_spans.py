import threading

import numpy as np

from perfbench.spans import SpanRecorder, fold, layer_totals, self_times, split_under

# A synthetic tree (times in ns):
#   0 store.query   [0, 100]
#   1   serde.decode [10, 40]
#   2     kll.quantile [15, 20]
#   3   serde.decode [30, 60]   overlaps span 1
#   4 bench.gen     [100, 130]
#   5 store.query   [130, 150]
NAMES = ["store.query", "serde.decode", "kll.quantile", "bench.gen"]
NAME_ID = np.array([0, 1, 2, 1, 3, 0])
PARENT = np.array([-1, 0, 1, 0, -1, -1])
START = np.array([0, 10, 15, 30, 100, 130])
END = np.array([100, 40, 20, 60, 130, 150])


def test_self_time_subtracts_the_union_of_children():
    selfs = self_times(NAMES, PARENT, START, END)
    # root: 100 minus the union [10, 60] of its overlapping children
    assert list(selfs) == [50, 25, 5, 30, 30, 20]


def test_fold_by_name_and_layer():
    folded = fold(NAMES, NAME_ID, PARENT, START, END)
    assert folded["store.query"] == {"calls": 2, "total_ns": 120, "self_ns": 70}
    assert folded["serde.decode"] == {"calls": 2, "total_ns": 60, "self_ns": 55}
    assert layer_totals(folded) == {"store": 70, "serde": 55, "kll": 5, "bench": 30}


def test_split_under_a_root_span():
    calls, split = split_under("store.query", NAMES, NAME_ID, PARENT, START, END)
    assert calls == 2
    assert split == {"store": 70, "serde": 55, "kll": 5}


def test_self_times_partition_the_covered_time_when_siblings_are_disjoint():
    start = START.copy()
    start[3] = 40  # the second decode now follows the first
    selfs = self_times(NAMES, PARENT, start, END)
    assert selfs.sum() == 150  # [0, 150] is covered by the three roots


def test_recorder_nests_and_parents_handler_threads_to_the_client():
    rec = SpanRecorder()
    with rec.span("http.request"):
        with rec.span("bench.client"):
            pass

        def handler():
            with rec.span("store.query"):
                with rec.span("serde.decode"):
                    pass

        thread = threading.Thread(target=handler)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    cols = rec.columns()
    names = [rec.names[i] for i in cols["name_id"]]
    assert names == ["http.request", "bench.client", "store.query", "serde.decode"]
    assert list(cols["parent"]) == [-1, 0, 0, 2]
    assert all(cols["end"] >= cols["start"])
