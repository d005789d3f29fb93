"""Window-aware reads: the sealed index's ``"windows"`` entry and the
in-memory reader of the active segment.

A range read decodes only the records whose window overlaps the range;
segments sealed without the entry (the earlier index form) answer the
same questions by decoding and then filtering; reads of the active
segment never re-parse its file.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.quantiles import KLLSketch
from repro.store import Compactor, SegmentReader, SegmentWriter, SketchStore


def _counter_value(registry, name):
    for metric in registry.iter_metrics():
        if metric.name == name:
            return metric.value
    return 0.0


def _series(i):
    sk = KLLSketch(k=64, seed=i)
    sk.update_many([float(v) for v in range(i * 10, i * 10 + 10)])
    return [
        {"name": "lat", "labels": {"route": "a" if i % 2 else "b"},
         "kind": "sketch", "sketch": sk},
        {"name": "reqs", "labels": {}, "kind": "counter", "value": float(i)},
        {"name": "mem", "labels": {}, "kind": "gauge", "value": float(i)},
    ]


def _build(path, n=60, partition=60.0, old_index=False, monkeypatch=None):
    """``n`` one-second windows in sealed segments, then reopened from disk.

    With ``old_index`` the segments are sealed with the index form that
    predates the ``"windows"`` entry.
    """
    if old_index:
        full_index = SegmentWriter.index
        monkeypatch.setattr(
            SegmentWriter, "index",
            lambda self: {k: v for k, v in full_index(self).items() if k != "windows"},
        )
    st = SketchStore(path, partition_seconds=partition, registry=MetricsRegistry())
    for i in range(n):
        st.append(float(i), float(i + 1), _series(i))
    st.close()
    if old_index:
        monkeypatch.undo()
    registry = MetricsRegistry()
    return SketchStore(path, partition_seconds=partition, registry=registry), registry


def _result_key(result):
    sketch = result.sketch.to_bytes() if result.sketch is not None else None
    return (result.kind, result.n_windows, result.start, result.end,
            result.total, result.values, sketch)


def _windows_key(store, **kwargs):
    return [
        (w["start"], w["end"],
         [(e["name"], e["labels"], e["kind"], e.get("value"), e.get("blob"))
          for e in w["series"]])
        for w in store.iter_windows(revive=False, **kwargs)
    ]


RANGES = [(None, None), (50.0, 60.0), (0.0, 1.0), (12.5, 47.5), (59.0, None), (60.0, 90.0)]


class TestOldIndexForm:
    def test_answers_identically(self, tmp_path, monkeypatch):
        new, _ = _build(str(tmp_path / "new"), partition=20.0)
        old, _ = _build(str(tmp_path / "old"), partition=20.0, old_index=True,
                        monkeypatch=monkeypatch)
        for since, until in RANGES:
            for metric in ("lat", "reqs", "mem"):
                assert (_result_key(new.query(metric, since, until))
                        == _result_key(old.query(metric, since, until)))
            groups_new = new.query("lat", since, until, group_by="route")
            groups_old = old.query("lat", since, until, group_by="route")
            assert groups_new.keys() == groups_old.keys()
            for value in groups_new:
                assert _result_key(groups_new[value]) == _result_key(groups_old[value])
            assert (_windows_key(new, since=since, until=until)
                    == _windows_key(old, since=since, until=until))

    def test_index_keeps_the_keys_earlier_readers_require(self, tmp_path):
        # Earlier readers accept an index holding these four keys and
        # ignore any other key, so they still read new segments.
        path = str(tmp_path / "a.rseg")
        writer = SegmentWriter(path)
        writer.append(0.0, 1.0, [{"name": "reqs", "labels": {}, "kind": "counter",
                                  "value": 1.0}])
        writer.seal()
        with open(path, "rb") as fh:
            index = SegmentReader(path)._try_footer(fh)
        assert {"start", "end", "n_records", "series"} <= set(index)
        assert set(index["windows"]) == {"offset", "start", "end"}


class TestRangeDecode:
    def test_ten_second_query_decodes_only_overlapping_records(self, tmp_path):
        store, registry = _build(str(tmp_path / "db"))
        assert len(store.segments()) == 1 and store.segments()[0].n_records == 60
        result = store.query("reqs", since=50.0, until=60.0)
        assert result.total == float(sum(range(50, 60)))
        assert _counter_value(registry, "repro_store_windows_read_total") == 10.0
        replayed = list(store.iter_windows(since=50.0, until=60.0))
        assert [w["start"] for w in replayed] == [float(i) for i in range(50, 60)]
        assert _counter_value(registry, "repro_store_windows_read_total") == 20.0

    def test_old_index_decodes_then_filters(self, tmp_path, monkeypatch):
        store, registry = _build(str(tmp_path / "db"), old_index=True,
                                 monkeypatch=monkeypatch)
        result = store.query("reqs", since=50.0, until=60.0)
        assert result.total == float(sum(range(50, 60)))
        assert _counter_value(registry, "repro_store_windows_read_total") == 60.0

    def test_torn_tail_scan_knows_windows(self, tmp_path):
        path = str(tmp_path / "db")
        st = SketchStore(path, partition_seconds=100.0, registry=MetricsRegistry())
        for i in range(20):
            st.append(float(i), float(i + 1), _series(i))
        # simulated crash: the process dies without sealing, leaving
        # torn bytes after the flushed records
        st._active.close()
        with open(st._active.path, "ab") as fh:
            fh.write(b"\x01\x99\x99 torn tail from a dying process")

        registry = MetricsRegistry()
        reopened = SketchStore(path, partition_seconds=100.0, registry=registry)
        assert reopened.query("reqs").total == float(sum(range(20)))
        assert _counter_value(registry, "repro_store_windows_read_total") == 20.0
        assert reopened.query("reqs", since=15.0).total == float(sum(range(15, 20)))
        assert _counter_value(registry, "repro_store_windows_read_total") == 25.0
        assert _counter_value(registry, "repro_store_tail_bytes_dropped_total") > 0


class TestCompaction:
    def test_output_matches_old_index_form(self, tmp_path, monkeypatch):
        stores = [
            _build(str(tmp_path / "new"), n=24, partition=4.0)[0],
            _build(str(tmp_path / "old"), n=24, partition=4.0, old_index=True,
                   monkeypatch=monkeypatch)[0],
        ]
        for store in stores:
            stats = Compactor(store, decay_after=1.0, coarsen_to=8.0,
                              clock=lambda: 100.0).run_once()
            assert stats["windows_in"] == 24 and stats["windows_out"] == 3
        assert _windows_key(stores[0]) == _windows_key(stores[1])
        assert _windows_key(stores[0], since=8.0, until=16.0) == _windows_key(stores[0])[1:2]


class TestActiveSegment:
    @pytest.fixture
    def parses(self, monkeypatch):
        """Count file parses: the footer probe and the recovery scan."""
        calls = []
        for name in ("_try_footer", "_scan_all"):
            original = getattr(SegmentReader, name)

            def counted(self, fh, _original=original, _name=name):
                calls.append(_name)
                return _original(self, fh)

            monkeypatch.setattr(SegmentReader, name, counted)
        return calls

    def test_reads_parse_no_file_and_see_every_append(self, tmp_path, parses):
        store = SketchStore(str(tmp_path / "db"), partition_seconds=1000.0,
                            registry=MetricsRegistry())
        for i in range(30):
            store.append(float(i), float(i + 1), _series(i))
            assert store.query("reqs").total == float(sum(range(i + 1)))
            assert store.query("lat", since=float(i)).count == 10
            assert len(list(store.iter_windows(since=float(i)))) == 1
            assert store.coverage() == (0.0, float(i + 1))
        assert store.stats()["windows"] == 30
        assert [m["name"] for m in store.metrics()] == ["lat", "lat", "mem", "reqs"]
        assert parses == []
        store.close()
        # sealing publishes the reader from memory too
        assert parses == []
        assert store.query("reqs").total == float(sum(range(30)))

    def test_memory_reader_equals_loaded_reader(self, tmp_path):
        path = str(tmp_path / "a.rseg")
        writer = SegmentWriter(path)
        for i in range(5):
            writer.append(float(i), float(i + 1),
                          [{"name": "reqs", "labels": {}, "kind": "counter",
                            "value": float(i)}])
        writer.flush()
        for sealed in (False, True):
            if sealed:
                writer.seal()
            memory, loaded = writer.reader(), SegmentReader(path).load()
            assert memory.sealed == loaded.sealed == sealed
            assert (memory.start, memory.end, memory.n_records) == (
                loaded.start, loaded.end, loaded.n_records)
            assert memory.keys() == loaded.keys()
            assert list(memory.records()) == list(loaded.records())
            assert (list(memory.records(since=2.0, until=4.0))
                    == list(loaded.records(since=2.0, until=4.0)))
