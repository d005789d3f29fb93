"""Tiny runs of every workload through the real run loop."""

import json
import re
from pathlib import Path

import pytest

from perfbench import run
from perfbench.probes import PER_LAYER, Probes
from perfbench.spans import SpanRecorder
from perfbench.workloads import Flows, History, Ingest, Live

ROOT = Path(__file__).resolve().parents[2]


class TinyIngest(Ingest):
    routes = [20, 30]
    disk_checkpoint = 40
    trace_steps = 50


class TinyHistory(History):
    routes = [20, 30]
    n_windows = 30
    trace_steps = 10


class TinyLive(Live):
    routes = [20, 30, 40]
    max_windows = 8
    prefill = 20
    disk_checkpoint = 30
    baseline_windows = 10
    recent_windows = 2
    drift_min_count = 20
    trailing = 5
    poll_windows = 6
    trace_steps = 5


class TinyFlows(Flows):
    records = 3000
    n_sources = 64
    disk_checkpoint = 5
    trace_steps = 5


TINY = [TinyIngest, TinyHistory, TinyLive, TinyFlows]


@pytest.mark.parametrize("cls", TINY, ids=lambda cls: cls.name)
def test_timed_run_reports_every_gated_metric_and_no_failures(cls, tmp_path):
    result = run.timed_run(run.Run(cls, seed=3, out=tmp_path), seconds=0.0)
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 100
    assert list((tmp_path / "tmp").iterdir()) == []


@pytest.mark.parametrize("cls", TINY, ids=lambda cls: cls.name)
def test_traced_run_reports_every_per_layer_metric(cls, tmp_path):
    result = run.traced_run(run.Run(cls, seed=3, out=tmp_path))
    assert set(result["metrics"]) == {name for name, _ in PER_LAYER}
    assert result["correct"], result
    assert result["metrics"]["op.calls"]["value"] > 0
    assert (tmp_path / f"spans-{cls.name}-3.npz").is_file()


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for attempt in range(2):
        result = run.traced_run(run.Run(TinyLive, seed=5, out=tmp_path / str(attempt)))
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if m["unit"] == "count" and not name.startswith("trace.")})
    assert counts[0] == counts[1]


def test_probes_restore_every_entry_point():
    from repro.obs.registry import SketchHistogram
    from repro.quantiles.kll import KLLSketch
    from repro.store import store

    before = (SketchHistogram.observe, KLLSketch.__dict__["_merge_many_impl"],
              store.encode_partial, "cdf" in KLLSketch.__dict__)
    with Probes(SpanRecorder()) as probes:
        assert SketchHistogram.observe is not before[0]
        assert "cdf" in KLLSketch.__dict__
    assert probes.missing == []
    after = (SketchHistogram.observe, KLLSketch.__dict__["_merge_many_impl"],
             store.encode_partial, "cdf" in KLLSketch.__dict__)
    assert after == before


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["ingest", "live", "flows"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def test_missing_program_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.load_program() is False


def test_stop_children_ends_the_shared_memory_resource_tracker():
    import os
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=16)
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run.stop_children()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
