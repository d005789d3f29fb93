"""install_shutdown_hook: flush-on-exit for recorders, engines, stores."""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.obs import TimelineRecorder, install_shutdown_hook, uninstall_shutdown_hook
from repro.obs.lifecycle import _flush_all, _registered
from repro.obs.registry import MetricsRegistry
from repro.store import Compactor, SketchStore


@pytest.fixture(autouse=True)
def clean_hook():
    uninstall_shutdown_hook()
    yield
    uninstall_shutdown_hook()


class TestRegistration:
    def test_rejects_unknown_objects(self):
        with pytest.raises(TypeError, match="cannot shut down"):
            install_shutdown_hook(object())

    def test_deduplicates_on_identity(self):
        recorder = TimelineRecorder(registry=MetricsRegistry(), interval=60.0)
        install_shutdown_hook(recorder)
        install_shutdown_hook(recorder, recorder)
        assert len(_registered) == 1

    def test_flush_order_engines_then_recorders_then_stores(self):
        order = []

        class FakeEngine:
            def evaluate(self):
                pass

            def stop(self):
                order.append("engine")

        class FakeRecorder:
            store = None

            def tick(self):
                pass

            def stop(self):
                order.append("recorder")

        class FakeStore:
            def seal_active(self):
                pass

            def close(self):
                order.append("store")

        # registered out of order on purpose
        install_shutdown_hook(FakeStore(), FakeRecorder(), FakeEngine())
        _flush_all()
        assert order == ["engine", "recorder", "store"]
        assert _registered == []  # one-shot: drained by the flush

    def test_recorder_attached_store_closed_implicitly(self):
        closed = []

        class FakeStore:
            def seal_active(self):
                pass

            def close(self):
                closed.append(True)

        class FakeRecorder:
            store = FakeStore()

            def tick(self):
                pass

            def stop(self):
                pass

        install_shutdown_hook(FakeRecorder())
        _flush_all()
        assert closed == [True]

    def test_failing_component_does_not_block_the_rest(self):
        stopped = []

        class Bad:
            def evaluate(self):
                pass

            def stop(self):
                raise RuntimeError("stuck thread")

        class Good:
            def tick(self):
                pass

            def stop(self):
                stopped.append(True)

        install_shutdown_hook(Bad(), Good())
        _flush_all()  # must not raise
        assert stopped == [True]


def _one_window_store(path) -> SketchStore:
    store = SketchStore(str(path))
    store.append(0.0, 1.0, [{"name": "reqs", "labels": {}, "kind": "counter", "value": 5.0}])
    return store


class TestCompactor:
    def test_compactor_is_accepted_and_its_store_sealed(self, tmp_path):
        store = _one_window_store(tmp_path / "db")
        compactor = Compactor(store, ttl=60.0, registry=MetricsRegistry())
        install_shutdown_hook(compactor)
        assert _registered == [("compactor", compactor)]
        _flush_all()
        assert len(store.segments()) == 1  # the active segment was sealed

    def test_compactors_stop_after_recorders_and_before_stores(self):
        order = []

        class FakeRecorder:
            store = None

            def tick(self):
                pass

            def stop(self):
                order.append("recorder")

        class FakeCompactor:
            store = None

            def run_once(self):
                pass

            def stop(self):
                order.append("compactor")

        class FakeStore:
            def close(self):
                order.append("store")

        install_shutdown_hook(FakeStore(), FakeCompactor(), FakeRecorder())
        _flush_all()
        assert order == ["recorder", "compactor", "store"]

    def test_flush_waits_for_a_pass_in_progress(self, tmp_path):
        store = _one_window_store(tmp_path / "db")
        compactor = Compactor(store, ttl=60.0, registry=MetricsRegistry())
        entered = threading.Event()
        finished = []

        def slow_pass():
            entered.set()
            time.sleep(0.2)
            finished.append(True)

        compactor.run_once = slow_pass
        compactor.start(interval=0.01)
        assert entered.wait(timeout=5.0)
        install_shutdown_hook(compactor)
        _flush_all()
        assert finished == [True]
        assert not compactor.running
        assert len(store.segments()) == 1


SUBPROCESS_SCRIPT = """
import json, sys
from repro.obs import (
    AlertEngine, ThresholdRule, TimelineRecorder, install_shutdown_hook,
)
from repro.obs.registry import MetricsRegistry, set_registry
from repro.store import SketchStore

hooked = sys.argv[1] == "hooked"
store_path = sys.argv[2]

registry = MetricsRegistry()
set_registry(registry)
counter = registry.counter("work_total", "t")

# Long interval: the daemon thread never ticks on its own, so whatever
# lands in the store can only come from the hook's stop() flush.
recorder = TimelineRecorder(registry=registry, interval=60.0).start()
recorder.attach_store(SketchStore(store_path), replay=False)
engine = AlertEngine(
    recorder, rules=[ThresholdRule("hot", "work_total", threshold=1e9)]
).start(interval=60.0)

counter.inc(42)  # lives only in the open window

if hooked:
    install_shutdown_hook(engine, recorder)
# clean interpreter exit: daemon threads are killed without flushing
"""

READBACK_SCRIPT = """
import json, sys
from repro.store import SketchStore

store = SketchStore(sys.argv[1])
total = 0.0
windows = 0
for record in store.iter_windows():
    windows += 1
    for entry in record["series"]:
        if entry["name"] == "work_total":
            total += entry["value"]
print(json.dumps({"windows": windows, "total": total}))
"""


class TestSubprocessExit:
    def _run(self, tmp_path: Path, mode: str) -> dict:
        store_dir = tmp_path / mode
        env_script = str(Path(__file__).resolve().parents[2] / "src")
        subprocess.run(
            [sys.executable, "-c", SUBPROCESS_SCRIPT, mode, str(store_dir)],
            check=True,
            env={"PYTHONPATH": env_script, "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        out = subprocess.run(
            [sys.executable, "-c", READBACK_SCRIPT, str(store_dir)],
            check=True,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": env_script, "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        return json.loads(out.stdout)

    def test_without_hook_the_open_window_is_lost(self, tmp_path):
        result = self._run(tmp_path, "bare")
        assert result["windows"] == 0  # regression baseline: data lost

    def test_hook_flushes_open_window_and_seals_segment(self, tmp_path):
        result = self._run(tmp_path, "hooked")
        assert result["windows"] >= 1
        assert result["total"] == 42.0
