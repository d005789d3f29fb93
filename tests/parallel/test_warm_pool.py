"""The warm process pool behind ``parallel_build(backend="process")``.

One ``ProcessPoolExecutor`` outlives each build.  These tests cover
what that buys and what it must not cost: reuse across builds, a new
pool after a worker crash or a change of worker count, a failed build
leaving nothing running, workers forked with obs off, a forked child
never submitting to its parent's pool, and a clean interpreter exit.
Generator shards are measured before backend resolution and reach the
pool's workers intact.
"""

import os
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.obs
from repro.cardinality import HyperLogLog
from repro.parallel import SketchSpec, parallel_build, partition_items
from repro.parallel import sharded as sharded_mod

ITEMS = np.arange(70_000, dtype=np.uint64) * np.uint64(2654435761)


class KillWorkerSpec:
    """Factory that SIGKILLs any *worker* process that calls it.

    Called in the test process it just builds a sketch, so a stray
    in-process call can never kill the test run.  Module-level and
    attribute-only, hence picklable.
    """

    def __init__(self) -> None:
        self.parent_pid = os.getpid()

    def __call__(self):
        if os.getpid() != self.parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return HyperLogLog(p=8, seed=1)


class RaiseInWorkerSpec:
    """Factory that raises in any worker process (picklable, like KillWorkerSpec)."""

    def __init__(self) -> None:
        self.parent_pid = os.getpid()

    def __call__(self):
        if os.getpid() != self.parent_pid:
            raise ValueError("factory failed in worker")
        return HyperLogLog(p=8, seed=1)


class MarkedSketch:
    """Sketch stand-in that leaves start/done marker files per shard.

    A shard whose first item is negative fails at once; every other
    shard takes ~0.3 s, long enough to still be running when the
    failure reaches the parent.
    """

    def __init__(self, marker_dir: str) -> None:
        self.marker_dir = marker_dir

    def update_many(self, items) -> None:
        if items[0] < 0:
            raise ValueError("shard failed")
        mark = os.path.join(self.marker_dir, str(items[0]))
        open(mark + ".started", "w").close()
        time.sleep(0.3)
        open(mark + ".done", "w").close()


def obs_switches() -> tuple:
    """(metrics on, tracing on) as seen by the process that runs this."""
    from repro.obs.registry import STATE
    from repro.obs.trace import TRACE

    return STATE.enabled, TRACE.enabled


def pool_pids() -> set:
    """Worker pids of this process's warm pool."""
    return set(sharded_mod._POOL._processes)


class TestMaterializedTotals:
    def test_generator_shards_resolve_by_true_size(self):
        # Unsized iterables are materialized once and measured, not
        # assumed large: a tiny generator input must resolve like a
        # tiny list (thread), not like a big one (process).
        spec = SketchSpec(HyperLogLog, p=11, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, report = parallel_build(
                spec,
                [iter(range(50)), iter(range(50))],
                workers=2,
                backend="auto",
                return_report=True,
            )
        assert report.backend == "thread"
        assert report.fallback_reason == "small_input"
        assert report.total_items == 100  # true, observed lengths

    def test_generator_shards_work_on_process_path(self):
        spec = SketchSpec(HyperLogLog, p=11, seed=7)
        shards = [iter(ITEMS[i::3].tolist()) for i in range(3)]
        merged = parallel_build(spec, shards, workers=2, backend="process")
        reference = HyperLogLog(p=11, seed=7)
        reference.update_many(ITEMS)
        np.testing.assert_array_equal(merged._registers, reference._registers)


class TestWarmPool:
    SPEC = SketchSpec(HyperLogLog, p=11, seed=7)

    def build(self, workers=2):
        shards = partition_items(ITEMS, 4)
        merged, report = parallel_build(
            self.SPEC, shards, workers=workers, backend="process", return_report=True
        )
        assert report.backend == "process"
        reference = parallel_build(self.SPEC, shards, backend="serial")
        np.testing.assert_array_equal(merged._registers, reference._registers)
        return report

    def test_consecutive_builds_reuse_the_workers(self):
        reports = [self.build(), self.build(), self.build()]
        pids = set().union(*(r.worker_pids for r in reports))
        # One pool of two workers served all three builds; a pool per
        # build would have forked up to six.
        assert len(pids) <= 2
        assert pids <= pool_pids()
        assert os.getpid() not in pids

    def test_broken_pool_is_replaced(self):
        self.build()
        old_pids = pool_pids()
        with pytest.raises(BrokenProcessPool):
            parallel_build(
                KillWorkerSpec(), partition_items(ITEMS, 4), workers=2, backend="process"
            )
        report = self.build()
        assert report.worker_pids.isdisjoint(old_pids)

    def test_worker_exception_leaves_the_pool_usable(self):
        self.build()
        old_pids = pool_pids()
        with pytest.raises(ValueError, match="factory failed in worker"):
            parallel_build(
                RaiseInWorkerSpec(),
                partition_items(ITEMS, 4),
                workers=2,
                backend="process",
            )
        report = self.build()
        assert report.worker_pids <= old_pids

    def test_failed_build_waits_out_its_running_shards(self, tmp_path):
        spec = SketchSpec(MarkedSketch, marker_dir=str(tmp_path))
        with pytest.raises(ValueError, match="shard failed"):
            parallel_build(
                spec, [[-1], [1], [2], [3]], workers=2, backend="process"
            )
        # Whatever the failed build started has finished by the time it
        # raised; nothing of it is left running in the shared pool.
        started = {p.stem for p in tmp_path.glob("*.started")}
        done = {p.stem for p in tmp_path.glob("*.done")}
        assert started == done

    def test_workers_start_with_obs_off(self):
        # Fork the pool's workers while metrics and tracing are on in
        # the parent: the initializer must switch both off in them.
        if sharded_mod._POOL is not None:
            sharded_mod._POOL.shutdown()
        with repro.obs.enable(), repro.obs.enable_tracing():
            futures = sharded_mod._submit(2, obs_switches, [()] * 4)
            switches = {future.result(timeout=60) for future in futures}
        assert switches == {(False, False)}

    def test_a_new_worker_count_replaces_the_pool(self):
        counts = (2, 3, 4, 2)
        pools, workers_of = [], []
        for workers in counts:
            report = self.build(workers=workers)
            assert len(report.worker_pids) <= workers
            pools.append(sharded_mod._POOL)
            workers_of.append(list(sharded_mod._POOL._processes.values()))
        assert len({id(pool) for pool in pools}) == len(counts)
        # Each change of worker count shut the old pool down: only the
        # last pool's processes are alive.
        assert all(pool._shutdown_thread for pool in pools[:-1])
        assert not any(p.is_alive() for procs in workers_of[:-1] for p in procs)
        assert all(p.is_alive() for p in workers_of[-1])

    def test_forked_child_builds_on_its_own_pool(self):
        self.build()
        parent_pool = sharded_mod._POOL
        parent_pids = pool_pids()
        read_fd, write_fd = os.pipe()
        # Fork while holding the pool lock, as a parent thread in the
        # middle of a build would: the child must not inherit it held.
        with sharded_mod._POOL_LOCK:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                code = 1
                try:
                    os.close(read_fd)
                    report = self.build()
                    own = sharded_mod._POOL
                    ok = (
                        own is not parent_pool
                        and report.worker_pids.isdisjoint(parent_pids)
                        and report.worker_pids <= set(own._processes)
                    )
                    own.shutdown()
                    os.write(write_fd, b"ok" if ok else b"shared")
                    code = 0
                finally:
                    os._exit(code)
        os.close(write_fd)
        deadline = time.monotonic() + 60
        while not os.waitpid(pid, os.WNOHANG)[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child's build did not finish in 60 s")
            time.sleep(0.02)
        with os.fdopen(read_fd, "rb") as pipe:
            assert pipe.read() == b"ok"
        # The parent's pool is untouched: same object, same workers.
        report = self.build()
        assert sharded_mod._POOL is parent_pool
        assert report.worker_pids <= parent_pids

    def test_subprocess_exits_cleanly_after_a_build(self):
        code = (
            "import numpy as np\n"
            "from repro.parallel import parallel_build, partition_items, SketchSpec\n"
            "from repro.cardinality import HyperLogLog\n"
            "items = np.arange(80_000, dtype=np.uint64)\n"
            "_, report = parallel_build(SketchSpec(HyperLogLog, p=11, seed=7),\n"
            "                           partition_items(items, 2), workers=2,\n"
            "                           backend='process', return_report=True)\n"
            "assert report.backend == 'process'\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={"PYTHONPATH": os.path.abspath(src), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
