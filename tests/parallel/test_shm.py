"""Shared-memory shard fabric: protocol, parity, lifecycle, crashes."""

import glob
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
from repro.cardinality import (
    FlajoletMartin,
    HyperLogLog,
    HyperLogLogPlusPlus,
    LogLog,
)
from repro.core import supports_shared_state
from repro.frequency import CountMinSketch, CountSketch
from repro.membership import BloomFilter, CountingBloomFilter
from repro.moments import AMSSketch
from repro.obs import ShardSpan
from repro.parallel import (
    ShardedBuilder,
    SketchSpec,
    parallel_build,
    partition_items,
    shm_available,
)
from repro.parallel import shm as shm_mod
from repro.parallel import sharded as sharded_mod
from repro.quantiles import KLLSketch

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

#: (family name, picklable spec, state-array accessor) — every family
#: that implements the SharedStateSketch protocol.
SHM_FAMILIES = [
    ("hll", SketchSpec(HyperLogLog, p=11, seed=7), lambda s: s._registers),
    ("loglog", SketchSpec(LogLog, p=10, seed=7), lambda s: s._registers),
    ("fm", SketchSpec(FlajoletMartin, m=64, seed=7), lambda s: s._bitmaps),
    ("countmin", SketchSpec(CountMinSketch, width=512, depth=4, seed=7), lambda s: s._table),
    ("countsketch", SketchSpec(CountSketch, width=512, depth=5, seed=7), lambda s: s._table),
    ("bloom", SketchSpec(BloomFilter, m=1 << 14, k=4, seed=7), lambda s: s._bits),
    ("cbloom", SketchSpec(CountingBloomFilter, m=1 << 13, k=4, seed=7), lambda s: s._counts),
    ("ams", SketchSpec(AMSSketch, buckets=32, groups=5, seed=7), lambda s: s._z),
]

ITEMS = np.arange(70_000, dtype=np.uint64) * np.uint64(2654435761)


@pytest.fixture
def fresh_fallback_warnings():
    saved = set(sharded_mod._FALLBACK_WARNED)
    sharded_mod._FALLBACK_WARNED.clear()
    yield
    sharded_mod._FALLBACK_WARNED.clear()
    sharded_mod._FALLBACK_WARNED.update(saved)


def segment_names_on_disk() -> set:
    """Live POSIX shm segment names (Linux tmpfs view)."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("/dev/shm not visible on this platform")
    return {os.path.basename(p) for p in glob.glob("/dev/shm/psm_*")}


class TestSharedStateProtocol:
    @pytest.mark.parametrize("name,spec,_", SHM_FAMILIES, ids=lambda v: "")
    def test_families_opt_in(self, name, spec, _):
        assert supports_shared_state(spec())

    def test_hllpp_opts_out_of_inherited_hooks(self):
        # Sparse mode has data-dependent state; the subclass must not
        # silently inherit HLL's fixed-shape protocol.
        assert not supports_shared_state(HyperLogLogPlusPlus(p=11, seed=7))

    def test_non_array_families_do_not_qualify(self):
        assert not supports_shared_state(KLLSketch(k=200, seed=7))

    @pytest.mark.parametrize("name,spec,state", SHM_FAMILIES, ids=lambda v: "")
    def test_attach_round_trip_over_plain_buffer(self, name, spec, state):
        # The protocol alone (no processes): init a buffer from a fresh
        # sketch, attach, ingest, flush — state matches a normal build.
        layout = shm_mod.StateLayout.from_sketch(spec())
        buf = bytearray(layout.nbytes)
        views = layout.views(buf)
        sketch = spec()
        for arr_name, arr in sketch._state_arrays().items():
            np.copyto(views[arr_name], arr, casting="same_kind")
        sketch._attach_state(views)
        sketch.update_many(ITEMS[:5000])
        shm_mod._flush_state(sketch, views)

        reference = spec()
        reference.update_many(ITEMS[:5000])
        adopted = spec()
        adopted._attach_state(layout.views(buf))
        np.testing.assert_array_equal(state(adopted), state(reference))

    def test_layout_offsets_are_aligned_and_disjoint(self):
        layout = shm_mod.StateLayout.from_sketch(CountMinSketch(width=100, depth=3))
        end = 0
        for spec in layout.arrays:
            assert spec.offset % 64 == 0
            assert spec.offset >= end
            end = spec.offset + spec.nbytes
        assert layout.nbytes >= end


class TestShmBackendParity:
    @pytest.mark.parametrize("name,spec,state", SHM_FAMILIES, ids=lambda v: v if isinstance(v, str) else "")
    def test_bitwise_identical_to_serial(self, name, spec, state):
        shards = partition_items(ITEMS, 4)
        merged, report = parallel_build(
            spec, shards, workers=2, backend="shm", return_report=True
        )
        assert report.backend == "shm"
        assert report.fallback_reason is None
        reference = parallel_build(spec, shards, backend="serial")
        np.testing.assert_array_equal(state(merged), state(reference))

    def test_spans_mark_shm_transport(self):
        _, report = parallel_build(
            SketchSpec(HyperLogLog, p=11, seed=7),
            partition_items(ITEMS, 4),
            workers=2,
            backend="shm",
            return_report=True,
        )
        assert [s.shard_id for s in report.spans] == [0, 1, 2, 3]
        for span in report.spans:
            assert span.backend == "shm"
            assert span.serde_seconds == 0.0  # nothing crossed the wire
            assert span.n_bytes == 0
            assert span.shm_bytes > 0
        assert report.total_shm_bytes >= 4 * (1 << 11)
        assert report.total_bytes == 0

    def test_counter_totals_survive_the_scalar_flush(self):
        # n lives in a 1-element array on the wire; the end-of-build
        # flush must carry it back out of the worker.
        spec = SketchSpec(CountMinSketch, width=512, depth=4, seed=7)
        merged = parallel_build(spec, partition_items(ITEMS, 4), workers=2, backend="shm")
        assert merged.n == len(ITEMS)

    def test_list_shards_ship_pickled(self):
        # Non-array shards can't ride the input segment; the build must
        # still work (and stay exact) with plain pickled lists.
        spec = SketchSpec(HyperLogLog, p=11, seed=7)
        shards = [list(s) for s in partition_items([f"u{i}" for i in range(3000)], 3)]
        merged = parallel_build(spec, shards, workers=2, backend="shm")
        reference = parallel_build(spec, shards, backend="serial")
        np.testing.assert_array_equal(merged._registers, reference._registers)

    def test_sharded_builder_accepts_shm_backend(self):
        builder = ShardedBuilder(SketchSpec(HyperLogLog, p=11, seed=7), backend="shm")
        builder.extend(ITEMS, shards=4)
        merged = builder.build(workers=2)
        assert builder.last_report.backend == "shm"
        reference = HyperLogLog(p=11, seed=7)
        reference.update_many(ITEMS)
        np.testing.assert_array_equal(merged._registers, reference._registers)

    def test_merged_sketch_owns_private_state(self):
        # The reduce result must not alias the (now unlinked) segments.
        merged = parallel_build(
            SketchSpec(HyperLogLog, p=11, seed=7),
            partition_items(ITEMS, 4),
            workers=2,
            backend="shm",
        )
        merged.update_many(np.arange(1000, dtype=np.uint64))  # must not crash
        assert merged._registers.flags.owndata or merged._registers.base is None


class TestBackendResolution:
    def test_auto_upgrades_to_shm_for_supporting_family(self):
        spec = SketchSpec(HyperLogLog, p=11, seed=7)
        big = sharded_mod.SMALL_INPUT_THRESHOLD + 1
        assert sharded_mod._resolve_backend("auto", 4, big, spec) == ("shm", None)

    def test_explicit_shm_degrades_to_process_without_support(
        self, fresh_fallback_warnings
    ):
        spec = SketchSpec(KLLSketch, k=200, seed=7)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            merged, report = parallel_build(
                spec,
                [np.random.default_rng(0).random(40_000) for _ in range(2)],
                workers=2,
                backend="shm",
                return_report=True,
            )
        assert report.backend == "process"
        assert report.fallback_reason == "no_shm_support"
        shm_warnings = [
            w for w in caught if "no_shm_support" in str(w.message)
        ]
        assert len(shm_warnings) == 1
        assert merged.quantile(0.5) == pytest.approx(0.5, abs=0.05)

    def test_explicit_shm_with_optout_subclass_degrades(
        self, fresh_fallback_warnings
    ):
        spec = SketchSpec(HyperLogLogPlusPlus, p=11, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, report = parallel_build(
                spec,
                partition_items(ITEMS, 2),
                workers=2,
                backend="shm",
                return_report=True,
            )
        assert report.backend == "process"
        assert report.fallback_reason == "no_shm_support"

    def test_unpicklable_factory_degrades_to_thread(self, fresh_fallback_warnings):
        factory = lambda: HyperLogLog(p=11, seed=7)  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resolved, reason = sharded_mod._resolve_backend("shm", 4, 10**6, factory)
        assert (resolved, reason) == ("thread", "unpicklable_factory")


class TestMaterializedTotals:
    def test_generator_shards_resolve_by_true_size(self):
        # Satellite regression: unsized iterables used to be *assumed*
        # large; now they are materialized once and measured.  A tiny
        # generator input must resolve like a tiny list (thread), not
        # like a big one (process/shm).
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

    def test_generator_shards_work_on_shm_path(self):
        spec = SketchSpec(HyperLogLog, p=11, seed=7)
        shards = [iter(ITEMS[i::3].tolist()) for i in range(3)]
        merged = parallel_build(spec, shards, workers=2, backend="shm")
        reference = HyperLogLog(p=11, seed=7)
        reference.update_many(ITEMS)
        np.testing.assert_array_equal(merged._registers, reference._registers)


class KillWorkerSpec:
    """Factory that SIGKILLs any *worker* process that calls it.

    The parent constructs one sketch during backend resolution (the
    shared-state probe), so the kill only fires off the parent pid.
    Module-level and attribute-only, hence picklable.
    """

    def __init__(self) -> None:
        self.parent_pid = os.getpid()

    def __call__(self):
        if os.getpid() != self.parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return HyperLogLog(p=8, seed=1)


class TestLifecycle:
    def test_no_segments_left_after_build(self):
        before = segment_names_on_disk()
        parallel_build(
            SketchSpec(HyperLogLog, p=11, seed=7),
            partition_items(ITEMS, 4),
            workers=2,
            backend="shm",
        )
        assert segment_names_on_disk() <= before

    def test_worker_death_raises_and_unlinks_segments(self):
        before = segment_names_on_disk()
        with pytest.raises(BrokenProcessPool):
            parallel_build(
                KillWorkerSpec(),
                partition_items(ITEMS, 4),
                workers=2,
                backend="shm",
            )
        assert segment_names_on_disk() <= before

    def test_fabric_close_is_idempotent(self):
        fabric = shm_mod.ShardFabric(HyperLogLog(p=8, seed=1), 2)
        names = list(fabric.segment_names)
        fabric.close()
        fabric.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shm_mod.attach_segment(name)

    def test_fabric_context_manager_unlinks(self):
        with shm_mod.ShardFabric(HyperLogLog(p=8, seed=1), 1) as fabric:
            names = list(fabric.segment_names)
            assert fabric.shm_bytes >= 1 << 8
        with pytest.raises(FileNotFoundError):
            shm_mod.attach_segment(names[0])

    def test_pack_input_shards_round_trip(self):
        shards = [ITEMS[0::2], ITEMS[1::2], [1, 2, 3]]
        seg, shipped = shm_mod.pack_input_shards(shards)
        try:
            assert isinstance(shipped[0], shm_mod._ShmArrayRef)
            assert shipped[2] == [1, 2, 3]
            view, handle = shipped[1].resolve()
            np.testing.assert_array_equal(view, ITEMS[1::2])
            assert not view.flags.writeable
            del view
            handle.close()
        finally:
            seg.close()
            seg.unlink()

    def test_no_resource_tracker_noise_at_interpreter_exit(self):
        # A clean build must not leave the resource tracker complaining
        # about leaked segments (or KeyError-ing on double unregisters)
        # when the interpreter shuts down.
        code = (
            "import numpy as np\n"
            "from repro.parallel import parallel_build, partition_items, SketchSpec\n"
            "from repro.cardinality import HyperLogLog\n"
            "items = np.arange(80_000, dtype=np.uint64)\n"
            "merged = parallel_build(SketchSpec(HyperLogLog, p=11, seed=7),\n"
            "                        partition_items(items, 4), workers=2,\n"
            "                        backend='shm')\n"
            "print(int(merged.estimate()))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "leaked" not in result.stderr
        assert "KeyError" not in result.stderr
        assert "Traceback" not in result.stderr


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


class TestWarmPool:
    SPEC = SketchSpec(HyperLogLog, p=11, seed=7)

    def build(self, backend="shm", workers=2):
        shards = partition_items(ITEMS, 4)
        merged, report = parallel_build(
            self.SPEC, shards, workers=workers, backend=backend, return_report=True
        )
        assert report.backend == backend
        reference = parallel_build(self.SPEC, shards, backend="serial")
        np.testing.assert_array_equal(merged._registers, reference._registers)
        return report

    def test_consecutive_builds_reuse_the_workers(self):
        reports = [self.build("shm"), self.build("shm"), self.build("process")]
        pids = set().union(*(r.worker_pids for r in reports))
        # One pool of two workers served all three builds; a pool per
        # build would have forked up to six.
        assert len(pids) <= 2
        assert pids <= pool_pids()
        assert os.getpid() not in pids

    def test_broken_pool_is_replaced(self):
        self.build("shm")
        old_pids = pool_pids()
        before = segment_names_on_disk()
        with pytest.raises(BrokenProcessPool):
            parallel_build(
                KillWorkerSpec(), partition_items(ITEMS, 4), workers=2, backend="shm"
            )
        report = self.build("shm")
        assert report.worker_pids.isdisjoint(old_pids)
        assert segment_names_on_disk() <= before

    def test_worker_exception_leaves_the_pool_usable(self):
        self.build("shm")
        old_pids = pool_pids()
        before = segment_names_on_disk()
        for backend in ("shm", "process"):
            with pytest.raises(ValueError, match="factory failed in worker"):
                parallel_build(
                    RaiseInWorkerSpec(),
                    partition_items(ITEMS, 4),
                    workers=2,
                    backend=backend,
                )
        report = self.build("shm")
        assert report.worker_pids <= old_pids
        assert segment_names_on_disk() <= before

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
            report = self.build("shm", workers=workers)
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
        self.build("shm")
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
                    report = self.build("shm")
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
        report = self.build("shm")
        assert sharded_mod._POOL is parent_pool
        assert report.worker_pids <= parent_pids

    @pytest.mark.parametrize("backends", [["shm"], ["process", "shm"]])
    def test_subprocess_exits_cleanly_after_a_build(self, backends):
        # ["process", "shm"]: the pool is forked by a build that makes
        # no segment, and its workers then attach the shm build's.
        before = segment_names_on_disk()
        code = (
            "import numpy as np\n"
            "from repro.parallel import parallel_build, partition_items, SketchSpec\n"
            "from repro.cardinality import HyperLogLog\n"
            "items = np.arange(80_000, dtype=np.uint64)\n"
            f"for backend in {backends!r}:\n"
            "    _, report = parallel_build(SketchSpec(HyperLogLog, p=11, seed=7),\n"
            "                               partition_items(items, 2), workers=2,\n"
            "                               backend=backend, return_report=True)\n"
            "    assert report.backend == backend\n"
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
        assert "resource_tracker" not in result.stderr
        assert segment_names_on_disk() <= before


class TestShardSpanWireCompat:
    def test_shm_bytes_round_trips(self):
        span = ShardSpan(
            shard_id=1,
            n_items=10,
            worker_pid=99,
            build_seconds=0.1,
            backend="shm",
            shm_bytes=4096,
        )
        assert ShardSpan.from_wire(span.to_wire()) == span

    def test_old_wire_blobs_default_shm_bytes(self):
        span = ShardSpan(shard_id=0, n_items=5, worker_pid=1, build_seconds=0.0)
        state = span.as_dict()
        state.pop("shm_bytes")
        import io

        from repro.core.serde import encode_value

        out = io.BytesIO()
        encode_value(state, out)
        decoded = ShardSpan.from_wire(out.getvalue())
        assert decoded.shm_bytes == 0
