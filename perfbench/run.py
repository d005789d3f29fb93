#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

``--trace 0`` runs untraced: set-up is repeated :data:`SETUP_REPEATS`
times (``setup_s`` is the median), then the workload runs in a closed
loop for ``--seconds`` seconds, and for longer if the run does not yet
hold the samples its percentiles need.  Every answer is checked.
The end-to-end table is printed, then one JSON line with every gated
metric.

``--trace 1`` runs a fixed number of steps twice from a fresh set-up:
once untraced, once with spans around the program's entry points
(``perfbench/probes.py``).  It prints the per-layer split and the
tracing overhead, writes the spans to ``perfbench/out/``, and ends with
one JSON line of per-layer metrics.  ``--seconds`` does not apply.

The exit code is 0 when the run completed (the JSON line says whether
every answer was correct), 2 when the program source is missing, 1 on
any other error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import struct
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SHM = Path("/dev/shm")

#: set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 7

#: failure messages printed to stderr per run.
MAX_REPORTED_FAILURES = 20

#: :func:`reference_slice` on the machine the first numbers were recorded
#: on (2 vCPUs, Python 3.11, while it ran at its faster speed).
REFERENCE_S = 0.75e-3

#: gated metrics, reported by every workload: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("disk_bytes_per_series_window", "B"),
    ("rss_peak_mb", "MB"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "history", "live", "flows"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def load_program() -> bool:
    """Put the checkout's ``src`` first on the path; False when it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    # The program runs in its default state: instrumentation and
    # tracing switches stay off.
    for var in ("REPRO_OBS", "REPRO_TRACE"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    return Path(repro.__file__).resolve().is_relative_to(src.resolve())


def shm_segments() -> set[str]:
    """Shared-memory segments of ``multiprocessing.shared_memory`` (Linux)."""
    if not SHM.is_dir():
        return set()
    return {entry.name for entry in SHM.iterdir() if entry.name.startswith("psm_")}


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The program joins its own pool workers, but ``multiprocessing``
    keeps two helpers alive until the interpreter exits: the resource
    tracker (started by the first shared-memory segment) and, under the
    ``forkserver`` start method, the fork server.  Both are stopped here
    so that none of them outlives the run.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    for helper in (resource_tracker._resource_tracker, forkserver._forkserver):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


class Run:
    """Book-keeping across the workload instances one run creates."""

    def __init__(self, cls, seed: int, out: Path = OUT) -> None:
        self.out = out
        self.tmp_root = out / "tmp"
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        self.cls = cls
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self._dirs: list[str] = []
        self._open: list = []
        self._shm_before = shm_segments()

    def new(self):
        wl = self.cls(self.seed, str(self.tmp_root))
        self._dirs.append(wl.tmp)
        self._open.append(wl)
        return wl

    def retire(self, wl) -> None:
        self._open.remove(wl)
        wl.close()
        self.attempted += wl.attempted
        self.failures.extend(wl.failures)

    def abort(self) -> None:
        """Close whatever an error left open (threads, store files)."""
        while self._open:
            self._open.pop().close()

    def check_leaks(self) -> None:
        self.attempted += 1
        left = [d for d in self._dirs if os.path.exists(d)]
        if left:
            self.failures.append(f"temporary directories left behind: {left}")
        leaked = shm_segments() - self._shm_before
        if leaked:
            self.failures.append(f"/dev/shm segments left behind: {sorted(leaked)}")

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        failed = min(len(self.failures), self.attempted)
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


_REFERENCE_VALUES = tuple(float(i * 7919 % 2003) for i in range(2000))
#: 512 KiB, written and read at a 256-byte stride: the slice misses the
#: first-level caches the way the program's record and partial reads do.
_REFERENCE_BUFFER = bytearray(1 << 19)
_REFERENCE_STRIDE = 256
_REFERENCE_TABLE = {i: i * 3 for i in range(256)}


def reference_slice() -> float:
    """Seconds the fastest of three runs of a fixed Python loop takes now.

    The machine's speed changes by up to 2x for seconds to minutes at a
    time (other tenants share its cores).  A timed run takes a slice
    between steps and scales each step's timings by ``REFERENCE_S``
    over the mean of the slices on either side of it, so a step run
    while the machine is slow reports what it takes at the reference
    speed.  The loop does the program's kind of work — packs and
    unpacks floats across a buffer larger than the first-level caches,
    looks up a dict, sorts — on prebuilt data, and allocates little, so
    the program's heap does not change its time.
    """
    best = float("inf")
    values, buf, table = _REFERENCE_VALUES, _REFERENCE_BUFFER, _REFERENCE_TABLE
    stride = _REFERENCE_STRIDE
    pack_into, unpack_from = struct.pack_into, struct.unpack_from
    for _ in range(3):
        t0 = time.perf_counter()
        for i, x in enumerate(values):
            pack_into("<d", buf, i * stride, x)
        acc = 0.0
        for offset in range(0, len(values) * stride, stride):
            acc += unpack_from("<d", buf, offset)[0] + table[offset >> 8 & 255]
        sorted(values)
        best = min(best, time.perf_counter() - t0)
    return best


def timed_run(run: Run, seconds: float) -> dict:
    from perfbench import stats

    setup_s, setup_scaled = [], []
    for repeat in range(SETUP_REPEATS):
        wl = run.new()
        gc.collect()
        before = reference_slice()
        t0 = time.perf_counter()
        wl.setup()
        elapsed = time.perf_counter() - t0
        setup_s.append(elapsed)
        setup_scaled.append(elapsed * 2 * REFERENCE_S / (before + reference_slice()))
        if repeat < SETUP_REPEATS - 1:
            run.retire(wl)
    gc.collect()
    op_scaled: list[float] = []
    work_scaled = 0.0
    previous = reference_slice()
    t0 = time.perf_counter()
    steps = 0
    while True:
        n_ops, work_s = len(wl.op_s), wl.work_s
        wl.step()
        current = reference_slice()
        scale = 2 * REFERENCE_S / (previous + current)
        previous = current
        op_scaled.extend(op * scale for op in wl.op_s[n_ops:])
        work_scaled += (wl.work_s - work_s) * scale
        steps += 1
        if time.perf_counter() - t0 >= seconds and wl.satisfied():
            break
    run_s = time.perf_counter() - t0
    wl.finish()
    raw = wl.end_to_end()
    raw["setup_s"] = stats.median(setup_s)
    raw["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_ms = [op * 1e3 for op in op_scaled]
    gated = {
        **raw,
        "setup_s": stats.median(setup_scaled),
        "ops_per_s": wl.work / work_scaled,
        "op_ms_p50": stats.median(op_ms),
        "op_ms_p90": stats.percentile(op_ms, 0.9),
    }
    details = wl.metrics()
    run.retire(wl)
    run.check_leaks()
    print_timed(wl.name, run, steps, run_s, setup_s, raw, gated, details)
    return run.result({name: (gated[name], unit) for name, unit in END_TO_END})


def traced_run(run: Run) -> dict:
    from perfbench.probes import PER_LAYER, Probes, per_layer_metrics
    from perfbench.spans import SpanRecorder

    wl = run.new()
    wl.setup()
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(wl.trace_steps):
        wl.step()
    untraced_s = time.perf_counter() - t0
    wl.finish()
    run.retire(wl)

    recorder = SpanRecorder()
    probes = Probes(recorder)
    wl = run.new()
    wl.setup()
    wl.recorder, wl.probes = recorder, probes
    gc.collect()
    with probes:
        t0_ns = time.perf_counter_ns()
        for _ in range(wl.trace_steps):
            wl.step()
        t1_ns = time.perf_counter_ns()
    wl.recorder = wl.probes = None
    wl.finish()
    run.retire(wl)
    run.check_leaks()
    if probes.missing:
        print(f"perfbench: entry points not found, not traced: {probes.missing}",
              file=sys.stderr)
    metrics = per_layer_metrics(recorder, probes.counts, wl.name, t0_ns, t1_ns, untraced_s)
    path = run.out / f"spans-{wl.name}-{run.seed}.npz"
    recorder.save(str(path))
    print_traced(wl, metrics, path)
    units = dict(PER_LAYER)
    return run.result({name: (value, units[name]) for name, value in metrics.items()})


#: how each workload's gated ops/op metrics read under the names its
#: own table uses.
ALIASES = {
    "ingest": {"ops_per_s": "obs_per_s", "op_ms_p50": "window_close_ms_p50",
               "op_ms_p90": "window_close_ms_p90"},
    "history": {"ops_per_s": "queries_per_s", "op_ms_p50": "query_ms_p50",
                "op_ms_p90": "query_ms_p90"},
    "live": {"ops_per_s": "obs_per_s", "op_ms_p50": "alert_pass_ms_p50",
             "op_ms_p90": "alert_pass_ms_p90"},
    "flows": {"ops_per_s": "records_per_s", "op_ms_p50": "window_ms_p50",
              "op_ms_p90": "window_ms_p90"},
}


def print_timed(name, run, steps, run_s, setup_s, raw, gated, details) -> None:
    print(f"== {name}  seed={run.seed}  measured {run_s:.1f} s, {steps} steps, "
          f"setup x{len(setup_s)}: " + ", ".join(f"{s:.3f}" for s in setup_s) + " s (raw)")
    print(f"  {'gated metric':32s} {'scaled':>14s} {'raw':>14s}  unit   reads as")
    for metric, unit in END_TO_END:
        alias = ALIASES[name].get(metric, "")
        print(f"  {metric:32s} {gated[metric]:14.4f} {raw[metric]:14.4f}  {unit:5s}  {alias}")
    print(f"  {'workload metric (raw)':32s} {'value':>14s}")
    for metric, value in details.items():
        print(f"  {metric:32s} {value:14.4f}")
    frac = min(len(run.failures), run.attempted) / run.attempted
    print(f"  {'failed_ops_frac':32s} {frac:14.4f}  ({len(run.failures)} failed checks, "
          f"{run.attempted} ops)")


def print_traced(wl, metrics, path) -> None:
    from perfbench.probes import OP_SPAN, PER_LAYER
    from perfbench.spans import LAYERS

    wall = metrics["trace.wall_ms"]
    print(f"== {wl.name} traced: {wl.trace_steps} steps, wall {wall:.0f} ms "
          f"(untraced {metrics['trace.untraced_wall_ms']:.0f} ms, tracing overhead "
          f"{metrics['trace.overhead_ms']:+.0f} ms = {metrics['trace.overhead_frac']:+.1%}), "
          f"{metrics['trace.spans']:.0f} spans -> {path}")
    print(f"  {'layer':34s} {'self ms':>10s} {'share':>7s}")
    for key, module in LAYERS.items():
        ms = metrics[f"layer.{key}.self_ms"]
        print(f"  {module:34s} {ms:10.1f} {ms / wall:7.1%}")
    other = 1.0 - metrics["trace.layer_share"] - metrics["trace.bench_share"]
    print(f"  {'(unattributed: loop glue, gc)':34s} {other * wall:10.1f} {other:7.1%}")
    ops = metrics["op.calls"]
    print(f"  where one {OP_SPAN[wl.name]} goes ({ops:.0f} calls), ms per call:")
    for key, module in LAYERS.items():
        if key != "bench" and metrics[f"op.{key}.ms"]:
            print(f"    {module:32s} {metrics[f'op.{key}.ms']:10.3f}")
    print("  per-layer metrics:")
    for name, unit in PER_LAYER:
        if not name.startswith(("layer.", "op.", "trace.")):
            print(f"    {name:42s} {metrics[name]:14.3f} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_program():
        print("perfbench: src/repro not found in this checkout", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    run = Run(WORKLOADS[args.workload], args.seed)
    # Termination closes the server and deletes the store like any exit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = traced_run(run) if args.trace else timed_run(run, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        run.abort()
        stop_children()
    for message in run.failures[:MAX_REPORTED_FAILURES]:
        print(f"perfbench: FAILED: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
