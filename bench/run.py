"""boundary-lab benchmark: one workload, measured end to end or traced per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload glued-topology --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats fresh passes over the workload's op list for about
``--seconds`` seconds, uninstrumented, and reports the end-to-end metrics.
``--trace 1`` makes an uninstrumented warm-up pass and reference pass, then
one pass with every layer wrapped in spans, and reports the per-layer
metrics.  Answers are checked in both modes.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}; the
line before it records the seed, versions, load, raw timings and sample
counts.

Times are CPU seconds at a reference machine speed.  The workloads are
single-threaded, CPU-bound and do no blocking I/O, so an op's cost is the CPU
time it takes (``cpu_clock``: this process's threads plus any child process
it reaps).  On a shared two-vCPU VM (Python 3.11, numpy 2.4) the hypervisor's
steal took up to a fifth of the wall clock, in bursts: a tenth of the
repetitions of one 60 ms product moved its wall time more than 25% from its
median, and its CPU time more than 13%.  The CPU's own speed drifts too,
so during each untraced pass a timer interrupts the program every 0.1 s to
time a fixed pure-Python probe loop, and every measured interval is
converted to reference seconds from the probes around it (see Speedometer).
The probe calls nothing in the program.  Raw CPU and wall times are in the
record line.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import inspect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path.cwd()
SRC = ROOT / "src"
IMPORT_SAMPLES = 7
BUILD_SAMPLES = 3  # set-ups before the first pass; every pass adds one more
MIN_OPS = 100  # untraced passes continue at least until this many ops ran

PROBE_LOOPS = 6_000
PROBE_REF_S = 0.0025  # probe time at the reference speed; fixes the time unit
PROBE_EVERY_S = 0.1
PROBE_SMOOTH = 5  # rolling median width, drops single outlying probes


def cpu_clock() -> float:
    """CPU seconds used so far by this process (all threads) and by the child
    processes it has reaped, so work moved to threads or workers still counts."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def probe() -> float:
    """CPU seconds a fixed loop of dict and float work takes right now."""
    table: dict = {}
    acc = 0.0
    t0 = cpu_clock()
    for i in range(PROBE_LOOPS):
        k = i & 1023
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] % 3.0
    return cpu_clock() - t0


class Speedometer:
    """Probes the machine's speed every PROBE_EVERY_S (wall time) from a
    SIGALRM handler, so it is known inside long calls too, and converts raw
    CPU-time intervals to reference seconds.  Handler time is left out of
    every interval; each slice between two probes is weighted by
    PROBE_REF_S over the mean of their (rolling-median) probe times."""

    def __init__(self, sample: bool = True):
        self.sample = sample  # False: probe only on entry and exit
        self.starts: list[float] = []  # handler start and end times
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _handler(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick that arrives while probing is dropped
            return
        self._busy = True
        self.starts.append(cpu_clock())
        self.durations.append(probe())
        self.ends.append(cpu_clock())
        self._busy = False

    def __enter__(self):
        self._handler()
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._handler()
        half, d = PROBE_SMOOTH // 2, self.durations
        self.smoothed = [
            statistics.median(d[max(0, k - half):k + half + 1]) for k in range(len(d))
        ]

    def measure(self, a: float, b: float) -> tuple[float, float]:
        """(raw, reference) CPU seconds of [a, b] (``cpu_clock`` readings),
        handler time left out."""
        raw = scaled = 0.0
        last = len(self.ends) - 1
        k = max(0, bisect.bisect_left(self.ends, a) - 1)  # last probe before a
        cursor = a
        while True:
            nxt = min(k + 1, last)
            stop = min(b, self.starts[k + 1]) if k < last else b
            if stop > cursor:
                speed = (self.smoothed[k] + self.smoothed[nxt]) / 2
                raw += stop - cursor
                scaled += (stop - cursor) * PROBE_REF_S / speed
            if stop >= b:
                return raw, scaled
            cursor, k = self.ends[k + 1], k + 1


def import_seconds(modules: tuple[str, ...]) -> tuple[float, float]:
    """(scaled, raw) median CPU time to import the workload's modules in a
    fresh interpreter.  numpy is imported before the clock starts, so the
    figure is the package's own import work.  The child probes its own speed around the
    import with a copy of ``probe`` (importing this module there would load
    stdlib modules the package imports, and hide their cost)."""
    code = "\n".join([
        "import numpy",
        "from time import process_time as cpu_clock",
        f"PROBE_LOOPS = {PROBE_LOOPS}",
        inspect.getsource(probe),
        "before = [probe() for _ in range(3)]",
        "t = cpu_clock()",
        *(f"import {m}" for m in modules),
        "t = cpu_clock() - t",
        "after = [probe() for _ in range(3)]",
        "print(t, sorted(before + after)[3])",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=60, check=True,
        )
        t, speed = (float(x) for x in out.stdout.split())
        raw.append(t)
        scaled.append(t * PROBE_REF_S / speed)
    return statistics.median(scaled), statistics.median(raw)


class Pass:
    """Timings, outputs and failures of one pass over the op list."""

    def __init__(self):
        self.build = 0.0
        self.latencies: list[float] = []  # scaled CPU seconds
        self.raw: list[float] = []  # raw CPU seconds
        self.raw_wall = 0.0  # wall seconds of the ops, for cpu_share
        self.outputs: list = []  # canonical output text per op, None if failed
        self.failures: list[str] = []
        self.probe_median = 0.0

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(workload, ops, tracer=None) -> Pass:
    """Build fresh spaces and make every call, then check the answers with
    tracing off.  A traced pass is not interrupted by the speed probe."""
    record = Pass()
    results, spans = [], []
    with Speedometer(sample=tracer is None) as speed:
        if tracer is not None:
            tracer.install()
        try:
            t0 = cpu_clock()
            state = workload.build()
            build_span = (t0, cpu_clock())
            for op in ops:
                w0, t0 = perf_counter(), cpu_clock()
                try:
                    res = (True, op.run(state))
                except Exception as err:  # a raising op is a failed op, not a crash
                    res = (False, f"{type(err).__name__}: {err}")
                spans.append((t0, cpu_clock()))
                record.raw_wall += perf_counter() - w0
                results.append(res)
        finally:
            if tracer is not None:
                tracer.uninstall()
    record.build = speed.measure(*build_span)[1]
    for a, b in spans:
        raw, scaled = speed.measure(a, b)
        record.raw.append(raw)
        record.latencies.append(scaled)
    record.probe_median = statistics.median(speed.durations)
    for op, (ok, res) in zip(ops, results):
        if ok:
            try:
                record.outputs.append(op.check(res))
                continue
            except Exception as err:
                res = f"{type(err).__name__}: {err}"
        record.outputs.append(None)
        record.failures.append(f"{op.kind}: {res}")
    return record


def compare_outputs(first: Pass, later: Pass) -> None:
    """An op whose exact output differs from the first pass failed."""
    for k, (a, b) in enumerate(zip(first.outputs, later.outputs)):
        if a is not None and b is not None and a != b:
            later.outputs[k] = None
            later.failures.append(f"op {k}: output differs from the first pass")


def digest(p: Pass) -> str:
    h = hashlib.sha256()
    for text in p.outputs:
        h.update(b"\0" if text is None else text.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "boundary_lab" / "__init__.py").is_file():
        print(f"error: no boundary_lab sources under {SRC}; run from the root "
              "of a boundary-lab checkout", file=sys.stderr)
        return 2
    # the mesh oracle would otherwise read and write a grid cache there
    os.environ.pop("BOUNDARY_LAB_CACHE", None)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    import numpy

    load_start = os.getloadavg()
    import_s, import_raw = import_seconds(workload.modules)
    ops = workload.ops(args.seed)
    builds = []
    with Speedometer() as speed:
        for _ in range(BUILD_SAMPLES):
            t0 = cpu_clock()
            workload.build()
            builds.append((t0, cpu_clock()))
    build_times = [speed.measure(a, b)[1] for a, b in builds]

    passes: list[Pass] = []
    tracer = None
    if args.trace:
        from spans import Tracer

        # a warm-up pass first: the first pass of a process also pays for
        # lazy imports and warming caches, which the traced pass would not
        passes.append(run_pass(workload, ops))
        passes.append(run_pass(workload, ops))
        tracer = Tracer()
        passes.append(run_pass(workload, ops, tracer))
    else:
        start = perf_counter()
        while True:
            t0 = perf_counter()
            passes.append(run_pass(workload, ops))
            # stop before a pass that would end past the measuring window,
            # once at least MIN_OPS latencies are in
            if (len(passes) * len(ops) >= MIN_OPS
                    and perf_counter() - start + (perf_counter() - t0) > args.seconds):
                break
    for later in passes[1:]:
        compare_outputs(passes[0], later)
    build_times += [p.build for p in passes]
    load_end = os.getloadavg()

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    latencies = [x for p in passes for x in p.latencies]
    raw_latencies = [x for p in passes for x in p.raw]
    walls = [p.wall for p in passes]
    tail = p90(latencies)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracer.metrics().items()
        }
        # raw CPU seconds: the traced pass is not probed, so it is not scaled
        # like the reference pass
        overhead = sum(passes[2].raw) - sum(passes[1].raw)
        metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / sum(walls), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * tail, "unit": "ms"},
            "setup_s": {
                "value": import_s + statistics.median(build_times), "unit": "s",
            },
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(x > tail for x in latencies),
        "fail_ratio": failed / attempted,
        "digest": digest(passes[0]),
        "probe_median_s": [p.probe_median for p in passes],
        "pass_wall_s": walls,
        "raw_pass_cpu_s": [sum(p.raw) for p in passes],
        "raw_pass_wall_s": [p.raw_wall for p in passes],
        # CPU time over wall time of the ops: below 1 by the hypervisor's
        # steal; far below it if work left the process unreaped or waited
        "cpu_share": sum(sum(p.raw) for p in passes) / sum(p.raw_wall for p in passes),
        "raw_op_p50_ms": 1e3 * statistics.median(raw_latencies),
        "raw_op_p90_ms": 1e3 * p90(raw_latencies),
        "import_s": import_s,
        "raw_import_s": import_raw,
        "build_s": statistics.median(build_times),
        "failures": [f for p in passes for f in p.failures][:10],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
