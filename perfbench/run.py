"""Benchmark of multibayes: one workload per run, closed loop, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 10 --trace 0

The run builds its inputs from ``--seed`` (sizes in workloads.json) and
repeats set-up, reporting the median.  It then runs whole rounds of ops,
each op once, until the busy time is closest to ``--seconds`` and the
tail percentile has at least ``MIN_TAIL_SAMPLES`` timings beyond it.
Times are scaled to a reference machine speed (see ``SpeedProbe``); raw
times are printed alongside.  Every op's output is checked, and after
the loop the workload's correctness gate.  The run prints one metric per
line, with its unit and sample count, and then a JSON summary as the
last line.  With ``--trace 1`` it then replays the first rounds with
every listed layer wrapped, and the summary holds the per-layer metrics
instead.  A wrong output makes the run exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Digests and values the outputs must match (see make_reference.py).
REFERENCE = BENCH_DIR / "reference.json"

# Set-up is repeated this often and its median reported.
SETUP_REPEATS = 9
# Timings that must lie beyond the tail percentile before a run may end.
MIN_TAIL_SAMPLES = 10
# Hard cap on the measured loop, so a much slower program still exits in time.
MAX_LOOP_SECONDS = 90.0
# Share of the measured busy time replayed under tracing.
TRACE_SHARE = 1 / 3
# Times are scaled to a machine that runs ``speed_kernel`` in this long,
SPEED_REFERENCE_S = 0.0005
# timing the kernel again after at most this much op time.
SPEED_INTERVAL_S = 0.02

# Times the import in a fresh interpreter, then the speed kernel right
# after it, to scale the import time like op times.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "start = time.perf_counter()\n"
    "import multibayes, multibayes.cli\n"
    "seconds = time.perf_counter() - start\n"
    "from run import SpeedProbe\n"
    "print(seconds, SpeedProbe().kernel_median())\n"
)


def speed_kernel() -> Fraction:
    """Fixed stdlib work in the library's style: exact Fraction sums with gcd."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i % 97 + 1)
    return total


class SpeedProbe:
    """Scales measured times to a reference machine speed.

    Other tenants of a small shared machine slow it by a third or more
    for seconds to minutes at a time, more than any bound a benchmark can
    hold.  The probe times ``speed_kernel`` between ops and scales the
    ops since its last timing by ``SPEED_REFERENCE_S`` over the mean of
    the kernel times either side of them.  Each kernel time is the median
    of three runs, so one interrupted run does not skew the ops around it.
    Every op's own time stays in the figures, scaled by one factor per
    stretch of ``SPEED_INTERVAL_S``.
    """

    def __init__(self):
        self.kernel_times: list[float] = []
        self._last = self.kernel_median()

    def kernel_median(self) -> float:
        def once() -> float:
            start = time.perf_counter()
            speed_kernel()
            seconds = time.perf_counter() - start
            self.kernel_times.append(seconds)
            return seconds

        return statistics.median(once() for _ in range(3))

    def scale(self) -> float:
        """The factor for the times taken since the last call."""
        now = self.kernel_median()
        factor = SPEED_REFERENCE_S * 2 / (self._last + now)
        self._last = now
        return factor


def import_seconds() -> tuple[float, float]:
    """Raw and scaled time of ``import multibayes`` with the CLI and the
    property registry, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH_DIR)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, kernel = map(float, done.stdout.split())
    return seconds, seconds * SPEED_REFERENCE_S / kernel


class Samples:
    """Every timed call: its scaled latency per op, the ops done and
    failed, and the raw and scaled busy time."""

    def __init__(self):
        self.latency: list[float] = []
        self.ops = 0
        self.failed = 0
        self.busy = 0.0
        self.scaled_busy = 0.0
        self.round_busy: list[float] = []
        self.round_scaled: list[float] = []

    def add(self, seconds: float, scale: float, ops: int, failed: int) -> None:
        self.latency.append(seconds * scale / ops)
        self.ops += ops
        self.failed += failed
        self.busy += seconds
        self.scaled_busy += seconds * scale

    def percentile(self, pct: float) -> tuple[float, int]:
        """Nearest-rank percentile over the timings, and the timings beyond it."""
        ordered = sorted(self.latency)
        rank = max(math.ceil(pct / 100 * len(ordered)), 1)
        return ordered[rank - 1], len(ordered) - rank


def run_rounds(workload, inputs, rounds, samples: Samples, probe: SpeedProbe, tracer=None, until=None) -> None:
    """Run each round's ops once, timing and checking every call.
    ``until(samples)`` ends the loop after a whole round."""
    pending: list[tuple[float, int, int]] = []

    def settle() -> None:
        scale = probe.scale()
        for timing in pending:
            samples.add(timing[0], scale, *timing[1:])
        pending.clear()

    query = 0
    for round_index in rounds:
        start_busy, start_scaled = samples.busy, samples.scaled_busy
        since = 0.0
        for fn, args, key in workload.ops(inputs, round_index):
            start = time.perf_counter()
            out = fn(*args) if tracer is None else tracer.run_op(query, fn, *args)
            seconds = time.perf_counter() - start
            query += 1
            pending.append((seconds, *workload.check(key, out)))
            since += seconds
            if since >= SPEED_INTERVAL_S:
                settle()
                since = 0.0
        settle()
        samples.round_busy.append(samples.busy - start_busy)
        samples.round_scaled.append(samples.scaled_busy - start_scaled)
        if until is not None and until(samples):
            return


def git_commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30,
    )
    return done.stdout.strip() or "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "multibayes" / "__init__.py").is_file():
        print(f"error: no multibayes sources under {SRC}", file=sys.stderr)
        return 2
    config = json.loads((BENCH_DIR / "workloads.json").read_text())
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in config["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, config, contract, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, config, contract, out_dir, workdir) -> int:
    spec = config["workloads"][args.workload]
    import_raw, import_scaled = zip(*(import_seconds() for _ in range(SETUP_REPEATS)))

    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    reference = json.loads(REFERENCE.read_text())
    workload = workloads.WORKLOADS[args.workload](spec["sizes"], args.seed, reference, workdir)
    probe = SpeedProbe()
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup()
        setup_raw.append(time.perf_counter() - start)
        setup_scaled.append(setup_raw[-1] * probe.scale())

    tail_pct = spec["tail_percentile"]
    min_timings = math.ceil(MIN_TAIL_SAMPLES / (1 - tail_pct / 100))
    loop_start = time.perf_counter()

    def enough(samples: Samples) -> bool:
        """Stop when one more round would end further from ``--seconds``
        than stopping now, once the tail percentile has its timings."""
        if time.perf_counter() - loop_start > MAX_LOOP_SECONDS:
            return True
        return samples.busy + samples.round_busy[-1] / 2 >= args.seconds and len(samples.latency) >= min_timings

    samples = Samples()
    run_rounds(workload, inputs, range(sys.maxsize), samples, probe, until=enough)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gate = workload.gate(inputs)

    attempted = samples.ops + len(gate)
    failed = samples.failed + sum(1 for _, ok in gate if not ok)

    timings = len(samples.latency)
    p50, _ = samples.percentile(50)
    tail, beyond = samples.percentile(tail_pct)
    median = statistics.median
    import_s, inputs_s = median(import_scaled), median(setup_scaled)
    rounds = len(samples.round_busy)
    per_timing = "" if timings == samples.ops else f" ({samples.ops // timings} ops per timing)"
    kernel = probe.kernel_times
    report = {
        "setup_s": (import_s + inputs_s, "s",
                    f"median of {SETUP_REPEATS}: import {import_s:.4f} s + inputs {inputs_s:.6f} s; "
                    f"raw {median(import_raw) + median(setup_raw):.4f} s"),
        "ops_per_s": (samples.ops / samples.scaled_busy, "1/s",
                      f"n={samples.ops} ops in {timings} timings over {rounds} rounds, "
                      f"busy {samples.scaled_busy:.3f} s scaled, {samples.busy:.3f} s raw"),
        "op_p50_ms": (p50 * 1e3, "ms", f"p50, n={timings} timings{per_timing}"),
        "op_tail_ms": (tail * 1e3, "ms", f"p{tail_pct:g}, n={timings} timings, {beyond} beyond"),
        "failed_ratio": (failed / attempted, "ratio", f"{failed}/{attempted}: {samples.failed} failed ops, "
                         f"{len(gate) - sum(ok for _, ok in gate)}/{len(gate)} failed gate checks"),
        "peak_rss_mb": (peak_rss_mb, "MB", "n=1, ru_maxrss of this process after the measured loop"),
        "speed.kernel_ms": (median(kernel) * 1e3, "ms", f"median of n={len(kernel)}, min {min(kernel) * 1e3:.4f} ms, "
                            f"reference {SPEED_REFERENCE_S * 1e3:g} ms"),
    }

    layer_report = {}
    if args.trace:
        replay, untraced = 0, 0.0
        while replay < rounds and (replay == 0 or untraced < samples.scaled_busy * TRACE_SHARE):
            untraced += samples.round_scaled[replay]
            replay += 1
        tracer = Tracer()
        tracer.install()
        try:
            tracer.run_op(-1, workload.setup)
            traced = Samples()
            run_rounds(workload, inputs, range(replay), traced, probe, tracer=tracer)
        finally:
            tracer.uninstall()
        attempted += traced.ops
        failed += traced.failed
        span_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        spans = tracer.write(span_path)
        note = f"{replay} rounds traced, unscaled"
        layer_report = {name: (value, unit, note) for name, (value, unit) in tracer.layer_metrics().items()}
        layer_report["trace.overhead_s"] = (
            traced.scaled_busy - untraced, "s",
            f"scaled: traced {traced.scaled_busy:.3f} s - untraced {untraced:.3f} s over the same {replay} rounds",
        )
        print(f"# {spans} spans written to {span_path.relative_to(ROOT)}")

    correct = failed == 0
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "traced" if args.trace else "untraced",
        "arithmetic": "float" if spec["sizes"].get("float") else "exact",
        "loop": config["loop"],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    for name, ok in gate:
        print(f"# gate {'ok  ' if ok else 'FAIL'} {name}")
    for name, (value, unit, note) in {**report, **layer_report}.items():
        print(f"{name} = {value:.6g} {unit} ({note})")

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    available = layer_report if args.trace else report
    metrics = {m["name"]: {"value": available[m["name"]][0], "unit": m["unit"]} for m in wanted}
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    result_path = out_dir / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    result_path.write_text(json.dumps({
        "stamp": stamp, "summary": summary,
        "all_metrics": {
            name: {"value": v, "unit": u, "samples": note}
            for name, (v, u, note) in {**report, **layer_report}.items()
        },
        "gate": [{"check": name, "ok": ok} for name, ok in gate],
    }, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
