"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload imdb-interactive --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
wraps every layer entry point (``probes.py``) for one fresh set-up and for
the measurement window, prints the per-layer metrics, and writes the spans
to ``perfbench/out/``.  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it say what was measured and on how many samples.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: ``PYTHONHASHSEED`` of every measured process.
HASH_SEED = "0"

#: A percentile is only reported when at least this many samples lie
#: strictly beyond it.
MIN_BEYOND = 10

#: The window's operations (or writes) are cut into this many blocks of
#: consecutive ones for the block percentiles.
BLOCKS = 120


def percentile(values: List[float], share: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly beyond it."""
    ordered = sorted(values)
    value = ordered[max(0, math.ceil(share * len(ordered)) - 1)]
    beyond = len(ordered) - next(
        (i for i, v in enumerate(ordered) if v > value), len(ordered))
    return value, beyond


def block_means(values: List[float], blocks: int) -> List[float]:
    """``values`` (in completion order) cut into about ``blocks`` runs of
    equally many consecutive values: the runs' means, in ascending order."""
    size = max(1, len(values) // blocks)
    return sorted(statistics.fmean(values[start:start + size])
                  for start in range(0, len(values) - size + 1, size))


def finite(value: float) -> float:
    """Failed operations are timed as infinite; JSON needs a number."""
    return value if math.isfinite(value) else 1e12


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window; runs whole cycles, at "
                             "least one (0 = exactly one cycle)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload_name: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    """Run one workload; returns the result object and a report."""
    import probes
    from tracer import Tracer
    from workloads import WORKLOADS, LoopResult

    workload = WORKLOADS[workload_name](seed)
    report: List[str] = []
    if workload.one_cpu:
        # Before any thread starts, so every thread inherits it.
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        report.append(f"pinned to CPU {cpu}")

    # A first set-up pays the one-time costs (lazy imports, first-touch
    # allocations) that every later set-up in a resident process skips.
    workload.teardown(workload.setup())

    setup_tracer = Tracer()
    loop_tracer = Tracer()
    untraced = LoopResult()
    result = LoopResult()
    if trace:
        probes.install(setup_tracer)
        setup_tracer.enabled = True
        try:
            state = workload.setup()
        finally:
            setup_tracer.enabled = False
            setup_tracer.restore()
        workload.prepare(state)
        workload.run(state, seconds / 4, untraced)
        probes.install(loop_tracer)
        loop_tracer.enabled = True
        try:
            workload.run(state, seconds, result)
        finally:
            loop_tracer.enabled = False
            loop_tracer.restore()
    else:
        state, took = workload.timed_setup()
        result.setup_s.append(took)
        workload.prepare(state)
        workload.run(state, seconds, result, sample_setups=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        mismatches = workload.check(state, result)
    finally:
        workload.teardown(state)

    ok = mismatches == 0
    # The bounded figures are tail figures: p95 read latency, and the
    # throughput and mean write latency of the slowest tenth of the window.
    # On a shared host whose CPU flips between two speeds about 1.7x apart,
    # for seconds to minutes at a time, a median or mean follows the share
    # of the run spent at each speed; a tail figure stays at the slower
    # speed, which nearly every run visits.  Writes are judged by blocks:
    # on imdb-interactive the top 5% of writes are the two Tim Burton
    # deltas alone, one of each per cycle, so their p95 follows the speed
    # of a handful of cycles.  Means and medians are still reported.
    timings: Dict[str, float] = {}
    medians: Dict[str, float] = {}
    tails: Dict[str, float] = {}
    beyond: Dict[str, int] = {}
    for kind, values in (("read", result.read_ms), ("write", result.write_ms)):
        report.append(f"{kind}_mean_ms = {statistics.fmean(values):.4f} "
                      f"ms over {len(values)} samples")
        for label, share in (("p50", 0.50), ("p95", 0.95)):
            value, past = percentile(values, share)
            if label == "p50":
                medians[kind] = value
            else:
                beyond[kind] = past
                tails[kind] = value
            report.append(f"{kind}_{label}_ms = {value:.4f} ms over "
                          f"{len(values)} samples, {past} beyond it")
            if past < MIN_BEYOND:
                ok = False
                report.append(f"FAIL: fewer than {MIN_BEYOND} {kind} samples "
                              f"beyond {label}")
    reads = result.memo_hits + result.memo_misses
    miss_ratio = result.memo_misses / reads if reads else 0.0
    throughput = result.ops / result.elapsed_s
    # A block's throughput is the inverse of its mean gap between
    # completions, so the throughput's p10 is the inverse of the gaps' p90.
    times = result.window_times()
    gaps = [end - begin for begin, end in zip([0.0] + times, times)]
    block_figures = []
    for name, values in (("throughput_p10_per_s", gaps),
                         ("write_block_p90_ms", result.write_ms)):
        means = block_means(values, BLOCKS)
        value = means[max(0, math.ceil(0.9 * len(means)) - 1)]
        above = sum(mean > value for mean in means)
        timings[name] = 1 / value if name == "throughput_p10_per_s" else value
        block_figures.append(f"{name} = {timings[name]:.4f} over "
                             f"{len(means)} blocks, {above} beyond it")
        if above < MIN_BEYOND:
            ok = False
            block_figures.append(f"FAIL: fewer than {MIN_BEYOND} blocks "
                                 f"beyond {name}")
    timings["read_p95_ms"] = tails["read"]
    report.extend(block_figures)
    report.append(f"mean throughput {throughput:.4f}/s")
    report.append(f"{result.ops} ops in {result.cycles} cycles over "
                  f"{result.elapsed_s:.2f} s; read memo-miss ratio "
                  f"{miss_ratio:.4f} ({result.memo_misses}/{reads})")
    report.append(f"correctness: {len(result.samples)} sampled explanations "
                  f"checked, {mismatches} mismatches")
    if result.failed:
        report.append(f"FAIL: {result.failed} operations failed "
                      f"({result.rejected} admission rejections)")

    if trace:
        untraced_throughput = untraced.ops / untraced.elapsed_s
        run_figures = {
            "read.p50_ms": finite(medians["read"]),
            "write.p50_ms": finite(medians["write"]),
            "write.p95_ms": finite(tails["write"]),
            "read.samples": len(result.read_ms),
            "read.beyond_p95": beyond["read"],
            "write.samples": len(result.write_ms),
            "write.beyond_p95": beyond["write"],
            "read.memo_miss_ratio": miss_ratio,
            "trace.cycles": result.cycles,
            "trace.ops": result.ops,
            "trace.throughput_per_s": throughput,
            "trace.untraced_throughput_per_s": untraced_throughput,
            "trace.overhead_ratio": untraced_throughput / throughput,
            "server.rejected": result.rejected,
        }
        values = probes.layer_metrics(setup_tracer, loop_tracer, run_figures)
        for problem in probes.expected_split(workload_name, values):
            report.append(f"note: expected split does not hold: {problem}")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        for phase, tracer in (("setup", setup_tracer), ("loop", loop_tracer)):
            path = out / f"{workload_name}-seed{seed}-{phase}.jsonl.gz"
            tracer.dump(str(path))
            report.append(f"{len(tracer.spans)} {phase} spans -> {path}")
        metrics = {name: {"value": float(value), "unit": probes.unit_of(name)}
                   for name, value in values.items()}
    else:
        values = {
            "setup_s": statistics.median(result.setup_s),
            **{name: finite(value) for name, value in timings.items()},
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "throughput_p10_per_s": "1/s",
                 "peak_rss_mb": "MB"}
        metrics = {name: {"value": value, "unit": units.get(name, "ms")}
                   for name, value in values.items()}
        report.append(f"setup_s = median of {len(result.setup_s)} fresh "
                      "set-ups: " + ", ".join(f"{t:.4f}" for t in result.setup_s))
    return {"report": report,
            "result": {"correct": ok, "attempted": result.attempted,
                       "failed": result.failed + mismatches,
                       "metrics": metrics}}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is salted per process, so dict and set layouts
        # (and their speed) change from run to run.  Fix the salt, like the
        # inputs, so two runs of one seed execute the same program.
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    outcome = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    for line in outcome["report"]:
        print(line)
    sys.stdout.flush()
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
