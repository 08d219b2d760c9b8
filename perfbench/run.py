"""The benchmark of record: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload chat-overlap --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time, host throughput over repeated timed passes, peak memory in its own
pass, policy-search latency, and the simulated metrics of a checked
stored-sample pass; host times are scaled to a reference machine speed by
a calibration kernel run between the passes.  ``--trace 1`` alternates
untraced and traced passes (set-up plus run) and reports the per-layer
split.  Every run checks the program's outputs; a failed check makes
``correct`` false and the exit code 1.  The last line of standard output is the JSON result; a copy with
the machine stamp and raw samples goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-ups per run (the reported set-up time is their median).
SETUP_REPEATS = 11
#: Timed passes per run at least, however short ``--seconds`` is.
MIN_PASSES = 3
#: Policy searches timed per run at least (the set-ups' searches count);
#: the tail is the highest percentile with at least ten samples beyond it
#: (p75 of 40; offline's set-ups search 66 times, p85).
SEARCH_SAMPLES = 40

#: ``name -> unit`` of the end-to-end metrics, in report order.
END_TO_END = {
    "host_ops_per_s": "ops/s",
    "host_events_per_s": "events/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "policy_search_s_p50": "s",
    "policy_search_s_tail": "s",
    "sim_tokens_per_s": "tok/sim_s",
    "sim_goodput_rps": "req/sim_s",
    "sim_ttft_p50_s": "sim_s",
    "sim_ttft_p99_s": "sim_s",
    "sim_tpot_p50_s": "sim_s",
    "sim_tpot_p99_s": "sim_s",
    "sim_completed_frac": "ratio",
}

#: Extra per-layer metrics beyond ``<layer>.self_s/.calls/.share``.
LAYER_EXTRAS = {
    "serving.router.shard_util_spread": "ratio",
    "serving.admission.admitted": "count",
    "serving.admission.rejected_kv": "count",
    "serving.admission.rejected_slots": "count",
    "runtime.block_store.hit_rate": "ratio",
    "runtime.block_store.cached_token_fraction": "ratio",
    "runtime.block_store.evictions": "count",
    "serving.step_pricing.memo_hit_ratio": "ratio",
    "serving.scheduler.decode_batch_mean": "requests",
    "serving.queue.sim_wait_p50_s": "sim_s",
    "serving.queue.sim_wait_p99_s": "sim_s",
    "serving.faults.crashes": "count",
    "serving.faults.retries": "count",
    "serving.faults.retry_success_ratio": "ratio",
    "serving.migration.migrated": "count",
    "serving.migration.migration_rejected": "count",
    "core.optimizer.candidates_evaluated": "count",
    "core.optimizer.feasible_ratio": "ratio",
    "runtime.simulator.sim_gpu_util": "ratio",
    "runtime.simulator.sim_cpu_util": "ratio",
    "runtime.simulator.sim_io_util": "ratio",
}

#: How the traced pass splits, and what tracing cost.
TRACE_TOTALS = {
    "unattributed.self_s": "s",
    "unattributed.share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """``name -> unit`` of every per-layer metric, in report order."""
    from perfbench.tracer import LAYER_NAMES

    units = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.share"] = "ratio"
    units.update(LAYER_EXTRAS)
    units.update(TRACE_TOTALS)
    return units


# ----------------------------------------------------------------------
# Machine stamp
# ----------------------------------------------------------------------
#: Calibration rate the host-time metrics are scaled to: a 2-core AMD EPYC
#: VM runs the kernel at about this rate when no neighbour contends.
REFERENCE_ITERS_PER_S = 10e6


def calibration_score(rounds: int = 5) -> float:
    """Fixed pure-Python kernel: median iterations per second.

    Integer hashing, dict and list traffic — the interpreter work the
    simulator's hot path is made of — on a fixed input.
    """
    rates = []
    for _ in range(rounds):
        start = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(100_000):
            key = (i * 2654435761) & 0xFFFF
            table[key] = table.get(key, 0) + 1
            acc += key % 7
        rates.append(100_000 / (time.perf_counter() - start))
    return statistics.median(rates)


def machine_stamp() -> dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_iters_per_s": calibration_score(),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the value with exactly ten larger
    samples, and its rank as a percentile of the sample count.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        raise ValueError("a tail needs more than ten samples")
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


class Run:
    """Bookkeeping for one invocation: ops attempted and failed."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def checked(self, check, *args) -> None:
        from perfbench.workloads import CheckFailed

        self.attempted += self.workload.ops_per_pass
        try:
            check(*args)
        except CheckFailed as exc:
            self.failed += self.workload.ops_per_pass
            self.errors.append(str(exc))


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    workload = run.workload
    (system, searches), setup_s = timed(workload.setup)
    setups = [setup_s]

    reference, sim = None, {}
    try:
        reference, sim = workload.verify()
    finally:
        run.attempted += workload.ops_per_pass
        if reference is None:
            run.failed += workload.ops_per_pass

    def catch_up(fraction: float) -> None:
        # Set-ups and policy searches are spread over the timed window
        # between passes, so a burst of machine noise cannot land on all
        # of them at once.
        while len(setups) < SETUP_REPEATS * fraction:
            (_, search_s), setup_s = timed(workload.setup)
            setups.append(setup_s)
            searches.extend(search_s)
        while len(searches) < SEARCH_SAMPLES * fraction:
            searches.append(workload.search_once(len(searches)))

    # The calibration kernel runs before the window and after every pass,
    # so it sees the machine each pass saw.
    rates = [calibration_score(rounds=1) for _ in range(3)]
    times, scaled = [], []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() < start + seconds:
        (summary, _), elapsed = timed(workload.run_pass, system)
        rates.append(calibration_score(rounds=1))
        times.append(elapsed)
        scaled.append(elapsed * (rates[-2] + rates[-1]) / 2)
        run.checked(workload.check_pass, summary, reference)
        catch_up(min(1.0, (time.perf_counter() - start) / seconds))
    catch_up(1.0)

    gc.collect()
    tracemalloc.start()
    try:
        summary, _ = workload.run_pass(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    run.checked(workload.check_pass, summary, reference)

    tail, tail_pct = tail_percentile(searches)

    # Host times are scaled to the reference calibration rate: a machine
    # (or a stretch of minutes) on which the kernel runs slower by some
    # factor runs the simulator slower by about the same factor.  Each
    # pass is scaled by the kernel rates just before and after it; the
    # set-ups and searches, spread over the window, by the run's median.
    host_s = statistics.median(scaled) / REFERENCE_ITERS_PER_S
    scale = statistics.median(rates) / REFERENCE_ITERS_PER_S
    metrics = {
        "host_ops_per_s": workload.ops_per_pass / host_s,
        "host_events_per_s": workload.events(reference) / host_s,
        "setup_s": statistics.median(setups) * scale,
        "peak_mem_mb": peak / 1e6,
        "policy_search_s_p50": statistics.median(searches) * scale,
        "policy_search_s_tail": tail * scale,
        **sim,
    }
    wall_s = statistics.median(times)
    raw = {
        "host_ops_per_s": workload.ops_per_pass / wall_s,
        "host_events_per_s": workload.events(reference) / wall_s,
        "setup_s": statistics.median(setups),
        "policy_search_s_p50": statistics.median(searches),
        "policy_search_s_tail": tail,
    }
    samples = {
        "wall_clock_metrics": raw,
        "calibration_iters_per_s": rates,
        "pass_s": times,
        "setup_s": setups,
        "policy_search_s": searches,
        "policy_search_tail_percentile": tail_pct,
        "policy_search_samples": len(searches),
    }
    return metrics, samples


def measure_layers(run: Run, seconds: float) -> tuple[dict, dict, dict]:
    import numpy as np

    from perfbench.tracer import LAYER_NAMES, Tracer, derive

    workload = run.workload
    reference, _ = workload.verify()
    run.attempted += workload.ops_per_pass

    def setup_and_run():
        system, _ = workload.setup()
        return workload.run_pass(system)

    tracer = Tracer()
    untraced, walls = [], []
    self_s = np.zeros(len(LAYER_NAMES))
    unattributed = 0.0
    counters: dict[str, float] = {}
    spans = None
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        (summary, _), elapsed = timed(setup_and_run)
        untraced.append(elapsed)
        run.checked(workload.check_pass, summary, reference)

        tracer.reset()
        tracer.install()
        try:
            (summary, result), wall = timed(setup_and_run)
        finally:
            tracer.uninstall()
        # Tracing must not move the simulated timeline by one bit.
        run.checked(workload.check_pass, summary, reference)
        walls.append(wall)
        spans = tracer.spans()
        split = derive(spans, wall)
        self_s += split["self_s"]
        unattributed += split["unattributed_s"]
        counters = _layer_counters(workload, tracer, split, result)

    passes = len(walls)
    wall = statistics.mean(walls)
    metrics: dict[str, float] = {}
    calls = split["calls"]
    for index, layer in enumerate(LAYER_NAMES):
        metrics[f"{layer}.self_s"] = self_s[index] / passes
        metrics[f"{layer}.calls"] = int(calls[index])
        metrics[f"{layer}.share"] = self_s[index] / passes / wall
    metrics.update(counters)
    metrics["unattributed.self_s"] = unattributed / passes
    metrics["unattributed.share"] = unattributed / passes / wall
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_ratio"] = (
        statistics.median(walls) / statistics.median(untraced)
    )
    samples = {
        "traced_wall_s": walls,
        "untraced_wall_s": untraced,
        "spans_per_pass": int(len(spans["start"])),
        "entry_points": tracer.entry_names,
    }
    return metrics, samples, spans


def _layer_counters(workload, tracer, split, result) -> dict[str, float]:
    import numpy as np

    from perfbench.tracer import LAYER_NAMES

    counters = {name: 0.0 for name in LAYER_EXTRAS}
    counters.update(workload.layer_counters(result))
    pricing_calls = split["calls"][LAYER_NAMES.index("serving.step_pricing")]
    if pricing_calls:
        counters["serving.step_pricing.memo_hit_ratio"] = (
            split["memo_hits"] / pricing_calls
        )
    if tracer.decode_batch_sizes:
        counters["serving.scheduler.decode_batch_mean"] = float(
            np.mean(tracer.decode_batch_sizes)
        )
    if tracer.waits:
        counters["serving.queue.sim_wait_p50_s"] = float(
            np.percentile(tracer.waits, 50)
        )
        counters["serving.queue.sim_wait_p99_s"] = float(
            np.percentile(tracer.waits, 99)
        )
    counters["runtime.block_store.evictions"] = sum(
        store.evictions for store in tracer.block_stores
    )
    if tracer.retried:
        counters["serving.faults.retry_success_ratio"] = (
            len(tracer.retried_done) / len(tracer.retried)
        )
    if tracer.search_counts:
        evaluated = sum(e for e, _ in tracer.search_counts)
        feasible = sum(f for _, f in tracer.search_counts)
        counters["core.optimizer.candidates_evaluated"] = evaluated
        counters["core.optimizer.feasible_ratio"] = feasible / evaluated
    if tracer.simulations:
        for key, channel in (("gpu", "gpu"), ("cpu", "cpu"), ("io", "htod")):
            counters[f"runtime.simulator.sim_{key}_util"] = float(
                np.mean([u[channel] for _, u in tracer.simulations])
            )
    return counters


# ----------------------------------------------------------------------
def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, CheckFailed, make_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    stamp = machine_stamp()
    run = Run(make_workload(args.workload, args.seed))
    spans = None
    try:
        if args.trace:
            metrics, samples, spans = measure_layers(run, args.seconds)
            units = per_layer_units()
        else:
            metrics, samples = measure_end_to_end(run, args.seconds)
            units = END_TO_END
    except CheckFailed as exc:
        run.errors.append(str(exc))
        metrics, samples, units = {}, {}, {}
    missing = [name for name in units if name not in metrics]
    bad = [name for name, value in metrics.items()
           if not math.isfinite(float(value))]
    correct = not run.errors and not missing and not bad and run.failed == 0
    if missing or bad:
        run.errors.append(f"missing metrics {missing}, non-finite {bad}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"on {stamp['cpu']} x{stamp['nproc']}, python {stamp['python']}, "
          f"numpy {stamp['numpy']}, calibration "
          f"{stamp['calibration_iters_per_s']:.0f} iters/s")
    if "policy_search_samples" in samples:
        print(f"policy search: {samples['policy_search_samples']} samples, "
              f"tail = p{samples['policy_search_tail_percentile']:.0f}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:48s} {metrics[name]:>16.6g} {unit}")
    for error in run.errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed if correct else max(1, run.failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    _write_out(args, stamp, result, samples, run.errors, spans)
    print(json.dumps(result))
    return 0 if correct else 1


def _write_out(args, stamp, result, samples, errors, spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": stamp,
        "result": result,
        "samples": samples,
        "errors": errors,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        import numpy as np

        np.savez_compressed(OUT_DIR / f"{stem}-spans.npz", **spans)


if __name__ == "__main__":
    sys.exit(main())
