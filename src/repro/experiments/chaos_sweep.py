"""Chaos sweep: serving goodput under injected crash/recovery patterns.

One seeded chat arrival stream is served by the same sharded configuration
under a grid of fault scenarios — fault-free, an *empty* fault schedule
(the determinism control), a transient single-shard crash with and without
request retries, a correlated pool crash, and a rolling restart — so every
row differs only in what breaks and how the stack responds.

Three properties are asserted (tier-1 tests and the quick-bench CI job
gate all of them through ``check_chaos_gates``):

* **determinism** — attaching an empty :class:`~repro.serving.faults.
  FaultSchedule` reproduces the no-injector run bit-for-bit: every
  request's arrival/first-token/finish instants, terminal state and shard
  placement are identical;
* **retries pay** — under a transient single-shard crash, capped
  exponential-backoff retries strictly beat the no-retry run on SLO
  goodput (each retry re-enters the arrival stream with the same
  underlying request, so session identity survives and the prefix cache
  re-warms);
* **recovery completes** — goodput over the post-recovery tail of the
  stream returns to within tolerance (default 10%) of the fault-free run
  on the very same arrivals.

Run directly for the CLI harness::

    python -m repro.experiments.chaos_sweep --num-requests 120 --json out.json

or via the ``repro-chaos`` entry point.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.hardware import get_hardware
from repro.models import get_model
from repro.serving.faults import FaultSchedule, ResiliencePolicy
from repro.serving.metrics import SLO
from repro.serving.queue import RequestState, ServingRequest
from repro.serving.server import default_slo
from repro.serving.sharded import ShardedServingResult, ShardedServingSystem
from repro.utils.errors import ConfigurationError
from repro.workloads import chat

#: Fraction of the arrival horizon at which the injected crash lands,
#: recovery begins, and the model reload completes.  The crash hits early
#: enough that a meaningful post-recovery tail remains to measure.
CRASH_AT = 0.25
RECOVER_AT = 0.40
LOAD_TIME = 0.05

#: Post-recovery measurement starts this far past the reload-complete
#: instant (as a fraction of the horizon): the crash-era backlog needs a
#: settle window before the tail is representative of steady state.
SETTLE = 0.10

#: Default post-recovery goodput tolerance versus fault-free (gate (c)).
RECOVERY_TOLERANCE = 0.10


def timeline_signature(
    result: ShardedServingResult,
) -> list[tuple[object, ...]]:
    """Per-request timeline fingerprint for bit-for-bit comparison.

    Positional (stream order), not keyed by ``request_id`` — ids come from
    a process-global counter, so two runs of the same stream in one
    process allocate different ids while producing identical timelines.
    """
    return [
        (
            sr.attempt,
            sr.arrival_time,
            sr.state.value,
            sr.shard_id,
            sr.outcome_code,
            sr.first_token_time,
            sr.finish_time,
            sr.tokens_decoded if sr.state is RequestState.FINISHED else 0,
        )
        for sr in result.requests
    ]


def windowed_slo_met(
    requests: Sequence[ServingRequest], slo: SLO, t_start: float
) -> tuple[int, int]:
    """``(slo_met, arrived)`` over first-attempt arrivals at/after ``t_start``.

    Only original submissions (``attempt == 0``) are windowed so the
    baseline and faulty runs count the identical arrival set; a retry's
    completion still shows up — it finishes the same underlying request.
    """
    met = 0
    arrived = 0
    for sr in requests:
        if sr.attempt or sr.arrival_time < t_start:
            continue
        arrived += 1
        if sr.state is RequestState.FINISHED and slo.is_met(sr):
            met += 1
    return met, arrived


def run_chaos_sweep(
    num_shards: int = 4,
    system_name: str = "moe-lightning",
    model_name: str = "mixtral-8x7b",
    hardware_name: str = "1xT4",
    router: str = "least-loaded",
    load_factor: float = 0.7,
    generation_len: int = 8,
    num_requests: int = 120,
    turns_per_session: int = 3,
    system_prompt_len: int = 64,
    user_turn_len: int = 32,
    seed: int = 0,
    max_retries: int = 2,
    retry_backoff: float = 0.25,
    recovery_tolerance: float = RECOVERY_TOLERANCE,
    chunk_prefill_tokens: int | None = None,
) -> dict[str, object]:
    """Serve one seeded chat stream under every chaos scenario.

    Returns ``{"rows": [...], "gates": {...}, "horizon": ...}``: one row
    per scenario plus the acceptance gates computed across them.  Every
    scenario replays the identical arrival stream (same seed), so rows
    differ only in the injected faults and the resilience policy.

    Prefill is whole-prompt (``chunk_prefill_tokens=None``) by default: a
    recovered shard rejoins empty and least-loaded routing sends it every
    subsequent arrival until loads equalise, so it must drain that herd as
    *batched* prefill passes — a small chunk budget serializes the herd
    into one-prompt steps and the tail blows through the TTFT SLO for a
    reason that has nothing to do with the fault model under test.
    """
    from repro.experiments.serving_sweep import offline_capacity, sweep_factories

    if num_shards < 2:
        raise ConfigurationError(
            "the chaos sweep needs >= 2 shards: a 1-shard cluster has no "
            "surviving capacity to degrade onto"
        )
    (make_backend,), make_process = sweep_factories([system_name])

    model = get_model(model_name)
    hardware = get_hardware(hardware_name)
    workload = chat(
        generation_len=generation_len,
        num_requests=num_requests,
        turns_per_session=turns_per_session,
        system_prompt_len=system_prompt_len,
        user_turn_len=user_turn_len,
    )
    backend = make_backend(model, hardware)
    policy = backend.select_policy(workload)
    slo = default_slo(backend, workload, policy)
    rate = num_shards * load_factor * offline_capacity(backend, workload, policy)
    process = make_process(rate)

    def serve(
        faults: FaultSchedule | None = None,
        resilience: ResiliencePolicy | None = None,
    ) -> ShardedServingResult:
        system = ShardedServingSystem(
            backend,
            workload,
            num_shards=num_shards,
            router=router,
            policy=policy,
            slo=slo,
            prefix_cache=True,
            chunk_prefill_tokens=chunk_prefill_tokens,
            faults=faults,
            resilience=resilience,
        )
        return system.run(process, count=num_requests, seed=seed)

    baseline = serve()
    horizon = max(sr.arrival_time for sr in baseline.requests)
    crash_shard = num_shards - 1
    transient = FaultSchedule.transient_crash(
        crash_shard,
        at=CRASH_AT * horizon,
        recover_at=RECOVER_AT * horizon,
        load_time=LOAD_TIME * horizon,
    )
    retry_policy = ResiliencePolicy(
        max_retries=max_retries, retry_backoff=retry_backoff
    )
    correlated = FaultSchedule.correlated(
        list(range(num_shards // 2)),
        at=CRASH_AT * horizon,
        recover_at=RECOVER_AT * horizon,
        load_time=LOAD_TIME * horizon,
    )
    rolling = FaultSchedule.rolling_restart(
        list(range(num_shards)),
        start=CRASH_AT * horizon,
        interval=0.10 * horizon,
        downtime=0.05 * horizon,
        load_time=0.02 * horizon,
    )

    scenarios: list[tuple[str, ShardedServingResult]] = [
        ("fault-free", baseline),
        ("empty-schedule", serve(faults=FaultSchedule.empty())),
        ("transient-crash", serve(faults=transient)),
        ("transient-crash+retry", serve(faults=transient, resilience=retry_policy)),
        ("correlated+retry", serve(faults=correlated, resilience=retry_policy)),
        ("rolling-restart+retry", serve(faults=rolling, resilience=retry_policy)),
    ]
    by_name = dict(scenarios)

    rows: list[dict[str, object]] = []
    for name, result in scenarios:
        row: dict[str, object] = {
            "scenario": name,
            "load_factor": load_factor,
            "rate_rps": rate,
            "seed": seed,
        }
        row.update(result.as_row())
        row["retries"] = result.report.num_retries
        rows.append(row)

    # ------------------------------------------------------------------
    # Acceptance gates
    # ------------------------------------------------------------------
    identical = timeline_signature(baseline) == timeline_signature(
        by_name["empty-schedule"]
    )
    goodput_no_retry = by_name["transient-crash"].report.goodput
    goodput_retry = by_name["transient-crash+retry"].report.goodput
    tail_start = (RECOVER_AT + LOAD_TIME + SETTLE) * horizon
    met_base, arrived_base = windowed_slo_met(
        baseline.requests, slo, tail_start
    )
    met_faulty, arrived_faulty = windowed_slo_met(
        by_name["transient-crash+retry"].requests, slo, tail_start
    )
    recovery_ratio = met_faulty / met_base if met_base else float("nan")
    gates: dict[str, object] = {
        "empty_schedule_identical": identical,
        "retry_goodput": goodput_retry,
        "no_retry_goodput": goodput_no_retry,
        "retry_beats_no_retry": goodput_retry > goodput_no_retry,
        "post_recovery_tail_start": tail_start,
        "post_recovery_arrivals": arrived_base,
        "post_recovery_slo_met_baseline": met_base,
        "post_recovery_slo_met_faulty": met_faulty,
        "post_recovery_goodput_ratio": recovery_ratio,
        "recovery_tolerance": recovery_tolerance,
        "post_recovery_within_tolerance": (
            arrived_base == arrived_faulty
            and met_base > 0
            and recovery_ratio >= 1.0 - recovery_tolerance
        ),
    }
    return {"rows": rows, "gates": gates, "horizon": horizon}


def gates_pass(gates: dict[str, object]) -> bool:
    """Whether every boolean acceptance gate of one sweep holds."""
    return bool(
        gates["empty_schedule_identical"]
        and gates["retry_beats_no_retry"]
        and gates["post_recovery_within_tolerance"]
    )


#: Columns for the printed chaos table.
CHAOS_SWEEP_COLUMNS: tuple[str, ...] = (
    "scenario",
    "offered",
    "completed",
    "rejected",
    "retries",
    "crashes",
    "recoveries",
    "unavailability_s",
    "drop_crash",
    "drop_timeout",
    "drop_shed",
    "goodput",
    "goodput_fraction",
    "mean_ttft",
    "token_throughput",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description=(
            "Chaos sweep: goodput under injected shard crashes, correlated "
            "failures and rolling restarts, with and without retries."
        ),
    )
    parser.add_argument("--system", default="moe-lightning")
    parser.add_argument("--model", default="mixtral-8x7b")
    parser.add_argument("--hardware", default="1xT4")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--router", default="least-loaded")
    parser.add_argument("--load-factor", type=float, default=0.7)
    parser.add_argument("--generation-len", type=int, default=8)
    parser.add_argument("--num-requests", type=int, default=120)
    parser.add_argument("--turns", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-retries", type=int, default=2)
    parser.add_argument("--retry-backoff", type=float, default=0.25)
    parser.add_argument(
        "--recovery-tolerance",
        type=float,
        default=RECOVERY_TOLERANCE,
        help="allowed post-recovery goodput shortfall vs fault-free",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 unless every acceptance gate holds (CI mode)",
    )
    parser.add_argument("--json", default=None, metavar="PATH")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Console harness (also the quick-bench CI entry point)."""
    import sys

    from repro.experiments.bench_output import write_bench_chaos_json
    from repro.experiments.report import render_rows
    from repro.utils.errors import ReproError

    args = _build_parser().parse_args(argv)
    try:
        sweep = run_chaos_sweep(
            num_shards=args.shards,
            system_name=args.system,
            model_name=args.model,
            hardware_name=args.hardware,
            router=args.router,
            load_factor=args.load_factor,
            generation_len=args.generation_len,
            num_requests=args.num_requests,
            turns_per_session=args.turns,
            seed=args.seed,
            max_retries=args.max_retries,
            retry_backoff=args.retry_backoff,
            recovery_tolerance=args.recovery_tolerance,
        )
    except ReproError as exc:
        print(f"repro-chaos: error: {exc}", file=sys.stderr)
        return 2
    rows = sweep["rows"]
    gates = sweep["gates"]
    print(
        render_rows(
            rows,
            columns=list(CHAOS_SWEEP_COLUMNS),
            title=(
                f"Chaos sweep: {args.shards}-shard chat @ {args.model} / "
                f"{args.hardware} (seed {args.seed})"
            ),
        )
    )
    print(
        f"gates: empty-schedule identical: {gates['empty_schedule_identical']}"
        f" | retry goodput {gates['retry_goodput']:.4f} vs no-retry "
        f"{gates['no_retry_goodput']:.4f}"
        f" | post-recovery ratio {gates['post_recovery_goodput_ratio']:.3f}"
        f" (tolerance {gates['recovery_tolerance']:.0%})"
    )
    if args.json:
        write_bench_chaos_json(args.json, rows, gates=gates, meta={
            "source": "repro.experiments.chaos_sweep",
            "model": args.model,
            "hardware": args.hardware,
            "workload": "chat",
            "shards": args.shards,
            "router": args.router,
            "load_factor": args.load_factor,
            "num_requests": args.num_requests,
            "max_retries": args.max_retries,
            "seed": args.seed,
        })
        print(f"wrote {args.json}")
    if args.gate and not gates_pass(gates):
        print("repro-chaos: acceptance gates FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
