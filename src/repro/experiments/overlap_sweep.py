"""Overlapped-streams sweep: serialized vs. overlapped prefill/decode.

One loaded chat arrival stream — request bodies and timestamps pinned by
the seed — is served twice at every load point by the event-driven engine:
once with the serialized step timeline (``overlap=off``, every whole-prompt
prefill stalls the decode stream) and once with overlapped prefill/decode
streams (``overlap=on``, prefills ride decode iterations on the shared
weight-streaming pass and the step lasts as long as the slower half).

The SLO uses a *streaming* TPOT target (default ``tpot_factor=1.2``, i.e.
20% headroom over the unloaded decode step) because that is the regime the
overlap argument is about: each serialized prefill inserts a full
weight-streaming pass into every decoding request's token gap, so under
prefill interference the serialized engine blows the streaming budget
while the overlapped one stays at the decode-step floor.  Every row
reports goodput, mean/percentile TPOT and TTFT, and the measured overlap
fraction — the goodput/TTFT curves that make the win quantitative.

Run directly for the CLI harness::

    python -m repro.experiments.overlap_sweep --num-requests 32 --json out.json

or via ``repro-serve --overlap on``.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.hardware import get_hardware
from repro.models import get_model
from repro.serving.metrics import SLO
from repro.serving.server import default_slo
from repro.serving.sharded import ShardedServingSystem
from repro.utils.errors import ConfigurationError
from repro.workloads import chat


def run_overlap_sweep(
    load_factors: Sequence[float] = (1.0, 2.0, 4.0),
    system_name: str = "moe-lightning",
    model_name: str = "mixtral-8x7b",
    hardware_name: str = "1xT4",
    num_shards: int = 1,
    router: str = "round-robin",
    generation_len: int = 32,
    num_requests: int = 48,
    turns_per_session: int = 4,
    system_prompt_len: int = 64,
    user_turn_len: int = 32,
    scheduling: str = "fcfs",
    arrival: str = "poisson",
    seed: int = 0,
    slo: SLO | None = None,
    tpot_factor: float = 1.2,
    use_simulator: bool = False,
    store_samples: bool = True,
) -> list[dict[str, object]]:
    """Serve one chat stream serialized and overlapped at each load point.

    Returns one row per (load factor, overlap setting), serialized first,
    so adjacent row pairs are directly comparable.  The shared SLO is
    anchored to the unloaded latencies with ``tpot_factor`` headroom on
    the decode step (tight, streaming-style) unless an explicit ``slo``
    is given.

    ``store_samples=False`` runs every point with streaming P² report
    aggregation (flat memory in the stream length); the library default
    stays exact, the CLI harness defaults to streaming.
    """
    from repro.experiments.serving_sweep import offline_capacity, sweep_factories

    if not load_factors:
        raise ConfigurationError("load_factors must not be empty")
    (make_backend,), make_process = sweep_factories([system_name], arrival)

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
    shared_slo = slo or default_slo(
        backend, workload, policy, tpot_factor=tpot_factor
    )
    rate_reference = offline_capacity(backend, workload, policy)

    # One system per overlap setting across all load points: run() holds
    # no cross-run state, and reusing the instance keeps its step-time
    # memo caches warm (as run_serving_sweep does across its rate loop).
    servers = {
        overlap: ShardedServingSystem(
            backend,
            workload,
            num_shards=num_shards,
            router=router,
            policy=policy,
            scheduling=scheduling,
            slo=shared_slo,
            use_simulator=use_simulator,
            overlap=overlap,
            store_samples=store_samples,
        )
        for overlap in (False, True)
    }

    rows: list[dict[str, object]] = []
    for load_factor in load_factors:
        rate = load_factor * rate_reference
        process = make_process(rate)
        for overlap in (False, True):
            result = servers[overlap].run(process, count=num_requests, seed=seed)
            row: dict[str, object] = {
                "overlap": "on" if overlap else "off",
                "load_factor": load_factor,
                "rate_rps": rate,
                "arrival": arrival,
            }
            row.update(result.as_row())
            rows.append(row)
    return rows


#: Columns for the printed serialized-vs-overlapped table.
OVERLAP_SWEEP_COLUMNS: tuple[str, ...] = (
    "system",
    "overlap",
    "load_factor",
    "rate_rps",
    "num_shards",
    "completed",
    "rejected",
    "token_throughput",
    "mean_tpot",
    "tpot_p95",
    "ttft_p50",
    "ttft_p95",
    "goodput",
    "goodput_fraction",
    "overlap_fraction",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-overlap-sweep",
        description=(
            "Serialized vs. overlapped prefill/decode streams over one "
            "loaded chat stream: goodput, TPOT and TTFT curves."
        ),
    )
    parser.add_argument("--system", default="moe-lightning")
    parser.add_argument("--model", default="mixtral-8x7b")
    parser.add_argument("--hardware", default="1xT4")
    parser.add_argument(
        "--load-factors", nargs="+", type=float, default=(1.0, 2.0, 4.0)
    )
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--router", default="round-robin")
    parser.add_argument("--generation-len", type=int, default=32)
    parser.add_argument("--num-requests", type=int, default=48)
    parser.add_argument("--turns", type=int, default=4)
    parser.add_argument("--system-prompt-len", type=int, default=64)
    parser.add_argument("--user-turn-len", type=int, default=32)
    parser.add_argument("--arrival", default="poisson")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tpot-factor",
        type=float,
        default=1.2,
        help="streaming TPOT SLO headroom over the unloaded decode step",
    )
    parser.add_argument(
        "--exact-report",
        action="store_true",
        help=(
            "store per-request samples and compute exact percentiles "
            "instead of the default streaming P² report"
        ),
    )
    parser.add_argument("--json", default=None, metavar="PATH")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Console harness (also the quick-bench CI entry point)."""
    import sys

    from repro.experiments.bench_output import write_bench_serving_json
    from repro.experiments.report import render_rows
    from repro.utils.errors import ReproError

    args = _build_parser().parse_args(argv)
    try:
        rows = run_overlap_sweep(
            load_factors=tuple(args.load_factors),
            system_name=args.system,
            model_name=args.model,
            hardware_name=args.hardware,
            num_shards=args.shards,
            router=args.router,
            generation_len=args.generation_len,
            num_requests=args.num_requests,
            turns_per_session=args.turns,
            system_prompt_len=args.system_prompt_len,
            user_turn_len=args.user_turn_len,
            arrival=args.arrival,
            seed=args.seed,
            tpot_factor=args.tpot_factor,
            store_samples=args.exact_report,
        )
    except ReproError as exc:
        print(f"repro-overlap-sweep: error: {exc}", file=sys.stderr)
        return 2
    print(
        render_rows(
            rows,
            columns=list(OVERLAP_SWEEP_COLUMNS),
            title=(
                f"Overlap sweep: chat @ {args.model} / {args.hardware} "
                f"x{args.shards} ({args.arrival} arrivals, seed {args.seed})"
            ),
        )
    )
    if args.json:
        write_bench_serving_json(
            args.json,
            rows,
            meta={
                "source": "repro.experiments.overlap_sweep",
                "model": args.model,
                "hardware": args.hardware,
                "workload": "chat",
                "generation_len": args.generation_len,
                "num_requests": args.num_requests,
                "turns_per_session": args.turns,
                "shards": args.shards,
                "router": args.router,
                "tpot_factor": args.tpot_factor,
                "seed": args.seed,
            },
        )
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
