"""The streaming hot path: timeline equivalence, O(1) accounting, memory.

The performance overhaul's contract is that every optimization is
*invisible* to the simulated timeline:

* streaming mode (``store_samples=False``: lazy columnar arrivals, sketch
  reports, no step records) serves bit-for-bit the same per-request
  admit/first-token/finish instants as exact mode, and its P² percentiles
  track the exact ones;
* incremental routing (shared load board + memoised cache probes) makes
  bit-for-bit the same decisions as the retained polling closure, for
  both load-driven and cache-aware policies;
* the engine's O(1) counters (load, offered/completed/rejected, busy
  accumulators) agree with the scans they replaced, for ``ServingSystem``
  and the sharded system alike;
* a long streaming run's peak memory does not grow with stream length.
"""

import tracemalloc

import pytest

from repro.experiments.serving_sweep import offline_capacity
from repro.serving import PoissonProcess, ServingResult, ServingSystem, default_slo
from repro.serving.metrics import ReportBuilder
from repro.serving.queue import ServingRequest
from repro.serving.server import EngineCore, EngineStepModel
from repro.serving.sharded import ShardedServingSystem
from repro.systems import MoELightningSystem
from repro.workloads import chat

GENERATION_LEN = 8
SEED = 7


@pytest.fixture(scope="module")
def backend(mixtral, t4_node):
    return MoELightningSystem(mixtral, t4_node)


def make_sharded(backend, num_requests, num_shards=4, **kwargs):
    workload = chat(generation_len=GENERATION_LEN, num_requests=num_requests)
    policy = backend.select_policy(workload)
    slo = default_slo(backend, workload, policy)
    return ShardedServingSystem(
        backend,
        workload,
        num_shards=num_shards,
        policy=policy,
        slo=slo,
        **kwargs,
    )


def make_single(backend, num_requests, **kwargs):
    workload = chat(generation_len=GENERATION_LEN, num_requests=num_requests)
    policy = backend.select_policy(workload)
    slo = default_slo(backend, workload, policy)
    return ServingSystem(backend, workload, policy=policy, slo=slo, **kwargs)


def engine_totals(result):
    """The per-engine counters a result reports (shard rows, or the one
    engine's admission stats and busy totals)."""
    if isinstance(result, ServingResult):
        return (
            result.admission_stats,
            result.busy_s,
            result.decode_busy_total,
            result.prefill_busy_total,
            result.overlapped_total,
        )
    return [s.as_row() for s in result.shard_stats]


def sustainable_rate(backend, num_shards, load_factor=0.8):
    """An offered rate that keeps queues bounded (for memory tests)."""
    workload = chat(generation_len=GENERATION_LEN, num_requests=1)
    policy = backend.select_policy(workload)
    return load_factor * offline_capacity(backend, workload, policy) * num_shards


def run_stream(system, num_requests, rate=120.0, seed=SEED):
    return system.run(PoissonProcess(rate), count=num_requests, seed=seed)


def per_request_instants(records):
    """Multiset of per-request timelines, independent of record order.

    ``None`` instants (rejected requests never admit or decode) sort as
    -1 so the tuples stay comparable.
    """

    def instant(value):
        return -1.0 if value is None else value

    return sorted(
        (
            sr.arrival_time,
            instant(sr.shard_id),
            instant(sr.admit_time),
            instant(sr.first_token_time),
            instant(sr.finish_time),
            sr.state.name,
        )
        for sr in records
    )


# ----------------------------------------------------------------------
# Streaming vs. exact equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "router",
    ["round-robin", "least-loaded", pytest.param(None, id="serving-system")],
)
def test_streaming_mode_reproduces_exact_timeline(backend, monkeypatch, router):
    """Same stream, same instants: only the report aggregation differs.

    ``router=None`` runs the single-engine :class:`ServingSystem`; the
    others run four shards behind that router.
    """
    num_requests = 300

    def make(**kwargs):
        if router is None:
            return make_single(backend, num_requests, **kwargs)
        return make_sharded(backend, num_requests, router=router, **kwargs)

    exact = run_stream(make(), num_requests)

    captured = []
    original = ReportBuilder.observe
    original_many = ReportBuilder.observe_many

    def spy(self, serving_request):
        captured.append(serving_request)
        original(self, serving_request)

    def spy_many(self, serving_requests):
        batch = list(serving_requests)
        captured.extend(batch)
        original_many(self, batch)

    monkeypatch.setattr(ReportBuilder, "observe", spy)
    monkeypatch.setattr(ReportBuilder, "observe_many", spy_many)
    streaming = run_stream(make(store_samples=False), num_requests)

    # Bit-for-bit: makespan, per-request instants, per-engine counters, and
    # every exact (counter-derived) report field.
    assert streaming.makespan == exact.makespan
    assert len(captured) == num_requests
    assert per_request_instants(captured) == per_request_instants(
        exact.requests
    )
    assert engine_totals(streaming) == engine_totals(exact)
    assert streaming.report.num_offered == exact.report.num_offered
    assert streaming.report.num_completed == exact.report.num_completed
    assert streaming.report.num_rejected == exact.report.num_rejected
    assert streaming.report.goodput == exact.report.goodput
    assert streaming.report.token_throughput == exact.report.token_throughput
    assert streaming.report.mean_ttft == pytest.approx(exact.report.mean_ttft)
    assert streaming.report.mean_tpot == pytest.approx(exact.report.mean_tpot)
    # Streaming mode keeps no records by design.
    assert streaming.requests == []

    # P² percentiles track the exact ones within sketch tolerance.
    for name in ("ttft", "tpot", "e2e"):
        exact_pcts = getattr(exact.report, name)
        stream_pcts = getattr(streaming.report, name)
        for percentile, exact_value in exact_pcts.items():
            assert stream_pcts[percentile] == pytest.approx(
                exact_value, rel=0.15
            )


# ----------------------------------------------------------------------
# Incremental routing vs. the polling reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "router,prefix_cache",
    [("least-loaded", False), ("cache-aware", True)],
)
def test_incremental_routing_matches_polling(
    backend, router, prefix_cache, monkeypatch
):
    """The O(1) router state never changes a routing decision.

    The polling side runs the same event loop with the reference
    ``_route_fn`` patched in where ``_serve`` builds the incremental router.
    """
    num_requests = 200
    results = {}
    for incremental in (False, True):
        system = make_sharded(
            backend, num_requests, router=router, prefix_cache=prefix_cache
        )
        if not incremental:
            monkeypatch.setattr(
                system,
                "_incremental_route_fn",
                lambda shard_router, cores, system=system: system._route_fn(
                    shard_router
                ),
            )
        results[incremental] = run_stream(system, num_requests)
    polling, incremental = results[False], results[True]
    assert incremental.makespan == polling.makespan
    assert [sr.shard_id for sr in incremental.requests] == [
        sr.shard_id for sr in polling.requests
    ]
    assert per_request_instants(incremental.requests) == per_request_instants(
        polling.requests
    )
    assert [s.as_row() for s in incremental.shard_stats] == [
        s.as_row() for s in polling.shard_stats
    ]


@pytest.mark.parametrize("num_shards", [1, 2])
def test_busy_accumulators_match_step_scan(backend, num_shards):
    """The engine's O(1) busy totals equal a scan over its step list.

    An overlapped, chunked run mixes decode and prefill work in one step,
    so all four totals are non-trivial.  One shard checks the totals
    ``ServingSystem`` reports; two shards check each sharded core's.
    """
    num_requests = 120
    options = {"overlap": True, "chunk_prefill_tokens": 96}
    if num_shards == 1:
        result = run_stream(make_single(backend, num_requests, **options), num_requests)
        engines = [
            (
                result.steps,
                (
                    result.busy_s,
                    result.decode_busy_total,
                    result.prefill_busy_total,
                    result.overlapped_total,
                ),
            )
        ]
    else:
        system = make_sharded(backend, num_requests, num_shards=2, **options)
        _, cores, _, _, _ = system._serve(PoissonProcess(120.0), num_requests, SEED)
        engines = [
            (
                core.steps,
                (
                    core.busy_time,
                    core.decode_stream_busy,
                    core.prefill_stream_busy,
                    core.overlapped_time,
                ),
            )
            for core in cores
        ]
    for steps, totals in engines:
        assert any(step.kind == "mixed" for step in steps)
        assert totals == (
            sum(step.duration for step in steps),
            sum(step.decode_time for step in steps),
            sum(step.prefill_time for step in steps),
            sum(step.overlapped_time for step in steps),
        )
        assert totals[3] > 0.0


def test_load_counter_matches_scan(backend):
    """The incremental load counter equals the O(n) scan it replaced."""
    num_requests = 120
    workload = chat(generation_len=GENERATION_LEN, num_requests=num_requests)
    policy = backend.select_policy(workload)
    step_model = EngineStepModel(backend, workload, policy)
    core = EngineCore(step_model=step_model, max_queue_depth=8)
    rate = 4.0 * offline_capacity(backend, workload, policy)
    stream = PoissonProcess(rate).generate_lazy(
        workload, count=num_requests, seed=SEED
    )
    for timed in stream:
        core.offer(
            ServingRequest(request=timed.request, arrival_time=timed.arrival_time)
        )
        assert core._load == core.load()
        # Drive steps opportunistically so admissions, retirements and
        # oversized rejections all exercise the counter.
        if not core.step_in_flight and core.has_work():
            core.begin_step()
            assert core._load == core.load()
        if core.step_in_flight:
            core.complete_step()
            assert core._load == core.load()
    core.drain()
    assert core._load == core.load() == 0


# ----------------------------------------------------------------------
# Memory flatness
# ----------------------------------------------------------------------
def test_streaming_memory_is_flat_in_stream_length(backend):
    """4x the requests must not cost 4x the memory (or anywhere near it).

    The streaming path holds one in-flight arrival plus the live working
    set; peak traced memory at 100k requests stays within a small factor
    of the 25k peak (fixed overheads: step-model memo, interpreter noise)
    instead of scaling with the stream.
    """
    rate = sustainable_rate(backend, num_shards=4)
    peaks = {}
    for num_requests in (25_000, 100_000):
        system = make_sharded(
            backend, num_requests, num_shards=4, store_samples=False
        )
        tracemalloc.start()
        result = run_stream(system, num_requests, rate=rate)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[num_requests] = peak
        assert result.report.num_completed + result.report.num_rejected == (
            num_requests
        )
    assert peaks[100_000] < 2.0 * peaks[25_000]
    # Absolute sanity: far below what 100k stored ServingRequests need.
    assert peaks[100_000] < 120e6


def test_lazy_hash_memory_is_flat_in_stream_length(backend):
    """Cache-aware streaming stays flat too: hashes, no token lists.

    The prefix-cache hot path carries each prompt as a per-session hash
    row plus a lazy token source — never a materialised token tuple — and
    the shard stores' residency is bounded by their pools, not by the
    stream.  4x the requests must stay within a small factor of the peak
    (per-session hash rows and interpreter noise are the only growth).
    """
    rate = sustainable_rate(backend, num_shards=4)
    peaks = {}
    for num_requests in (10_000, 40_000):
        system = make_sharded(
            backend,
            num_requests,
            num_shards=4,
            router="cache-aware",
            prefix_cache=True,
            store_samples=False,
        )
        tracemalloc.start()
        result = run_stream(system, num_requests, rate=rate)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[num_requests] = peak
        assert result.report.num_completed + result.report.num_rejected == (
            num_requests
        )
    assert peaks[40_000] < 2.0 * peaks[10_000]
    # Absolute sanity: far below what 40k stored token tuples need.
    assert peaks[40_000] < 80e6


def test_streaming_percentiles_agree_with_exact_at_scale(backend):
    """P² vs. exact on a long stream: the sketch is a faithful reporter."""
    num_requests = 30_000
    rate = sustainable_rate(backend, num_shards=4)
    exact = run_stream(
        make_sharded(backend, num_requests, num_shards=4),
        num_requests,
        rate=rate,
    )
    streaming = run_stream(
        make_sharded(backend, num_requests, num_shards=4, store_samples=False),
        num_requests,
        rate=rate,
    )
    assert streaming.makespan == exact.makespan
    assert streaming.report.goodput == exact.report.goodput
    assert streaming.report.num_completed == exact.report.num_completed
    for name in ("ttft", "tpot", "e2e"):
        exact_pcts = getattr(exact.report, name)
        stream_pcts = getattr(streaming.report, name)
        for percentile, exact_value in exact_pcts.items():
            assert stream_pcts[percentile] == pytest.approx(
                exact_value, rel=0.1
            )
