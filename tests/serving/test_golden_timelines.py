"""Golden timeline fingerprints for seeded serving runs.

Each single-engine scenario runs :class:`~repro.serving.ServingSystem` on
a seeded stream and hashes three things with SHA-256:

* every request's positional ``(arrival, admit, first_token, finish,
  state, tokens_decoded)`` tuple, floats rendered with ``repr``;
* the makespan;
* ``report.as_row()``.

The hashes were computed once, on the hand-written single-engine loop that
predates ``ServingSystem`` becoming a one-shard facade over the event loop,
so they pin today's behaviour to that loop rather than to whatever the
current implementation produces.  Never regenerate them to make a change
pass: a mismatch means a timeline moved.

The sharded scenarios run :class:`~repro.serving.ShardedServingSystem`
and hash the same three things plus each request's ``shard_id`` and every
shard's ``ShardStats.as_row()``.  Their hashes were computed on the
constructor that still carried the queue-ordering, context-bucket and
routing-path options and priced each device's shard on its own step model.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster.spec import ClusterSpec, DeviceSpec
from repro.experiments.serving_sweep import offline_capacity
from repro.hardware import get_hardware
from repro.serving import (
    FaultSchedule,
    PoissonProcess,
    RequestState,
    ResiliencePolicy,
    ServingSystem,
    ShardedServingSystem,
)
from repro.systems import FlexGenSystem, MoELightningSystem
from repro.workloads import chat, mtbench

NUM_REQUESTS = 32
SEED = 0

#: name -> (backend, workload, load factor, request count, ServingSystem options)
SCENARIOS = {
    "default": ("moe-lightning", "mtbench", 4.0, NUM_REQUESTS, {}),
    "overlap": ("moe-lightning", "chat", 3.0, NUM_REQUESTS, {"overlap": True}),
    "chunked": (
        "moe-lightning",
        "mtbench",
        4.0,
        NUM_REQUESTS,
        {"chunk_prefill_tokens": 96},
    ),
    "prefix-cache-ttl": (
        "moe-lightning",
        "chat",
        0.5,
        NUM_REQUESTS,
        {"prefix_cache": True, "chunk_prefill_tokens": 96, "session_ttl": 2.0},
    ),
    "flexgen-padded": ("flexgen", "mtbench", 2.0, 16, {}),
    "bounded-queue": (
        "moe-lightning",
        "mtbench",
        6.0,
        NUM_REQUESTS,
        {"max_queue_depth": 4},
    ),
    "simulator": ("moe-lightning", "mtbench", 2.0, 8, {"use_simulator": True}),
}

GOLDEN = {
    "default": (
        "dea33679ea289c491973bac2ed00d727e96f37d9179d84771d5e1c800456f44f"
    ),
    "overlap": (
        "1c16d02f8abef42d81da37a799ef5633dfa026e588464b5dab106f0a2565bf24"
    ),
    "chunked": (
        "0988079a6d157de59f361a60fedab9ef2876b01aed489f8c72bdf8aeadbcbcc2"
    ),
    "prefix-cache-ttl": (
        "c2ea5e975a3b495437cbeb5275a178cf8562ef4b81a15e4bb40b2babdac96a8d"
    ),
    "flexgen-padded": (
        "bd6527efea906efbb7a5fbe3af86e12a23c10b598bd2ad142502dce7597c1023"
    ),
    "bounded-queue": (
        "71f2ba04f8853945d80be29a2bb7606936a92291e0a0104f6ade2be7602a7f5c"
    ),
    "simulator": (
        "ea0d44a7c75ca5c2f694df0960e4dab49910cd2edc5032aa96d0c12fbb0de6f6"
    ),
}

BACKENDS = {"moe-lightning": MoELightningSystem, "flexgen": FlexGenSystem}


def run_scenario(name, model, node):
    backend_name, workload_name, load_factor, count, options = SCENARIOS[name]
    if workload_name == "chat":
        workload = chat(generation_len=8, num_requests=count)
    else:
        workload = mtbench(generation_len=8, num_requests=count)
    backend = BACKENDS[backend_name](model, node)
    serving = ServingSystem(backend, workload, **options)
    rate = load_factor * offline_capacity(backend, workload, serving.policy)
    return serving.run(PoissonProcess(rate), count=count, seed=SEED)


def fingerprint(result) -> str:
    timeline = [
        (
            sr.arrival_time,
            sr.admit_time,
            sr.first_token_time,
            sr.finish_time,
            sr.state.name,
            sr.tokens_decoded,
        )
        for sr in result.requests
    ]
    text = repr((timeline, result.makespan, result.report.as_row()))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_timeline_matches_golden_fingerprint(name, mixtral, t4_node):
    result = run_scenario(name, mixtral, t4_node)
    assert fingerprint(result) == GOLDEN[name]


def test_scenarios_exercise_their_feature(mixtral, t4_node):
    """Each scenario reaches the code path it is named for."""
    overlap = run_scenario("overlap", mixtral, t4_node)
    assert overlap.overlap_fraction > 0.0
    chunked = run_scenario("chunked", mixtral, t4_node)
    assert any(step.kind == "mixed" for step in chunked.steps)
    cached = run_scenario("prefix-cache-ttl", mixtral, t4_node)
    assert cached.report.hit_rate > 0.0
    assert cached.admission_stats["ttl_evictions"] > 0
    padded = run_scenario("flexgen-padded", mixtral, t4_node)
    assert {sr.request.effective_input_len for sr in padded.requests} == {
        padded.requests[0].request.effective_input_len
    }
    assert any(
        sr.request.effective_input_len > sr.request.input_len
        for sr in padded.requests
    )
    bounded = run_scenario("bounded-queue", mixtral, t4_node)
    assert any(sr.state is RequestState.REJECTED for sr in bounded.requests)


# ----------------------------------------------------------------------
# Sharded scenarios
# ----------------------------------------------------------------------
SHARDED_REQUESTS = 48

#: name -> (load factor over one engine's offline capacity, options);
#: every scenario serves chat on moe-lightning over four shards.
SHARDED_SCENARIOS = {
    "sharded-least-loaded-overlap": (
        8.0,
        {"num_shards": 4, "router": "least-loaded", "overlap": True},
    ),
    "sharded-cache-aware-ttl": (
        2.0,
        {
            "num_shards": 4,
            "router": "cache-aware",
            "prefix_cache": True,
            "chunk_prefill_tokens": 96,
            "session_ttl": 2.0,
        },
    ),
    "sharded-disagg-crash": (
        4.0,
        {
            "num_shards": 4,
            "disaggregated": True,
            "resilience": ResiliencePolicy(max_retries=2),
        },
    ),
    "sharded-heterogeneous-devices": (4.0, {}),
}

SHARDED_GOLDEN = {
    "sharded-cache-aware-ttl": (
        "df3fa3a6e7a1fd87ee5cd9a8424145e7954eabbfaada711c36cadef89ad1934a"
    ),
    "sharded-disagg-crash": (
        "e6ac9ec5a93689c1322c614dbaa7700b76c7bd1f11b2421a6b61fd211bc31db2"
    ),
    "sharded-heterogeneous-devices": (
        "e6b15392ee0ce8484835194e69b2af2ff45d50d049063fda91ef3ca5e264596c"
    ),
    "sharded-least-loaded-overlap": (
        "cbbd32ee5f795b11d47ec939e7c616bd6f81311188be64476ee2e8f18ae9e85f"
    ),
}


def make_sharded_system(name, model, node):
    load_factor, options = SHARDED_SCENARIOS[name]
    workload = chat(generation_len=8, num_requests=SHARDED_REQUESTS)
    backend = MoELightningSystem(model, node)
    options = dict(options)
    if name == "sharded-heterogeneous-devices":
        l4 = get_hardware("1xL4")
        options["cluster"] = ClusterSpec.of_devices(
            [
                DeviceSpec(device_id=0, node=l4, role="prefill"),
                DeviceSpec(device_id=1, node=l4, role="prefill"),
                DeviceSpec(device_id=2, node=node, role="decode"),
                DeviceSpec(device_id=3, node=node, role="decode"),
            ]
        )
    policy = backend.select_policy(workload)
    rate = load_factor * offline_capacity(backend, workload, policy)
    if name == "sharded-disagg-crash":
        # Prefill shard 0 dies a third of the way through the arrivals and
        # reloads at the halfway mark; its dropped prompts retry.
        horizon = SHARDED_REQUESTS / rate
        options["faults"] = FaultSchedule.transient_crash(
            0, at=horizon / 3, recover_at=horizon / 2, load_time=horizon / 20
        )
    return ShardedServingSystem(backend, workload, policy=policy, **options), rate


def run_sharded_scenario(name, model, node):
    system, rate = make_sharded_system(name, model, node)
    return system.run(PoissonProcess(rate), count=SHARDED_REQUESTS, seed=SEED)


def sharded_fingerprint(result) -> str:
    timeline = [
        (
            sr.arrival_time,
            sr.admit_time,
            sr.first_token_time,
            sr.finish_time,
            sr.state.name,
            sr.tokens_decoded,
            sr.shard_id,
        )
        for sr in result.requests
    ]
    shards = [stats.as_row() for stats in result.shard_stats]
    text = repr((timeline, result.makespan, result.report.as_row(), shards))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SHARDED_SCENARIOS))
def test_sharded_timeline_matches_golden_fingerprint(name, mixtral, t4_node):
    result = run_sharded_scenario(name, mixtral, t4_node)
    assert sharded_fingerprint(result) == SHARDED_GOLDEN[name]


def test_sharded_scenarios_exercise_their_feature(mixtral, t4_node):
    """Each sharded scenario reaches the code path it is named for."""
    overlap = run_sharded_scenario(
        "sharded-least-loaded-overlap", mixtral, t4_node
    )
    assert overlap.router == "least-loaded"
    assert overlap.overlap_fraction > 0.0
    assert all(stats.offered > 0 for stats in overlap.shard_stats)
    cached = run_sharded_scenario("sharded-cache-aware-ttl", mixtral, t4_node)
    assert cached.report.hit_rate > 0.0
    assert cached.admission_stats["ttl_evictions"] > 0
    crashed = run_sharded_scenario("sharded-disagg-crash", mixtral, t4_node)
    assert crashed.router == "phase-aware"
    assert crashed.fault_stats["crashes"] == 1
    assert crashed.fault_stats["recoveries"] == 1
    assert crashed.report.outcomes.get("crash", 0) > 0
    assert any(sr.attempt > 0 for sr in crashed.requests)
    mixed = run_sharded_scenario(
        "sharded-heterogeneous-devices", mixtral, t4_node
    )
    assert [stats.role for stats in mixed.shard_stats] == [
        "prefill",
        "prefill",
        "decode",
        "decode",
    ]
    assert sum(stats.migrated_in for stats in mixed.shard_stats) > 0


def test_same_node_shards_share_one_step_model(mixtral, t4_node):
    """Shards on the same node price steps through one shared memo."""
    system, _ = make_sharded_system(
        "sharded-heterogeneous-devices", mixtral, t4_node
    )
    models = [core.step_model for core in system._make_cores()]
    assert models[0] is models[1] and models[2] is models[3]
    assert models[0] is not models[2]
