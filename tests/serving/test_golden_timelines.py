"""Golden timeline fingerprints for seeded single-engine serving runs.

Each scenario runs :class:`~repro.serving.ServingSystem` on a seeded
stream and hashes three things with SHA-256:

* every request's positional ``(arrival, admit, first_token, finish,
  state, tokens_decoded)`` tuple, floats rendered with ``repr``;
* the makespan;
* ``report.as_row()``.

The hashes were computed once, on the hand-written single-engine loop that
predates ``ServingSystem`` becoming a one-shard facade over the event loop,
so they pin today's behaviour to that loop rather than to whatever the
current implementation produces.  Never regenerate them to make a change
pass: a mismatch means a timeline moved.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.serving_sweep import offline_capacity
from repro.serving import PoissonProcess, RequestState, ServingSystem
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
