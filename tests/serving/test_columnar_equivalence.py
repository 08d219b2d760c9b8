"""Columnar prefix identity vs. the eager token path: exact equivalence.

The columnar generator ships prompt *identity* (chained block hashes plus a
lazy token source) instead of token lists; the serving hot path consumes
those hashes directly.  These are the regression tests pinning the contract:

* the columnar-hash and eager-token generators emit value-identical
  :class:`~repro.workloads.request.Request` streams — lengths, sessions,
  hash chains, and (when materialised) the token tuples themselves;
* a shared block store answers ``match_prefix`` over token ids and
  ``match_prefix_hashes`` over the request's stored chain identically;
* a seeded multi-shard cache-aware chat run serves a bit-for-bit identical
  timeline whether prompts travel as eager tokens (exact mode) or as lazy
  columnar hash chains (streaming mode).
"""

import pytest

from repro.runtime.block_store import (
    SharedBlockStore,
    chain_block_hashes,
)
from repro.runtime.memory_manager import MemoryPool
from repro.serving import PoissonProcess, default_slo
from repro.serving.sharded import ShardedServingSystem
from repro.systems import MoELightningSystem
from repro.workloads import chat
from repro.workloads.generators import (
    generate_request_columns,
    generate_requests,
)

BLOCK_TOKENS = 32
SEED = 11
NUM_REQUESTS = 96


@pytest.fixture(scope="module")
def spec():
    return chat(generation_len=8, num_requests=NUM_REQUESTS)


@pytest.fixture(scope="module")
def eager(spec):
    return generate_requests(spec, seed=SEED)


@pytest.fixture(scope="module")
def columnar(spec):
    return generate_request_columns(
        spec, seed=SEED, prefix_block_tokens=BLOCK_TOKENS
    ).materialize()


# ----------------------------------------------------------------------
# Generator equivalence
# ----------------------------------------------------------------------
class TestGeneratorEquivalence:
    def test_streams_are_value_identical(self, eager, columnar):
        assert len(columnar) == len(eager)
        for lazy, full in zip(columnar, eager):
            assert lazy.input_len == full.input_len
            assert lazy.generation_len == full.generation_len
            assert lazy.session_id == full.session_id

    def test_hash_chains_match_eager_tokens(self, eager, columnar):
        for lazy, full in zip(columnar, eager):
            expected = tuple(
                chain_block_hashes(full.token_ids, BLOCK_TOKENS)
            )
            assert lazy.prefix_hashes == expected
            assert lazy.block_hash_chain(BLOCK_TOKENS) == expected

    def test_lazy_tokens_materialise_to_the_eager_tuple(self, eager, columnar):
        for lazy, full in zip(columnar, eager):
            # Reading token_ids triggers the lazy token source; the
            # regenerated tuple must be the eager path's, bit for bit.
            assert lazy.token_ids == full.token_ids


# ----------------------------------------------------------------------
# Prefix matching equivalence
# ----------------------------------------------------------------------
def test_match_prefix_hashes_agrees_with_token_matching(eager, columnar):
    """Both prompt representations see the same cached prefixes.

    Register every stream prompt's full blocks in one shared store (turn
    order, as a single busy shard would), probing before each insertion:
    the token-id probe and the stored-chain probe must agree on every
    request, hits and misses alike.
    """
    block_bytes = 1024.0
    pool = MemoryPool("cpu", 4096 * block_bytes, block_bytes)
    store = SharedBlockStore(
        cpu_pool=pool, block_bytes=block_bytes, block_tokens=BLOCK_TOKENS
    )
    acquired: list[list[int]] = []
    some_hit = some_partial = False
    for lazy, full in zip(columnar, eager):
        chain = lazy.block_hash_chain(BLOCK_TOKENS)
        matchable = full.input_len - 1
        from_tokens = store.match_prefix(full.token_ids)
        from_hashes = store.match_prefix_hashes(chain, matchable)
        assert from_tokens == from_hashes
        some_hit = some_hit or bool(from_hashes)
        some_partial = some_partial or 0 < len(from_hashes) < len(chain)
        # Register the prompt: reuse the match, allocate the rest (only
        # blocks the one-token-short cap leaves matchable).
        store.acquire_many(from_hashes)
        block_ids = list(from_hashes)
        for depth in range(len(from_hashes), matchable // BLOCK_TOKENS):
            block = store.allocate_block(BLOCK_TOKENS, block_hash=chain[depth])
            block_ids.append(block.block_id)
        acquired.append(block_ids)
    assert some_hit, "chat stream must share prefixes across turns"
    assert some_partial, "later turns must extend earlier matches"
    for block_ids in acquired:
        store.release_many(block_ids)


# ----------------------------------------------------------------------
# Serving timeline equivalence
# ----------------------------------------------------------------------
def test_cache_aware_timeline_identical_across_token_paths(mixtral, t4_node):
    """Eager tokens (exact mode) vs. columnar hashes (streaming mode).

    One seeded 4-shard cache-aware chat run per path: admission capacity
    checks, prefix matching, shared-store registration and routing all
    consume token ids on one side and stored hash chains on the other.
    The simulated timeline must not be able to tell the difference.
    """
    num_requests = 400
    backend = MoELightningSystem(mixtral, t4_node)
    workload = chat(generation_len=8, num_requests=num_requests)
    policy = backend.select_policy(workload)
    slo = default_slo(backend, workload, policy)
    results = {}
    for store_samples in (True, False):
        system = ShardedServingSystem(
            backend,
            workload,
            num_shards=4,
            router="cache-aware",
            prefix_cache=True,
            policy=policy,
            slo=slo,
            store_samples=store_samples,
        )
        results[store_samples] = system.run(
            PoissonProcess(120.0), count=num_requests, seed=SEED
        )
    exact, streaming = results[True], results[False]
    assert streaming.makespan == exact.makespan
    assert [s.as_row() for s in streaming.shard_stats] == [
        s.as_row() for s in exact.shard_stats
    ]
    report_s, report_e = streaming.report, exact.report
    assert report_s.num_offered == report_e.num_offered
    assert report_s.num_completed == report_e.num_completed
    assert report_s.num_rejected == report_e.num_rejected
    assert report_s.goodput == report_e.goodput
    assert report_s.token_throughput == report_e.token_throughput
