"""Shared, reference-counted KV block store with prefix caching.

The per-sequence paged KV cache of :mod:`repro.runtime.kv_cache` gives every
sequence exclusive ownership of its pages.  This module replaces that
ownership model with a *shared block store* in the style of vLLM's prefix
caching / SGLang's RadixAttention:

* the KV cache is divided into fixed-size **blocks** of ``block_tokens``
  token positions (all layers of one block are stored together);
* a *full* block whose content is a pure function of the token prefix it
  holds carries a **chained content hash** (the hash of its tokens combined
  with the previous block's hash), so two sequences with the same prompt
  prefix map to the *same physical block*;
* blocks are **reference counted**: a block is shared by every sequence
  whose block table points at it, charged to the memory pools exactly once,
  and becomes evictable — not freed — when its refcount drops to zero;
* refcount-zero hashed blocks form the **prefix cache** and are reclaimed
  in LRU order only when an allocation actually needs their pages;
* a sequence that needs to *write into* a shared block (divergence below a
  cached prefix) triggers **copy-on-write**: it gets a private copy and
  drops its reference to the shared original.

Invariants (property-tested in ``tests/properties``):

* a refcount is never negative;
* bytes in use equal the sum over *unique* resident blocks — sharers are
  never double counted;
* eviction only ever selects blocks with a zero refcount;
* with no matching prefixes the store degenerates to per-sequence
  allocation: every block is private and freed as soon as its one owner
  releases it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from repro.runtime.memory_manager import MemoryPool
from repro.utils.errors import MemoryManagerError
from repro.utils.validation import require_positive, require_positive_int

#: Multiplier of the polynomial rolling hash chaining tokens into block
#: hashes (CPython's own string-hash multiplier; any odd constant works).
_HASH_MULTIPLIER = 1000003
_HASH_MODULUS = 2**64


def chain_block_hashes(
    token_ids: Sequence[int], block_tokens: int
) -> list[int]:
    """Chained content hashes of every *full* block of ``token_ids``.

    Hash ``i`` covers tokens ``[0, (i + 1) * block_tokens)``: it mixes block
    ``i``'s tokens into block ``i - 1``'s hash, so equal hashes imply equal
    whole prefixes, not merely equal block contents.  The hash is a plain
    deterministic polynomial — stable across processes and runs.
    """
    require_positive_int("block_tokens", block_tokens)
    return list(_chain_block_hashes_cached(tuple(token_ids), block_tokens))


@lru_cache(maxsize=8192)
def _chain_block_hashes_cached(
    token_ids: tuple[int, ...], block_tokens: int
) -> tuple[int, ...]:
    """Memoised hashing: one admission hashes the same prompt several times
    (capacity check, registration, per-shard routing probes)."""
    hashes: list[int] = []
    value = 0x9E3779B97F4A7C15  # non-zero seed so a zero-token prefix hashes apart
    full_blocks = len(token_ids) // block_tokens
    for block_index in range(full_blocks):
        start = block_index * block_tokens
        for token in token_ids[start : start + block_tokens]:
            value = (value * _HASH_MULTIPLIER + int(token) + 1) % _HASH_MODULUS
        hashes.append(value)
    return tuple(hashes)


@dataclass(slots=True)
class KVBlock:
    """One fixed-size KV block: the unit of sharing, charging and eviction."""

    block_id: int
    num_tokens: int
    ref_count: int = 0
    block_hash: int | None = None
    #: Page ids charged in each pool (empty for a pool the split skips).
    #: Bare ids rather than ``PagedAllocation`` records: blocks are
    #: the store's most numerous long-lived objects, so each carries no
    #: extra garbage-collected object per pool.
    cpu_pages: tuple[int, ...] = ()
    gpu_pages: tuple[int, ...] = ()
    #: Bytes charged for this block in each pool (page-rounded).
    cpu_bytes: float = 0.0
    gpu_bytes: float = 0.0
    last_use: int = 0
    #: Whether the block currently sits in the store's reusable cache
    #: (refcount zero, retained for prefix matching) and is therefore
    #: counted in the store's incremental reclaim totals.
    cached: bool = False
    #: Simulated instant the block entered the cache (idleness start);
    #: TTL eviction compares this against the session-idle cutoff.
    last_touch_time: float = 0.0

    @property
    def is_shareable(self) -> bool:
        """Whether the block is indexed by content (a full prefix block)."""
        return self.block_hash is not None


class SharedBlockStore:
    """Ref-counted KV blocks over CPU/GPU memory pools with LRU reuse.

    ``block_bytes`` is the full KV footprint of one block across all layers;
    ``gpu_ratio`` splits every block between the pools exactly as the
    policy's ``r_c`` splits per-sequence allocations in the unshared path.
    """

    def __init__(
        self,
        cpu_pool: MemoryPool,
        block_bytes: float,
        block_tokens: int,
        gpu_pool: MemoryPool | None = None,
        gpu_ratio: float = 0.0,
    ) -> None:
        require_positive("block_bytes", block_bytes)
        require_positive_int("block_tokens", block_tokens)
        if gpu_ratio > 0 and gpu_pool is None:
            raise MemoryManagerError(
                "gpu_ratio > 0 requires a GPU memory pool for the block store"
            )
        self.cpu_pool = cpu_pool
        self.gpu_pool = gpu_pool
        self.gpu_ratio = min(1.0, gpu_ratio)
        self.block_bytes = float(block_bytes)
        self.block_tokens = block_tokens
        # Every block charges the same byte split and hence the same page
        # counts; hoist them out of the per-block hot paths (allocate,
        # cache/uncache, admission capacity checks).
        gpu_block_bytes = self.block_bytes * self.gpu_ratio
        self._block_cpu_bytes = self.block_bytes - gpu_block_bytes
        self._block_gpu_bytes = gpu_block_bytes
        self._block_cpu_pages = cpu_pool.pages_needed(self._block_cpu_bytes)
        self._block_gpu_pages = (
            gpu_pool.pages_needed(gpu_block_bytes) if gpu_pool is not None else 0
        )
        self._block_cpu_charge = self._block_cpu_pages * cpu_pool.page_bytes
        self._block_gpu_charge = (
            self._block_gpu_pages * gpu_pool.page_bytes if gpu_pool is not None else 0.0
        )
        self.blocks: dict[int, KVBlock] = {}
        self._hash_index: dict[int, int] = {}
        self._next_block_id = 0
        self._clock = 0
        self.evictions = 0
        self.ttl_evictions = 0
        self.crash_drops = 0
        self.cow_copies = 0
        #: Simulated time, advanced (monotonically) by the engine that owns
        #: the store; only consulted by TTL eviction, so stores driven
        #: without a clock behave exactly as before.
        self.clock_time = 0.0
        #: Bumped on every content-index mutation (block registered or
        #: evicted); routers memoise prefix matches against this, so a
        #: stale memo can never survive an index change.
        self.version = 0
        # Incremental accounting: every admission capacity check and every
        # telemetry snapshot used to scan all resident blocks, which made
        # long streams quadratic in the request count.  These counters
        # track the same totals under O(1) updates at each block
        # transition (allocate / refcount 0 <-> positive / free).
        self._total_cpu_pages = 0
        self._total_gpu_pages = 0
        self._cached_cpu_pages = 0
        self._cached_gpu_pages = 0
        self._num_cached = 0
        # LRU eviction order: the cached blocks keyed by id, oldest first.
        # A block enters the cache right after a touch sets its
        # ``last_use`` to the newest clock value, so insertion order is
        # ``last_use`` order and the head is always the LRU victim.
        self._lru: OrderedDict[int, KVBlock] = OrderedDict()

    # ------------------------------------------------------------------
    # Introspection / accounting
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Resident blocks, referenced or cached."""
        return len(self.blocks)

    @property
    def num_cached_blocks(self) -> int:
        """Resident blocks with no referents (the reusable prefix cache)."""
        return self._num_cached

    def bytes_in_use(self, live_only: bool = False) -> tuple[float, float]:
        """(cpu, gpu) bytes charged across unique resident blocks.

        ``live_only`` restricts the sum to blocks with a positive refcount;
        either way each block is counted exactly once no matter how many
        sequences share it.  Allocations are whole pages, so page counters
        reproduce the per-block byte sum exactly.
        """
        cpu_pages = self._total_cpu_pages
        gpu_pages = self._total_gpu_pages
        if live_only:
            cpu_pages -= self._cached_cpu_pages
            gpu_pages -= self._cached_gpu_pages
        cpu = cpu_pages * self.cpu_pool.page_bytes
        gpu = gpu_pages * self.gpu_pool.page_bytes if self.gpu_pool else 0.0
        return cpu, gpu

    def occupancy(self) -> dict[str, float]:
        """Point-in-time occupancy snapshot (the telemetry sampler's view).

        ``blocks``/``cached_blocks`` count resident and reusable (refcount
        zero) blocks; byte totals count each unique block once, with the
        ``live_*`` pair restricted to referenced blocks.
        """
        cpu_bytes, gpu_bytes = self.bytes_in_use()
        live_cpu, live_gpu = self.bytes_in_use(live_only=True)
        return {
            "blocks": float(self.num_blocks),
            "cached_blocks": float(self.num_cached_blocks),
            "cpu_bytes": cpu_bytes,
            "gpu_bytes": gpu_bytes,
            "live_cpu_bytes": live_cpu,
            "live_gpu_bytes": live_gpu,
        }

    def _split_bytes(self) -> tuple[float, float]:
        return self._block_cpu_bytes, self._block_gpu_bytes

    def _cache(self, block: KVBlock) -> None:
        """Count a block entering the reusable cache (refcount hit zero)."""
        block.cached = True
        block.last_touch_time = self.clock_time
        self._num_cached += 1
        # Per-block page counts are store constants (zero for a pool the
        # split does not touch), so no allocation needs to be consulted.
        self._cached_cpu_pages += self._block_cpu_pages
        self._cached_gpu_pages += self._block_gpu_pages
        self._lru[block.block_id] = block

    def _uncache(self, block: KVBlock) -> None:
        """Count a block leaving the cache (re-acquired or freed)."""
        if not block.cached:
            return
        block.cached = False
        self._num_cached -= 1
        self._cached_cpu_pages -= self._block_cpu_pages
        self._cached_gpu_pages -= self._block_gpu_pages
        del self._lru[block.block_id]

    def _pop_lru_cached(self) -> KVBlock | None:
        """The least-recently-used cached block (still cached: the caller
        frees it)."""
        if not self._lru:
            return None
        return next(iter(self._lru.values()))

    def allocatable_blocks(self) -> int:
        """Fresh blocks allocatable right now, counting evictable cache.

        The capacity half of :meth:`can_allocate_blocks` as a count instead
        of a verdict: how many blocks could be carved out of free pages plus
        everything LRU eviction could reclaim.  Routers use this as a KV
        headroom signal, so it runs in O(1) off the incremental counters.
        """
        limit: int | None = None
        if self._block_cpu_pages:
            available = self.cpu_pool.free_pages + self._cached_cpu_pages
            limit = available // self._block_cpu_pages
        if self._block_gpu_pages:
            assert self.gpu_pool is not None  # guaranteed by the constructor
            available = self.gpu_pool.free_pages + self._cached_gpu_pages
            gpu_limit = available // self._block_gpu_pages
            limit = gpu_limit if limit is None else min(limit, gpu_limit)
        return limit or 0

    def can_allocate_blocks(
        self, num_blocks: int, reserved_block_ids: Iterable[int] = ()
    ) -> bool:
        """Whether ``num_blocks`` fresh blocks could be carved out right now.

        Counts both free pages and the pages eviction could reclaim, minus
        the cached blocks in ``reserved_block_ids`` (a prefix match about to
        be acquired must not be double-counted as reclaimable).  Runs in
        O(reserved) off the incremental cache counters — this sits on the
        admission hot path, once per arrival.
        """
        if num_blocks <= 0:
            return True
        reserved_cached = 0
        if reserved_block_ids:
            blocks = self.blocks
            for block_id in set(reserved_block_ids):
                block = blocks.get(block_id)
                if block is not None and block.cached:
                    reserved_cached += 1
        ok = True
        if self._block_cpu_pages:
            needed = self._block_cpu_pages * num_blocks
            reclaim = (
                self._cached_cpu_pages - reserved_cached * self._block_cpu_pages
            )
            ok = needed <= self.cpu_pool.free_pages + reclaim
        if ok and self._block_gpu_pages:
            assert self.gpu_pool is not None  # guaranteed by the constructor
            needed = self._block_gpu_pages * num_blocks
            reclaim = (
                self._cached_gpu_pages - reserved_cached * self._block_gpu_pages
            )
            ok = needed <= self.gpu_pool.free_pages + reclaim
        return ok

    # ------------------------------------------------------------------
    # Prefix matching
    # ------------------------------------------------------------------
    def match_prefix(self, token_ids: Sequence[int]) -> list[int]:
        """Resident block ids matching the longest cached prefix of a prompt.

        Only consecutive leading matches count (block ``i + 1`` can never be
        reused under a differing block ``i`` — its chained hash differs), and
        the match is capped one token short of the full prompt so prefill
        always has at least one token left to compute the first logits from.
        """
        if not token_ids:
            return []
        return self.match_prefix_hashes(
            chain_block_hashes(token_ids, self.block_tokens),
            len(token_ids) - 1,
        )

    @property
    def prefix_index(self) -> dict[int, int]:
        """The live content index (chained block hash -> resident block id).

        Exposed for read-only probing: routers that fan one prompt's hash
        chain across many shards walk this directly instead of paying a
        method call per shard.  Membership here is exactly what
        :meth:`match_prefix_hashes` tests, so ``hash in prefix_index`` per
        chain position reproduces its match depth.  Callers must never
        mutate it.
        """
        return self._hash_index

    def match_prefix_hashes(
        self, block_hashes: Sequence[int], matchable_tokens: int
    ) -> list[int]:
        """:meth:`match_prefix` over pre-computed chained block hashes.

        Routers probing many shards hash the prompt once and probe each
        shard's index with this, instead of re-hashing per shard.
        ``matchable_tokens`` carries :meth:`match_prefix`'s cap of one
        token short of the full prompt — the match depends on the prompt
        length, not just its hashes.
        """
        # Block ``i`` is matchable only while ``(i + 1) * block_tokens`` fits
        # in ``matchable_tokens``: a prefix of the chain, cut once up front.
        max_blocks = matchable_tokens // self.block_tokens
        if max_blocks <= 0:
            return []
        if len(block_hashes) > max_blocks:
            block_hashes = block_hashes[:max_blocks]
        matched: list[int] = []
        hash_index = self._hash_index
        for block_hash in block_hashes:
            block_id = hash_index.get(block_hash)
            if block_id is None:
                break
            matched.append(block_id)
        return matched

    # ------------------------------------------------------------------
    # Block lifecycle
    # ------------------------------------------------------------------
    def acquire(self, block_id: int) -> KVBlock:
        """Take a reference on a resident block (a prefix-cache hit)."""
        block = self._get(block_id)
        block.ref_count += 1
        if block.ref_count == 1:
            self._uncache(block)
        self._touch(block)
        return block

    def acquire_many(self, block_ids: Iterable[int]) -> None:
        """:meth:`acquire` a whole prefix match (same order, one call).

        Registration pins every matched block; doing it in one loop keeps
        the refcount/cache/LRU transitions identical to sequential
        acquires without a method call and double dict probe per block.
        """
        blocks = self.blocks
        lru = self._lru
        clock = self._clock
        for block_id in block_ids:
            block = blocks.get(block_id)
            if block is None:
                raise MemoryManagerError(f"unknown block {block_id}")
            block.ref_count += 1
            if block.cached:
                # Inlined :meth:`_uncache`: only refcount-zero blocks are
                # ever cached, so this is the 0 -> 1 transition.
                block.cached = False
                self._num_cached -= 1
                self._cached_cpu_pages -= self._block_cpu_pages
                self._cached_gpu_pages -= self._block_gpu_pages
                del lru[block_id]
            clock += 1
            block.last_use = clock
        self._clock = clock

    def allocate_block(
        self, num_tokens: int, block_hash: int | None = None
    ) -> KVBlock:
        """Allocate a fresh block (refcount 1), evicting LRU cache if needed.

        ``block_hash`` registers the block in the content index so later
        prompts can share it; a hash collision with a resident block keeps
        the incumbent (the new block stays private).
        """
        require_positive_int("num_tokens", num_tokens)
        if num_tokens > self.block_tokens:
            raise MemoryManagerError(
                f"block holds at most {self.block_tokens} tokens, got {num_tokens}"
            )
        return self._allocate(num_tokens, block_hash)

    def _allocate(self, num_tokens: int, block_hash: int | None) -> KVBlock:
        """:meth:`allocate_block` without validation (callers guarantee
        ``0 < num_tokens <= block_tokens``)."""
        cpu_pages = self._block_cpu_pages
        gpu_pages = self._block_gpu_pages
        if cpu_pages > self.cpu_pool.free_pages or (
            gpu_pages and gpu_pages > self.gpu_pool.free_pages
        ):
            self._reclaim_for(self._block_cpu_bytes, self._block_gpu_bytes)
        block_id = self._next_block_id
        block = KVBlock(block_id, num_tokens, 1)
        self._next_block_id = block_id + 1
        if cpu_pages:
            block.cpu_pages = self.cpu_pool.take_page_ids(cpu_pages)
            block.cpu_bytes = self._block_cpu_charge
        if gpu_pages:
            assert self.gpu_pool is not None  # guaranteed by the constructor
            try:
                block.gpu_pages = self.gpu_pool.take_page_ids(gpu_pages)
            except MemoryManagerError:
                # Roll the CPU share back: the block never becomes visible,
                # so nothing else can free those pages.
                self.cpu_pool.free_page_ids(block.cpu_pages)
                raise
            block.gpu_bytes = self._block_gpu_charge
        if block_hash is not None and block_hash not in self._hash_index:
            block.block_hash = block_hash
            self._hash_index[block_hash] = block_id
            self.version += 1
        self.blocks[block_id] = block
        self._total_cpu_pages += cpu_pages
        self._total_gpu_pages += gpu_pages
        self._clock += 1
        block.last_use = self._clock
        return block

    def allocate_run(
        self,
        sizes: Sequence[int],
        hashes: Sequence[int | None],
        out_block_ids: list[int],
    ) -> None:
        """One prompt's worth of fresh blocks, as sequential allocations.

        Observably identical to calling :meth:`allocate_block` once per
        ``(size, hash)`` pair — same eviction points, ids, index/clock
        transitions — without the per-block validation.  Each committed
        block id is appended to ``out_block_ids`` immediately, so a mid-run
        pool failure leaves the committed prefix visible for the caller to
        release.  Callers guarantee every size lies in
        ``(0, block_tokens]``.
        """
        for num_tokens, block_hash in zip(sizes, hashes):
            out_block_ids.append(self._allocate(num_tokens, block_hash).block_id)

    def register_chain(
        self,
        matched_ids: Sequence[int],
        num_tokens: int,
        block_hashes: Sequence[int | None],
        out_block_ids: list[int],
    ) -> int:
        """Register one sequence's whole prefix chain in a single call.

        Fuses the admission/migration registration path — pin the prefix
        match (``matched_ids``), then carve the remaining ``num_tokens``
        minus cached tokens into fresh blocks tagged with the chain's
        remaining ``block_hashes`` — without the per-block loops and
        intermediate size/hash lists the caller used to build.  Observably
        identical to :meth:`acquire_many` followed by
        :meth:`allocate_block` per block: same eviction points, ids and
        index/clock transitions.  On a mid-run pool failure every block
        this call pinned or committed is released before re-raising, so
        the store is left exactly as found.  Returns the cached (matched)
        token count.
        """
        start = len(out_block_ids)
        try:
            if matched_ids:
                self.acquire_many(matched_ids)
                out_block_ids.extend(matched_ids)
            cached_tokens = len(matched_ids) * self.block_tokens
            remaining = num_tokens - cached_tokens
            if remaining > 0:
                block_tokens = self.block_tokens
                block_index = len(matched_ids)
                num_hashes = len(block_hashes)
                allocate = self._allocate
                append = out_block_ids.append
                while remaining > 0:
                    take = (
                        block_tokens if remaining >= block_tokens else remaining
                    )
                    # A full block lying entirely inside the known prompt is
                    # content-addressable; later prompts can share it.
                    block_hash = (
                        block_hashes[block_index]
                        if take == block_tokens and block_index < num_hashes
                        else None
                    )
                    append(allocate(take, block_hash).block_id)
                    remaining -= take
                    block_index += 1
        except MemoryManagerError:
            self.release_many(out_block_ids[start:])
            del out_block_ids[start:]
            raise
        return cached_tokens

    def append_to_block(self, block_id: int, num_tokens: int) -> KVBlock:
        """Grow a *private* partial block in place (decode-token append).

        Shared or content-indexed blocks are immutable; callers must
        copy-on-write first (:meth:`copy_on_write`).
        """
        require_positive_int("num_tokens", num_tokens)
        block = self._get(block_id)
        if block.ref_count != 1 or block.is_shareable:
            raise MemoryManagerError(
                f"block {block_id} is shared or content-indexed; "
                "copy-on-write before appending"
            )
        if block.num_tokens + num_tokens > self.block_tokens:
            raise MemoryManagerError(
                f"append of {num_tokens} tokens overflows block {block_id} "
                f"({block.num_tokens}/{self.block_tokens} used)"
            )
        block.num_tokens += num_tokens
        self._touch(block)
        return block

    def copy_on_write(self, block_id: int) -> KVBlock:
        """Diverge from a shared block: private copy, drop the shared ref.

        The copy charges its own pages (the defining cost of divergence);
        the original keeps its other sharers and its place in the content
        index.
        """
        original = self._get(block_id)
        if original.ref_count <= 0:
            raise MemoryManagerError(
                f"copy-on-write of unreferenced block {block_id}"
            )
        copy = self.allocate_block(original.num_tokens)
        self.release(block_id)
        self.cow_copies += 1
        return copy

    def release(self, block_id: int) -> None:
        """Drop one reference; free or retain the block at refcount zero.

        Hashed blocks are *retained* as prefix cache (freed only by LRU
        eviction under allocation pressure); private blocks can never be
        re-matched, so they are freed immediately.
        """
        block = self._get(block_id)
        if block.ref_count <= 0:
            raise MemoryManagerError(
                f"refcount underflow: block {block_id} released at "
                f"refcount {block.ref_count}"
            )
        block.ref_count -= 1
        if block.ref_count == 0:
            if block.is_shareable:
                self._touch(block)
                self._cache(block)
            else:
                self._free(block)

    def release_many(self, block_ids: Iterable[int]) -> None:
        """Release a sequence's whole block table (same order, one loop).

        Observably identical to :meth:`release` per block; the touch and
        cache transitions of hashed blocks are inlined (this runs once per
        finished request).
        """
        blocks = self.blocks
        lru = self._lru
        for block_id in block_ids:
            block = blocks.get(block_id)
            if block is None:
                raise MemoryManagerError(f"unknown block {block_id}")
            ref_count = block.ref_count
            if ref_count <= 0:
                raise MemoryManagerError(
                    f"refcount underflow: block {block_id} released at "
                    f"refcount {ref_count}"
                )
            block.ref_count = ref_count = ref_count - 1
            if ref_count == 0:
                if block.block_hash is not None:
                    self._clock += 1
                    block.last_use = self._clock
                    block.cached = True
                    block.last_touch_time = self.clock_time
                    self._num_cached += 1
                    self._cached_cpu_pages += self._block_cpu_pages
                    self._cached_gpu_pages += self._block_gpu_pages
                    lru[block_id] = block
                else:
                    self._free(block)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _reclaim_for(self, cpu_bytes: float, gpu_bytes: float) -> None:
        """Evict LRU refcount-zero blocks until one more block fits."""
        while not self._fits(cpu_bytes, gpu_bytes):
            victim = self._pop_lru_cached()
            if victim is None:
                # Nothing reclaimable: let the pool raise its usual
                # capacity error from the caller's allocate().
                return
            self._free(victim)
            self.evictions += 1

    def expire_idle(self, cutoff: float) -> int:
        """Free cached blocks idle since before ``cutoff`` (TTL eviction).

        A chat session that went quiet leaves its whole prefix chain parked
        in the cache; TTL eviction reclaims those pages ahead of allocation
        pressure.  Blocks are freed in LRU order: the integer use clock is
        monotone in simulated time, so the LRU head is also the oldest
        block by ``last_touch_time`` and the scan stops at the first
        survivor — O(evicted), not O(cached).
        Returns the number of blocks expired (also accumulated on
        ``ttl_evictions``).
        """
        expired = 0
        lru = self._lru
        while lru:
            block = next(iter(lru.values()))
            if block.last_touch_time > cutoff:
                break
            self._free(block)
            expired += 1
        self.ttl_evictions += expired
        return expired

    def drop_all_cached(self) -> int:
        """Free every cached (refcount-zero) block: crash teardown.

        A crashed shard's prefix cache does not survive the device — after
        live sequences are released, this sweep frees the remaining cached
        blocks so the store's resident bytes return to zero and no dangling
        ``prefix_index`` entries survive.  Counted separately from capacity
        and TTL evictions (``crash_drops``).  Returns the number of blocks
        dropped.
        """
        dropped = 0
        while True:
            victim = self._pop_lru_cached()
            if victim is None:
                break
            self._free(victim)
            dropped += 1
        self.crash_drops += dropped
        return dropped

    def _fits(self, cpu_bytes: float, gpu_bytes: float) -> bool:
        # Only ever asked about one block's constant split, so the page
        # needs are the precomputed per-block counts.
        if self._block_cpu_pages > self.cpu_pool.free_pages:
            return False
        if self._block_gpu_pages:
            assert self.gpu_pool is not None  # guaranteed by the constructor
            if self._block_gpu_pages > self.gpu_pool.free_pages:
                return False
        return True

    def _free(self, block: KVBlock) -> None:
        if block.ref_count != 0:
            raise MemoryManagerError(
                f"attempted to free block {block.block_id} with "
                f"refcount {block.ref_count}"
            )
        self._uncache(block)
        if block.cpu_pages:
            self.cpu_pool.free_page_ids(block.cpu_pages)
            self._total_cpu_pages -= len(block.cpu_pages)
        if block.gpu_pages:
            assert self.gpu_pool is not None  # pages imply the pool
            self.gpu_pool.free_page_ids(block.gpu_pages)
            self._total_gpu_pages -= len(block.gpu_pages)
        if block.block_hash is not None:
            self._hash_index.pop(block.block_hash, None)
            self.version += 1
        del self.blocks[block.block_id]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _get(self, block_id: int) -> KVBlock:
        if block_id not in self.blocks:
            raise MemoryManagerError(f"unknown block {block_id}")
        return self.blocks[block_id]

    def _touch(self, block: KVBlock) -> None:
        self._clock += 1
        block.last_use = self._clock


@dataclass
class BlockTable:
    """One sequence's ordered view into the shared store."""

    block_ids: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.block_ids)

    def __iter__(self):
        return iter(self.block_ids)
