"""Tests for the paged memory pools and page tables."""

import pytest

from repro.runtime.memory_manager import MemoryPool, PageTable
from repro.utils.errors import MemoryManagerError


def test_pool_page_count_and_capacity():
    pool = MemoryPool(name="gpu", capacity_bytes=1000, page_bytes=100)
    assert pool.num_pages == 10
    assert pool.capacity_bytes == 1000
    assert pool.free_pages == 10


def test_pool_rejects_capacity_smaller_than_a_page():
    with pytest.raises(MemoryManagerError):
        MemoryPool(name="p", capacity_bytes=50, page_bytes=100)


def test_allocate_rounds_up_to_pages():
    pool = MemoryPool(name="p", capacity_bytes=1000, page_bytes=100)
    allocation = pool.allocate(250)
    assert allocation.num_pages == 3
    assert pool.used_pages == 3
    assert pool.used_bytes == 300
    assert 0.0 < pool.utilization < 1.0


def test_allocation_and_free_round_trip():
    pool = MemoryPool(name="p", capacity_bytes=1000, page_bytes=100)
    allocation = pool.allocate(500)
    pool.free(allocation)
    assert pool.free_pages == 10
    with pytest.raises(MemoryManagerError):
        pool.free(allocation)  # double free


def test_out_of_memory_raises():
    pool = MemoryPool(name="p", capacity_bytes=300, page_bytes=100)
    pool.allocate(300)
    assert not pool.can_allocate(100)
    with pytest.raises(MemoryManagerError):
        pool.allocate(1)


def test_pages_are_reused_after_free():
    pool = MemoryPool(name="p", capacity_bytes=200, page_bytes=100)
    first = pool.allocate(200)
    pool.free(first)
    second = pool.allocate(200)
    assert set(second.pages) == set(first.pages)


def test_free_foreign_allocation_rejected():
    a = MemoryPool(name="a", capacity_bytes=200, page_bytes=100)
    b = MemoryPool(name="b", capacity_bytes=200, page_bytes=100)
    allocation = a.allocate(100)
    with pytest.raises(MemoryManagerError):
        b.free(allocation)


def test_reset_clears_all_allocations():
    pool = MemoryPool(name="p", capacity_bytes=400, page_bytes=100)
    pool.allocate(400)
    pool.reset()
    assert pool.free_pages == 4


def test_zero_byte_allocation_uses_no_pages():
    pool = MemoryPool(name="p", capacity_bytes=400, page_bytes=100)
    allocation = pool.allocate(0)
    assert allocation.num_pages == 0
    assert pool.used_pages == 0


def test_page_table_map_lookup_unmap():
    pool = MemoryPool(name="p", capacity_bytes=400, page_bytes=100)
    table = PageTable()
    allocation = pool.allocate(200)
    table.map(("expert", 3), allocation)
    assert ("expert", 3) in table
    assert table.lookup(("expert", 3)) == allocation.pages
    table.unmap(("expert", 3))
    assert ("expert", 3) not in table
    with pytest.raises(MemoryManagerError):
        table.lookup(("expert", 3))


def test_take_page_ids_matches_allocate_order_and_frees():
    """Bare page ids come out exactly as ``allocate`` would hand them out."""
    records = MemoryPool(name="p", capacity_bytes=1000, page_bytes=100)
    bare = MemoryPool(name="p", capacity_bytes=1000, page_bytes=100)
    for needed in (1, 3, 1, 2):
        assert bare.take_page_ids(needed) == records.allocate(needed * 100).pages
    assert bare.used_pages == records.used_pages == 7
    pages = bare.take_page_ids(1)
    bare.free_page_ids(pages)
    with pytest.raises(MemoryManagerError):
        bare.free_page_ids(pages)  # double free
    with pytest.raises(MemoryManagerError):
        bare.take_page_ids(4)  # only 3 pages left
    assert bare.free_pages == 3
