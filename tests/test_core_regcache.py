"""Tests for the registration cache."""

import pytest

from repro.core.regcache import RegistrationCache, aligned_range
from repro.errors import ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.via.machine import Machine


@pytest.fixture
def setup():
    m = Machine(num_frames=512, backend="kiobuf", tpt_entries=64)
    t = m.spawn("mpi")
    ua = m.user_agent(t)
    del ua  # opening the NIC allocated the protection tag
    cache = RegistrationCache(m.agent, t)
    va = t.mmap(32)
    return m, t, cache, va


class TestAlignedRange:
    def test_already_aligned(self):
        assert aligned_range(0, PAGE_SIZE) == (0, PAGE_SIZE)

    def test_subpage(self):
        assert aligned_range(100, 50) == (0, PAGE_SIZE)

    def test_straddle(self):
        base, length = aligned_range(PAGE_SIZE - 10, 20)
        assert base == 0 and length == 2 * PAGE_SIZE


class TestHitMiss:
    def test_first_acquire_misses(self, setup):
        m, t, cache, va = setup
        cache.acquire(va, PAGE_SIZE)
        assert cache.stats.misses == 1 and cache.stats.hits == 0

    def test_repeat_acquire_hits(self, setup):
        m, t, cache, va = setup
        r1 = cache.acquire(va, PAGE_SIZE)
        cache.release(va, PAGE_SIZE)
        r2 = cache.acquire(va, PAGE_SIZE)
        assert r1 is r2
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_subrange_hits_covering_entry(self, setup):
        m, t, cache, va = setup
        cache.acquire(va, 4 * PAGE_SIZE)
        cache.acquire(va + PAGE_SIZE, PAGE_SIZE)
        assert cache.stats.hits == 1

    def test_rdma_attrs_respected(self, setup):
        """A cached entry without RDMA-write enable cannot satisfy an
        RDMA-write request (the NIC would protection-fault)."""
        m, t, cache, va = setup
        cache.acquire(va, PAGE_SIZE)                    # plain
        cache.acquire(va, PAGE_SIZE, rdma_write=True)   # needs new entry
        assert cache.stats.misses == 2

    def test_released_entry_stays_registered(self, setup):
        """The whole point: release keeps the (pinned) registration."""
        m, t, cache, va = setup
        reg = cache.acquire(va, PAGE_SIZE)
        cache.release(va, PAGE_SIZE)
        assert reg.handle in m.agent.registrations
        frame = t.physical_pages(va, 1)[0]
        assert m.kernel.pagemap.table.pin_counts[frame] == 1

    def test_release_unacquired_raises(self, setup):
        m, t, cache, va = setup
        with pytest.raises(ViaError):
            cache.release(va, PAGE_SIZE)


class TestEviction:
    def test_tpt_pressure_evicts_lru(self, setup):
        """TPT has 64 entries; acquiring 5 × 16 pages must evict."""
        m, t, cache, va = setup
        big = t.mmap(128)
        for i in range(5):
            cache.acquire(big + i * 16 * PAGE_SIZE, 16 * PAGE_SIZE)
            cache.release(big + i * 16 * PAGE_SIZE, 16 * PAGE_SIZE)
        assert cache.stats.evictions >= 1
        assert m.nic.tpt.entries_used <= 64

    def test_in_use_entries_not_evicted(self, setup):
        m, t, cache, va = setup
        big = t.mmap(128)
        # Hold all acquisitions: nothing is evictable → capacity failure.
        cache.acquire(big, 16 * PAGE_SIZE)
        cache.acquire(big + 16 * PAGE_SIZE, 16 * PAGE_SIZE)
        cache.acquire(big + 32 * PAGE_SIZE, 16 * PAGE_SIZE)
        cache.acquire(big + 48 * PAGE_SIZE, 16 * PAGE_SIZE)
        with pytest.raises(ViaError):
            cache.acquire(big + 64 * PAGE_SIZE, 16 * PAGE_SIZE)
        assert cache.stats.capacity_failures == 1

    def test_max_pages_budget(self, setup):
        m, t, cache, va = setup
        cache.max_pages = 8
        cache.acquire(va, 4 * PAGE_SIZE)
        cache.release(va, 4 * PAGE_SIZE)
        cache.acquire(va + 8 * PAGE_SIZE, 8 * PAGE_SIZE)
        assert cache.pages_cached <= 8 + 8  # old entry evicted before new
        assert cache.stats.evictions == 1

    def test_flush(self, setup):
        m, t, cache, va = setup
        cache.acquire(va, PAGE_SIZE)
        cache.release(va, PAGE_SIZE)
        cache.acquire(va + PAGE_SIZE, PAGE_SIZE)   # still in use
        assert cache.shed(None) == 1               # pages released
        assert cache.cached_regions == 1


class TestIndexIdentity:
    """Regression: ``_index_remove`` used ``list.remove``, which matches
    by dataclass ``__eq__`` — evicting one of two equal-comparing entries
    could delete the *other* from the interval index, leaving the index
    pointing at a deregistered entry."""

    def test_index_remove_is_by_identity(self, setup):
        from repro.core.regcache import CacheEntry
        m, t, cache, va = setup
        reg = m.agent.register_memory(t, va, PAGE_SIZE)
        # Two distinct entries with identical field values: dataclass
        # __eq__ says equal, identity says no.
        a = CacheEntry(registration=reg)
        b = CacheEntry(registration=reg)
        assert a == b and a is not b
        cache._index_add(a)
        cache._index_add(b)
        cache._index_remove(b)
        bucket = cache._page_index[va // PAGE_SIZE]
        assert len(bucket) == 1
        assert bucket[0] is a, "removed the wrong (equal-comparing) entry"
        cache._index_remove(a)
        assert va // PAGE_SIZE not in cache._page_index
        m.agent.deregister_memory(reg.handle)

    def test_rdma_variant_does_not_shadow_plain_entry(self, setup):
        """Regression: the cache key omitted the RDMA enables, so
        registering the same range twice (plain, then rdma_write) made
        the second insert overwrite the first in ``_entries`` while both
        stayed in the page index — the plain registration leaked (never
        deregistered, pages pinned forever)."""
        m, t, cache, va = setup
        r_plain = cache.acquire(va, PAGE_SIZE)
        cache.release(va, PAGE_SIZE)
        r_rdma = cache.acquire(va, PAGE_SIZE, rdma_write=True)
        cache.release(va, PAGE_SIZE)
        assert r_plain is not r_rdma
        assert cache.cached_regions == 2          # no shadowing
        # Both registrations deregister cleanly: nothing leaked.
        assert cache.shed(None) == 2
        assert cache.cached_regions == 0
        assert cache.pages_cached == 0
        assert not cache._page_index
