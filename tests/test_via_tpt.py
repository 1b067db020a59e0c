"""Tests for the Translation and Protection Table."""

import operator

import pytest

from repro.errors import NotRegistered, ProtectionError, ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.via.tpt import FrameList, TranslationProtectionTable

TAG_A, TAG_B = 0x100, 0x200


def per_page_walk(region, va, length):
    """Reference translation: one segment per page touched, straight
    from the recorded frames (what the TPT served before extents)."""
    segments = []
    aligned_base = region.first_vpn * PAGE_SIZE
    while length > 0:
        offset = va % PAGE_SIZE
        n = min(length, PAGE_SIZE - offset)
        frame = region.frames[(va - aligned_base) // PAGE_SIZE]
        segments.append((frame * PAGE_SIZE + offset, n))
        va += n
        length -= n
    return segments


def install(tpt, va=0x10000, npages=4, tag=TAG_A, **kw):
    frames = list(range(10, 10 + npages))
    return tpt.install(va_base=va, nbytes=npages * PAGE_SIZE, prot_tag=tag,
                       frames=frames, **kw)


#: every in-place ``list`` mutator, each applied to ``FrameList([2, 1])``
IN_PLACE_MUTATIONS = {
    "__setitem__": lambda f: f.__setitem__(0, 7),
    "__delitem__": lambda f: f.__delitem__(0),
    "__iadd__": lambda f: operator.iadd(f, [3]),
    "__imul__": lambda f: operator.imul(f, 2),
    "append": lambda f: f.append(3),
    "extend": lambda f: f.extend([3]),
    "insert": lambda f: f.insert(0, 3),
    "pop": lambda f: f.pop(),
    "remove": lambda f: f.remove(2),
    "clear": lambda f: f.clear(),
    "sort": lambda f: f.sort(),
    "reverse": lambda f: f.reverse(),
}


@pytest.mark.parametrize("mutator", sorted(IN_PLACE_MUTATIONS))
def test_every_in_place_mutation_bumps_the_version(mutator):
    """Derived state (extent map, translation cache, the agent's
    registered-frame array) is rebuilt only when the version moves, so
    a mutator that skips it would let a stale translation outlive the
    write."""
    frames = FrameList([2, 1])
    epoch = FrameList.epoch[0]
    IN_PLACE_MUTATIONS[mutator](frames)
    assert frames.version == 1
    assert FrameList.epoch[0] == epoch + 1


class TestInstallRemove:
    def test_install_and_lookup(self):
        tpt = TranslationProtectionTable(16)
        region = install(tpt)
        assert tpt.lookup(region.handle) is region
        assert tpt.entries_used == 4
        assert tpt.capacity_entries - tpt.entries_used == 12

    def test_capacity_enforced(self):
        tpt = TranslationProtectionTable(4)
        install(tpt, npages=3)
        with pytest.raises(ViaError) as exc:
            install(tpt, va=0x90000, npages=2)
        assert exc.value.status == "VIP_ERROR_RESOURCE"

    def test_remove_releases_entries(self):
        tpt = TranslationProtectionTable(4)
        region = install(tpt, npages=4)
        tpt.remove(region.handle)
        assert tpt.entries_used == 0
        with pytest.raises(NotRegistered):
            tpt.lookup(region.handle)

    def test_remove_unknown(self):
        with pytest.raises(NotRegistered):
            TranslationProtectionTable().remove(999)

    def test_empty_region_rejected(self):
        tpt = TranslationProtectionTable()
        with pytest.raises(ViaError):
            tpt.install(va_base=0, nbytes=0, prot_tag=TAG_A, frames=[])

    def test_handles_unique(self):
        tpt = TranslationProtectionTable()
        a = install(tpt)
        b = install(tpt, va=0x90000)
        assert a.handle != b.handle


class TestTranslation:
    def test_single_page(self):
        tpt = TranslationProtectionTable()
        region = install(tpt, va=0x10000, npages=4)
        segs = tpt.translate(region.handle, 0x10000 + 100, 50, TAG_A)
        assert segs == [(10 * PAGE_SIZE + 100, 50)]

    def test_multi_page_spans_coalesced(self):
        """Adjacent frames merge into one extent on the fast path."""
        tpt = TranslationProtectionTable()
        region = install(tpt, va=0x10000, npages=4)
        va = 0x10000 + PAGE_SIZE - 10
        segs = tpt.translate(region.handle, va, 20, TAG_A)
        assert segs == [(10 * PAGE_SIZE + PAGE_SIZE - 10, 20)]

    def test_multi_page_spans_legacy_walk(self):
        """A per-page walk splits the same span at page boundaries; the
        extent is exactly those pieces merged."""
        tpt = TranslationProtectionTable()
        region = install(tpt, va=0x10000, npages=4)
        va = 0x10000 + PAGE_SIZE - 10
        legacy = per_page_walk(region, va, 20)
        assert legacy == [(10 * PAGE_SIZE + PAGE_SIZE - 10, 10),
                          (11 * PAGE_SIZE, 10)]
        assert tpt.translate(region.handle, va, 20, TAG_A) == [
            (legacy[0][0], 20)]

    def test_discontiguous_frames_split_extents(self):
        tpt = TranslationProtectionTable()
        region = tpt.install(va_base=0x10000, nbytes=3 * PAGE_SIZE,
                             prot_tag=TAG_A, frames=[10, 11, 20])
        segs = tpt.translate(region.handle, 0x10000, 3 * PAGE_SIZE, TAG_A)
        assert segs == [(10 * PAGE_SIZE, 2 * PAGE_SIZE),
                        (20 * PAGE_SIZE, PAGE_SIZE)]

    def test_translation_uses_recorded_frames(self):
        """The staleness mechanism: translation uses registration-time
        frames even after they are mutated out from under the TPT."""
        tpt = TranslationProtectionTable()
        region = install(tpt)
        region.frames[0] = 99      # "kernel moved the page"
        segs = tpt.translate(region.handle, 0x10000, 8, TAG_A)
        assert segs[0][0] == 99 * PAGE_SIZE

    def test_wrong_tag_rejected(self):
        tpt = TranslationProtectionTable()
        region = install(tpt, tag=TAG_A)
        with pytest.raises(ProtectionError):
            tpt.translate(region.handle, 0x10000, 4, TAG_B)

    def test_out_of_bounds_rejected(self):
        tpt = TranslationProtectionTable()
        region = install(tpt, va=0x10000, npages=2)
        with pytest.raises(NotRegistered):
            tpt.translate(region.handle, 0x10000, 3 * PAGE_SIZE, TAG_A)
        with pytest.raises(NotRegistered):
            tpt.translate(region.handle, 0x10000 - 1, 4, TAG_A)

    def test_rdma_enables(self):
        tpt = TranslationProtectionTable()
        region = install(tpt, rdma_write=True, rdma_read=False)
        tpt.translate(region.handle, 0x10000, 4, TAG_A, rdma_write=True)
        with pytest.raises(ProtectionError):
            tpt.translate(region.handle, 0x10000, 4, TAG_A, rdma_read=True)

    def test_rdma_disabled_by_default(self):
        tpt = TranslationProtectionTable()
        region = install(tpt)
        with pytest.raises(ProtectionError):
            tpt.translate(region.handle, 0x10000, 4, TAG_A, rdma_write=True)

    def test_unaligned_base_region(self):
        """Regions need not start on a page boundary."""
        tpt = TranslationProtectionTable()
        va = 0x10000 + 100
        region = tpt.install(va_base=va, nbytes=200, prot_tag=TAG_A,
                             frames=[7])
        segs = tpt.translate(region.handle, va + 10, 100, TAG_A)
        assert segs == [(7 * PAGE_SIZE + 110, 100)]

    def test_unaligned_base_multi_page(self):
        """Regression: a multi-page region whose base is not
        page-aligned must index frames relative to the region's
        *aligned* base (``va // PAGE_SIZE``), not its raw ``va_base`` —
        the extent map and a per-page walk must agree byte-for-byte."""
        tpt = TranslationProtectionTable()
        va = 0x10000 + 100
        # 2 * PAGE_SIZE bytes starting 100 bytes into a page touch three
        # pages; deliberately non-adjacent frames so nothing coalesces.
        region = tpt.install(va_base=va, nbytes=2 * PAGE_SIZE,
                             prot_tag=TAG_A, frames=[7, 9, 13])
        fast = tpt.translate(region.handle, va, 2 * PAGE_SIZE, TAG_A)
        assert fast == [(7 * PAGE_SIZE + 100, PAGE_SIZE - 100),
                        (9 * PAGE_SIZE, PAGE_SIZE),
                        (13 * PAGE_SIZE, 100)]
        assert per_page_walk(region, va, 2 * PAGE_SIZE) == fast
        # A sub-span starting mid-way through the second page.
        off = PAGE_SIZE - 100 + 50        # 50 bytes into page 1
        fast = tpt.translate(region.handle, va + off, PAGE_SIZE, TAG_A)
        legacy = per_page_walk(region, va + off, PAGE_SIZE)
        assert legacy == fast == [(9 * PAGE_SIZE + 50, PAGE_SIZE - 50),
                                  (13 * PAGE_SIZE, 50)]


class TestTranslationCache:
    def test_repeat_translation_is_a_hit(self):
        tpt = TranslationProtectionTable()
        region = install(tpt)
        first = tpt.translate(region.handle, 0x10000, 100, TAG_A)
        assert (tpt.cache_misses, tpt.cache_hits) == (1, 0)
        second = tpt.translate(region.handle, 0x10000, 100, TAG_A)
        assert second == first
        assert (tpt.cache_misses, tpt.cache_hits) == (1, 1)
        assert len(tpt._xcache) == 1

    def test_cached_result_is_a_copy(self):
        tpt = TranslationProtectionTable()
        region = install(tpt)
        first = tpt.translate(region.handle, 0x10000, 100, TAG_A)
        first.append(("garbage", 0))
        second = tpt.translate(region.handle, 0x10000, 100, TAG_A)
        assert second == [(10 * PAGE_SIZE, 100)]

    def test_deregister_invalidates_cached_translations(self):
        """A cached translation must never outlive its registration."""
        tpt = TranslationProtectionTable()
        a = install(tpt)
        b = install(tpt, va=0x90000)
        tpt.translate(a.handle, 0x10000, 64, TAG_A)
        tpt.translate(b.handle, 0x90000, 64, TAG_A)
        assert len(tpt._xcache) == 2
        tpt.remove(a.handle)
        # a's span is gone; b's survives.
        assert len(tpt._xcache) == 1
        assert tpt.cache_invalidations == 1
        with pytest.raises(NotRegistered):
            tpt.translate(a.handle, 0x10000, 64, TAG_A)
        tpt.translate(b.handle, 0x90000, 64, TAG_A)
        assert tpt.cache_hits == 1

    def test_frames_mutation_invalidates(self):
        """Mutating the recorded frames makes every cached span derived
        from them stale — the next translation recomputes."""
        tpt = TranslationProtectionTable()
        region = install(tpt)
        tpt.translate(region.handle, 0x10000, 8, TAG_A)
        region.frames[0] = 99      # "kernel moved the page"
        segs = tpt.translate(region.handle, 0x10000, 8, TAG_A)
        assert segs == [(99 * PAGE_SIZE, 8)]
        assert tpt.cache_hits == 0
        assert tpt.cache_misses == 2

    def test_full_flush_on_nic_reset_path(self):
        tpt = TranslationProtectionTable()
        a = install(tpt)
        b = install(tpt, va=0x90000)
        tpt.translate(a.handle, 0x10000, 64, TAG_A)
        tpt.translate(b.handle, 0x90000, 64, TAG_A)
        assert tpt.invalidate_translations() == 2
        assert len(tpt._xcache) == 0
        # next translations are misses, not stale hits
        tpt.translate(a.handle, 0x10000, 64, TAG_A)
        assert tpt.cache_hits == 0

    def test_cache_is_bounded_lru(self):
        tpt = TranslationProtectionTable()
        tpt.translation_cache_entries = 2
        region = install(tpt)
        for off in (0, 8, 16):
            tpt.translate(region.handle, 0x10000 + off, 4, TAG_A)
        assert len(tpt._xcache) == 2
        # offset 0 (coldest) was evicted; 8 and 16 still hit.
        tpt.translate(region.handle, 0x10000 + 8, 4, TAG_A)
        tpt.translate(region.handle, 0x10000 + 16, 4, TAG_A)
        assert tpt.cache_hits == 2
        tpt.translate(region.handle, 0x10000, 4, TAG_A)
        assert tpt.cache_misses == 4

    def test_protection_checked_even_on_cached_span(self):
        """Memoization covers only the segment list — the protection
        checks run on every call."""
        tpt = TranslationProtectionTable()
        region = install(tpt, tag=TAG_A)
        tpt.translate(region.handle, 0x10000, 4, TAG_A)
        with pytest.raises(ProtectionError):
            tpt.translate(region.handle, 0x10000, 4, TAG_B)
        with pytest.raises(ProtectionError):
            tpt.translate(region.handle, 0x10000, 4, TAG_A,
                          rdma_write=True)
