"""Property-based tests on core data structures: VMA lists, TPT
translation, the registration cache, and page descriptors."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regcache import aligned_range
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.flags import VM_LOCKED, VM_READ, VM_WRITE
from repro.kernel.vma import VMArea, VMAList
from repro.via.tpt import TranslationProtectionTable

RW = VM_READ | VM_WRITE


# ---------------------------------------------------------------------------
# VMA list
# ---------------------------------------------------------------------------

@st.composite
def disjoint_ranges(draw, max_ranges: int = 5, space: int = 64):
    """A list of disjoint, sorted (start, end) vpn ranges."""
    cuts = sorted(draw(st.sets(st.integers(0, space), min_size=2,
                               max_size=2 * max_ranges)))
    ranges = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        if a < b:
            ranges.append((a, b))
    return ranges


class TestVMAProperties:
    @given(disjoint_ranges())
    def test_find_agrees_with_membership(self, ranges):
        vl = VMAList()
        for a, b in ranges:
            vl.insert(VMArea(a, b, RW))
        for vpn in range(70):
            hit = vl.find(vpn)
            member = any(a <= vpn < b for a, b in ranges)
            assert (hit is not None) == member

    @given(disjoint_ranges(), st.integers(0, 64), st.integers(1, 16))
    def test_split_then_merge_is_identity(self, ranges, start, length):
        vl = VMAList()
        for a, b in ranges:
            vl.insert(VMArea(a, b, RW))
        before = [(a.start_vpn, a.end_vpn) for a in vl]
        total_before = sum(a.npages for a in vl)
        vl.split_range(start, start + length)
        assert sum(a.npages for a in vl) == total_before   # conserved
        vl.merge_adjacent()
        after = [(a.start_vpn, a.end_vpn) for a in vl]
        assert after == before

    @given(disjoint_ranges(), st.integers(0, 64), st.integers(1, 16))
    def test_lock_unlock_roundtrip(self, ranges, start, length):
        vl = VMAList()
        for a, b in ranges:
            vl.insert(VMArea(a, b, RW))
        vl.split_range(start, start + length)
        vl.set_flags_range(start, start + length, set_bits=VM_LOCKED)
        vl.set_flags_range(start, start + length, clear_bits=VM_LOCKED)
        assert not any(a.locked for a in vl)

    @given(disjoint_ranges())
    def test_covers_iff_no_holes(self, ranges):
        vl = VMAList()
        for a, b in ranges:
            vl.insert(VMArea(a, b, RW))
        for a, b in ranges:
            assert vl.covers(a, b)
        # Any span strictly wider than one range (into a gap) fails.
        for (a, b), nxt in zip(ranges, ranges[1:]):
            if b < nxt[0]:
                assert not vl.covers(a, b + 1)


# ---------------------------------------------------------------------------
# TPT translation
# ---------------------------------------------------------------------------

class TestTPTProperties:
    @given(st.integers(0, 1000), st.integers(1, 16),
           st.data())
    @settings(max_examples=60)
    def test_translation_covers_exact_bytes_in_order(self, base_vpn,
                                                     npages, data):
        """Whatever the segmentation (coalesced extents or per-page),
        every byte of the span must map to the frame recorded for its
        page, in order."""
        tpt = TranslationProtectionTable()
        # Non-contiguous frames with a contiguous run in the middle, so
        # both coalesced and split extents are exercised.
        frames = data.draw(st.lists(
            st.integers(100, 400), min_size=npages, max_size=npages,
            unique=True))
        va_base = base_vpn * PAGE_SIZE
        region = tpt.install(va_base=va_base, nbytes=npages * PAGE_SIZE,
                             prot_tag=1, frames=frames)
        offset = data.draw(st.integers(0, npages * PAGE_SIZE - 1))
        length = data.draw(st.integers(1, npages * PAGE_SIZE - offset))
        segs = tpt.translate(region.handle, va_base + offset, length, 1)
        # Property 1: lengths sum exactly.
        assert sum(n for _, n in segs) == length
        # Property 2: flattened byte-for-byte, each byte lands in the
        # frame recorded for its page at the right offset.
        expect = offset
        for addr, n in segs:
            # check the mapping at every page boundary inside the segment
            pos = 0
            while pos < n:
                off = expect + pos
                assert addr + pos == frames[off // PAGE_SIZE] * PAGE_SIZE \
                    + off % PAGE_SIZE
                pos += PAGE_SIZE - (off % PAGE_SIZE)
            expect += n
        # Property 3: a per-page walk of the recorded frames agrees
        # once adjacent segments are merged.
        legacy = []
        for page in range(offset // PAGE_SIZE,
                          (offset + length - 1) // PAGE_SIZE + 1):
            start = max(offset, page * PAGE_SIZE)
            end = min(offset + length, (page + 1) * PAGE_SIZE)
            legacy.append((frames[page] * PAGE_SIZE + start % PAGE_SIZE,
                           end - start))

        def merged(segments):
            spans = []
            for a, ln in segments:
                if spans and spans[-1][0] + spans[-1][1] == a:
                    spans[-1][1] += ln
                else:
                    spans.append([a, ln])
            return [tuple(s) for s in spans]

        assert merged(segs) == merged(legacy)

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_entry_accounting_balances(self, n_a, n_b):
        tpt = TranslationProtectionTable(64)
        a = tpt.install(0, n_a * PAGE_SIZE, 1, list(range(n_a)))
        b = tpt.install(10 * PAGE_SIZE * 1024, n_b * PAGE_SIZE, 1,
                        list(range(n_b)))
        assert tpt.entries_used == n_a + n_b
        tpt.remove(a.handle)
        assert tpt.entries_used == n_b
        tpt.remove(b.handle)
        assert tpt.entries_used == 0


# ---------------------------------------------------------------------------
# Alignment helper
# ---------------------------------------------------------------------------

class TestAlignmentProperties:
    @given(st.integers(0, 2**40), st.integers(1, 2**24))
    def test_aligned_range_covers_and_is_aligned(self, va, nbytes):
        base, length = aligned_range(va, nbytes)
        assert base % PAGE_SIZE == 0
        assert length % PAGE_SIZE == 0
        assert base <= va
        assert va + nbytes <= base + length
        # minimality: shrinking by one page uncovers the request
        assert base + PAGE_SIZE > va or va + nbytes > base + length - \
            PAGE_SIZE
