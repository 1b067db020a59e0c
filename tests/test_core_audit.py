"""Tests for the audit oracle."""

import pytest

from repro.core.audit import (
    audit_kernel_invariants, audit_tpt_consistency,
    frame_ownership_summary, virt_phys_map,
)
from repro.errors import PageAccountingError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.via.machine import Machine


class TestTptConsistency:
    def test_healthy_registration_is_clean(self):
        m = Machine(num_frames=256, backend="kiobuf")
        t = m.spawn()
        ua = m.user_agent(t)
        va = t.mmap(4)
        ua.register_mem(va, 4 * PAGE_SIZE)
        assert audit_tpt_consistency(m.agent) == []

    @pytest.mark.san_suppress("swap-registered")
    def test_detects_staleness_after_swap(self):
        m = Machine(num_frames=256, backend="refcount")
        t = m.spawn()
        ua = m.user_agent(t)
        va = t.mmap(4)
        reg = ua.register_mem(va, 4 * PAGE_SIZE)
        paging.swap_out(m.kernel, m.kernel.pagemap.num_frames)
        t.touch_pages(va, 4)
        stale = audit_tpt_consistency(m.agent)
        assert len(stale) == 4
        assert all(e.handle == reg.handle for e in stale)
        assert all(e.actual_frame != e.tpt_frame for e in stale)

    @pytest.mark.san_suppress("swap-registered")
    def test_nonresident_pages_reported_as_none(self):
        m = Machine(num_frames=256, backend="refcount")
        t = m.spawn()
        ua = m.user_agent(t)
        va = t.mmap(2)
        ua.register_mem(va, 2 * PAGE_SIZE)
        paging.swap_out(m.kernel, m.kernel.pagemap.num_frames)
        stale = audit_tpt_consistency(m.agent)
        assert len(stale) == 2
        assert all(e.actual_frame is None for e in stale)

    def test_kiobuf_stays_clean_under_pressure(self):
        m = Machine(num_frames=256, backend="kiobuf")
        t = m.spawn()
        ua = m.user_agent(t)
        va = t.mmap(8)
        ua.register_mem(va, 8 * PAGE_SIZE)
        for _ in range(4):
            paging.swap_out(m.kernel, m.kernel.pagemap.num_frames)
        assert audit_tpt_consistency(m.agent) == []


class TestKernelInvariants:
    def test_healthy_kernel_passes(self, kernel):
        t = kernel.create_task()
        va = t.mmap(8)
        t.touch_pages(va, 8)
        paging.swap_out(kernel, 4)
        t.touch_pages(va, 8)
        audit_kernel_invariants(kernel)

    @pytest.mark.no_posthoc_audit
    def test_detects_pte_to_free_frame(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"x")
        frame = t.physical_pages(va, 1)[0]
        kernel.pagemap.put_page(frame)   # corrupt: frame freed, PTE live
        with pytest.raises(PageAccountingError):
            audit_kernel_invariants(kernel)

    @pytest.mark.no_posthoc_audit
    def test_detects_shared_swap_slot(self, kernel):
        a = kernel.create_task()
        b = kernel.create_task()
        va_a = a.mmap(1)
        va_b = b.mmap(1)
        a.write(va_a, b"x")
        paging.swap_out(kernel, 1)
        slot = a.page_table.lookup(a.vpn_of(va_a)).swap_slot
        b.page_table.set_swapped(b.vpn_of(va_b), slot)   # corrupt
        with pytest.raises(PageAccountingError):
            audit_kernel_invariants(kernel)

    @pytest.mark.no_posthoc_audit
    def test_detects_stale_resident_counter(self, kernel):
        t = kernel.create_task()
        va = t.mmap(4)
        t.touch_pages(va, 4)
        audit_kernel_invariants(kernel)
        t.page_table._resident += 1                # corrupt
        with pytest.raises(PageAccountingError,
                           match="resident counter 5 != 4"):
            audit_kernel_invariants(kernel)


class TestSummaries:
    def test_frame_ownership_sums_to_total(self, kernel):
        t = kernel.create_task()
        va = t.mmap(8)
        t.touch_pages(va, 8)
        kernel.add_page_cache_page()
        summary = frame_ownership_summary(kernel)
        assert sum(summary.values()) == kernel.pagemap.num_frames
        assert summary["mapped"] == 8
        assert summary["page_cache"] == 1
        assert summary["kernel"] == kernel.pagemap.reserved_frames

    def test_orphans_classified(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"x")
        frame = t.physical_pages(va, 1)[0]
        kernel.pagemap.get_page(frame)
        paging.swap_out(kernel, kernel.pagemap.num_frames)
        summary = frame_ownership_summary(kernel)
        assert summary["orphan"] == 1

    def test_virt_phys_map(self, kernel):
        t = kernel.create_task()
        va = t.mmap(3)
        t.write(va, b"x")   # only page 0 resident
        vm = virt_phys_map(t, va, 3)
        assert vm[0][1] is not None
        assert vm[1][1] is None and vm[2][1] is None
        assert [vpn for vpn, _ in vm] == [t.vpn_of(va) + i for i in range(3)]
