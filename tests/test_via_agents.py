"""Tests for the Kernel Agent and User Agent."""

import pytest

from repro.errors import InvalidArgument, NotRegistered, ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.via.machine import Machine


@pytest.fixture
def machine():
    return Machine(num_frames=256)


@pytest.fixture
def ua(machine):
    task = machine.spawn("app")
    return machine.user_agent(task)


class TestProtectionTags:
    def test_tag_stable_per_process(self, machine):
        t = machine.spawn()
        tag1 = machine.agent.open_nic(t)
        tag2 = machine.agent.open_nic(t)
        assert tag1 == tag2

    def test_tags_distinct_across_processes(self, machine):
        a = machine.spawn()
        b = machine.spawn()
        assert machine.agent.open_nic(a) != machine.agent.open_nic(b)

    def test_unopened_process_rejected(self, machine):
        t = machine.spawn()
        va = t.mmap(1)
        with pytest.raises(InvalidArgument):
            machine.agent.register_memory(t, va, PAGE_SIZE)


class TestRegistration:
    def test_register_installs_tpt_region(self, machine, ua):
        va = ua.task.mmap(4)
        reg = ua.register_mem(va, 4 * PAGE_SIZE)
        region = machine.nic.tpt.lookup(reg.handle)
        assert region.npages == 4
        assert region.prot_tag == ua.prot_tag
        assert machine.agent.registrations[reg.handle] is reg

    def test_deregister_cleans_up(self, machine, ua):
        va = ua.task.mmap(2)
        reg = ua.register_mem(va, 2 * PAGE_SIZE)
        ua.deregister_mem(reg)
        with pytest.raises(NotRegistered):
            machine.nic.tpt.lookup(reg.handle)
        assert reg.handle not in machine.agent.registrations
        # pins released
        for frame in ua.task.physical_pages(va, 2):
            assert machine.kernel.pagemap.table.pin_counts[frame] == 0

    def test_deregister_unknown_handle(self, machine):
        with pytest.raises(NotRegistered):
            machine.agent.deregister_memory(12345)

    def test_double_deregister_rejected(self, machine, ua):
        va = ua.task.mmap(1)
        reg = ua.register_mem(va, PAGE_SIZE)
        ua.deregister_mem(reg)
        with pytest.raises(NotRegistered):
            ua.deregister_mem(reg)

    def test_zero_bytes_rejected(self, machine, ua):
        va = ua.task.mmap(1)
        with pytest.raises(InvalidArgument):
            ua.register_mem(va, 0)

    def test_tpt_exhaustion_unlocks_pins(self):
        """A failed install must not leak the backend's pins."""
        m = Machine(num_frames=256, tpt_entries=4)
        t = m.spawn()
        a = m.user_agent(t)
        va = t.mmap(8)
        a.register_mem(va, 3 * PAGE_SIZE)
        with pytest.raises(ViaError):
            a.register_mem(va + 3 * PAGE_SIZE, 3 * PAGE_SIZE)
        # pins of the failed attempt were released
        for frame in t.physical_pages(va + 3 * PAGE_SIZE, 3):
            if frame is not None:
                assert m.kernel.pagemap.table.pin_counts[frame] == 0

    def test_registrations_of_pid(self, machine, ua):
        va = ua.task.mmap(4)
        r1 = ua.register_mem(va, PAGE_SIZE)
        r2 = ua.register_mem(va + PAGE_SIZE, PAGE_SIZE)
        other = machine.spawn()
        ua2 = machine.user_agent(other)
        ov = other.mmap(1)
        ua2.register_mem(ov, PAGE_SIZE)
        regs = machine.agent.registrations_of(ua.task.pid)
        assert {r.handle for r in regs} == {r1.handle, r2.handle}

    def test_owner_index_with_many_owners(self, machine):
        """munmap and exit force-deregister exactly one owner's
        registrations, in registration order, served from the owner
        index while every other owner's records stay put."""
        agent = machine.agent
        owners = []
        for i in range(6):
            task = machine.spawn(f"owner{i}")
            owners.append((task, machine.user_agent(task), task.mmap(8)))
        # Interleave owners so each one's handles are spread out, and
        # nest some ranges so one munmap hits several registrations.
        for first, count in ((0, 4), (2, 2), (6, 2), (0, 8), (3, 1)):
            for _, ua, va in owners:
                ua.register_mem(va + first * PAGE_SIZE, count * PAGE_SIZE)

        def by_owner():
            return {task.pid: [r.handle for r in agent.registrations.values()
                               if r.pid == task.pid]
                    for task, _, _ in owners}

        for task, _, _ in owners:
            assert agent.registrations_of(task.pid) == [
                r for r in agent.registrations.values()
                if r.pid == task.pid]
        assert sorted(agent.owners()) == sorted(t.pid for t, _, _ in owners)

        trace = machine.kernel.trace
        victim, _, va = owners[2]
        before = by_owner()
        unmapped = [r.handle for r in agent.registrations_of(victim.pid)
                    if r.va < va + 2 * PAGE_SIZE]     # overlaps pages 0-1
        done = trace.count("via_munmap_deregister")
        victim.munmap(va, 2)
        events = trace.of_kind("via_munmap_deregister")[done:]
        assert [e["handle"] for e in events] == unmapped
        after = by_owner()
        assert after[victim.pid] == [h for h in before[victim.pid]
                                     if h not in unmapped]
        assert {p: h for p, h in after.items() if p != victim.pid} == \
            {p: h for p, h in before.items() if p != victim.pid}

        leaver = owners[4][0]
        remaining = [r.handle for r in agent.registrations_of(leaver.pid)]
        done = trace.count("via_deregister")
        leaver.exit()
        events = trace.of_kind("via_deregister")[done:]
        assert [e["handle"] for e in events] == remaining
        assert agent.registrations_of(leaver.pid) == []
        assert leaver.pid not in agent.owners()
        assert {p: h for p, h in by_owner().items() if p != leaver.pid} == \
            {p: h for p, h in after.items() if p != leaver.pid}

    def test_multiple_registration_same_range(self, machine, ua):
        """The VIA-spec requirement the paper centres on."""
        va = ua.task.mmap(2)
        r1 = ua.register_mem(va, 2 * PAGE_SIZE)
        r2 = ua.register_mem(va, 2 * PAGE_SIZE)
        assert r1.handle != r2.handle
        frame = ua.task.physical_pages(va, 1)[0]
        assert machine.kernel.pagemap.table.pin_counts[frame] == 2
        ua.deregister_mem(r1)
        assert machine.kernel.pagemap.table.pin_counts[frame] == 1
        ua.deregister_mem(r2)
        assert machine.kernel.pagemap.table.pin_counts[frame] == 0


class TestUserAgentHelpers:
    def test_segment_defaults_to_whole_region(self, ua):
        va = ua.task.mmap(2)
        reg = ua.register_mem(va, 2 * PAGE_SIZE)
        seg = ua.segment(reg)
        assert (seg.mem_handle, seg.va, seg.length) == (
            reg.handle, va, 2 * PAGE_SIZE)

    def test_segment_subrange(self, ua):
        va = ua.task.mmap(2)
        reg = ua.register_mem(va, 2 * PAGE_SIZE)
        seg = ua.segment(reg, va + 100, 50)
        assert (seg.va, seg.length) == (va + 100, 50)
