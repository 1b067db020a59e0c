"""Kill-at-every-step chaos sweep.

A victim process is killed at each instrumented crash point — during
registration and during a rendezvous zero-copy transfer — and the world
must converge: no leaked pins, no stale TPT entries, no stuck peer
descriptors.  The surviving peer observes ``VIP_ERROR_CONN_LOST``
rather than hanging.

``REPRO_CHAOS_SEED`` (used by the CI chaos job) varies the simulation
seeds; crash points themselves are deterministic.
"""

from __future__ import annotations

import os

import pytest

from repro.core.audit import (
    audit_kernel_invariants, audit_pin_leaks, audit_tpt_consistency,
)
from repro.errors import InvalidArgument, ProcessKilled, ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.reaper import OrphanReaper
from repro.msg.endpoint import make_pair
from repro.msg.protocols import RendezvousZeroCopyProtocol
from repro.sim.faults import (
    FaultPlan, REGISTRATION_CRASH_POINTS, TRANSFER_CRASH_POINTS,
)
from repro.via.constants import VIP_ERROR_CONN_LOST, ViState
from repro.via.machine import Cluster, Machine

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def _assert_converged(machine):
    """All three audits clean — the sweep's acceptance criterion."""
    assert audit_tpt_consistency(machine.agent) == []
    assert audit_pin_leaks(machine.kernel, machine.agent) == []
    audit_kernel_invariants(machine.kernel)


class TestRegistrationCrashPoints:
    @pytest.mark.parametrize("point", REGISTRATION_CRASH_POINTS)
    @pytest.mark.parametrize("backend", ["kiobuf", "mlock"])
    def test_kill_during_registration(self, point, backend):
        """Dying before, between, and after the pin and the TPT install
        leaks nothing."""
        m = Machine(backend=backend)
        task = m.spawn("victim")
        ua = m.user_agent(task)
        m.inject_faults(FaultPlan(seed=SEED, crash_point=point,
                                  crash_pid=task.pid))
        va = task.mmap(4)
        task.touch_pages(va, 4)
        with pytest.raises(ProcessKilled) as exc_info:
            ua.register_mem(va, 4 * PAGE_SIZE)
        assert exc_info.value.point == point
        assert exc_info.value.pid == task.pid
        with pytest.raises(InvalidArgument):
            m.kernel.find_task(task.pid)
        assert m.agent.registrations == {}
        assert not any(k.mapped for k in m.kernel.kiobufs.values())
        _assert_converged(m)
        assert m.kernel.trace.count("crash_point") == 1

    def test_crash_point_is_one_shot(self):
        """After the crash fires once, a second process registers
        normally under the same plan."""
        m = Machine()
        t1 = m.spawn("victim")
        ua1 = m.user_agent(t1)
        m.inject_faults(FaultPlan(seed=SEED,
                                  crash_point="register.pinned",
                                  crash_pid=t1.pid))
        va = t1.mmap(1)
        t1.touch_pages(va, 1)
        with pytest.raises(ProcessKilled):
            ua1.register_mem(va, PAGE_SIZE)
        t2 = m.spawn("survivor")
        ua2 = m.user_agent(t2)
        va2 = t2.mmap(1)
        t2.touch_pages(va2, 1)
        reg = ua2.register_mem(va2, PAGE_SIZE)
        assert reg.handle in m.agent.registrations
        ua2.deregister_mem(reg)
        _assert_converged(m)


class TestTransferCrashPoints:
    @pytest.mark.parametrize("point", sorted(TRANSFER_CRASH_POINTS))
    def test_kill_mid_transfer(self, point):
        """Kill the victim at each rendezvous step; the survivor sees
        CONN_LOST, and one reaper pass finds nothing left to reclaim."""
        side = TRANSFER_CRASH_POINTS[point]
        cluster = Cluster(2, num_frames=2048, seed=SEED)
        sender, receiver = make_pair(cluster)
        victim, survivor = ((sender, receiver) if side == "sender"
                            else (receiver, sender))
        cluster.inject_faults(FaultPlan(seed=SEED, crash_point=point,
                                        crash_pid=victim.task.pid))
        nbytes = 8 * PAGE_SIZE
        src = sender.task.mmap(8)
        sender.task.touch_pages(src, 8, fill=b"\xab")
        dst = receiver.task.mmap(8)
        receiver.task.touch_pages(dst, 8)

        proto = RendezvousZeroCopyProtocol(use_cache=False)
        with pytest.raises(ProcessKilled) as exc_info:
            proto.transfer(sender, receiver, src, dst, nbytes)
        assert exc_info.value.pid == victim.task.pid

        # The victim is gone, with all its driver state.
        victim_machine = victim.machine
        with pytest.raises(InvalidArgument):
            victim_machine.kernel.find_task(victim.task.pid)
        assert victim_machine.agent.registrations_of(
            victim.task.pid) == []
        assert not any(v.owner_pid == victim.task.pid
                       for v in victim_machine.nic.vis.values())

        # The survivor is not hung: its VI broke with CONN_LOST and
        # every outstanding descriptor completed.
        assert survivor.vi.state == ViState.ERROR
        assert survivor.vi.outstanding == 0
        statuses = [s.descriptor.status for s in survivor.bounce_slots
                    if s.descriptor is not None]
        assert VIP_ERROR_CONN_LOST in statuses
        with pytest.raises(ViaError):
            survivor.send_chunk(b"hello?")

        # One reaper pass per machine confirms the exit path left no
        # work behind.
        for m in cluster.machines:
            report = OrphanReaper(m.kernel, agents=[m.agent]).scan()
            assert report.reclaimed_total == 0, report
            _assert_converged(m)

    def test_survivor_registration_is_reclaimable(self):
        """A transfer-time registration stranded on the *survivor* (the
        victim died before releasing the handshake state) is still the
        survivor's to free — and freeing it converges the audits."""
        cluster = Cluster(2, num_frames=2048, seed=SEED)
        sender, receiver = make_pair(cluster)
        cluster.inject_faults(FaultPlan(
            seed=SEED, crash_point="xfer.cts_received",
            crash_pid=sender.task.pid))
        nbytes = 4 * PAGE_SIZE
        src = sender.task.mmap(4)
        sender.task.touch_pages(src, 4, fill=b"\xcd")
        dst = receiver.task.mmap(4)
        receiver.task.touch_pages(dst, 4)
        proto = RendezvousZeroCopyProtocol(use_cache=False)
        with pytest.raises(ProcessKilled):
            proto.transfer(sender, receiver, src, dst, nbytes)
        # The receiver still holds the registration it made for the CTS.
        stranded = [r for r in receiver.machine.agent.registrations_of(
            receiver.task.pid) if r.va == dst]
        assert len(stranded) == 1
        receiver.ua.deregister_mem(stranded[0].handle)
        for m in cluster.machines:
            _assert_converged(m)
