"""Cross-layer integration tests: the full stack under combined load.

These scenarios combine everything — multiple processes, fork, memory
pressure, registration caching, messaging, audits — and assert the end
state is exactly what the paper's mechanism promises.
"""

import numpy as np
import pytest

from repro.core.audit import (
    audit_kernel_invariants, audit_tpt_consistency,
)
from repro.core.regcache import RegistrationCache
from repro.hw.physmem import PAGE_SIZE
from repro.msg.endpoint import make_pair
from repro.msg.protocols import (
    EagerProtocol, RendezvousCopyProtocol, RendezvousZeroCopyProtocol,
)
from repro.via.machine import Cluster, Machine
from repro.workloads.allocator import MemoryHog
from repro.workloads.patterns import buffer_reuse_trace


class TestMessagingUnderSustainedPressure:
    """An MPI-style app exchanging messages while a hog churns memory on
    both machines — every payload must verify and every audit must be
    clean (kiobuf backend)."""

    def test_fifty_transfers_with_churn(self):
        cluster = Cluster(2, num_frames=1024, backend="kiobuf")
        s, r = make_pair(cluster)
        eager, rcopy, zcopy = (EagerProtocol(), RendezvousCopyProtocol(),
                               RendezvousZeroCopyProtocol())
        hogs = [MemoryHog(m.kernel, "churner") for m in cluster.machines]
        for hog, m in zip(hogs, cluster.machines):
            # Touch more than installed RAM so reclaim must run.
            hog.grow(m.kernel.pagemap.num_frames)

        pages = 40
        src = s.task.mmap(pages)
        s.task.touch_pages(src, pages)
        dst = r.task.mmap(pages)
        r.task.touch_pages(dst, pages)
        rng = np.random.default_rng(0)

        for i in range(50):
            size = int(rng.integers(64, pages * PAGE_SIZE - 64))
            payload = bytes(rng.integers(0, 256, size, dtype=np.uint8))
            s.task.write(src, payload)
            # The MPI/Pro-era switch points: eager below 4 KiB,
            # zero-copy from 128 KiB.
            protocol = (eager if size < 4 * 1024
                        else rcopy if size < 128 * 1024 else zcopy)
            res = protocol.transfer(s, r, src, dst, size)
            assert res.ok, f"transfer {i} ({size}B) corrupted"
            if i % 10 == 0:
                for hog in hogs:
                    hog.churn()
                for m in cluster.machines:
                    audit_kernel_invariants(m.kernel)
                    assert audit_tpt_consistency(m.agent) == []

        # Pressure really happened on both machines.
        for m in cluster.machines:
            assert m.kernel.swap.writes > 0

    @pytest.mark.san_suppress("swap-registered")
    def test_unreliable_backend_detected_by_audit(self):
        """The same workload on the refcount backend: the audit oracle
        flags stale TPT entries once the cache's pinned-by-nothing
        regions are hit by reclaim."""
        cluster = Cluster(2, num_frames=384, backend="refcount")
        s, r = make_pair(cluster)
        pages = 16
        src = s.task.mmap(pages)
        s.task.touch_pages(src, pages)
        dst = r.task.mmap(pages)
        r.task.touch_pages(dst, pages)
        payload = bytes(np.random.default_rng(0).integers(
            0, 256, 16 * 1024, dtype=np.uint8))
        s.task.write(src, payload)
        # warms the regcache
        RendezvousZeroCopyProtocol().transfer(s, r, src, dst, 16 * 1024)
        hog = MemoryHog(r.machine.kernel)
        hog.grow(r.machine.kernel.pagemap.num_frames * 2)
        r.task.touch_pages(dst, pages)
        stale = audit_tpt_consistency(r.machine.agent)
        assert stale, "refcount-backed cached regions must go stale"


class TestRegistrarWithForkAndCache:
    def test_trace_replay_with_audits(self):
        m = Machine(num_frames=2048, backend="kiobuf")
        t = m.spawn("app")
        ua = m.user_agent(t)
        del ua
        cache = RegistrationCache(m.agent, t)
        buffers = [t.mmap(16) for _ in range(6)]
        for va in buffers:
            t.touch_pages(va, 16)
        for op in buffer_reuse_trace(6, 16, operations=120, seed=1):
            va = buffers[op.buffer_index] + op.offset
            cache.acquire(va, op.nbytes)
            cache.release(va, op.nbytes)
            if op.buffer_index == 0:
                audit_kernel_invariants(m.kernel)
        assert cache.stats.hit_rate > 0.5
        assert audit_tpt_consistency(m.agent) == []

    def test_registered_parent_forks_safely(self):
        """Fork while memory is registered: accounting stays sound and
        the parent's live registrations stay valid (shared pages are
        pinned, so COW never relocates them under the NIC)."""
        m = Machine(num_frames=512, backend="kiobuf")
        parent = m.spawn("parent")
        va = parent.mmap(8)
        parent.touch_pages(va, 8)
        m.agent.open_nic(parent)
        reg = m.agent.register_memory(parent, va, 8 * PAGE_SIZE)
        child = m.kernel.fork_task(parent)
        MemoryHog(m.kernel).grow(m.kernel.pagemap.num_frames)
        audit_kernel_invariants(m.kernel)
        assert audit_tpt_consistency(m.agent) == []
        assert parent.physical_pages(va, 8) == list(reg.region.frames)
        assert child.read(va, 4) == parent.read(va, 4)
        m.agent.deregister_memory(reg.handle)
        audit_kernel_invariants(m.kernel)


class TestRingTopology:
    def test_message_travels_a_four_machine_ring(self):
        """Four machines, VIs connected in a ring; a payload forwarded
        all the way around must arrive intact with pressure applied at
        every hop (store-and-forward via each rank's own buffers)."""
        cluster = Cluster(4, num_frames=768, backend="kiobuf")
        from repro.msg.endpoint import Endpoint, connect_endpoints
        # Each machine hosts two endpoints: 'rx from left', 'tx to right'.
        rx = [Endpoint(m) for m in cluster.machines]
        tx = [Endpoint(m) for m in cluster.machines]
        for i, m in enumerate(cluster.machines):
            j = (i + 1) % 4
            connect_endpoints(cluster, tx[i], rx[j])
        rcopy = RendezvousCopyProtocol()

        size = 24 * 1024
        payload = bytes(np.random.default_rng(5).integers(
            0, 256, size, dtype=np.uint8))
        bufs = []
        for m, r_ep, t_ep in zip(cluster.machines, rx, tx):
            src = t_ep.task.mmap(8)
            t_ep.task.touch_pages(src, 8)
            dst = r_ep.task.mmap(8)
            r_ep.task.touch_pages(dst, 8)
            bufs.append((src, dst))
        tx[0].task.write(bufs[0][0], payload)
        for hop in range(4):
            nxt = (hop + 1) % 4
            res = rcopy.transfer(tx[hop], rx[nxt], bufs[hop][0],
                                 bufs[nxt][1], size)
            assert res.ok
            if nxt != 0:
                # forward: copy from rx buffer to this rank's tx buffer
                data = rx[nxt].task.read(bufs[nxt][1], size)
                tx[nxt].task.write(bufs[nxt][0], data)
                MemoryHog(cluster.machines[nxt].kernel).grow(
                    cluster.machines[nxt].kernel.pagemap.num_frames // 2)
        assert rx[0].task.read(bufs[0][1], size) == payload
        for m in cluster.machines:
            audit_kernel_invariants(m.kernel)


class TestManyProcessesOneNic:
    def test_isolation_between_ten_processes(self):
        """Ten processes register memory on one NIC; each VI can only
        touch its owner's regions (protection-tag isolation at scale)."""
        m = Machine(num_frames=2048, backend="kiobuf")
        agents = []
        for i in range(10):
            t = m.spawn(f"p{i}")
            ua = m.user_agent(t)
            va = t.mmap(4)
            reg = ua.register_mem(va, 4 * PAGE_SIZE)
            agents.append((ua, va, reg))
        tags = {ua.prot_tag for ua, _, _ in agents}
        assert len(tags) == 10
        # Cross-translation fails for every foreign pairing probed.
        from repro.errors import ProtectionError
        for i in range(10):
            ua_i, _, _ = agents[i]
            _, va_j, reg_j = agents[(i + 1) % 10]
            with pytest.raises(ProtectionError):
                m.nic.tpt.translate(reg_j.handle, va_j, 16,
                                    ua_i.prot_tag)
        audit_kernel_invariants(m.kernel)
