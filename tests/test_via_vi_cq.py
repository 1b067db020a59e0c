"""Tests for VIs, doorbells, and completion queues."""

import pytest

from repro.errors import ViaConnectionError
from repro.via.constants import ReliabilityLevel, ViState
from repro.via.cq import Completion, CompletionQueue
from repro.via.descriptor import Descriptor
from repro.via.vi import Doorbell, VirtualInterface


class TestDoorbell:
    def test_owner_can_ring(self):
        db = Doorbell(1, "send", owner_pid=42)
        db.ring(42)
        assert db.rings == 1

    def test_foreign_pid_rejected(self):
        """Doorbell protection: the page is mapped into one process
        only — another pid cannot reach it."""
        db = Doorbell(1, "send", owner_pid=42)
        with pytest.raises(ViaConnectionError):
            db.ring(43)


class TestVirtualInterface:
    def test_initial_state(self):
        vi = VirtualInterface(1, owner_pid=10, prot_tag=0x100)
        assert vi.state == ViState.IDLE
        assert vi.send_doorbell.owner_pid == 10
        assert vi.reliability == ReliabilityLevel.RELIABLE_DELIVERY

    def test_require_connected(self):
        vi = VirtualInterface(1, owner_pid=10, prot_tag=0x100)
        with pytest.raises(ViaConnectionError):
            vi.require_connected()
        vi.state = ViState.CONNECTED
        vi.require_connected()

    def test_enter_error(self):
        vi = VirtualInterface(1, owner_pid=10, prot_tag=0x100)
        vi.state = ViState.CONNECTED
        vi.enter_error()
        assert vi.state == ViState.ERROR

    def test_completion_routing_without_cq(self):
        vi = VirtualInterface(1, owner_pid=10, prot_tag=0x100)
        d = Descriptor.send([])
        vi.complete_send(d)
        assert list(vi.send_done) == [d]

    def test_completion_routing_with_cq(self):
        cq = CompletionQueue()
        vi = VirtualInterface(1, owner_pid=10, prot_tag=0x100)
        vi.recv_cq = cq
        d = Descriptor.recv([])
        vi.complete_recv(d)
        assert not vi.recv_done
        assert cq.drain_batch() == [Completion(1, "recv", d)]


class TestCompletionQueue:
    def test_fifo_order(self):
        cq = CompletionQueue()
        a = Completion(1, "send", Descriptor.send([]))
        b = Completion(2, "recv", Descriptor.recv([]))
        cq.post(a)
        cq.post(b)
        first, second = cq.drain_batch()
        assert first is a and second is b
        assert cq.drain_batch() == []

    def test_overflow_drops_and_counts(self):
        cq = CompletionQueue(depth=1)
        cq.post(Completion(1, "send", Descriptor.send([])))
        cq.post(Completion(1, "send", Descriptor.send([])))
        assert len(cq) == 1
        assert cq.overflows == 1
