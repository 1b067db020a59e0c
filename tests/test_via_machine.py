"""Tests for the Machine/Cluster facades and connected_pair helper."""

from dataclasses import replace

import pytest

from repro.errors import ViaConnectionError
from repro.sim.costs import CostModel
from repro.via.machine import Cluster, Machine
from repro.via.constants import ReliabilityLevel, ViState
from tests.pairs import connected_pair


class TestMachine:
    def test_defaults(self):
        m = Machine()
        assert m.backend.name == "kiobuf"
        assert m.nic.name == "m0.nic0"
        assert m.nic.fabric is m.fabric

    def test_backend_by_name_and_instance(self):
        from repro.via.locking import make_backend
        assert Machine(backend="mlock").backend.name == "mlock"
        be = make_backend("refcount")
        assert Machine(backend=be).backend is be

    def test_spawn_and_user_agent(self):
        m = Machine()
        t = m.spawn("proc", uid=42)
        assert t.uid == 42
        ua = m.user_agent(t)
        assert ua.task is t
        assert ua.nic is m.nic

    def test_custom_cost_model_propagates(self):
        costs = replace(CostModel(), syscall_ns=12345)
        m = Machine(costs=costs)
        assert m.kernel.costs.syscall_ns == 12345


class TestCluster:
    def test_shared_clock_and_fabric(self):
        c = Cluster(3)
        assert len(c) == 3
        clocks = {id(m.kernel.clock) for m in c.machines}
        assert len(clocks) == 1
        assert all(m.fabric is c.fabric for m in c.machines)
        assert len(c.fabric.nics) == 3

    def test_distinct_backend_instances_per_machine(self):
        c = Cluster(2, backend="mlock")
        assert c[0].backend is not c[1].backend
        assert c[0].backend.name == "mlock"

    def test_indexing(self):
        c = Cluster(2)
        assert c[0].name == "m0"
        assert c[1].name == "m1"

    def test_nic_names_unique_on_fabric(self):
        c = Cluster(2)
        with pytest.raises(ViaConnectionError):
            c.fabric.attach(c[0].nic)


class TestConnectedPair:
    def test_returns_connected_vis(self):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair()
        assert vi_s.state == ViState.CONNECTED
        assert vi_r.state == ViState.CONNECTED
        assert vi_s.peer == (cluster[1].nic.name, vi_r.vi_id)

    def test_reliability_passthrough(self):
        _, _, _, vi_s, vi_r = connected_pair(
            reliability=ReliabilityLevel.UNRELIABLE)
        assert vi_s.reliability == ReliabilityLevel.UNRELIABLE
        assert vi_r.reliability == ReliabilityLevel.UNRELIABLE

    def test_backend_passthrough(self):
        cluster, *_ = connected_pair("pageflags")
        assert cluster[0].backend.name == "pageflags"
