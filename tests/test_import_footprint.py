"""numpy is loaded on first use, not on import.

Its only users are the frame table's column audits, a fault plan's
rolls, the MPI reductions and :func:`repro.sim.rng.make_rng`.  A run
that calls none of them — a kiobuf or ODP transfer, an MPI
point-to-point message, a memory hog — never loads it.  Arming the
invariant watchdog or starting a reaper loads it at once, since their
first sample runs the column passes.  Each check that needs a fresh
interpreter runs in its own subprocess.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.sim.faults import FaultPlan

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def run_fresh(body: str) -> None:
    """Run ``body`` in a new interpreter; it fails by raising."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        capture_output=True, text=True, timeout=120, env=ENV)
    assert proc.returncode == 0, proc.stderr


def test_transfers_never_load_numpy():
    run_fresh("""
        import sys

        import repro
        from repro.hw.physmem import PAGE_SIZE
        from repro.mpi import MpiWorld
        from repro.msg.endpoint import make_pair
        from repro.msg.protocols import RendezvousZeroCopyProtocol
        from repro.via.machine import Cluster
        from repro.workloads.allocator import MemoryHog

        def transfer(backend):
            s, r = make_pair(Cluster(2, backend=backend))
            src, dst = s.task.mmap(3), r.task.mmap(3)
            data = bytes(range(256)) * (3 * PAGE_SIZE // 256)
            s.task.write(src, data)
            protocol = RendezvousZeroCopyProtocol(use_cache=True)
            assert protocol.transfer(s, r, src, dst, len(data)).ok
            assert r.task.read(dst, len(data)) == data

        transfer("kiobuf")
        transfer("odp")

        world = MpiWorld(2)
        a, b = world.rank(0), world.rank(1)
        src, dst = a.task.mmap(1), b.task.mmap(1)
        a.task.write(src, b"ping" * 64)
        req = a.isend(1, 7, src, 256)
        b.recv(0, 7, dst, 256)
        req.wait()
        assert b.task.read(dst, 256) == b"ping" * 64

        hog = MemoryHog(Cluster(1)[0].kernel)
        assert hog.grow(64) == 64
        hog.churn()

        assert "numpy" not in sys.modules, "numpy was imported"
    """)


def test_fault_plan_rolls_are_the_seeded_pcg64_stream():
    seed, loss, corrupt = 11, 0.3, 0.2
    plan = FaultPlan(seed=seed, loss_rate=loss, corrupt_rate=corrupt)
    rng = np.random.default_rng(seed)
    payload = bytes(100)
    got, want = [], []
    for _ in range(200):
        dropped = plan.should_drop()
        flip = None
        if plan.should_corrupt():
            flip = plan.corrupt(payload).index(b"\xff")
        got.append((dropped, flip))
        dropped = rng.random() < loss
        flip = None
        if rng.random() < corrupt:
            flip = int(rng.integers(0, len(payload)))
        want.append((dropped, flip))
    assert got == want
    assert any(d for d, _ in got) and any(f is not None for _, f in got)


def test_a_plan_that_rolls_nothing_makes_no_generator():
    plan = FaultPlan(seed=3, registration_failures=1)
    for _ in range(10):
        assert not plan.should_drop()
        assert not plan.should_corrupt()
        assert not plan.should_fail_dma()
    assert plan.take_registration_failure()
    assert "_rng" not in vars(plan)


@pytest.mark.parametrize("body", [
    pytest.param("""
        machine = Machine(num_frames=64)
        pagemap = machine.kernel.pagemap
        pagemap.check_free_list()
        pagemap.table.counts[pagemap._free[0]] = 1
        try:
            pagemap.check_free_list()
        except PageAccountingError as exc:
            assert "free with refcount 1" in str(exc), exc
        else:
            raise AssertionError("a used frame on the free list passed")
    """, id="check_free_list"),
    pytest.param("""
        machine = Machine(num_frames=64)
        task = machine.spawn()
        va = task.mmap(2)
        task.touch_pages(va, 2)
        frame = task.physical_pages(va, 2)[1]
        assert audit_pin_leaks(machine.kernel, machine.agent) == []
        machine.kernel.pin_user_page(task, task.vpn_of(va) + 1)
        assert audit_pin_leaks(machine.kernel, machine.agent) == [
            LeakedPin(frame=frame, pin_count=1, expected=0)]
    """, id="audit_pin_leaks"),
    pytest.param("""
        import struct

        world = MpiWorld(2)
        values = [[1.5, -2.0, 4.0], [0.25, 8.0, -1.0]]
        vas, outs = [], []
        for rank, row in zip(world.ranks, values):
            vas.append(rank.task.mmap(1))
            outs.append(rank.task.mmap(1))
            rank.task.write(vas[-1], struct.pack("3d", *row))
        for op, fold in (("sum", sum), ("max", max)):
            world.allreduce(vas, outs, 3, op=op)
            want = [fold(column) for column in zip(*values)]
            for rank, out in zip(world.ranks, outs):
                got = list(struct.unpack("3d", rank.task.read(out, 24)))
                assert got == want, (op, got, want)
    """, id="allreduce"),
])
def test_numpy_first_imported_inside_a_user(body):
    run_fresh(textwrap.dedent("""
        import sys

        from repro.core.audit import LeakedPin, audit_pin_leaks
        from repro.errors import PageAccountingError
        from repro.mpi import MpiWorld
        from repro.via.machine import Machine

        assert "numpy" not in sys.modules
    """) + textwrap.dedent(body) + 'assert "numpy" in sys.modules\n')


@pytest.mark.parametrize("arm", [
    "machine.arm_watchdog()",
    "machine.start_reaper()",
    "Cluster(2).arm_watchdog()",
    "Cluster(2).start_reapers()[1]",
])
def test_arming_a_daemon_loads_numpy_before_its_first_sample(arm):
    # The first sample or scan runs the column passes; numpy is loaded
    # while the system is being built, not inside a timed operation.
    run_fresh(f"""
        import sys

        from repro.via.machine import Cluster, Machine

        machine = Machine(num_frames=64)
        assert "numpy" not in sys.modules
        daemon = {arm}
        assert "numpy" in sys.modules
        assert getattr(daemon, "checks_run", 0) == 0
        assert getattr(daemon, "scans", 0) == 0
    """)


def test_no_daemon_and_no_rolling_plan_never_load_numpy():
    run_fresh("""
        import sys

        from repro.hw.physmem import PAGE_SIZE
        from repro.sim.faults import FaultPlan
        from repro.via.machine import Machine
        from repro.errors import ViaError

        machine = Machine(num_frames=64, backend="kiobuf")
        task = machine.spawn()
        ua = machine.user_agent(task)
        va = task.mmap(4)
        task.touch_pages(va, 4)
        machine.inject_faults(FaultPlan(seed=1, registration_failures=1))
        try:
            ua.register_mem(va, 4 * PAGE_SIZE)
        except ViaError:
            pass
        else:
            raise AssertionError("the planned registration failure passed")
        reg = ua.register_mem(va, 4 * PAGE_SIZE)
        ua.deregister_mem(reg)
        task.exit()
        assert "numpy" not in sys.modules, "numpy was imported"
    """)
