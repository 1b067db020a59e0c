"""The VM→driver notifier contract (``Kernel.notifiers``).

Drivers and checkers learn of address-space changes through one list of
notifiers, each with two calls, modelled on Linux's ``mmu_notifier``:
``invalidate_range(task, start_vpn, end_vpn, cause)`` and
``release(task, phase)``.  These tests pin down *when* each call
arrives relative to the kernel state it announces, using a notifier
that records what it could observe at the moment of each call.
"""

from __future__ import annotations

import pytest

from repro.analysis.events import TASK_EXIT
from repro.errors import InvalidArgument
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.via.machine import Machine


class Recorder:
    """A notifier logging each call with a snapshot of the task state."""

    def __init__(self, kernel, log, name="rec"):
        self.kernel = kernel
        self.log = log
        self.name = name

    def _findable(self, task) -> bool:
        try:
            self.kernel.find_task(task.pid)
        except InvalidArgument:
            return False
        return True

    def invalidate_range(self, task, start_vpn, end_vpn, cause):
        self.log.append(dict(
            who=self.name, call="invalidate_range", cause=cause,
            pid=task.pid, range=(start_vpn, end_vpn),
            vmas=len(task.vmas),
            present=[vpn for vpn in range(start_vpn, end_vpn)
                     if (pte := task.page_table.lookup(vpn)) is not None
                     and pte.present]))

    def release(self, task, phase):
        self.log.append(dict(
            who=self.name, call="release", phase=phase, pid=task.pid,
            findable=self._findable(task), alive=task.alive,
            vmas=len(task.vmas)))


@pytest.fixture
def setup(kernel):
    """A kernel with a recording notifier and a hub subscriber logging
    ``TASK_EXIT`` into the same ordered log."""
    log: list[dict] = []
    kernel.notifiers.append(Recorder(kernel, log))
    unsubscribe = kernel.events.subscribe(
        lambda ev: log.append(dict(call="event", kind=ev.kind))
        if ev.kind == TASK_EXIT else None)
    task = kernel.create_task(name="app")
    va = task.mmap(4)
    task.touch_pages(va, 4)
    yield kernel, task, va, log
    unsubscribe()


def _calls(log):
    return [(e["call"], e.get("phase") or e.get("cause") or e.get("kind"))
            for e in log]


class TestRelease:
    def test_clean_exit_releases_drivers_then_teardown(self, setup):
        kernel, task, va, log = setup
        task.exit()
        assert _calls(log) == [("release", "drivers"),
                               ("release", "teardown"),
                               ("event", TASK_EXIT)]

    def test_drivers_phase_sees_a_live_mapped_task(self, setup):
        """``"drivers"`` arrives while ``find_task`` still succeeds and
        before any VMA is dropped."""
        kernel, task, va, log = setup
        vmas = len(task.vmas)
        task.exit()
        drivers = log[0]
        assert drivers["phase"] == "drivers"
        assert drivers["findable"] and drivers["alive"]
        assert drivers["vmas"] == vmas

    def test_teardown_phase_sees_the_task_gone(self, setup):
        """``"teardown"`` arrives after the task is gone and before the
        hub's ``TASK_EXIT``."""
        kernel, task, va, log = setup
        task.exit()
        teardown = log[1]
        assert teardown["phase"] == "teardown"
        assert not teardown["findable"] and not teardown["alive"]
        assert teardown["vmas"] == 0
        assert log[2] == dict(call="event", kind=TASK_EXIT)

    def test_buggy_kill_sends_only_teardown(self, setup):
        kernel, task, va, log = setup
        kernel.kill(task.pid, cleanup=False)
        assert _calls(log) == [("release", "teardown"),
                               ("event", TASK_EXIT)]


class TestInvalidateRange:
    def test_munmap_sends_one_unmap_before_ptes_drop(self, setup):
        kernel, task, va, log = setup
        first = task.vpn_of(va)
        task.munmap(va + PAGE_SIZE, 2)
        assert _calls(log) == [("invalidate_range", "unmap")]
        unmap = log[0]
        assert unmap["pid"] == task.pid
        assert unmap["range"] == (first + 1, first + 3)
        assert unmap["present"] == [first + 1, first + 2]
        assert unmap["vmas"] == 1
        assert task.page_table.lookup(first + 1) is None

    def test_exit_path_sends_no_unmap(self, setup):
        kernel, task, va, log = setup
        task.exit()
        assert [c for c in _calls(log) if c[0] == "invalidate_range"] == []

    def test_pinned_page_met_by_reclaim_sends_one_page_evict(self, setup):
        kernel, task, va, log = setup
        vpn = task.vpn_of(va)
        frames = [kernel.pin_user_page(task, page)
                  for page in range(vpn, vpn + 4)]
        assert paging.swap_out(kernel, 1) == 0
        evicts = [e for e in log if e.get("cause") == "evict"]
        assert evicts
        assert all(e["range"][1] - e["range"][0] == 1 for e in evicts)
        assert evicts[0]["range"] == (vpn, vpn + 1)
        assert evicts[0]["pid"] == task.pid
        for frame in frames:
            kernel.unpin_user_page(frame, task.pid)


class TestDispatch:
    def test_self_removal_does_not_skip_the_others(self, setup):
        kernel, task, va, log = setup

        class OneShot(Recorder):
            def release(self, task, phase):
                super().release(task, phase)
                self.kernel.notifiers.remove(self)

        kernel.notifiers.insert(0, OneShot(kernel, log, name="oneshot"))
        kernel.notifiers.append(Recorder(kernel, log, name="last"))
        task.exit()
        drivers = [e["who"] for e in log if e.get("phase") == "drivers"]
        teardown = [e["who"] for e in log if e.get("phase") == "teardown"]
        assert drivers == ["oneshot", "rec", "last"]
        assert teardown == ["rec", "last"]

    def test_machine_registers_its_agent_once(self):
        m = Machine()
        assert m.kernel.notifiers == [m.agent]
        wd = m.arm_watchdog()
        assert m.kernel.notifiers == [m.agent, wd]
        wd.disarm()
        assert m.kernel.notifiers == [m.agent]
