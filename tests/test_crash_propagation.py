"""ProcessKilled must propagate, never be masked or swallowed.

A crash point fires mid-operation and the kernel's kill path has
already torn the process down; any ``except Exception`` handler on the
unwind route that "compensates" (or swallows) turns a modelled process
death into a double release or a silent success.  These are the
regression tests for the handlers repro-lint's ``broad-except`` rule
polices.
"""

import pytest

from repro.core.audit import audit_pin_leaks, audit_tpt_consistency
from repro.errors import InvalidArgument, ProcessKilled
from repro.hw.physmem import PAGE_SIZE
from repro.sim.faults import (
    CRASH_POINTS, KERNEL_CRASH_POINTS, REGISTRATION_CRASH_POINTS,
    FaultPlan,
)
from repro.via.machine import Machine


def crashing_machine(point, backend="kiobuf"):
    m = Machine("m0", num_frames=256, backend=backend)
    m.inject_faults(FaultPlan(crash_point=point))
    t = m.spawn("victim")
    ua = m.user_agent(t)
    va = t.mmap(8)
    t.touch_pages(va, 8)
    return m, t, ua, va


class TestKiobufPinCrash:
    """Death mid-``map_user_kiobuf``: pins taken so far predate the
    kiobuf record, so the exit sweep cannot see them — the pin loop's
    unwind handler must release them *and* re-raise ProcessKilled."""

    def test_processkilled_propagates(self):
        m, t, ua, va = crashing_machine("kiobuf.pin")
        with pytest.raises(ProcessKilled) as err:
            ua.register_mem(va, 8 * PAGE_SIZE)
        assert err.value.point == "kiobuf.pin"
        assert t.pid not in {task.pid for task in m.kernel.tasks}

    def test_no_pins_leak(self):
        m, t, ua, va = crashing_machine("kiobuf.pin")
        with pytest.raises(ProcessKilled):
            ua.register_mem(va, 8 * PAGE_SIZE)
        assert audit_pin_leaks(m.kernel, m.agent) == []
        assert m.kernel.pagemap.pinned_frames() == []

    def test_unwind_is_sanitizer_clean(self):
        # The unwind's UNPINs must pair with the PINs already emitted:
        # armed strict, the crash produces zero violations.
        m, t, ua, va = crashing_machine("kiobuf.pin")
        san = m.arm_sanitizer(strict=True)
        with pytest.raises(ProcessKilled):
            ua.register_mem(va, 8 * PAGE_SIZE)
        assert sum(san.counts.values()) == 0
        san.disarm()


class TestRegisterInstallCrash:
    """Death inside the TPT-install window: the kill's exit path has
    already swept the kiobuf, so the driver's compensation handler
    must NOT unlock again — and must not let the double-release error
    mask ProcessKilled."""

    def test_processkilled_not_masked(self):
        m, t, ua, va = crashing_machine("register.install")
        with pytest.raises(ProcessKilled) as err:
            ua.register_mem(va, 8 * PAGE_SIZE)
        assert err.value.point == "register.install"

    @pytest.mark.parametrize("backend",
                             ["kiobuf", "mlock", "mlock_naive"])
    def test_clean_state_after_install_crash(self, backend):
        m, t, ua, va = crashing_machine("register.install",
                                        backend=backend)
        with pytest.raises(ProcessKilled):
            ua.register_mem(va, 8 * PAGE_SIZE)
        assert m.agent.registrations == {}
        assert audit_tpt_consistency(m.agent) == []
        assert audit_pin_leaks(m.kernel, m.agent) == []


class TestAuditExceptionDiscipline:
    """``audit_tpt_consistency`` absorbs only the dangling-owner lookup
    failure; a crash point firing under an audit must still unwind."""

    def test_dangling_registration_is_skipped(self):
        m = Machine("m0", num_frames=256)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(4)
        ua.register_mem(va, 4 * PAGE_SIZE)

        def find_task_gone(pid):
            raise InvalidArgument(f"no task with pid {pid}")

        m.kernel.find_task = find_task_gone
        assert audit_tpt_consistency(m.agent) == []

    def test_processkilled_propagates_through_audit(self):
        m = Machine("m0", num_frames=256)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(4)
        ua.register_mem(va, 4 * PAGE_SIZE)

        def find_task_killed(pid):
            raise ProcessKilled(f"pid {pid} killed", pid=pid,
                                point="audit")

        m.kernel.find_task = find_task_killed
        with pytest.raises(ProcessKilled):
            audit_tpt_consistency(m.agent)
        del m.kernel.find_task   # restore for the post-hoc audit


def test_kiobuf_pin_is_a_registered_crash_point():
    assert KERNEL_CRASH_POINTS == ("kiobuf.pin", "mlock.cap_raised")
    assert "kiobuf.pin" in CRASH_POINTS
    assert "mlock.cap_raised" in CRASH_POINTS
    assert "register.install" in REGISTRATION_CRASH_POINTS
    # A plan naming them validates.
    FaultPlan(crash_point="kiobuf.pin")
    FaultPlan(crash_point="mlock.cap_raised")
    FaultPlan(crash_point="register.install")
