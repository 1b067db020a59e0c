"""``mlock``/``munlock`` — the VMA-based locking approach of Section 3.2.

Three entry points mirror the three ways the paper discusses of reaching
``do_mlock``:

* :func:`sys_mlock` — the standard syscall: checks ``CAP_IPC_LOCK``
  ("only super-user processes are allowed to use mlock").
* :func:`do_mlock` — the internal function a driver may call directly
  once the kernel is patched to move the uid check up into ``sys_mlock``
  (the "User-DMA patch" variant).
* the ``cap_raise``/``do_mlock``/``cap_lower`` dance, available through
  :func:`mlock_with_cap_dance` — "the Kernel Agent's registration
  function can grant that capability to the current process by means of
  cap_raise(), then call do_mlock and reclaim the capability again".

The crucial semantic wart, faithfully preserved: **mlock calls do not
nest** — "a single unlock operation annuls multiple lock operations on
the same address".  ``do_munlock`` clears ``VM_LOCKED`` unconditionally,
as the ``munlock(2)`` syscall does (it checks no capability, so it adds
only the trap to ``do_munlock``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.events import MLOCK, MUNLOCK
from repro.errors import InvalidArgument, PermissionDenied
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.capabilities import (
    CAP_IPC_LOCK, cap_lower, cap_raise, capable,
)
from repro.kernel.fault import handle_fault
from repro.kernel.flags import VM_LOCKED, VM_WRITE
from repro.sim.faults import crash_if_due

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


def _range_vpns(va: int, nbytes: int) -> tuple[int, int]:
    if nbytes <= 0:
        raise InvalidArgument(f"cannot lock {nbytes} bytes")
    start_vpn = va // PAGE_SIZE
    end_vpn = (va + nbytes - 1) // PAGE_SIZE + 1
    return start_vpn, end_vpn


def sys_mlock(kernel: "Kernel", task: "Task", va: int, nbytes: int) -> None:
    """The ``mlock(2)`` syscall: capability-checked entry to
    :func:`do_mlock`."""
    kernel.clock.charge(kernel.costs.syscall_ns, "syscall")
    kernel.clock.charge(kernel.costs.capability_check_ns, "syscall")
    if not capable(task, CAP_IPC_LOCK):
        raise PermissionDenied(
            f"{task.name} (uid {task.uid}) lacks CAP_IPC_LOCK")
    do_mlock(kernel, task, va, nbytes)


def do_mlock(kernel: "Kernel", task: "Task", va: int, nbytes: int) -> None:
    """Lock ``[va, va+nbytes)``: split boundary VMAs, set ``VM_LOCKED``,
    and make every page present (``make_pages_present``).

    No permission check — this is the kernel-internal function; callers
    are responsible for authorization (that *is* the Sec. 3.2 plot).
    """
    start_vpn, end_vpn = _range_vpns(va, nbytes)
    if not task.vmas.covers(start_vpn, end_vpn):
        raise InvalidArgument(
            f"mlock range vpns [{start_vpn}, {end_vpn}) has unmapped holes")
    kernel.clock.charge(kernel.costs.mlock_range_ns, "mlock")
    splits = task.vmas.split_range(start_vpn, end_vpn)
    kernel.clock.charge(splits * kernel.costs.vma_split_ns, "mlock")
    task.vmas.set_flags_range(start_vpn, end_vpn, set_bits=VM_LOCKED)
    # make_pages_present: fault everything in now, so locking guarantees
    # residency and known physical addresses.
    for vpn in range(start_vpn, end_vpn):
        pte = task.page_table.lookup(vpn)
        if pte is None or not pte.present:
            vma = task.vmas.find_or_fault(vpn)
            handle_fault(kernel, task, vpn,
                         write=bool(vma.flags & VM_WRITE))
    kernel.events.record(MLOCK, pid=task.pid, start_vpn=start_vpn,
                         end_vpn=end_vpn)


def do_munlock(kernel: "Kernel", task: "Task", va: int,
               nbytes: int) -> None:
    """Clear ``VM_LOCKED`` over the range — regardless of how many times
    it was locked."""
    start_vpn, end_vpn = _range_vpns(va, nbytes)
    kernel.clock.charge(kernel.costs.mlock_range_ns, "mlock")
    splits = task.vmas.split_range(start_vpn, end_vpn)
    kernel.clock.charge(splits * kernel.costs.vma_split_ns, "mlock")
    task.vmas.set_flags_range(start_vpn, end_vpn, clear_bits=VM_LOCKED)
    task.vmas.merge_adjacent()
    kernel.events.record(MUNLOCK, pid=task.pid, start_vpn=start_vpn,
                         end_vpn=end_vpn)


def mlock_with_cap_dance(kernel: "Kernel", task: "Task", va: int,
                         nbytes: int) -> None:
    """The capability dance: temporarily grant ``CAP_IPC_LOCK``, go
    through the *checked* syscall path, then revoke it.

    Restores the capability set exactly (if the task already held the
    capability it keeps it), **on every exit path**: an mlock failure —
    or the process dying inside the window (the ``mlock.cap_raised``
    crash point) — must not leave an unprivileged task holding
    CAP_IPC_LOCK, or one crashed registration would mint a permanently
    privileged process."""
    had = CAP_IPC_LOCK in task.capabilities
    cap_raise(task, CAP_IPC_LOCK)
    try:
        crash_if_due(kernel.fault_plan, kernel, task, "mlock.cap_raised")
        sys_mlock(kernel, task, va, nbytes)
    finally:
        if not had:
            cap_lower(task, CAP_IPC_LOCK)
