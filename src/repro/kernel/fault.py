"""Page-fault handling: demand-zero, copy-on-write, and swap-in.

Reproduces the behaviour Section 3.1 relies on: "When we come to step 4
... the locktest process will cause a not-present page fault.  The memory
subsystem extracts the swap file index from the page table entry and
starts reading the page back from disk.  **A new page is allocated for
this.**  Note, that it cannot be one of the pages formerly mapped to the
registered region since the kernel still regards them used."

That "new page is allocated" is what disconnects the NIC's stale TPT from
the process — the fault handler here does exactly that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.events import SWAP_IN
from repro.errors import PageAccountingError, SegmentationFault
from repro.kernel.flags import VM_WRITE

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.pagetable import PTE
    from repro.kernel.task import Task


def handle_fault(kernel: "Kernel", task: "Task", vpn: int,
                 write: bool) -> int:
    """Service a page fault at ``vpn``; returns the frame now mapped.

    Dispatch order mirrors ``do_page_fault``/``handle_mm_fault``:

    1. no VMA → SIGSEGV,
    2. access-rights check against the VMA,
    3. present PTE + write to a COW page → break COW,
    4. not-present PTE with a swap slot → major fault (swap-in),
    5. otherwise → minor fault (demand-zero).
    """
    vma = task.vmas.find(vpn)
    if vma is None:
        raise SegmentationFault(
            f"{task.name}: fault at vpn {vpn} outside any VMA")
    if write and not (vma.flags & VM_WRITE):
        raise SegmentationFault(
            f"{task.name}: write fault at vpn {vpn} in read-only VMA")

    pte = task.page_table.lookup(vpn)

    # -- present: only a COW break or a spurious fault can land here --------
    if pte is not None and pte.present:
        if write and not pte.writable and pte.cow:
            return _break_cow(kernel, task, vpn)
        if write and not pte.writable:
            raise SegmentationFault(
                f"{task.name}: write to write-protected vpn {vpn}")
        pte.accessed = True
        return pte.frame

    # -- not present: swap-in (major) or demand-zero (minor) ----------------
    if pte is not None and pte.swapped:
        return _swap_in(kernel, task, vpn, pte.swap_slot, vma_writable=bool(
            vma.flags & VM_WRITE))

    return _demand_zero(kernel, task, vpn, vma_writable=bool(
        vma.flags & VM_WRITE))


def fault_in(kernel: "Kernel", task: "Task", vpn: int,
             write: bool) -> "PTE":
    """Service a fault at ``vpn`` and return the present PTE it left.

    The pinning paths reference and pin ``pte.frame`` next, so a fault
    path that left the entry non-present (its ``frame`` is ``-1``) must
    stop here, typed and with the pid and vpn, rather than let
    ``frame -1`` pin the last frame of the machine.
    """
    handle_fault(kernel, task, vpn, write=write)
    pte = task.page_table.lookup(vpn)
    if pte is None or not pte.present:
        raise PageAccountingError(
            f"pid {task.pid}: vpn {vpn} not present after its fault "
            f"was handled")
    return pte


def _demand_zero(kernel: "Kernel", task: "Task", vpn: int,
                 vma_writable: bool) -> int:
    """Minor fault: allocate and zero a fresh frame."""
    frame = kernel.alloc_frame(tag=f"anon:{task.pid}")
    kernel.phys.zero_frame(frame)
    kernel.pagemap.table.mappings[frame] = (task.pid, vpn)
    task.page_table.set_mapping(vpn, frame, writable=vma_writable)
    task.minor_faults += 1
    kernel.clock.charge(kernel.costs.minor_fault_ns, "fault")
    kernel.trace.emit("minor_fault", pid=task.pid, vpn=vpn, frame=frame)
    return frame


def _swap_in(kernel: "Kernel", task: "Task", vpn: int, slot: int,
             vma_writable: bool) -> int:
    """Major fault: read the page back from swap into a *new* frame."""
    frame = kernel.alloc_frame(tag=f"anon:{task.pid}")
    data = kernel.swap.read_page(slot)
    kernel.phys.write_frame(frame, data)
    kernel.swap.free_slot(slot)
    kernel.pagemap.table.mappings[frame] = (task.pid, vpn)
    task.page_table.set_mapping(vpn, frame, writable=vma_writable,
                                dirty=True)
    task.major_faults += 1
    kernel.clock.charge(kernel.costs.major_fault_base_ns, "fault")
    kernel.events.record(SWAP_IN, pid=task.pid, vpn=vpn, frame=frame,
                         slot=slot)
    return frame


def _drop_cow_share(kernel: "Kernel", task: "Task", vpn: int,
                    frame: int) -> None:
    """Decrement a frame's COW sharer count, refusing to underflow.

    A COW break on a frame whose sharer count is already zero means the
    fork/munmap/exit accounting lost a decrement somewhere — the kind of
    silent corruption the ODP eviction path (which trusts ``cow_shares``
    to decide stealability) would turn into a stale DMA.  It is recorded
    as ``cow_underflow`` and then raised.
    """
    cow_shares = kernel.pagemap.table.cow_shares
    if cow_shares[frame] <= 0:
        kernel.trace.emit("cow_underflow", pid=task.pid, vpn=vpn,
                          frame=frame, cow_shares=cow_shares[frame])
        raise PageAccountingError(
            f"COW sharer-count underflow on frame {frame} "
            f"(pid {task.pid}, vpn {vpn}): breaking COW with "
            f"cow_shares={cow_shares[frame]}")
    cow_shares[frame] -= 1


def _break_cow(kernel: "Kernel", task: "Task", vpn: int) -> int:
    """Copy-on-write break: give the faulting task a private copy."""
    pte = task.page_table.lookup(vpn)
    assert pte is not None and pte.present and pte.cow
    old = pte.frame
    if kernel.pagemap.table.counts[old] == 1:
        # Last sharer: simply regain write access in place.
        pte.writable = True
        pte.cow = False
        _drop_cow_share(kernel, task, vpn, old)
        kernel.trace.emit("cow_reuse", pid=task.pid, vpn=vpn, frame=old)
        return old
    new = kernel.alloc_frame(tag=f"anon:{task.pid}")
    kernel.phys.copy_frame(old, new)
    _drop_cow_share(kernel, task, vpn, old)
    kernel.pagemap.put_page(old)
    kernel.pagemap.table.mappings[new] = (task.pid, vpn)
    task.page_table.set_mapping(vpn, new, writable=True, dirty=True)
    task.minor_faults += 1
    kernel.clock.charge(kernel.costs.minor_fault_ns, "fault")
    kernel.clock.charge(kernel.costs.memcpy_ns(kernel.phys.size_bytes
                                               // kernel.phys.num_frames),
                        "fault")
    kernel.trace.emit("cow_copy", pid=task.pid, vpn=vpn, src=old, dst=new)
    return new
