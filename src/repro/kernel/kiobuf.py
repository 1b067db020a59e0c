"""Kernel I/O buffers (kiobufs) — the mechanism the paper's proposal
builds on.

Section 4.2: "The RAW I/O mechanism was introduced to the Linux kernel by
Stephen C. Tweedie of RedHat in order to accelerate SCSI disk accesses."
A kiobuf maps a user-space range for kernel/device I/O:
``map_user_kiobuf`` faults every page in, takes a page reference, records
the physical pages, and **pins them against reclaim**; ``unmap_kiobuf``
reverses all of it.

Reconstruction note (the paper's text is truncated here — see DESIGN.md):
we model the pin as a per-page counter (``FrameTable.pin_counts``)
rather than the single ``PG_locked`` bit, because that is the minimal
semantics under which the paper's two requirements both hold:

* **reliability** — ``swap_out`` skips pinned pages, and
* **multiple registrations** — two kiobufs over the same page take two
  pins; unmapping one leaves the page pinned.

A single lock bit cannot express the second property (that is exactly the
Giganet hazard benchmark E6 quantifies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.events import PIN, UNPIN
from repro.errors import KiobufError, PageAccountingError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.fault import fault_in
from repro.kernel.flags import VM_WRITE
from repro.sim.faults import crash_if_due

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


@dataclass
class Kiobuf:
    """One mapped kernel I/O buffer."""

    kiobuf_id: int
    pid: int
    va: int                      #: user virtual base address
    nbytes: int
    frames: list[int] = field(default_factory=list)
    mapped: bool = True

    @property
    def npages(self) -> int:
        return len(self.frames)

def map_user_kiobuf(kernel: "Kernel", task: "Task", va: int,
                    nbytes: int, write: bool = True) -> Kiobuf:
    """Map ``[va, va+nbytes)`` of ``task`` into a kiobuf.

    For every page of the range: fault it in if necessary (charging the
    corresponding minor/major fault costs), take a page reference, take a
    pin, and record the frame.  The page-table walk happens *here, inside
    the kernel* — which is why the mechanism satisfies the mainline rule
    that drivers must not walk page tables themselves (Sec. 4.1).

    Each page costs ``pagetable_walk_ns`` before its lookup and
    ``page_lock_ns`` after its pin.  The host work is O(range): the
    charges collect in a pending total while it stays within
    :meth:`~repro.sim.clock.SimClock.headroom_ns`, the VMA is looked up
    once per area the range crosses, and the reference and pin are
    written straight into the frame columns.  A charge that would reach
    a calendar deadline is made at its own site, and the pending total
    is charged before anything that can read the clock (the fault
    handler, a hub emit, an armed crash point, an unwind, the closing
    trace emit).  So every callback fires at the same charge and the
    same ``now_ns`` as with one charge per step.  Until the kiobuf is
    recorded (or its pins are unwound), the frames pinned so far are
    listed in ``kernel.pinning``, so a watchdog sample or reaper scan
    fired by one of those charges finds them explained.

    Raises :class:`~repro.errors.SegmentationFault` (propagated from the
    fault handler) if the range is not fully mapped by VMAs or lacks
    write permission when ``write`` is requested.
    """
    if nbytes <= 0:
        raise KiobufError(f"cannot map {nbytes} bytes")
    clock = kernel.clock
    clock.charge(kernel.costs.kiobuf_setup_ns, "kiobuf")
    walk_ns = kernel.costs.pagetable_walk_ns
    lock_ns = kernel.costs.page_lock_ns
    table = kernel.pagemap.table
    counts = table.counts
    pin_counts = table.pin_counts
    pinned = table.pinned
    lookup = task.page_table.lookup
    events = kernel.events
    start_vpn = va // PAGE_SIZE
    end_vpn = (va + nbytes - 1) // PAGE_SIZE + 1

    frames: list[int] = []
    pending = 0
    room = clock.headroom_ns()
    # The VMA found for an earlier page covers the range up to
    # ``vma_end``; anything that may run a callback forgets it.
    vma_end = -1
    # Until the kiobuf is recorded or unwound, its frames explain its
    # pins: a watchdog sample fired by a charge below must not report
    # them leaked.
    kernel.pinning.append(frames)
    try:
        for vpn in range(start_vpn, end_vpn):
            pending += walk_ns
            if room is not None and pending > room:
                # Zeroed before the charge: if a callback raises, the
                # unwind below must not charge it again.
                ns, pending = pending, 0
                clock.charge(ns, "kiobuf")
                room = clock.headroom_ns()
                vma_end = -1
            pte = lookup(vpn)
            if pte is not None and pte.present and not (
                    write and not pte.writable and pte.cow):
                if vpn >= vma_end:
                    vma = task.vmas.find_or_fault(vpn)
                    vma_end = vma.end_vpn
                # A write into a read-only area takes the fault path,
                # whose permission check raises.
                refault = write and not (vma.flags & VM_WRITE)
            else:
                # Demand-zero, swap-in, or COW break.
                refault = True
            if refault:
                clock.charge(pending, "kiobuf")
                pending = 0
                pte = fault_in(kernel, task, vpn, write=write)
                room = clock.headroom_ns()
                vma_end = -1
            frame = pte.frame
            if counts[frame] == 0:
                raise PageAccountingError(f"get_page on free frame {frame}")
            counts[frame] += 1
            pin_counts[frame] += 1
            pinned.add(frame)
            frames.append(frame)
            pending += lock_ns
            if room is not None and pending > room:
                ns, pending = pending, 0
                clock.charge(ns, "kiobuf")
                room = clock.headroom_ns()
                vma_end = -1
            if events.active or kernel.fault_plan is not None:
                clock.charge(pending, "kiobuf")
                pending = 0
                if events.active:
                    events.emit(PIN, frames=(frame,), pid=task.pid)
                # Crash point after each page pin: a death here leaves
                # pins that predate the kiobuf record, so the exit-path
                # sweep cannot see them — the unwind below must release
                # them.
                crash_if_due(kernel.fault_plan, kernel, task, "kiobuf.pin")
                room = clock.headroom_ns()
                vma_end = -1
    except Exception:
        # Unwind partial pins so a failed map leaves no residue.  When
        # the mapper itself died at a crash point, the kill already ran
        # the exit path, but these pins are invisible to it (no kiobuf
        # record exists yet); the control-flow exception keeps going.
        clock.charge(pending, "kiobuf")
        _unwind_pins(kernel, frames, task.pid)
        raise
    else:
        clock.charge(pending, "kiobuf")
        kio = Kiobuf(kiobuf_id=kernel._next_kiobuf_id, pid=task.pid,
                     va=va, nbytes=nbytes, frames=frames)
        kernel._next_kiobuf_id += 1
        kernel.kiobufs[kio.kiobuf_id] = kio
    finally:
        kernel.pinning.pop()
    kernel.trace.emit("kiobuf_map", kiobuf=kio.kiobuf_id, pid=task.pid,
                      va=va, npages=len(frames))
    return kio


def _unwind_pins(kernel: "Kernel", pinned: list[int], pid: int) -> None:
    """Release partial pins of a failed ``map_user_kiobuf``."""
    for frame in pinned:
        kernel.pagemap.table.decr_pin(frame)
        kernel.pagemap.put_page(frame)
    if pinned and kernel.events.active:
        kernel.events.emit(UNPIN, frames=tuple(pinned), pid=pid)


def unmap_kiobuf(kernel: "Kernel", kio: Kiobuf) -> None:
    """Release a kiobuf: drop one pin and one reference per page.

    Each page costs ``page_lock_ns`` between its unpin and its put,
    charged by the rule :func:`map_user_kiobuf` follows: pending while
    within the clock's headroom, at its own site when it would reach a
    deadline, and flushed before a ``put_page`` that can free (its
    trace emit reads the clock) or an error.

    Unmapping the same kiobuf twice is an error (the kernel would corrupt
    counters; we raise instead).
    """
    if not kio.mapped:
        raise KiobufError(f"kiobuf {kio.kiobuf_id} already unmapped")
    clock = kernel.clock
    lock_ns = kernel.costs.page_lock_ns
    pagemap = kernel.pagemap
    counts = pagemap.table.counts
    pin_counts = pagemap.table.pin_counts
    pinned = pagemap.table.pinned
    pending = 0
    room = clock.headroom_ns()
    for frame in kio.frames:
        pins = pin_counts[frame]
        if pins <= 0:
            clock.charge(pending, "kiobuf")
            raise PageAccountingError(
                f"pin-count underflow on frame {frame}")
        pin_counts[frame] = pins - 1
        if pins == 1:
            pinned.discard(frame)
        pending += lock_ns
        if room is not None and pending > room:
            clock.charge(pending, "kiobuf")
            pending = 0
            room = clock.headroom_ns()
        if counts[frame] > 1:
            counts[frame] -= 1
        else:
            # The last reference: put_page frees the frame, or raises.
            clock.charge(pending, "kiobuf")
            pending = 0
            pagemap.put_page(frame)
            room = clock.headroom_ns()
    clock.charge(pending, "kiobuf")
    kio.mapped = False
    kernel.kiobufs.pop(kio.kiobuf_id, None)
    if kernel.events.active:
        kernel.events.emit(UNPIN, frames=tuple(kio.frames), pid=kio.pid)
    kernel.trace.emit("kiobuf_unmap", kiobuf=kio.kiobuf_id, pid=kio.pid,
                      npages=kio.npages)
