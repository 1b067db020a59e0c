"""The reclaim path: ``try_to_free_pages`` → ``shrink_mmap`` → ``swap_out``.

This module is a line-for-line behavioural port of the algorithm the
paper describes in Section 2.2 ("Discarding pages"):

* ``shrink_mmap`` "applies a so called 'clock algorithm' to go through
  the page map in order to find pages that can be discarded.  Pages with
  the PG_locked bit set are left untouched.  Also pages with a reference
  counter other than one are skipped.  Although shrink_mmap() is a place
  where memory pages are freed it does not touch user pages of a
  process."
* ``swap_out`` "selects a process from the task list ... goes through the
  process' list of virtual memory areas ... VMAs with the VM_LOCKED bit
  set are skipped. ... it writes the page to swap space if necessary and
  calls __free_page().  The latter function decrements the reference
  counter and adds the page to the free list if the counter has reached
  zero.  Like in shrink_mmap(), all pages with the PG_locked bit set
  won't be touched.  The same holds true for reserved pages."

One extension (the paper's proposal, reconstructed): pages with a nonzero
kiobuf ``pin_count`` are skipped like ``PG_locked`` pages.  Without any
pin/lock/VM_LOCKED protection, an *elevated reference count alone does
not stop the steal* — the page is written to swap, the PTE redirected,
and ``__free_page`` merely orphans the frame.  That is the whole bug.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.events import SWAP_OUT
from repro.errors import SwapFull
from repro.kernel.flags import (
    PG_LOCKED, PG_PAGECACHE, PG_REFERENCED, PG_RESERVED,
)
from repro.kernel.page import ORPHAN_TAG

if TYPE_CHECKING:  # pragma: no cover
    from array import array

    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


def try_to_free_pages(kernel: "Kernel", target: int) -> int:
    """Free at least ``target`` frames if possible; returns frames freed.

    Mirrors ``do_try_to_free_pages``: several passes of decreasing
    "priority", each first shrinking the page/buffer cache and then
    swapping out process pages.  The ``reclaim_start`` record and the
    ``reclaim_done`` record after the run (``reclaim_raised`` if it
    raises) are its ``kernel.reclaim`` span.
    """
    freed = 0
    kernel.trace.emit("reclaim_start", target=target,
                      free=kernel.pagemap.free_count)
    try:
        for priority in range(6, 0, -1):
            if freed >= target:
                break
            scan_budget = max(16, kernel.pagemap.num_frames // priority)
            freed += shrink_mmap(kernel, scan_budget)
            if freed >= target:
                break
            freed += swap_out(kernel, target - freed)
        if (freed < target and kernel.reaper is not None
                and not kernel.reaper._in_scan):
            # Ordinary reclaim fell short: draft the orphan reaper, whose
            # dead-owner reclamation can free pages pinned by nothing live.
            report = kernel.reaper.scan()
            freed += report.frames_freed
    except Exception as exc:
        kernel.trace.emit("reclaim_raised", target=target,
                          error=type(exc).__name__)
        raise
    kernel.trace.emit("reclaim_done", target=target, freed=freed)
    return freed


def shrink_mmap(kernel: "Kernel", scan_budget: int) -> int:
    """Clock algorithm over the page map; frees page-cache pages only.

    Skip rules in scan order (each emits a trace event so tests can
    verify the rule actually fired):

    * ``PG_locked``  → untouched,
    * ``PG_reserved`` → untouched,
    * reference count != 1 → skipped,
    * not a page-cache page → not shrink_mmap's job (user pages belong
      to ``swap_out``),
    * ``PG_referenced`` → second chance: clear the bit, move on.

    Every scanned frame costs ``reclaim_scan_page_ns``.  A frame without
    ``PG_PAGECACHE`` is skipped whatever else it holds, so a run of such
    frames costs only its scan charges and is charged at once.  The run
    stops short of the frame whose charge would reach a calendar
    deadline (:meth:`SimClock.headroom_ns`): a callback may change the
    columns ahead of the hand, so that frame, like every page-cache
    frame, is charged first and read after.  Callbacks therefore fire at
    the same charge and the same ``now_ns`` as with one charge per frame.
    """
    pagemap = kernel.pagemap
    counts = pagemap.table.counts
    flags = pagemap.table.flags
    clock = kernel.clock
    scan_ns = kernel.costs.reclaim_scan_page_ns
    freed = 0
    scanned = 0
    n = pagemap.num_frames
    while scanned < scan_budget:
        frame = kernel._clock_hand
        limit = min(scan_budget - scanned, n - frame)
        headroom = clock.headroom_ns()
        if headroom is not None and scan_ns:
            limit = min(limit, headroom // scan_ns)
        run = _cacheless_run(flags, frame, limit)
        if run:
            kernel._clock_hand = (frame + run) % n
            scanned += run
            clock.charge(run * scan_ns, "reclaim")
            continue
        kernel._clock_hand = (frame + 1) % n
        scanned += 1
        # The charge may fire calendar events, so the columns are read
        # only after it.
        clock.charge(scan_ns, "reclaim")
        count = counts[frame]
        if count == 0 or flags[frame] & (PG_LOCKED | PG_RESERVED):
            continue
        if count != 1:
            continue
        if not flags[frame] & PG_PAGECACHE:
            continue
        if flags[frame] & PG_REFERENCED:
            flags[frame] &= ~PG_REFERENCED
            continue
        # Reclaim the cache page.
        kernel.page_cache.discard(frame)
        flags[frame] &= ~PG_PAGECACHE
        pagemap.put_page(frame)
        kernel.trace.emit("cache_reclaim", frame=frame)
        freed += 1
    return freed


def _cacheless_run(flags: "array[int]", start: int, limit: int) -> int:
    """How many of the ``limit`` frames from ``start`` lack
    ``PG_PAGECACHE``, counted up to the first that has it."""
    end = start + limit
    frame = start
    while frame < end and not flags[frame] & PG_PAGECACHE:
        frame += 1
    return frame - start


def _pick_victim(kernel: "Kernel") -> "Task | None":
    """Select the task to steal from, using the kernel's ``swap_cnt``
    heuristic: counters initialised from RSS and decremented per steal,
    so pressure is spread across all tasks proportionally — which is why
    "it happens that the locktest process is chosen by the swap_out()
    function" even though the allocator is far bigger."""
    candidates = [t for t in kernel.tasks if t.resident_pages() > 0]
    if not candidates:
        return None
    live = [t for t in candidates if kernel._swap_cnt.get(t.pid, 0) > 0]
    if not live:
        for t in candidates:
            kernel._swap_cnt[t.pid] = t.resident_pages()
        live = candidates
    return max(live, key=lambda t: kernel._swap_cnt.get(t.pid, 0))


def swap_out(kernel: "Kernel", want: int) -> int:
    """Steal up to ``want`` process pages, writing them to swap.

    Returns the number of frames actually *freed* (returned to the free
    list).  Pages whose reference count stays above zero after the steal
    are **unmapped but not freed** — they become the orphans of the
    Sec. 3.1 experiment and do not count toward the return value,
    mirroring how the real kernel's effort is wasted on them.
    """
    freed = 0
    attempts = 0
    max_attempts = want * 8 + 32   # bounded scan; mirrors priority decay
    while freed < want and attempts < max_attempts:
        attempts += 1
        task = _pick_victim(kernel)
        if task is None:
            break
        stolen = _swap_out_task_one(kernel, task)
        if stolen is None:
            # This task had nothing stealable; retire it for this round.
            kernel._swap_cnt[task.pid] = 0
            if all(kernel._swap_cnt.get(t.pid, 0) == 0
                   for t in kernel.tasks if t.resident_pages() > 0):
                break
            continue
        kernel._swap_cnt[task.pid] = max(
            0, kernel._swap_cnt.get(task.pid, 1) - 1)
        if stolen:
            freed += 1
    return freed


def _swap_out_task_one(kernel: "Kernel", task: "Task") -> "bool | None":
    """``swap_out_process``: walk the task's VMAs from its clock hand and
    steal the first eligible page.

    Returns True if a frame was freed, False if a page was unmapped but
    the frame stayed referenced (orphaned), None if nothing was
    stealable.
    """
    hand = kernel._task_swap_hand.get(task.pid, 0)
    table = kernel.pagemap.table
    # Lazy walk from the hand, wrapping once: a steal ends it after
    # visiting only the entries it charged for.
    for vpn, pte in task.page_table.present_entries(hand):
        kernel.clock.charge(kernel.costs.reclaim_scan_page_ns, "reclaim")
        vma = task.vmas.find(vpn)
        if vma is None:
            continue
        if vma.locked:
            kernel.trace.emit("swap_skip", reason="VM_LOCKED",
                              pid=task.pid, vpn=vpn)
            continue
        frame = pte.frame
        flags = table.flags[frame]
        if flags & PG_LOCKED:
            kernel.trace.emit("swap_skip", reason="PG_locked",
                              pid=task.pid, vpn=vpn, frame=frame)
            continue
        if flags & PG_RESERVED:
            kernel.trace.emit("swap_skip", reason="PG_reserved",
                              pid=task.pid, vpn=vpn, frame=frame)
            continue
        if table.pin_counts[frame] > 0:
            # Tell the pin owners before giving up: an ODP-style owner
            # may invalidate its TPT entries and release its just-in-time
            # pins, making the frame stealable after all.
            for notifier in list(kernel.notifiers):
                notifier.invalidate_range(task, vpn, vpn + 1, "evict")
            if table.pin_counts[frame] > 0:
                kernel.trace.emit("swap_skip", reason="pinned",
                                  pid=task.pid, vpn=vpn, frame=frame)
                continue
            kernel.obs.inc("kernel.paging.swap_evictions.odp")
        if table.cow_shares[frame] > 0:
            # Simplification: COW-shared pages are not swapped (the real
            # kernel uses the swap cache here; irrelevant to the paper).
            kernel.trace.emit("swap_skip", reason="cow_shared",
                              pid=task.pid, vpn=vpn, frame=frame)
            continue
        # -- steal it --------------------------------------------------------
        try:
            slot = kernel.swap.alloc_slot()
        except SwapFull:
            return None
        kernel.swap.write_page(slot, kernel.phys.read_frame(frame))
        task.page_table.set_swapped(vpn, slot)
        table.mappings[frame] = None
        refs_before = table.counts[frame]
        was_freed = kernel.pagemap.put_page(frame)
        if not was_freed:
            # An extra reference (e.g. a VIA driver's get_page) kept the
            # frame alive: it is now an orphan — unmapped, unfreed.
            table.set_tag(frame, ORPHAN_TAG)
        kernel._task_swap_hand[task.pid] = vpn + 1
        kernel.events.record(SWAP_OUT, pid=task.pid, vpn=vpn,
                             frame=frame, slot=slot,
                             refs_before=refs_before, freed=was_freed,
                             actor="reclaim")
        return was_freed
    return None
