"""The page map — ``mem_map[]`` plus the free list and frame accounting.

This module owns *who may use which frame*; policy about *when to steal
frames back* lives in :mod:`repro.kernel.paging`.

A central subtlety, copied from the kernel and essential to the paper's
experiment: :meth:`put_page` decrements the reference counter and returns
the frame to the free list **only if the counter reaches zero**.  When a
VIA driver has taken an extra reference, the kernel's ``swap_out`` path
still unmaps the page and calls ``__free_page`` — but because of the
driver's reference the frame is *not* freed: it becomes an **orphan**,
"not really released ... not associated with the virtual page just
swapped out any more but still in use" (Sec. 3.1).

The map is columnar: all per-frame state lives in one
:class:`~repro.kernel.page.FrameTable`, indexed by frame number, and
there is no per-frame object.  Frames are named by their number:
:meth:`alloc` returns one, and reference counts change only through
:meth:`get_page` and :meth:`put_page`.  :meth:`orphan_count` walks the
incrementally maintained orphan-candidate set, so it never scans every
frame.

The free list is an ``array('q')`` used as a stack (``pop``/``append``)
with a parallel free *set* for O(1) duplicate detection.  Keeping it a
machine-word array lets :meth:`check_free_list`, which the invariant
watchdog runs on every sample, test all free frames in one C-level
gather instead of a Python loop; see there for the cost model.
"""

from __future__ import annotations

from array import array

from repro.errors import OutOfMemory, PageAccountingError
from repro.kernel.flags import PG_PAGECACHE, PG_RESERVED
from repro.kernel.page import FrameTable
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.trace import Trace


class PageMap:
    """Columnar ``mem_map[]`` covering all installed frames."""

    def __init__(self, num_frames: int, clock: SimClock, costs: CostModel,
                 trace: Trace | None = None,
                 reserved_frames: int = 0) -> None:
        self._clock = clock
        self._costs = costs
        self._trace = trace
        self.num_frames = num_frames
        self.table = FrameTable(num_frames)
        # Frames reserved for the "kernel image" — PG_reserved, never
        # allocatable, mirroring the pages the real kernel marks reserved
        # at boot.
        self._free = array(
            "q", range(num_frames - 1, reserved_frames - 1, -1))
        self._free_set: set[int] = set(self._free)
        for i in range(reserved_frames):
            self.table.flags[i] |= PG_RESERVED
            self.table.counts[i] = 1
            self.table.set_tag(i, "kernel-image")
        self.reserved_frames = reserved_frames

    # -- queries -----------------------------------------------------------

    @property
    def free_count(self) -> int:
        """Number of frames on the free list."""
        return len(self._free)

    def pinned_frames(self) -> list[int]:
        """Frames currently holding at least one kiobuf pin, in frame
        order — served from the incrementally maintained pinned set, so
        pin audits need not scan the whole table."""
        return sorted(self.table.pinned)

    # -- allocation ---------------------------------------------------------

    def alloc(self, tag: str = "") -> int:
        """``get_free_pages`` fast path: pop a frame from the free list
        and return its number.

        Raises :class:`~repro.errors.OutOfMemory` when the list is empty;
        the caller (:meth:`repro.kernel.kernel.Kernel.alloc_frame`) is
        responsible for invoking reclaim and retrying — mirroring the
        ``get_free_pages → try_to_free_pages`` structure of the kernel.
        """
        if not self._free:
            raise OutOfMemory("free list empty")
        self._clock.charge(self._costs.frame_alloc_ns, "mm")
        frame = self._free.pop()
        self._free_set.discard(frame)
        table = self.table
        if table.counts[frame] != 0:
            raise PageAccountingError(
                f"frame {frame} on free list with refcount "
                f"{table.counts[frame]}")
        table.reset_frame(frame, tag)
        return frame

    def get_page(self, frame: int) -> None:
        """Take an extra reference on an in-use frame (``get_page``)."""
        table = self.table
        if table.counts[frame] == 0:
            raise PageAccountingError(
                f"get_page on free frame {frame}")
        table.counts[frame] += 1

    def put_page(self, frame: int) -> bool:
        """``__free_page``: drop one reference; free the frame iff the
        count reaches zero.  Returns True if the frame was actually
        freed.

        Reserved frames are never returned to the free list even at count
        zero (the kernel leaves them alone entirely)."""
        table = self.table
        if table.counts[frame] <= 0:
            raise PageAccountingError(
                f"refcount underflow on frame {frame}")
        table.counts[frame] -= 1
        if table.counts[frame] == 0 and not table.flags[frame] & PG_RESERVED:
            table.scrub_identity(frame)
            if table.pin_counts[frame] != 0:
                raise PageAccountingError(
                    f"frame {frame} freed while pinned "
                    f"(pin_count={table.pin_counts[frame]})")
            self._free.append(frame)
            self._free_set.add(frame)
            if self._trace is not None:
                self._trace.emit("frame_freed", frame=frame)
            return True
        return False

    # -- audits --------------------------------------------------------------

    def orphan_count(self) -> int:
        """Number of frames that are in use but mapped by no page table
        and owned by no subsystem tag — the tell-tale of the Sec. 3.1
        failure.

        (The kernel has no such query; our audit layer uses it.)  Served
        from the orphan-candidate set the FrameTable maintains on every
        tag write, so the query is O(orphans), not O(frames).
        """
        table = self.table
        return sum(1 for frame in table.orphan_candidates
                   if table.counts[frame] > 0
                   and not table.flags[frame] & (PG_RESERVED | PG_PAGECACHE)
                   and table.mappings[frame] is None)

    def check_free_list(self) -> None:
        """Invariant: every frame on the free list lies inside the frame
        table, has refcount zero, and appears once.

        Cost model: a duplicate shows up as a length mismatch against
        the parallel free *set* in O(1); the bounds and refcounts of all
        free frames are one :meth:`FrameTable.all_free` pass (one
        bound and one gather of ``counts``, C-level, a few µs for a
        thousand free frames).  Only when that pass fails does the Python walk
        run, in free-list order, to name the culprit.
        """
        if len(self._free) != len(self._free_set):
            seen: set[int] = set()
            for frame in self._free:
                if frame in seen:
                    raise PageAccountingError(
                        f"frame {frame} on the free list twice")
                seen.add(frame)
            raise PageAccountingError(
                "free list and free set disagree "
                f"({len(self._free)} vs {len(self._free_set)})")
        if self.table.all_free(self._free):
            return
        counts = self.table.counts
        for frame in self._free:
            if not 0 <= frame < self.num_frames:
                raise PageAccountingError(
                    f"frame {frame} on the free list is outside the "
                    f"frame table [0, {self.num_frames})")
            if counts[frame] != 0:
                raise PageAccountingError(
                    f"frame {frame} free with refcount {counts[frame]}")
