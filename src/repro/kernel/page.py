"""Per-frame page descriptor — the simulator's ``mem_map_t``.

Section 2.1 of the paper: "The Linux kernel keeps a so called mem_map_t
data structure for each physical page in the system.  This structure
contains ... a reference counter and a flag field.  If the reference
counter is zero the page is free, otherwise the counter denotes the
number of users of the page."

We add one field with no 2.2-era equivalent: ``pin_count``, the per-page
pin counter maintained by the kiobuf layer (our reconstruction of the
paper's proposal, see DESIGN.md §5).  A page with ``pin_count > 0`` is
skipped by ``swap_out`` exactly as a ``PG_locked`` page is.

Storage layout: the per-frame state lives in a :class:`FrameTable` — a
structure-of-arrays column store (``array('q')`` per numeric field) —
and :class:`PageDescriptor` is a lightweight *view* binding one frame of
one table.  This keeps cluster-scale page maps cheap (six machine
words per frame instead of a Python object per frame) and lets the
table maintain incremental index sets (:attr:`FrameTable.pinned`,
:attr:`FrameTable.orphan_candidates`) so the post-test audits and the
orphan reaper stop scanning every frame.  Views exist only bound to a
table (:meth:`PageDescriptor.bound`); a page map caches one per frame.

The whole-table audit passes (:meth:`FrameTable.all_free`,
:meth:`FrameTable.pins_exceed`) read the columns through numpy views.
Those views exist only inside the method that takes them, which
returns a plain Python value: an ``array`` exporting its buffer cannot
be resized, so a view that outlived its call (held, say, by the
traceback of a chained :class:`~repro.errors.InvariantViolation`)
would break the next ``put_page``.  This module is the only one that
may take such views.  numpy is imported by the first of those passes,
not with this module.
"""

from __future__ import annotations

import sys
from array import array

from repro.errors import PageAccountingError
from repro.kernel.flags import (
    PAGE_FLAG_NAMES, PG_LOCKED, PG_PAGECACHE, PG_REFERENCED, PG_RESERVED,
    describe_flags,
)

#: Debugging label under which paging strands Sec. 3.1 orphan frames.
ORPHAN_TAG = "orphan"

#: The most significant byte of each 8-byte ``array('q')`` item, as a
#: slice of the column's raw bytes.
_SIGN_BYTES = slice(7, None, 8) if sys.byteorder == "little" \
    else slice(0, None, 8)


class FrameTable:
    """Structure-of-arrays backing store for all frames of one machine.

    Numeric columns are ``array('q')`` (one signed machine word per
    frame, no per-frame Python objects); ``mappings`` and ``tags`` stay
    Python lists because they hold tuples/strings.  Two index sets are
    maintained *incrementally* by the mutators:

    ``pinned``
        frames with ``pin_count > 0`` — lets pin-leak audits iterate
        only pinned frames instead of the whole table;
    ``orphan_candidates``
        frames whose ``tag == "orphan"`` — lets ``PageMap.orphans()``
        and the reaper's orphan sweep skip the full-table scan.

    All writes must go through the mutator methods here or through a
    :class:`PageDescriptor` view (whose setters delegate), so the index
    sets can never go stale.
    """

    __slots__ = ("num_frames", "counts", "flags", "pin_counts",
                 "cow_shares", "mappings", "tags", "pinned",
                 "orphan_candidates")

    def __init__(self, num_frames: int) -> None:
        zeros = bytes(8 * num_frames)
        self.num_frames = num_frames
        self.counts = array("q", zeros)
        self.flags = array("q", zeros)
        self.pin_counts = array("q", zeros)
        self.cow_shares = array("q", zeros)
        self.mappings: list[tuple[int, int] | None] = [None] * num_frames
        self.tags: list[str] = [""] * num_frames
        self.pinned: set[int] = set()
        self.orphan_candidates: set[int] = set()

    # -- mutators that keep the index sets honest -------------------------

    def set_pin_count(self, frame: int, value: int) -> None:
        """Set ``frame``'s pin count, keeping the pinned set in step."""
        self.pin_counts[frame] = value
        if value > 0:
            self.pinned.add(frame)
        else:
            self.pinned.discard(frame)

    def incr_pin(self, frame: int) -> None:
        """Take one pin on ``frame`` (adds it to the pinned set)."""
        self.pin_counts[frame] += 1
        self.pinned.add(frame)

    def decr_pin(self, frame: int) -> None:
        """Drop one pin on ``frame``; underflow is an accounting
        violation.  Removes it from the pinned set at zero."""
        if self.pin_counts[frame] <= 0:
            raise PageAccountingError(
                f"pin-count underflow on frame {frame}")
        self.pin_counts[frame] -= 1
        if self.pin_counts[frame] == 0:
            self.pinned.discard(frame)

    def set_tag(self, frame: int, tag: str) -> None:
        """Set ``frame``'s debugging label, keeping the orphan-candidate
        set in step."""
        self.tags[frame] = tag
        if tag == ORPHAN_TAG:
            self.orphan_candidates.add(frame)
        else:
            self.orphan_candidates.discard(frame)

    def reset_frame(self, frame: int, tag: str = "") -> None:
        """Alloc-time reset to a fresh single-reference state."""
        self.counts[frame] = 1
        self.flags[frame] = 0
        self.set_pin_count(frame, 0)
        self.mappings[frame] = None
        self.cow_shares[frame] = 0
        self.set_tag(frame, tag)

    def scrub_identity(self, frame: int) -> None:
        """Free-time scrub of everything but the counters."""
        self.flags[frame] = 0
        self.mappings[frame] = None
        self.cow_shares[frame] = 0
        self.set_tag(frame, "")

    # -- audit helpers -----------------------------------------------------

    def any_negative_counter(self) -> bool:
        """True iff some frame's reference or pin count is below zero.

        Reads the sign byte of every 64-bit counter straight out of the
        columns' buffers: a negative value is exactly one whose sign
        byte has its top bit set, i.e. is not ASCII.
        """
        return not (self.counts.tobytes()[_SIGN_BYTES].isascii()
                    and self.pin_counts.tobytes()[_SIGN_BYTES].isascii())

    def all_free(self, frames: array) -> bool:
        """True iff every entry of ``frames`` (an ``array('q')``) names
        a frame of this table whose reference count is zero.

        One bounds test and one gather of ``counts`` at the listed
        frames, over views of both buffers.  Read as unsigned, a
        negative entry is larger than any frame number, so a single
        ``max`` bounds the list from both sides.
        """
        import numpy as np
        listed = np.frombuffer(frames, dtype=np.int64)
        if not listed.size:
            return True
        if listed.view(np.uint64).max() >= self.num_frames:
            return False
        counts = np.frombuffer(self.counts, dtype=np.int64)
        return not counts[listed].any()

    def pins_exceed(self, frames: array) -> bool:
        """True iff some frame holds more pins than the number of times
        ``frames`` (an ``array('q')``) lists it.

        Entries outside the table (``INVALID_FRAME``, a corrupted
        translation) explain no pin and are dropped; the rest are
        counted with one ``bincount`` and compared with the
        ``pin_counts`` column in one pass.
        """
        import numpy as np
        listed = np.frombuffer(frames, dtype=np.int64)
        # Unsigned, negative entries compare above every frame number.
        listed = listed[listed.view(np.uint64) < self.num_frames]
        expected = np.bincount(listed, minlength=self.num_frames)
        pins = np.frombuffer(self.pin_counts, dtype=np.int64)
        return bool((pins > expected).any())


class PageDescriptor:
    """State of one physical page frame — a view over a FrameTable.

    Made by :meth:`bound` over a :class:`~repro.kernel.pagemap.PageMap`'s
    shared table, which caches one view per frame, so two views of a
    frame are the same object.
    """

    __slots__ = ("frame", "_table")

    @classmethod
    def bound(cls, table: FrameTable, frame: int) -> "PageDescriptor":
        """A view over ``table``'s row ``frame`` (no private storage)."""
        pd = object.__new__(cls)
        pd.frame = frame
        pd._table = table
        return pd

    # -- columns -----------------------------------------------------------

    @property
    def count(self) -> int:
        """Reference counter; 0 ⇔ free."""
        return self._table.counts[self.frame]

    @count.setter
    def count(self, value: int) -> None:
        self._table.counts[self.frame] = value

    @property
    def flags(self) -> int:
        """PG_* flag word."""
        return self._table.flags[self.frame]

    @flags.setter
    def flags(self, value: int) -> None:
        self._table.flags[self.frame] = value

    @property
    def pin_count(self) -> int:
        """Kiobuf pins (reconstruction; see DESIGN.md)."""
        return self._table.pin_counts[self.frame]

    @pin_count.setter
    def pin_count(self, value: int) -> None:
        self._table.set_pin_count(self.frame, value)

    @property
    def mapping(self) -> tuple[int, int] | None:
        """Reverse-map hint: ``(pid, vpn)`` of the (single) process
        mapping, or None.  Anonymous pages in this simulator are never
        shared between page tables except via COW, which tracks sharing
        through ``count``."""
        return self._table.mappings[self.frame]

    @mapping.setter
    def mapping(self, value: tuple[int, int] | None) -> None:
        self._table.mappings[self.frame] = value

    @property
    def cow_shares(self) -> int:
        """COW sharers: number of PTEs mapping this frame read-only via
        fork-style sharing.  Kept distinct from ``count`` for audit
        clarity."""
        return self._table.cow_shares[self.frame]

    @cow_shares.setter
    def cow_shares(self, value: int) -> None:
        self._table.cow_shares[self.frame] = value

    @property
    def tag(self) -> str:
        """Debugging label."""
        return self._table.tags[self.frame]

    @tag.setter
    def tag(self, value: str) -> None:
        self._table.set_tag(self.frame, value)

    # -- flag helpers --------------------------------------------------------

    def set_flag(self, bit: int) -> None:
        """Set a PG_* flag bit."""
        self._table.flags[self.frame] |= bit

    def clear_flag(self, bit: int) -> None:
        """Clear a PG_* flag bit."""
        self._table.flags[self.frame] &= ~bit

    def test_flag(self, bit: int) -> bool:
        """True iff the PG_* flag bit is set."""
        return bool(self._table.flags[self.frame] & bit)

    @property
    def locked(self) -> bool:
        """PG_locked is set."""
        return self.test_flag(PG_LOCKED)

    @property
    def reserved(self) -> bool:
        """PG_reserved is set."""
        return self.test_flag(PG_RESERVED)

    @property
    def referenced(self) -> bool:
        """PG_referenced is set."""
        return self.test_flag(PG_REFERENCED)

    @property
    def in_page_cache(self) -> bool:
        """Page belongs to the simulated page/buffer cache."""
        return self.test_flag(PG_PAGECACHE)

    @property
    def free(self) -> bool:
        """Reference counter is zero."""
        return self.count == 0

    @property
    def pinned(self) -> bool:
        """At least one kiobuf pin is held."""
        return self.pin_count > 0

    # -- counter helpers -------------------------------------------------------

    def get(self) -> None:
        """``get_page`` — take a reference."""
        self._table.counts[self.frame] += 1

    def put(self) -> int:
        """``put_page``/``__free_page`` — drop a reference; returns the
        new count.  Underflow is an accounting violation."""
        if self._table.counts[self.frame] <= 0:
            raise PageAccountingError(
                f"refcount underflow on frame {self.frame}")
        self._table.counts[self.frame] -= 1
        return self._table.counts[self.frame]

    def pin(self) -> None:
        """Take one kiobuf pin."""
        self._table.incr_pin(self.frame)

    def unpin(self) -> None:
        """Drop one kiobuf pin; underflow is an accounting violation."""
        self._table.decr_pin(self.frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PageDescriptor(frame={self.frame}, count={self.count}, "
                f"pins={self.pin_count}, "
                f"flags={describe_flags(self.flags, PAGE_FLAG_NAMES)})")
