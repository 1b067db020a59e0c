"""Per-frame page state — the simulator's ``mem_map_t``.

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
structure-of-arrays column store (``array('q')`` per numeric field),
indexed by frame number.  There is no per-frame Python object: a
cluster-scale page map costs a few machine words per frame, and the
table maintains incremental index sets (:attr:`FrameTable.pinned`,
:attr:`FrameTable.orphan_candidates`) so the post-test audits and the
orphan reaper stop scanning every frame.

Reference counts change only through
:meth:`~repro.kernel.pagemap.PageMap.get_page` and
:meth:`~repro.kernel.pagemap.PageMap.put_page` (the latter holds the
free logic); pins and tags only through the mutators below (they keep
the index sets in step); flags, mappings and ``cow_shares`` are plain
column writes inside :mod:`repro.kernel`.

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
        frames whose ``tag == "orphan"`` — lets ``PageMap.orphan_count()``
        and the reaper's orphan sweep skip the full-table scan.

    Pin and tag writes must go through the mutator methods here, so the
    index sets can never go stale.
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
