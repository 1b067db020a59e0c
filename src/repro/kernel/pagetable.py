"""Per-task page tables.

A page-table entry is either **present** (maps a frame, with a writable
bit) or **not present**; a not-present entry may carry a swap-slot index,
in which case the page's contents live on the swap device and the next
touch takes a *major* fault.  This is precisely the state machine the
paper's Section 3.1 walks through: ``swap_out`` "stores the swap address
in the page table and marks the entry not-present".
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterator


@dataclass
class PTE:
    """One page-table entry."""

    present: bool = False
    frame: int = -1            #: valid iff present
    writable: bool = False
    dirty: bool = False
    accessed: bool = False
    cow: bool = False          #: write-protected pending copy-on-write
    swap_slot: int = -1        #: valid iff not present and >= 0

    @property
    def swapped(self) -> bool:
        """Entry refers to a swap slot rather than a frame."""
        return (not self.present) and self.swap_slot >= 0


class PageTable:
    """Sparse map from virtual page number to :class:`PTE`.

    (The real kernel uses a multi-level radix structure; the simulator
    uses a dict because only the *semantics* of entries matter to the
    paper's arguments, not their encoding.)
    """

    def __init__(self) -> None:
        self._entries: dict[int, PTE] = {}
        #: sorted vpn cache — walks are far more frequent than
        #: insert/remove, so sort once and invalidate on mutation
        #: instead of re-sorting on every walk
        self._sorted_vpns: list[int] | None = None
        #: present-entry counter; only set_mapping, set_swapped and
        #: clear write ``PTE.present``, and each keeps this in step
        self._resident = 0
        #: bumped by every write of an entry's ``present``, ``frame``
        #: or ``swap_slot`` and by every entry removed: an unchanged
        #: ``gen`` means every entry reads as it did in those fields (an
        #: entry ``ensure`` creates is empty, so it changes no reading)
        self.gen = 0

    def _sorted(self) -> list[int]:
        if self._sorted_vpns is None:
            self._sorted_vpns = sorted(self._entries)
        return self._sorted_vpns

    def lookup(self, vpn: int) -> PTE | None:
        """The entry for ``vpn``, or None if no entry exists at all."""
        return self._entries.get(vpn)

    def ensure(self, vpn: int) -> PTE:
        """The entry for ``vpn``, creating an empty one if needed."""
        pte = self._entries.get(vpn)
        if pte is None:
            pte = PTE()
            self._entries[vpn] = pte
            self._sorted_vpns = None
        return pte

    def set_mapping(self, vpn: int, frame: int, writable: bool,
                    dirty: bool = False) -> PTE:
        """Install a present mapping ``vpn → frame``."""
        pte = self.ensure(vpn)
        if not pte.present:
            self._resident += 1
        self.gen += 1
        pte.present = True
        pte.frame = frame
        pte.writable = writable
        pte.dirty = dirty
        pte.accessed = True
        pte.swap_slot = -1
        return pte

    def set_swapped(self, vpn: int, slot: int) -> PTE:
        """Mark ``vpn`` not-present with its contents in swap ``slot``."""
        pte = self.ensure(vpn)
        if pte.present:
            self._resident -= 1
        self.gen += 1
        pte.present = False
        pte.frame = -1
        pte.swap_slot = slot
        return pte

    def clear(self, vpn: int) -> None:
        """Remove any entry for ``vpn`` (munmap path)."""
        pte = self._entries.pop(vpn, None)
        if pte is not None:
            self._sorted_vpns = None
            self.gen += 1
            if pte.present:
                self._resident -= 1

    def present_entries(self, start_vpn: int = 0
                        ) -> Iterator[tuple[int, PTE]]:
        """Iterate ``(vpn, pte)`` over present entries in ascending vpn
        from ``start_vpn``, then wrap around to those below it — a clock
        hand's walk, bisected out of the sorted-key cache so a walk that
        stops early costs only what it visits.  Presence is tested as
        the walk reaches each entry, so one cleared or swapped out
        behind a suspended walk is skipped."""
        keys = self._sorted()
        entries = self._entries
        split = bisect_left(keys, start_vpn)
        for i in chain(range(split, len(keys)), range(split)):
            vpn = keys[i]
            pte = entries.get(vpn)
            if pte is not None and pte.present:
                yield vpn, pte

    def __len__(self) -> int:
        return len(self._entries)

    def resident_count(self) -> int:
        """Number of present entries (the task's RSS in pages), O(1)."""
        return self._resident
