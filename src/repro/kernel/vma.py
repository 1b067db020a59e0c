"""VM areas — ``vm_area_struct`` and the per-task VMA list.

``do_mlock`` operates at VMA granularity: "do_mlock sets the VM_LOCKED
flag of all VMAs corresponding to the given virtual address range.  The
original VMAs are split up if necessary" (Sec. 3.2).  The split/merge
logic here exists to reproduce exactly that behaviour (and its cost,
charged per split).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.errors import InvalidArgument, SegmentationFault
from repro.kernel.flags import VM_LOCKED, VMA_FLAG_NAMES, describe_flags


@dataclass
class VMArea:
    """One contiguous virtual memory area, ``[start_vpn, end_vpn)``."""

    start_vpn: int
    end_vpn: int
    flags: int
    name: str = ""

    @property
    def npages(self) -> int:
        return self.end_vpn - self.start_vpn

    def contains(self, vpn: int) -> bool:
        """True iff ``vpn`` lies inside this area."""
        return self.start_vpn <= vpn < self.end_vpn

    @property
    def locked(self) -> bool:
        """VM_LOCKED is set — swap_out skips this area."""
        return bool(self.flags & VM_LOCKED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VMArea([{self.start_vpn}, {self.end_vpn}), "
                f"{describe_flags(self.flags, VMA_FLAG_NAMES)}, "
                f"{self.name!r})")


class VMAList:
    """Sorted, non-overlapping list of :class:`VMArea`.

    Supports the operations the paper's mechanisms need: lookup
    (``find_vma``), insertion, removal, range splitting (the ``do_mlock``
    path), flag updates over a range, and adjacent-merge of equal-flag
    neighbours.
    """

    def __init__(self) -> None:
        self._areas: list[VMArea] = []

    # -- basic queries -------------------------------------------------------

    def __iter__(self) -> Iterator[VMArea]:
        return iter(self._areas)

    def __len__(self) -> int:
        return len(self._areas)

    def find(self, vpn: int) -> VMArea | None:
        """``find_vma``: the area containing ``vpn``, or None."""
        for area in self._areas:
            if area.contains(vpn):
                return area
            if area.start_vpn > vpn:
                break
        return None

    def find_or_fault(self, vpn: int) -> VMArea:
        """Like :meth:`find` but raises SegmentationFault on a miss."""
        area = self.find(vpn)
        if area is None:
            raise SegmentationFault(f"no VMA maps vpn {vpn}")
        return area

    def areas_in(self, start_vpn: int, end_vpn: int) -> list[VMArea]:
        """All areas overlapping ``[start_vpn, end_vpn)``."""
        return [a for a in self._areas
                if a.start_vpn < end_vpn and a.end_vpn > start_vpn]

    def covers(self, start_vpn: int, end_vpn: int) -> bool:
        """True iff every vpn in ``[start_vpn, end_vpn)`` is inside some
        area (no holes)."""
        need = start_vpn
        for area in self._areas:
            if area.end_vpn <= need:
                continue
            if area.start_vpn > need:
                return False
            need = area.end_vpn
            if need >= end_vpn:
                return True
        return need >= end_vpn

    # -- mutation --------------------------------------------------------------

    def insert(self, area: VMArea) -> None:
        """Insert a new area; overlap with an existing one is an error."""
        if area.start_vpn >= area.end_vpn:
            raise InvalidArgument(
                f"empty VMA [{area.start_vpn}, {area.end_vpn})")
        if self.areas_in(area.start_vpn, area.end_vpn):
            raise InvalidArgument(
                f"VMA [{area.start_vpn}, {area.end_vpn}) overlaps an "
                f"existing area")
        self._areas.append(area)
        self._areas.sort(key=lambda a: a.start_vpn)

    def remove_range(self, start_vpn: int, end_vpn: int) -> list[VMArea]:
        """Unmap ``[start_vpn, end_vpn)``: split boundary areas and drop
        everything inside.  Returns the removed (sub)areas."""
        splits = self.split_range(start_vpn, end_vpn)
        removed = [a for a in self._areas
                   if start_vpn <= a.start_vpn and a.end_vpn <= end_vpn]
        self._areas = [a for a in self._areas if a not in removed]
        del splits  # splitting already happened; count returned by caller
        return removed

    def split_at(self, vpn: int) -> bool:
        """Split the area containing ``vpn`` at ``vpn``; True if a split
        happened (no-op if ``vpn`` is already a boundary or unmapped)."""
        for i, area in enumerate(self._areas):
            if area.contains(vpn) and area.start_vpn != vpn:
                left = replace(area, end_vpn=vpn)
                right = replace(area, start_vpn=vpn)
                self._areas[i:i + 1] = [left, right]
                return True
        return False

    def split_range(self, start_vpn: int, end_vpn: int) -> int:
        """Ensure ``start_vpn`` and ``end_vpn`` are area boundaries;
        returns the number of splits performed (for cost charging)."""
        splits = 0
        if self.split_at(start_vpn):
            splits += 1
        if self.split_at(end_vpn):
            splits += 1
        return splits

    def set_flags_range(self, start_vpn: int, end_vpn: int,
                        set_bits: int = 0, clear_bits: int = 0) -> int:
        """Set/clear flag bits on every area fully inside
        ``[start_vpn, end_vpn)`` (callers must have split first);
        returns the number of areas touched."""
        touched = 0
        for area in self._areas:
            if start_vpn <= area.start_vpn and area.end_vpn <= end_vpn:
                area.flags = (area.flags | set_bits) & ~clear_bits
                touched += 1
        return touched

    def merge_adjacent(self) -> int:
        """Merge neighbouring areas with identical flags and names;
        returns the number of merges (kernel ``vma_merge``)."""
        merged = 0
        out: list[VMArea] = []
        for area in self._areas:
            if (out and out[-1].end_vpn == area.start_vpn
                    and out[-1].flags == area.flags
                    and out[-1].name == area.name):
                out[-1] = replace(out[-1], end_vpn=area.end_vpn)
                merged += 1
            else:
                out.append(replace(area))
        self._areas = out
        return merged

