"""Swap device: page-granular backing store.

Models the swap partition the kernel writes victim pages to.  Slots are
allocated/freed by the kernel's reclaim path; each I/O charges the (large)
disk cost to the simulated clock — the "expensive page-in operations
during communication" that motivate pinning in the first place.
"""

from __future__ import annotations

from repro.errors import BadSwapSlot, SwapFull
from repro.hw.physmem import PAGE_SIZE
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel


class SwapDevice:
    """``num_slots`` page-sized swap slots.

    A slot is *in use* between :meth:`alloc_slot` and :meth:`free_slot`.
    Reading or writing a slot that is not in use raises
    :class:`~repro.errors.BadSwapSlot` — the simulator equivalent of swap
    corruption, which must never happen in a correct run.
    """

    def __init__(self, num_slots: int, clock: SimClock,
                 costs: CostModel) -> None:
        if num_slots <= 0:
            raise ValueError("need at least one swap slot")
        self.num_slots = num_slots
        self._clock = clock
        self._costs = costs
        self._data: dict[int, bytes] = {}
        self._free: list[int] = list(range(num_slots - 1, -1, -1))
        self._in_use: set[int] = set()
        self.writes = 0   #: pages ever written (swap-out count)
        self.reads = 0    #: pages ever read (swap-in count)

    # -- slot lifecycle -------------------------------------------------------

    def alloc_slot(self) -> int:
        """Reserve a free slot and return its index."""
        if not self._free:
            raise SwapFull(f"all {self.num_slots} swap slots in use")
        slot = self._free.pop()
        self._in_use.add(slot)
        return slot

    def free_slot(self, slot: int) -> None:
        """Release ``slot`` (its contents become undefined)."""
        self._check(slot)
        self._in_use.discard(slot)
        self._data.pop(slot, None)
        self._free.append(slot)

    def _check(self, slot: int) -> None:
        if slot not in self._in_use:
            raise BadSwapSlot(f"slot {slot} is not in use")

    # -- I/O --------------------------------------------------------------------

    def write_page(self, slot: int, data: bytes) -> None:
        """Write one page of data to ``slot`` (charges disk I/O cost)."""
        self._check(slot)
        if len(data) > PAGE_SIZE:
            raise BadSwapSlot(f"{len(data)} bytes exceed a swap slot")
        self._clock.charge(self._costs.disk_io_page_ns, "disk_io")
        self._data[slot] = bytes(data).ljust(PAGE_SIZE, b"\x00")
        self.writes += 1

    def read_page(self, slot: int) -> bytes:
        """Read one page of data from ``slot`` (charges disk I/O cost)."""
        self._check(slot)
        if slot not in self._data:
            raise BadSwapSlot(f"slot {slot} was never written")
        self._clock.charge(self._costs.disk_io_page_ns, "disk_io")
        self.reads += 1
        return self._data[slot]

    # -- accounting ---------------------------------------------------------------

    @property
    def slots_in_use(self) -> int:
        """Number of slots currently allocated."""
        return len(self._in_use)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SwapDevice({self.slots_in_use}/{self.num_slots} slots "
                f"in use, {self.writes}w/{self.reads}r)")
