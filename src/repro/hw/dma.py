"""DMA engine: bus-master access to physical memory.

The DMA engine is how the NIC (and step 5 of the paper's locktest
experiment, where the Kernel Agent "writes a certain value to the first
page of the block using the physical address obtained during the
registration ... simulating a DMA operation of the NIC") touches memory.

Crucially it addresses memory **only by physical address** and performs
**no validity checks beyond "is this installed RAM"** — exactly like real
bus-master hardware.  If the kernel has moved a page, the DMA engine
happily reads/writes the orphaned frame.  That silent success is the bug
the paper demonstrates; the simulator must not be "helpful" here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.events import ATOMIC_RMW, DMA_BEGIN, DMA_END
from repro.errors import DMAFault
from repro.hw.physmem import PAGE_SIZE, PhysicalMemory
from repro.obs.metrics import SIZE_BUCKETS
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.faults import FaultPlan


class DMAEngine:
    """Bus-master engine bound to one :class:`PhysicalMemory`.

    Transfers may span frame boundaries; the engine splits them into
    per-frame bursts internally (physical memory is contiguous from the
    bus's point of view, but :class:`PhysicalMemory` enforces per-frame
    spans).
    """

    def __init__(self, phys: PhysicalMemory, clock: SimClock,
                 costs: CostModel, trace: Trace,
                 name: str = "dma", events=None) -> None:
        self._phys = phys
        self._clock = clock
        self._costs = costs
        self._trace = trace
        #: analysis EventHub for DMA_BEGIN/DMA_END windows (optional)
        self._events = events
        self.name = name
        self.fault_plan: "FaultPlan | None" = None
        self.bytes_read = 0
        self.bytes_written = 0
        self.bursts_issued = 0        #: coalesced gather/scatter bursts
        self.faults_injected = 0

    # -- scatter helpers ----------------------------------------------------

    @staticmethod
    def _bursts(phys_addr: int, length: int):
        """Yield ``(frame, offset, n)`` bursts covering the flat span."""
        remaining = length
        addr = phys_addr
        while remaining > 0:
            frame, offset = PhysicalMemory.split_phys(addr)
            n = min(remaining, PAGE_SIZE - offset)
            yield frame, offset, n
            addr += n
            remaining -= n

    @staticmethod
    def coalesce_runs(segments: list[tuple[int, int]]
                      ) -> list[tuple[int, int]]:
        """Merge physically-adjacent ``(addr, length)`` segments into
        maximal runs — the bus sees one burst per contiguous span, not
        one per 4 KiB page."""
        runs: list[list[int]] = []
        for addr, length in segments:
            if length <= 0:
                continue
            if runs and runs[-1][0] + runs[-1][1] == addr:
                runs[-1][1] += length
            else:
                runs.append([addr, length])
        return [(addr, length) for addr, length in runs]

    def _charge_bursts(self, nruns: int, total: int) -> None:
        """Charge one engine setup, per-extra-burst re-arm, and the wire
        bytes for a coalesced transfer."""
        costs = self._costs
        self._clock.charge(costs.dma_setup_ns, "dma")
        if nruns > 1:
            self._clock.charge((nruns - 1) * costs.dma_burst_ns, "dma")
        self._clock.charge(costs.dma_ns(total), "dma")
        self.bursts_issued += nruns
        obs = self._trace.obs
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("hw.dma.bursts").inc(nruns)
            metrics.counter("hw.dma.transfers").inc()
            metrics.histogram("hw.dma.burst_bytes",
                              buckets=SIZE_BUCKETS).observe(
                                  total // nruns if nruns else total)
            metrics.histogram("hw.dma.transfer_bytes",
                              buckets=SIZE_BUCKETS).observe(total)

    def _window_open(self, op: str, runs: list[tuple[int, int]]
                     ) -> tuple[tuple[int, int, int], ...] | None:
        """Open a sanitizer DMA window over the frames the transfer will
        touch; returns the byte-precise ``(frame, offset, n)`` span tuple
        to pass to :meth:`_window_close`, or None when nobody is
        listening (the common case — one attribute load and one
        branch)."""
        events = self._events
        if events is None or not events.active:
            return None
        spans = tuple((frame, offset, n) for addr, length in runs
                      for frame, offset, n in self._bursts(addr, length))
        frames = tuple(frame for frame, _offset, _n in spans)
        events.emit(DMA_BEGIN, frames=frames, op=op, engine=self.name,
                    spans=spans)
        return spans

    def _window_close(self, op: str,
                      spans: tuple[tuple[int, int, int], ...] | None
                      ) -> None:
        if spans is not None:
            frames = tuple(frame for frame, _offset, _n in spans)
            # Guarded by proxy: spans is only non-None when the hub was
            # active at window open, and DMA_END must pair with its
            # DMA_BEGIN even if the hub deactivated mid-window.
            self._events.emit(  # repro-lint: allow(hub-emit-unguarded)
                DMA_END, frames=frames, op=op,
                engine=self.name, spans=spans)

    def _maybe_fault(self, op: str, phys_addr: int, length: int) -> None:
        """Raise an injected :class:`DMAFault` when the plan says so —
        the simulator's stand-in for a PCI abort or parity error."""
        if self.fault_plan is not None and self.fault_plan.should_fail_dma():
            self.faults_injected += 1
            self._trace.emit("dma_fault_injected", engine=self.name,
                             op=op, phys_addr=phys_addr, length=length)
            raise DMAFault(
                f"{self.name}: injected fault during {op} of {length} "
                f"bytes at {phys_addr:#x}")

    # -- transfers -----------------------------------------------------------

    def read(self, phys_addr: int, length: int) -> bytes:
        """DMA-read ``length`` bytes starting at flat ``phys_addr``."""
        self._maybe_fault("read", phys_addr, length)
        window = self._window_open("read", [(phys_addr, length)])
        try:
            self._clock.charge(self._costs.dma_setup_ns, "dma")
            self._clock.charge(self._costs.dma_ns(length), "dma")
            out = bytearray()
            for frame, offset, n in self._bursts(phys_addr, length):
                out += self._phys.read(frame, offset, n)
        finally:
            self._window_close("read", window)
        self.bytes_read += length
        self._trace.emit("dma_read", engine=self.name,
                         phys_addr=phys_addr, length=length)
        return bytes(out)

    def write(self, phys_addr: int, data: bytes) -> None:
        """DMA-write ``data`` starting at flat ``phys_addr``."""
        self._maybe_fault("write", phys_addr, len(data))
        window = self._window_open("write", [(phys_addr, len(data))])
        try:
            self._clock.charge(self._costs.dma_setup_ns, "dma")
            self._clock.charge(self._costs.dma_ns(len(data)), "dma")
            pos = 0
            for frame, offset, n in self._bursts(phys_addr, len(data)):
                self._phys.write(frame, offset, data[pos:pos + n])
                pos += n
        finally:
            self._window_close("write", window)
        self.bytes_written += len(data)
        self._trace.emit("dma_write", engine=self.name,
                         phys_addr=phys_addr, length=len(data))

    def read_gather(self, segments: list[tuple[int, int]]) -> bytes:
        """Gather-read: concatenate reads of ``(phys_addr, length)``
        segments — how the NIC walks a multi-page TPT translation.

        Adjacent segments are merged into single bursts and the payload
        is assembled through iovec reads with no per-segment
        intermediate ``bytes``.
        """
        runs = self.coalesce_runs(segments)
        total = sum(length for _, length in runs)
        first = runs[0][0] if runs else 0
        self._maybe_fault("read_gather", first, total)
        window = self._window_open("read_gather", runs)
        try:
            self._charge_bursts(len(runs), total)
            out = self._phys.read_iovec(runs) if runs else b""
        finally:
            self._window_close("read_gather", window)
        self.bytes_read += total
        self._trace.emit("dma_read", engine=self.name, phys_addr=first,
                         length=total, bursts=len(runs))
        return out

    def write_scatter(self, segments: list[tuple[int, int]],
                      data: bytes) -> None:
        """Scatter-write ``data`` across ``(phys_addr, length)`` segments.

        The segment lengths must sum to ``len(data)``.  Adjacent
        segments are merged into single bursts and ``data`` is consumed
        through a memoryview, copy-free.
        """
        total = sum(length for _, length in segments)
        if total != len(data):
            raise ValueError(
                f"scatter list covers {total} bytes, data is {len(data)}")
        runs = self.coalesce_runs(segments)
        first = runs[0][0] if runs else 0
        self._maybe_fault("write_scatter", first, total)
        window = self._window_open("write_scatter", runs)
        try:
            self._charge_bursts(len(runs), total)
            if runs:
                self._phys.write_iovec(runs, data)
        finally:
            self._window_close("write_scatter", window)
        self.bytes_written += total
        self._trace.emit("dma_write", engine=self.name, phys_addr=first,
                         length=total, bursts=len(runs))

    def atomic_rmw(self, phys_addr: int, fn) -> int:
        """Atomically read-modify-write the 8-byte word at ``phys_addr``.

        ``fn`` maps the old 64-bit value to the new one (the result is
        masked to 64 bits).  Returns the *original* value.  The word must
        be naturally aligned — an 8-byte-aligned word never straddles a
        frame, so the RMW is a single-frame operation.  Like every other
        engine entry point this trusts the physical address; callers
        (the NIC) validate translation, alignment, and pinning first.
        """
        length = 8
        frame, offset = PhysicalMemory.split_phys(phys_addr)
        if offset % length:
            raise DMAFault(
                f"{self.name}: atomic RMW at {phys_addr:#x} is not "
                f"{length}-byte aligned")
        self._maybe_fault("atomic", phys_addr, length)
        events = self._events
        window = self._window_open("atomic", [(phys_addr, length)])
        if events is not None and events.active:
            events.emit(ATOMIC_RMW, frame=frame, offset=offset,
                        engine=self.name)
        try:
            self._clock.charge(self._costs.dma_setup_ns, "dma")
            self._clock.charge(self._costs.atomic_rmw_ns, "dma")
            old = int.from_bytes(self._phys.read(frame, offset, length),
                                 "little")
            new = fn(old) & 0xFFFF_FFFF_FFFF_FFFF
            self._phys.write(frame, offset, new.to_bytes(length, "little"))
        finally:
            self._window_close("atomic", window)
        self.bytes_read += length
        self.bytes_written += length
        self._trace.emit("dma_atomic", engine=self.name,
                         phys_addr=phys_addr, old=old, new=new)
        return old
