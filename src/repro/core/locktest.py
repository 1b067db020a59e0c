"""The Section 3.1 experiment, step by step.

"Following is the experiment in detail:

1. The *locktest* program allocates some memory and fills it with data.
   After that one can be sure that each virtual page is mapped to a
   distinct physical page.
2. We simulate the registration by incrementing the reference counters
   and storing the physical addresses.
3. Now we start another *allocator* process that allocates as much
   memory as possible forcing a large amount of pages to be swapped out.
4. *locktest* writes again to each page of the memory block.
5. The kernel agent writes a certain value to the first page of the
   block using the physical address obtained during the registration.
   In this way we simulate a DMA operation of the NIC.
6. The physical addresses of all pages are derived from the page tables
   again and compared to those acquired during the registration.
7. The memory block is deregistered by decrementing the reference
   counters.
8. The contents of the first page is printed."

This module runs those eight steps against *any* locking backend and
reports what the paper reports: whether the physical addresses changed
and whether the DMA write is visible — plus the extra observables our
simulator can expose (orphaned frames, swap traffic, trace evidence).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.audit import audit_tpt_consistency
from repro.hw.physmem import PAGE_SIZE
from repro.sim.costs import CostModel
from repro.via.locking.base import LockingBackend
from repro.via.machine import Machine

#: The "certain value" the kernel agent DMA-writes in step 5.
DMA_STAMP = b"DMA-STAMP-0xC0FFEE"


@dataclass
class LocktestResult:
    """Outcome of one locktest run."""

    backend: str
    npages: int
    #: step 6: how many pages' physical addresses changed
    pages_relocated: int
    #: step 8: is the step-5 DMA stamp visible through the process's
    #: *own* mapping?
    dma_write_visible: bool
    #: data-integrity check: did the process's own writes (step 4) survive?
    process_data_intact: bool
    #: frames orphaned by the steal (refcount held the frame alive)
    orphan_frames_during: int
    #: orphans left after deregistration (should always be 0 — "system
    #: stability is not affected")
    orphan_frames_after: int
    #: swap_out events that hit registered pages
    registered_pages_swapped: int
    #: stale TPT page entries observed at step 6 (before deregistration)
    stale_tpt_entries: int
    #: simulated time of registration (step 2), ns
    register_ns: int
    #: simulated time of deregistration (step 7), ns
    deregister_ns: int
    #: the backend registers on-demand-paging regions (no pins at
    #: registration; translations repaired at DMA time)
    odp: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def registration_survived(self) -> bool:
        """The paper's pass criterion: no page moved and the DMA write
        landed where the process can see it.

        ODP promises repair, not immobility: its pages *may* relocate
        while evicted, but every DMA translates (and fault-services)
        at use, so the criterion is that the DMA write is visible and
        no translation was stale when the NIC used it."""
        if self.odp:
            return self.dma_write_visible and self.stale_tpt_entries == 0
        return self.pages_relocated == 0 and self.dma_write_visible


class LocktestExperiment:
    """One configured experiment: machine size, buffer size, pressure."""

    def __init__(self,
                 backend: LockingBackend | str,
                 buffer_pages: int = 64,
                 num_frames: int = 512,
                 allocator_factor: float = 2.0,
                 costs: CostModel | None = None) -> None:
        self.machine = Machine(name="locktest-box", num_frames=num_frames,
                               swap_slots=max(4096, num_frames * 4),
                               costs=costs, backend=backend)
        self.buffer_pages = buffer_pages
        #: how much memory (relative to installed RAM) the allocator
        #: touches — >1 guarantees reclaim
        self.allocator_factor = allocator_factor

    def run(self) -> LocktestResult:
        """Execute steps 1–8 and return the observables."""
        m = self.machine
        kernel = m.kernel
        notes: list[str] = []

        # -- step 1: allocate and fill -------------------------------------
        locktest = m.spawn("locktest")
        ua = m.user_agent(locktest)
        va = locktest.mmap(self.buffer_pages, name="locktest-buffer")
        for i in range(self.buffer_pages):
            locktest.write(va + i * PAGE_SIZE,
                           f"page-{i:04d}-original".encode())
        frames_initial = locktest.physical_pages(va, self.buffer_pages)
        assert None not in frames_initial
        assert len(set(frames_initial)) == self.buffer_pages

        # -- step 2: register (store the physical addresses) ----------------
        with kernel.clock.measure() as reg_span:
            reg = ua.register_mem(va, self.buffer_pages * PAGE_SIZE)
        if reg.region.odp:
            # ODP stores *no* addresses at registration — they are
            # acquired on first DMA touch.  Simulate that first touch so
            # the step-6 comparison has a baseline to compare against.
            m.agent.service_translation_fault(
                reg.handle, tuple(range(self.buffer_pages)))
            notes.append("odp: frames acquired by first-touch "
                         "fault service, not at registration")
        frames_registered = list(reg.region.frames)
        assert frames_registered == frames_initial

        # -- step 3: the allocator forces swapping ---------------------------
        allocator = m.spawn("allocator")
        hog_pages = int(kernel.pagemap.num_frames * self.allocator_factor)
        hog_va = allocator.mmap(hog_pages, name="hog")
        swap_before = kernel.swap.writes
        for i in range(hog_pages):
            # Demand paging: each write consumes a frame, forcing
            # reclaim once free memory is gone.
            allocator.write(hog_va + i * PAGE_SIZE, b"HOG")
        notes.append(f"allocator touched {hog_pages} pages, "
                     f"{kernel.swap.writes - swap_before} pages swapped")

        registered_swapped = sum(
            1 for e in kernel.trace.of_kind("swap_out")
            if e["pid"] == locktest.pid
            and va // PAGE_SIZE <= e["vpn"] < va // PAGE_SIZE
            + self.buffer_pages)

        # -- step 4: locktest writes again to each page ----------------------
        for i in range(self.buffer_pages):
            locktest.write(va + i * PAGE_SIZE + 64,
                           f"page-{i:04d}-rewrite".encode())

        # -- step 5: simulated NIC DMA via the registered address ------------
        if reg.region.odp:
            # The ODP NIC never DMAs through a stored address: it
            # translates at DMA time, fault-servicing any entries the
            # reclaim pressure invalidated.
            invalid = reg.region.invalid_pages(
                va, self.buffer_pages * PAGE_SIZE)
            if invalid:
                m.agent.service_translation_fault(reg.handle, invalid)
            phys_addr = reg.region.frames[0] * PAGE_SIZE + 2048
        else:
            phys_addr = frames_registered[0] * PAGE_SIZE + 2048
        m.nic.dma.write(phys_addr, DMA_STAMP)

        # -- step 6: compare physical addresses -------------------------------
        frames_now = locktest.physical_pages(va, self.buffer_pages)
        pages_relocated = sum(
            1 for before, after in zip(frames_registered, frames_now)
            if before != after)
        stale = audit_tpt_consistency(m.agent)
        orphans_during = kernel.pagemap.orphan_count()

        # Integrity probes *before* deregistration.
        dma_visible = (locktest.read(va + 2048, len(DMA_STAMP))
                       == DMA_STAMP)
        data_intact = all(
            locktest.read(va + i * PAGE_SIZE, 18)
            == f"page-{i:04d}-original".encode()
            and locktest.read(va + i * PAGE_SIZE + 64, 17)
            == f"page-{i:04d}-rewrite".encode()
            for i in range(self.buffer_pages))

        # -- step 7: deregister ------------------------------------------------
        with kernel.clock.measure() as dereg_span:
            ua.deregister_mem(reg)
        orphans_after = kernel.pagemap.orphan_count()

        # -- step 8: report -----------------------------------------------------
        return LocktestResult(
            backend=m.backend.name,
            npages=self.buffer_pages,
            pages_relocated=pages_relocated,
            dma_write_visible=dma_visible,
            process_data_intact=data_intact,
            orphan_frames_during=orphans_during,
            orphan_frames_after=orphans_after,
            registered_pages_swapped=registered_swapped,
            stale_tpt_entries=len(stale),
            register_ns=reg_span.elapsed_ns,
            deregister_ns=dereg_span.elapsed_ns,
            odp=reg.region.odp,
            notes=notes,
        )


def run_matrix(backends: list[str], buffer_pages: int = 64,
               num_frames: int = 512) -> list[LocktestResult]:
    """Run the experiment for each backend on identical machines —
    the E1 survival matrix."""
    return [
        LocktestExperiment(name, buffer_pages=buffer_pages,
                           num_frames=num_frames).run()
        for name in backends
    ]
