"""Cost model: simulated nanoseconds charged per primitive operation.

Default magnitudes are calibrated to the hardware era of the paper
(450 MHz Pentium III, 33 MHz/32-bit PCI, IDE-class disk) and to the
latency numbers quoted across the SFB393/01-12 collection:

* SCI remote write (PIO) software latency ≈ 2.3 µs  → ``pio_word_ns``
  sized so a small store lands in that range.
* Giganet cLAN VIA send/recv latency ≈ 65 µs at the MPI level, ≈ 8 µs
  hardware → descriptor/doorbell/DMA-setup costs in the µs range.
* A syscall (the paper's reason for avoiding kernel-mediated DMA)
  ≈ 1–2 µs.
* A major fault (page-in from disk) is *milliseconds* — the "expensive
  page-in operations" the VIA pinning requirement avoids.

Every figure is a dataclass field so ablation benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Per-operation simulated costs, in nanoseconds."""

    # -- CPU / syscall ------------------------------------------------------
    syscall_ns: int = 1_500          #: user→kernel→user transition
    capability_check_ns: int = 50    #: uid / CAP_IPC_LOCK check
    pagetable_walk_ns: int = 120     #: resolve one PTE in software
    vma_split_ns: int = 600          #: split/merge a VM area (mlock path)
    memcpy_per_byte_ns: float = 3.0   #: CPU copy (≈330 MB/s, PIII-era)

    # -- memory management --------------------------------------------------
    minor_fault_ns: int = 2_000      #: demand-zero / COW fault service
    major_fault_base_ns: int = 50_000    #: fault needing disk, CPU part
    disk_io_page_ns: int = 4_000_000     #: one 4 KiB page to/from swap (4 ms)
    frame_alloc_ns: int = 300        #: get_free_pages fast path
    reclaim_scan_page_ns: int = 150  #: clock-algorithm per-page scan step
    page_lock_ns: int = 60           #: set/clear a page flag or pin count
    kiobuf_setup_ns: int = 900       #: allocate + init a kiobuf head
    mlock_range_ns: int = 800        #: do_mlock fixed overhead per call

    # -- VIA / NIC -----------------------------------------------------------
    tpt_update_ns: int = 400         #: write one TPT entry over PCI
    #: translation served from coalesced extents (one fetch per
    #: physically-contiguous run, however many pages it merges)
    tpt_translate_extent_ns: int = 80
    #: translation served from the NIC's translation cache (one lookup)
    tpt_cache_hit_ns: int = 30
    #: per-burst cost of re-engaging the DMA engine inside a gather /
    #: scatter (the first burst pays the full ``dma_setup_ns``)
    dma_burst_ns: int = 300
    doorbell_ring_ns: int = 700      #: PIO write to a doorbell page
    descriptor_build_ns: int = 500   #: CPU prepares a descriptor
    descriptor_fetch_ns: int = 2_500  #: NIC DMA-reads descriptor from memory
    dma_setup_ns: int = 1_200        #: NIC engages its DMA engine
    #: Per-byte DMA/PCI cost.  One end-to-end transfer charges this three
    #: times (local gather, wire, remote scatter), so 3.7 ns/B yields the
    #: ≈90 MB/s effective RDMA bandwidth of cLAN-class hardware.
    dma_per_byte_ns: float = 3.7
    pio_word_ns: int = 550           #: CPU store into remote-mapped memory
    #: streaming PIO (write-combined CPU stores): ≈82 MB/s, the SCI
    #: shared-memory figure of the companion papers
    pio_stream_per_byte_ns: float = 12.0
    nic_wire_latency_ns: int = 4_000  #: fabric propagation per packet
    completion_post_ns: int = 800    #: NIC writes completion, CPU polls it
    #: responder-side read-modify-write of one 8-byte word (the NIC's
    #: embedded atomic unit; charged once per remote atomic served)
    atomic_rmw_ns: int = 600
    #: how long the atomic unit holds the target word after an RMW —
    #: a second atomic to the *same* word arriving inside the window
    #: stalls until it closes (per-word serialization)
    atomic_contention_window_ns: int = 2_500
    #: retransmission timer of a RELIABLE VI: initial expiry, exponential
    #: backoff factor, and the cap the backoff saturates at
    retransmit_timeout_ns: int = 20_000
    retransmit_backoff: float = 2.0
    retransmit_timeout_max_ns: int = 640_000
    #: fixed cost of one ODP fault-service round trip: NIC posts the
    #: fault request, the driver takes it, patches the TPT, rings the
    #: resume doorbell (the page-fault work itself is charged by the
    #: normal ``handle_fault`` path on top of this)
    odp_fault_service_base_ns: int = 12_000
    #: parking + unparking a DMA engine around a translation fault
    odp_suspend_resume_ns: int = 3_000
    #: invalidating one ODP TPT entry under pressure (PCI write + fence)
    odp_invalidate_page_ns: int = 500

    # -- derived helpers -----------------------------------------------------

    def memcpy_ns(self, nbytes: int) -> int:
        """CPU copy cost for ``nbytes``."""
        return int(self.memcpy_per_byte_ns * nbytes)

    def dma_ns(self, nbytes: int) -> int:
        """Wire/DMA transfer cost for ``nbytes`` (excluding setup)."""
        return int(self.dma_per_byte_ns * nbytes)


#: Cost model with every charge zero — for pure-correctness tests that do
#: not care about time and want maximal speed.
FREE = CostModel(
    syscall_ns=0, capability_check_ns=0, pagetable_walk_ns=0,
    vma_split_ns=0, memcpy_per_byte_ns=0.0,
    minor_fault_ns=0, major_fault_base_ns=0, disk_io_page_ns=0,
    frame_alloc_ns=0, reclaim_scan_page_ns=0, page_lock_ns=0,
    kiobuf_setup_ns=0, mlock_range_ns=0, tpt_update_ns=0,
    tpt_translate_extent_ns=0, tpt_cache_hit_ns=0,
    dma_burst_ns=0,
    doorbell_ring_ns=0, descriptor_build_ns=0, descriptor_fetch_ns=0,
    dma_setup_ns=0, dma_per_byte_ns=0.0, pio_word_ns=0,
    pio_stream_per_byte_ns=0.0,
    nic_wire_latency_ns=0, completion_post_ns=0,
    retransmit_timeout_ns=0, retransmit_timeout_max_ns=0,
    atomic_rmw_ns=0, atomic_contention_window_ns=0,
    odp_fault_service_base_ns=0, odp_suspend_resume_ns=0,
    odp_invalidate_page_ns=0,
)
