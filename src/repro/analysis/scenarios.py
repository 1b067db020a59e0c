"""Explorable scenarios: seeded race goldens and the CI exploration set.

Two families live here:

* **Seeded goldens** — ``unpin_vs_dma``, ``invalidate_vs_translate``,
  ``fault_service_vs_evict``.  Each schedules the two halves of a known
  hazard at the *same* calendar deadline, wired so the FIFO (identity)
  dispatch order is the safe protocol order: the default schedule is
  race-clean, and only a permuted tie-break runs the dangerous order.
  They are the detector's regression oracle: the explorer must find
  exactly the declared race class across its schedules, and must find
  nothing on identity (``Scenario.expect_races``).
* **Exploration workloads** — ``kill_sweep`` and ``odp_fault``: real
  registration/teardown and ODP fault/evict churn with daemons riding
  the calendar.  These are expected race-clean under every schedule and
  crash placement; CI runs them scaled by ``REPRO_RACE_SCHEDULES``.

Scenarios build a fresh Machine per run (the explorer executes them
dozens of times), attach the run *before* scheduling their callbacks —
``attach`` installs the tie-break seed, which only affects events
scheduled afterwards — and tear their world down so the post-run
sanitizer sweep is clean.
"""

from __future__ import annotations

from repro.errors import ProcessKilled, TranslationFault, ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.reaper import OrphanReaper
from repro.sim.faults import REGISTRATION_CRASH_POINTS, FaultPlan
from repro.via.machine import Machine

from .explore import ExploreRun, Scenario

#: every ODP crash point the kill-sweep scenario may be asked to place
_ODP_CRASH_POINTS = ("odp_fault.start", "odp_fault.pinned",
                     "odp_fault.patched")


# --------------------------------------------------------------- seeded races

def _build_unpin_vs_dma(run: ExploreRun) -> None:
    """A DMA and the unpin of its frame race at one deadline.

    FIFO order is transfer-then-unpin (the window closes before the pin
    drops — ordinary teardown).  A permuted schedule unpins first and
    then DMAs through the stale pin: the paper's central corruption.
    """
    kernel = Machine(name="race", num_frames=32).kernel
    task = kernel.create_task(name="app")
    va = task.mmap(1)
    task.write(va, b"payload")
    frame = kernel.pin_user_page(task, va // PAGE_SIZE)
    run.attach(kernel)

    def dma_cb(now: int) -> None:
        kernel.dma.read(frame * PAGE_SIZE, 64)

    def unpin_cb(now: int) -> None:
        kernel.unpin_user_page(frame, task.pid)

    kernel.clock.schedule_after(1_000, dma_cb, name="dma")
    kernel.clock.schedule_after(1_000, unpin_cb, name="unpin")
    kernel.clock.charge(1_000, "scenario")


def _build_invalidate_vs_translate(run: ExploreRun) -> None:
    """A TPT translation races the invalidation of the same entries.

    FIFO order translates first, then invalidates (teardown after use).
    Permuted, the translation runs against already-invalidated entries:
    it faults, re-services, and retries — a use-after-invalidate with no
    ordering edge, which the engine reports even though the simulated
    NIC survived it.
    """
    m = Machine(name="race", backend="odp", num_frames=64)
    task = m.spawn("app")
    ua = m.user_agent(task)
    va = task.mmap(2)
    reg = ua.register_mem(va, 2 * PAGE_SIZE)
    m.agent.service_translation_fault(reg.handle, (0,))
    run.attach(m)
    tpt = m.nic.tpt
    tag = reg.region.prot_tag

    def translate_cb(now: int) -> None:
        try:
            tpt.translate(reg.handle, va, 16, tag)
        except TranslationFault as fault:
            m.agent.service_translation_fault(reg.handle, fault.pages)
            tpt.translate(reg.handle, va, 16, tag)

    def invalidate_cb(now: int) -> None:
        tpt.invalidate_pages(reg.handle, [0])

    m.kernel.clock.schedule_after(1_000, translate_cb, name="translate")
    m.kernel.clock.schedule_after(1_000, invalidate_cb, name="invalidate")
    m.kernel.clock.charge(1_000, "scenario")
    ua.deregister_mem(reg)


def _build_fault_service_vs_evict(run: ExploreRun) -> None:
    """An ODP fault service races pressure eviction of the same frame.

    FIFO order evicts first (fence, unpin) and the service then
    re-faults the page — ordered through the fence edge.  Permuted, the
    service answers from a frame the eviction is concurrently tearing
    down, with no edge between them.
    """
    m = Machine(name="race", backend="odp", num_frames=64)
    task = m.spawn("app")
    ua = m.user_agent(task)
    va = task.mmap(1)
    reg = ua.register_mem(va, PAGE_SIZE)
    frame = m.agent.service_translation_fault(reg.handle, (0,))[0]
    run.attach(m)

    def service_cb(now: int) -> None:
        m.agent.service_translation_fault(reg.handle, (0,))

    def evict_cb(now: int) -> None:
        m.agent.try_evict_frame(frame)

    m.kernel.clock.schedule_after(1_000, evict_cb, name="evict")
    m.kernel.clock.schedule_after(1_000, service_cb, name="service")
    m.kernel.clock.charge(1_000, "scenario")
    ua.deregister_mem(reg)


# -------------------------------------------------------- exploration set

def _build_kill_sweep(run: ExploreRun) -> None:
    """Registration/teardown with an orphan reaper, killed at the run's
    crash point.  Every pin the victim leaves behind flows to the
    reaper's calendar context — whose ordering edges must make the
    sweep race-clean under every schedule."""
    m = Machine(name="sweep", backend="kiobuf")
    run.attach(m)
    reaper = OrphanReaper(m.kernel, interval_ns=10_000).start()
    victim = m.spawn("victim")
    ua = m.user_agent(victim)
    if run.crash_point is not None:
        m.inject_faults(FaultPlan(seed=0, crash_point=run.crash_point,
                                  crash_pid=victim.pid))
    va = victim.mmap(4)
    victim.touch_pages(va, 4)
    try:
        reg = ua.register_mem(va, 4 * PAGE_SIZE)
        ua.deregister_mem(reg)
    except ProcessKilled:
        pass                       # exit path ran; the reaper converges
    for _ in range(4):
        m.kernel.clock.charge(10_000, "scenario")
    reaper.stop()


def _build_odp_fault(run: ExploreRun) -> None:
    """ODP fault/evict churn on the calendar: touchers fault pages in
    two per deadline — mostly on distinct pages (non-conflicting tie
    groups the DPOR pruner should skip), once on the *same* page (a
    conflicting tie that forces a permuted schedule to actually run) —
    while an evictor applies pressure on an offset cadence.  The
    protocol's ordering edges must keep every schedule race-clean."""
    m = Machine(name="odp", backend="odp", num_frames=96)
    task = m.spawn("app")
    ua = m.user_agent(task)
    va = task.mmap(8)
    reg = ua.register_mem(va, 8 * PAGE_SIZE)
    run.attach(m)
    frames = reg.region.frames

    def touch(page: int):
        def cb(now: int) -> None:
            try:
                m.agent.service_translation_fault(reg.handle, (page,))
            except ViaError:       # deregistered under a crash placement
                pass
        return cb

    def evict_cb(now: int) -> None:
        resident = [f for f in frames if f >= 0]
        if resident:
            m.agent.try_evict_frame(resident[0])

    clock = m.kernel.clock
    for k in range(4):
        base = 10_000 * (k + 1)
        first = 2 * k % 8
        second = first if k == 2 else (2 * k + 1) % 8
        clock.schedule_at(base, touch(first), name=f"touch{k}a")
        clock.schedule_at(base, touch(second), name=f"touch{k}b")
        clock.schedule_at(base + 5_000, evict_cb, name=f"evict{k}")
    clock.charge(50_000, "scenario")
    ua.deregister_mem(reg)


# ------------------------------------------------------------------ registry

SCENARIOS: dict[str, Scenario] = {
    s.name: s for s in (
        Scenario(
            name="unpin_vs_dma",
            build=_build_unpin_vs_dma,
            expect_races=("unpin-vs-dma",),
            description="seeded: DMA vs unpin of its frame at one tie"),
        Scenario(
            name="invalidate_vs_translate",
            build=_build_invalidate_vs_translate,
            expect_races=("invalidate-vs-translate",),
            description="seeded: TPT translate vs page invalidation"),
        Scenario(
            name="fault_service_vs_evict",
            build=_build_fault_service_vs_evict,
            expect_races=("fault-service-vs-evict",),
            description="seeded: ODP fault-in vs pressure eviction"),
        Scenario(
            name="kill_sweep",
            build=_build_kill_sweep,
            crash_points=REGISTRATION_CRASH_POINTS,
            description="registration churn + reaper under kills"),
        Scenario(
            name="odp_fault",
            build=_build_odp_fault,
            crash_points=_ODP_CRASH_POINTS,
            description="ODP fault/evict churn on the calendar"),
    )
}
