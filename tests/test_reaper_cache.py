"""The orphan reaper skips a scan only while its finding is exact.

A reaper scan skips its five phases when a fingerprint of what they read
equals the one stored after the last scan that found nothing.  These
tests hold that shortcut to the state from two sides:

* **Oracle.**  Seeded tenant-shaped runs — a lossy two-machine cluster
  with tenant traffic, processes killed without cleanup, bare kiobufs,
  leaked pins and references, and injected unlock failures — check
  every scan the reaper skips against an independent walk of public
  state, which must find nothing for the reaper to do.
* **Mutations.**  Each input the fingerprint copies, written between two
  clean scans (and samples), must make the next reaper scan run its
  phases, and the next watchdog sample give the verdict the full
  audits give.

``REPRO_CHAOS_SEED`` (used by the CI chaos job) varies the seeds.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest

from repro.core.audit import audit_kernel_invariants
from repro.errors import InvariantViolation, KiobufError, PageAccountingError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.kiobuf import Kiobuf
from repro.kernel.reaper import OrphanReaper
from repro.sim.faults import FaultPlan
from repro.via.constants import VIP_SUCCESS
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.machine import Cluster, Machine

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


# --------------------------------------------------------------------------
# The oracle: what a scan would find, from public state
# --------------------------------------------------------------------------

def findings(kernel, agents):
    """Everything a reaper scan would act on now: registrations, mapped
    kiobufs, VIs and protection tags of dead pids, reclaimable orphan
    frames, and pins that no registration or kiobuf explains."""
    alive = {task.pid for task in kernel.tasks}
    found = []
    for agent in agents:
        found += [("registration", reg.handle)
                  for reg in agent.registrations.values()
                  if reg.pid not in alive]
        found += [("vi", vi.vi_id) for vi in agent.nic.vis.values()
                  if vi.owner_pid not in alive]
        found += [("tag", pid) for pid in agent._tags if pid not in alive]
    found += [("kiobuf", kio.kiobuf_id) for kio in kernel.kiobufs.values()
              if kio.mapped and kio.pid not in alive]
    explained = Counter()
    for agent in agents:
        for reg in agent.registrations.values():
            explained.update(reg.region.frames)
        for frames in agent.releasing:
            explained.update(frames)
    for frames in kernel.pinning:
        explained.update(frames)
    with_kiobufs = explained.copy()
    for kio in kernel.kiobufs.values():
        if kio.mapped:
            with_kiobufs.update(kio.frames)
    table = kernel.pagemap.table
    for frame in range(table.num_frames):
        pins = table.pin_counts[frame]
        if (table.tags[frame] == "orphan" and table.counts[frame] > 0
                and pins == 0 and table.mappings[frame] is None
                and not explained[frame]):
            found.append(("orphan", frame))
        if pins > with_kiobufs[frame]:
            found.append(("pin", frame))
    return found


class ReaperShadow:
    """Wraps a reaper so that every scan it skips is checked against
    :func:`findings` of the same state."""

    def __init__(self, reaper):
        self.reaper = reaper
        self.skipped = self.swept = self.found = 0
        self.reclaimed = Counter()
        scan = reaper.scan

        def shadowed():
            want = findings(reaper.kernel, reaper.agents)
            sweeps = reaper.sweeps_run
            report = scan()
            if reaper.sweeps_run == sweeps:
                self.skipped += 1
                assert want == []
                assert report.reclaimed_total == report.failures == 0
                assert report.deferred == 0
            else:
                self.swept += 1
                self.found += bool(want)
                self.reclaimed.update(
                    registrations=report.registrations_reclaimed
                    + report.registrations_forced,
                    kiobufs=report.kiobufs_reclaimed,
                    vis=report.vis_reclaimed,
                    orphans=report.orphan_frames_freed,
                    pins=report.pins_force_released,
                    failures=report.failures)
            return report

        reaper.scan = shadowed


# --------------------------------------------------------------------------
# Seeded tenant-shaped runs
# --------------------------------------------------------------------------

TENANTS = 3
BATCH = 4


class Tenant:
    """A connected VI pair with one registered page per message slot."""

    def __init__(self, cluster, index):
        sender = cluster[0].spawn(f"t{index}.s")
        receiver = cluster[1].spawn(f"t{index}.r")
        self.ua_s = cluster[0].user_agent(sender)
        self.ua_r = cluster[1].user_agent(receiver)
        self.cq = self.ua_r.create_cq()
        self.vi_s = self.ua_s.create_vi()
        self.vi_r = self.ua_r.create_vi(recv_cq=self.cq)
        cluster.connect(self.vi_s, cluster[0], self.vi_r, cluster[1])
        self.send = [self._slot(self.ua_s) for _ in range(BATCH)]
        self.recv = [self._slot(self.ua_r) for _ in range(BATCH)]

    @staticmethod
    def _slot(ua):
        va = ua.task.mmap(1)
        return ua.register_mem(va, PAGE_SIZE), va

    def round(self, rng):
        sizes = [rng.randint(1, 512) for _ in range(BATCH)]
        for (_, va), size in zip(self.send, sizes):
            self.ua_s.task.write(va, rng.randbytes(size))
        self.ua_r.post_recv_many(self.vi_r, [
            Descriptor.recv([DataSegment(reg.handle, va, PAGE_SIZE)])
            for reg, va in self.recv])
        self.ua_s.post_send_many(self.vi_s, [
            Descriptor.send([DataSegment(reg.handle, va, size)])
            for (reg, va), size in zip(self.send, sizes)])
        completions = self.cq.drain_batch()
        for _ in sizes:
            assert self.ua_s.send_done(self.vi_s).status == VIP_SUCCESS
        assert [c.descriptor.length_transferred
                for c in completions] == sizes


def flaky_unlock(agent, rng):
    """Make the agent's backend fail half of the unlocks of a dead
    owner's kiobuf — the reaper's reclaims — and none of a live one's."""
    unlock = agent.backend.unlock

    def maybe_fail(kernel, cookie):
        if cookie.pid not in kernel.tasks_by_pid and rng.random() < 0.5:
            raise KiobufError("unlock failure (injected)")
        unlock(kernel, cookie)

    agent.backend.unlock = maybe_fail


def leaky_run(seed, rounds=80):
    """Tenant traffic on a lossy cluster with a reaper per machine, while
    processes die without cleanup and pins and references leak."""
    rng = random.Random(seed)
    cluster = Cluster(2, num_frames=512, backend="kiobuf", seed=seed)
    tenants = [Tenant(cluster, i) for i in range(TENANTS)]
    for machine in cluster.machines:
        flaky_unlock(machine.agent, random.Random(rng.random()))
    reapers = cluster.start_reapers(interval_ns=50_000)
    for reaper in reapers:
        reaper.backoff_base_ns = 20_000
    shadows = [ReaperShadow(reaper) for reaper in reapers]
    cluster.inject_faults(FaultPlan(
        seed=seed, loss_rate=0.05, duplicate_rate=0.02,
        corrupt_rate=0.02, delay_rate=0.02))
    holders = []            # live tasks holding a leaked pin or reference
    for _ in range(rounds):
        rng.choice(tenants).round(rng)
        machine = rng.choice(cluster.machines)
        kernel = machine.kernel
        action = rng.randrange(8)
        if action == 0:
            # Registrations, a VI and a tag outlive their owner.
            task = machine.spawn("leaky")
            ua = machine.user_agent(task)
            va = task.mmap(2)
            task.touch_pages(va, 2)
            ua.register_mem(va, 2 * PAGE_SIZE)
            ua.create_vi()
            kernel.kill(task.pid, cleanup=False)
        elif action == 1:
            # A kiobuf with no registration outlives its owner.
            task = machine.spawn("bare")
            va = task.mmap(2)
            task.touch_pages(va, 2)
            kernel.map_user_kiobuf(task, va, 2 * PAGE_SIZE)
            kernel.kill(task.pid, cleanup=False)
        elif action == 2:
            # A pin nothing records, on a live task's page.
            task = machine.spawn("pinner")
            va = task.mmap(1)
            kernel.pin_user_page(task, task.vpn_of(va))
            holders.append(task)
        elif action == 3:
            # A leaked reference, then reclaim: the page becomes an
            # orphan frame.
            task = machine.spawn("orphaner")
            va = task.mmap(2)
            task.touch_pages(va, 2)
            kernel.pagemap.get_page(task.physical_pages(va, 1)[0])
            holders.append(task)
            paging.swap_out(kernel, 8)
        elif action == 4 and holders:
            holders.pop(rng.randrange(len(holders))).exit()
        elif action == 5:
            # A clean registration change.
            ua = rng.choice(tenants).ua_s
            va = ua.task.mmap(1)
            ua.task.touch_pages(va, 1)
            ua.deregister_mem(ua.register_mem(va, PAGE_SIZE))
    # Converge: with no new debris, scans find the rest and then skip.
    for _ in range(40):
        cluster.clock.charge(50_000, "test")
    for reaper in reapers:
        reaper.stop()
    for machine, reaper in zip(cluster.machines, reapers):
        assert findings(machine.kernel, reaper.agents) == []
        audit_kernel_invariants(machine.kernel)
    return shadows


@pytest.mark.parametrize("seed", [SEED, SEED + 1])
def test_every_skipped_scan_has_nothing_to_find(seed):
    shadows = leaky_run(seed)
    assert all(s.skipped > 50 and s.swept > 5 for s in shadows)
    assert sum(s.found for s in shadows) > 0
    reclaimed = sum((s.reclaimed for s in shadows), Counter())
    for kind in ("registrations", "kiobufs", "vis", "orphans", "pins",
                 "failures"):
        assert reclaimed[kind] > 0, kind
    for shadow in shadows:
        reaper = shadow.reaper
        assert reaper.scans == shadow.skipped + shadow.swept
        assert reaper.sweeps_run == shadow.swept


# --------------------------------------------------------------------------
# Mutations between two clean scans
# --------------------------------------------------------------------------

DEAD = 999          # a pid no task has


class Quiet:
    """A kiobuf machine with one task — pages 0-3 of an 8-page buffer
    registered, pages 4-7 only mapped — a watchdog and a reaper, both
    sampled by hand."""

    def __init__(self):
        self.m = Machine(num_frames=256, backend="kiobuf")
        self.kernel, self.agent = self.m.kernel, self.m.agent
        self.pagemap = self.kernel.pagemap
        self.table = self.pagemap.table
        self.task = self.m.spawn("app")
        self.ua = self.m.user_agent(self.task)
        self.va = self.task.mmap(8)
        self.task.touch_pages(self.va, 8)
        self.reg = self.ua.register_mem(self.va, 4 * PAGE_SIZE)
        self.wd = self.m.arm_watchdog(interval_ns=10**12)
        self.reaper = OrphanReaper(self.kernel, agents=[self.agent])

    def frame(self, page):
        return self.task.physical_pages(self.va + page * PAGE_SIZE, 1)[0]

    def settle(self):
        """Two clean samples and scans; the second of each skips."""
        for _ in range(2):
            walks, sweeps = self.wd.walks_run, self.reaper.sweeps_run
            self.wd.check()
            report = self.reaper.scan()
            assert report.reclaimed_total == report.failures == 0
        assert (self.wd.walks_run, self.reaper.sweeps_run) == (walks, sweeps)

    def next_sample(self, detail=None):
        """The next sample gives the full audits' verdict: it raises the
        kernel violation ``detail``, or passes when ``detail`` is None."""
        try:
            audit_kernel_invariants(self.kernel)
        except PageAccountingError as exc:
            assert str(exc) == detail
        else:
            assert detail is None
        checks = self.wd.checks_run
        if detail is None:
            self.wd.check()
        else:
            with pytest.raises(InvariantViolation) as info:
                self.wd.check()
            assert str(info.value) == \
                f"invariant violation (kernel) at manual: {detail}"
        assert self.wd.checks_run == checks + 1

    def next_scan_sweeps(self):
        """The next reaper scan runs its phases; returns its report."""
        scans, sweeps = self.reaper.scans, self.reaper.sweeps_run
        report = self.reaper.scan()
        assert (self.reaper.scans, self.reaper.sweeps_run) == \
            (scans + 1, sweeps + 1)
        return report


@pytest.fixture
def quiet():
    q = Quiet()
    yield q
    q.wd.disarm()


@pytest.mark.no_posthoc_audit
class TestMutationsBetweenCleanScans:
    def test_free_list_entry(self, quiet):
        used = quiet.frame(5)
        quiet.settle()
        saved, quiet.pagemap._free[-1] = quiet.pagemap._free[-1], used
        quiet.next_sample(f"frame {used} free with refcount 1")
        assert quiet.next_scan_sweeps().reclaimed_total == 0
        quiet.pagemap._free[-1] = saved
        quiet.next_sample()

    def test_free_set(self, quiet):
        quiet.settle()
        n = quiet.pagemap.free_count
        quiet.pagemap._free_set.add(quiet.frame(5))
        quiet.next_sample(f"free list and free set disagree ({n} vs {n + 1})")
        assert quiet.next_scan_sweeps().reclaimed_total == 0
        quiet.pagemap._free_set.discard(quiet.frame(5))
        quiet.next_sample()

    def test_kiobufs(self, quiet):
        quiet.settle()
        kio = Kiobuf(kiobuf_id=DEAD, pid=DEAD, va=0, nbytes=PAGE_SIZE)
        quiet.kernel.kiobufs[DEAD] = kio
        quiet.next_sample()
        assert quiet.next_scan_sweeps().kiobufs_reclaimed == 1
        assert not kio.mapped and DEAD not in quiet.kernel.kiobufs

    def test_vis(self, quiet):
        ghost = quiet.m.spawn("ghost")
        vi = quiet.m.user_agent(ghost).create_vi()
        # Hidden from the reaper while its owner dies, then put back.
        quiet.m.nic.vis.pop(vi.vi_id)
        quiet.kernel.kill(ghost.pid, cleanup=False)
        quiet.settle()
        quiet.m.nic.vis[vi.vi_id] = vi
        quiet.next_sample()
        assert quiet.next_scan_sweeps().vis_reclaimed == 1
        assert vi.vi_id not in quiet.m.nic.vis

    def test_protection_tags(self, quiet):
        quiet.settle()
        quiet.agent._tags[DEAD] = 12345
        quiet.next_sample()
        quiet.next_scan_sweeps()
        assert DEAD not in quiet.agent._tags

    def test_orphan_candidates(self, quiet):
        # A leaked driver frame: referenced, unmapped, unpinned.
        frame = quiet.pagemap.alloc("driver")
        quiet.settle()
        quiet.table.orphan_candidates.add(frame)
        quiet.next_sample()
        assert quiet.next_scan_sweeps().orphan_frames_freed == 1
        assert quiet.table.counts[frame] == 0

    def test_mappings(self, quiet):
        # An orphan frame the reaper leaves alone while it is mapped.
        frame = quiet.pagemap.alloc("orphan")
        assert frame in quiet.table.orphan_candidates
        quiet.table.mappings[frame] = (quiet.task.pid, 0)
        quiet.settle()
        quiet.table.mappings[frame] = None
        quiet.next_sample()
        assert quiet.next_scan_sweeps().orphan_frames_freed == 1
        assert quiet.table.counts[frame] == 0


# --------------------------------------------------------------------------
# When a scan keeps no fingerprint
# --------------------------------------------------------------------------

@pytest.mark.no_posthoc_audit
def test_pins_only_a_kiobuf_explains_keep_no_verdict(quiet):
    # A raw-I/O kiobuf: the registered frames alone leave its pins
    # unexplained, so the watchdog re-runs the pin-leak audit at every
    # sample and the reaper runs its phases at every scan.
    kio = quiet.kernel.map_user_kiobuf(
        quiet.task, quiet.va + 4 * PAGE_SIZE, 2 * PAGE_SIZE)
    for _ in range(3):
        quiet.wd.check()
        quiet.next_scan_sweeps()
    assert not quiet.wd._clean[0].pins_clean
    kio.mapped = False              # written behind every fingerprint
    with pytest.raises(InvariantViolation,
                       match=r"\(pin_leak\) at manual: 2 leaked pins"):
        quiet.wd.check()
    assert quiet.next_scan_sweeps().deferred == 2
    kio.mapped = True
    quiet.kernel.unmap_kiobuf(kio)


def test_a_scan_that_reclaimed_keeps_no_fingerprint(quiet):
    # The next scan reads again what the reclaim changed instead of
    # trusting a fingerprint taken around the attempt.
    victim = quiet.m.spawn("victim")
    va = victim.mmap(2)
    victim.touch_pages(va, 2)
    quiet.m.user_agent(victim).register_mem(va, 2 * PAGE_SIZE)
    quiet.kernel.kill(victim.pid, cleanup=False)
    assert quiet.next_scan_sweeps().registrations_reclaimed == 1
    assert quiet.reaper._clean is None
    assert quiet.next_scan_sweeps().reclaimed_total == 0
    quiet.settle()


# The leaked pin is written straight into the column, so the sanitizer
# never saw it taken and reads its release as an underflow.
@pytest.mark.san_suppress("pin-underflow")
def test_an_orphan_whose_leaked_pin_is_released_is_freed_in_that_scan(quiet):
    frame = quiet.pagemap.alloc("orphan")
    quiet.table.set_pin_count(frame, 1)
    quiet.reaper.max_attempts = 1
    first = quiet.next_scan_sweeps()
    assert (first.pins_force_released, first.orphan_frames_freed) == (1, 1)
    assert quiet.table.counts[frame] == 0
    quiet.settle()


def test_a_scan_that_failed_keeps_no_fingerprint(quiet):
    victim = quiet.m.spawn("victim")
    va = victim.mmap(2)
    victim.touch_pages(va, 2)
    quiet.m.user_agent(victim).register_mem(va, 2 * PAGE_SIZE)
    quiet.kernel.kill(victim.pid, cleanup=False)
    unlock = quiet.agent.backend.unlock

    def fail_twice(kernel, cookie, left=[2]):
        if left[0]:
            left[0] -= 1
            raise KiobufError("unlock failure (injected)")
        unlock(kernel, cookie)

    quiet.agent.backend.unlock = fail_twice
    quiet.reaper.backoff_base_ns = 0
    reports = [quiet.next_scan_sweeps() for _ in range(3)]
    assert [r.failures for r in reports] == [1, 1, 0]
    assert reports[2].registrations_reclaimed == 1
    quiet.settle()


def test_a_still_state_sweeps_once_and_counts_every_scan(quiet):
    for _ in range(10):
        quiet.reaper.scan()
    assert (quiet.reaper.scans, quiet.reaper.sweeps_run) == (10, 1)
    assert quiet.reaper.last_report.scan_index == 9
