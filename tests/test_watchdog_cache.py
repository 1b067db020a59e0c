"""The invariant watchdog keeps a clean verdict only while it is exact.

A watchdog sample skips its audits — the free-list check, every task's
PTEs, the pinned set, every registration's TPT frames and, when the
registered frames alone explained every pin, the pin-leak audit — when
a fingerprint of what they read equals the one stored at the last
clean sample.  These tests hold that shortcut to the full audits from
two sides:

* **Oracle.**  Seeded runs of two shapes — a lossy two-machine cluster
  with reapers and tenant traffic, and the ODP backend under swap
  pressure — shadow every sample with a fresh full walk
  (``audit_kernel_invariants``, ``audit_tpt_consistency``,
  ``audit_pin_leaks``), and the two must agree, messages included.
  Corruption rounds between operations make some samples fail.
* **Mutations.**  Each kind of direct corruption, written between two
  clean samples (the second of which skipped its walks), must make the
  very next sample raise with the message the full audits give.

``REPRO_CHAOS_SEED`` (used by the CI chaos job) varies the seeds.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import asdict, replace

import pytest

from repro.core.audit import (
    audit_kernel_invariants, audit_pin_leaks, audit_tpt_consistency,
)
from repro.errors import InvariantViolation, PageAccountingError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.msg.endpoint import make_pair
from repro.msg.protocols import RendezvousZeroCopyProtocol
from repro.sim.faults import FaultPlan
from repro.via.constants import VIP_SUCCESS
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.machine import Cluster, Machine
from repro.via.tpt import FrameList
from repro.workloads.allocator import MemoryHog

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


# --------------------------------------------------------------------------
# The oracle: a fresh full walk beside every sample
# --------------------------------------------------------------------------

def full_walk(kernel, agents, boundary):
    """What a sample that walks everything reports: None when clean,
    else the violation's message and its structured report."""
    prefix = "invariant violation"
    try:
        audit_kernel_invariants(kernel)
    except PageAccountingError as exc:
        return f"{prefix} (kernel) at {boundary}: {exc}", {}
    for agent in agents:
        stale = audit_tpt_consistency(agent)
        if stale:
            return (f"{prefix} (stale_tpt) at {boundary}: "
                    f"{len(stale)} stale TPT entries",
                    {"stale": [asdict(s) for s in stale]})
    leaks = audit_pin_leaks(kernel, *agents, count_kiobufs=True)
    if leaks:
        return (f"{prefix} (pin_leak) at {boundary}: "
                f"{len(leaks)} leaked pins",
                {"leaks": [asdict(leak) for leak in leaks]})
    return None


def free_list_and_pin_verdicts(kernel, agents):
    """Whether the free-list check passes, and whether the registered
    frames alone explain every pin (the pin-leak audit's first pass),
    each from a walk of its own."""
    try:
        kernel.pagemap.check_free_list()
    except PageAccountingError:
        free_list_ok = False
    else:
        free_list_ok = True
    registered = Counter(
        frame for agent in agents
        for reg in agent.registrations.values()
        for frame in reg.region.frames)
    pins_clean = all(pins <= registered[frame] for frame, pins
                     in enumerate(kernel.pagemap.table.pin_counts))
    return free_list_ok, pins_clean


class Shadow:
    """Wraps a watchdog so that every sample of every armed pair is
    compared with :func:`full_walk` of the same state."""

    def __init__(self, wd):
        self.wd = wd
        self.samples = self.skipped = self.violations = 0
        #: skipped samples that kept the pin-leak verdict too
        self.kept_pins = 0
        sample = wd._check_one

        def shadowed(index, kernel, agents, boundary):
            want = full_walk(kernel, agents, boundary)
            free_list_ok, pins_clean = free_list_and_pin_verdicts(
                kernel, agents)
            walks = wd.walks_run
            self.samples += 1
            try:
                sample(index, kernel, agents, boundary)
            except InvariantViolation as exc:
                self.violations += 1
                got = (str(exc), {key: exc.snapshot[key]
                                  for key in ("stale", "leaks")
                                  if key in exc.snapshot})
                assert got == want
                raise
            finally:
                self.skipped += wd.walks_run == walks
            assert want is None
            if wd.walks_run == walks:
                # A skipped sample ran neither the free-list check nor,
                # when it kept the pin verdict, the pin-leak audit.
                assert free_list_ok
                if wd._clean[index].pins_clean:
                    assert pins_clean
                    self.kept_pins += 1

        wd._check_one = shadowed

    def expect_violation(self):
        """Sample now; the sample must raise (and agree with the walk)."""
        with pytest.raises(InvariantViolation):
            self.wd.check(boundary="corruption")

    def check_skip_rate(self):
        assert self.samples > 50
        assert 0 < self.wd.walks_run < self.wd.checks_run
        assert self.skipped == self.wd.checks_run - self.wd.walks_run
        assert self.kept_pins > 0


def corrupt_and_repair(rng, shadow, machine):
    """Write one seeded corruption, sample, and undo it."""
    kernel, agent = machine.kernel, machine.agent
    table = kernel.pagemap.table
    regs = list(agent.registrations.values())
    tasks = [t for t in kernel.tasks if t.page_table.resident_count()]
    kind = rng.choice(["counts", "tags", "pin_counts", "frames",
                       "resident"])
    if kind in ("counts", "tags") and tasks:
        task = rng.choice(tasks)
        frame = next(pte.frame for _vpn, pte in
                     task.page_table.present_entries(0))
        column = getattr(table, kind)
        saved = column[frame]
        column[frame] = 0 if kind == "counts" else "kernel-image"
        shadow.expect_violation()
        column[frame] = saved
    elif kind == "pin_counts" and table.pinned:
        # More pins than any registration or kiobuf could explain.
        frame = rng.choice(sorted(table.pinned))
        table.pin_counts[frame] += 100
        shadow.expect_violation()
        table.pin_counts[frame] -= 100
    elif kind == "frames" and regs:
        frames = rng.choice(regs).region.frames
        index = rng.randrange(len(frames))
        saved = frames[index]
        frames[index] = kernel.pagemap.reserved_frames   # a kernel frame
        if frames[index] != saved:
            shadow.expect_violation()
        frames[index] = saved
    elif kind == "resident" and tasks:
        page_table = rng.choice(tasks).page_table
        page_table._resident += 1
        shadow.expect_violation()
        page_table._resident -= 1


# --------------------------------------------------------------------------
# Seeded runs
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


def tenant_soak_run(seed, rounds=60):
    """Tenant traffic on a lossy two-machine cluster with reapers, plus
    registration churn, short-lived tasks and corruption rounds."""
    rng = random.Random(seed)
    cluster = Cluster(2, num_frames=512, backend="kiobuf", seed=seed)
    tenants = [Tenant(cluster, i) for i in range(TENANTS)]
    reapers = cluster.start_reapers(interval_ns=50_000)
    wd = cluster.arm_watchdog(interval_ns=20_000)
    shadow = Shadow(wd)
    cluster.inject_faults(FaultPlan(
        seed=seed, loss_rate=0.05, duplicate_rate=0.02,
        corrupt_rate=0.02, delay_rate=0.02))
    extra = []
    for _ in range(rounds):
        rng.choice(tenants).round(rng)
        machine = rng.choice(cluster.machines)
        action = rng.randrange(8)
        # Cadence samples can land inside these changes: the kernel's
        # pinning list and the agent's releasing list explain the pins
        # of a registration being built or torn down.
        if action == 0:
            # A registration change rebuilds the owner index.
            ua = rng.choice(tenants).ua_s
            va = ua.task.mmap(2)
            ua.task.touch_pages(va, 2)
            extra.append((ua, ua.register_mem(va, 2 * PAGE_SIZE)))
        elif action == 1 and extra:
            ua, reg = extra.pop(rng.randrange(len(extra)))
            ua.deregister_mem(reg)
        elif action == 2:
            # The task set changes, with a teardown-boundary sample.
            task = machine.spawn("short")
            task.touch_pages(task.mmap(3), 3)
            task.exit()
        if action == 3:
            corrupt_and_repair(rng, shadow, machine)
    for reaper in reapers:
        reaper.stop()
    wd.disarm()
    return shadow


def odp_pressure_run(seed, transfers=24):
    """Cached zero-copy transfers on the ODP backend while hogs and
    direct swap-outs keep reclaim moving registered pages."""
    rng = random.Random(seed)
    cluster = Cluster(2, num_frames=256, swap_slots=2048, backend="odp",
                      seed=seed)
    sender, receiver = make_pair(cluster)
    pages = 8
    bufs = []
    for _ in range(3):
        src = sender.task.mmap(pages)
        sender.task.touch_pages(src, pages)
        dst = receiver.task.mmap(pages)
        receiver.task.touch_pages(dst, pages)
        bufs.append((src, dst))
    hogs = [MemoryHog(m.kernel, name="hog") for m in cluster.machines]
    for hog in hogs:
        hog.grow(150)
    wd = cluster.arm_watchdog(interval_ns=20_000)
    shadow = Shadow(wd)
    protocol = RendezvousZeroCopyProtocol(use_cache=True)
    for step in range(transfers):
        src, dst = rng.choice(bufs)
        size = rng.randint(PAGE_SIZE, pages * PAGE_SIZE)
        data = rng.randbytes(size)
        sender.task.write(src, data)
        assert protocol.transfer(sender, receiver, src, dst, size).ok
        assert receiver.task.read(dst, size) == data
        machine = rng.choice(cluster.machines)
        if step % 3 == 0:
            rng.choice(hogs).churn()
        elif step % 3 == 1:
            paging.swap_out(machine.kernel, rng.randint(4, 32))
        else:
            corrupt_and_repair(rng, shadow, machine)
    wd.disarm()
    return shadow


@pytest.mark.parametrize("seed", [SEED, SEED + 1])
def test_tenant_soak_samples_match_a_full_walk(seed):
    shadow = tenant_soak_run(seed)
    shadow.check_skip_rate()
    assert shadow.violations > 0


@pytest.mark.parametrize("seed", [SEED, SEED + 1])
def test_odp_pressure_samples_match_a_full_walk(seed):
    shadow = odp_pressure_run(seed)
    shadow.check_skip_rate()
    assert shadow.violations > 0


@pytest.mark.no_posthoc_audit
def test_a_sample_inside_a_kiobuf_registration_is_clean():
    # A fault plan makes map_user_kiobuf charge after each pin, before
    # the kiobuf is recorded; the kernel's pinning list explains the
    # pins meanwhile.
    m = Machine(num_frames=64, backend="kiobuf")
    task = m.spawn()
    ua = m.user_agent(task)
    va = task.mmap(2)
    task.touch_pages(va, 2)
    m.inject_faults(FaultPlan(seed=SEED))    # armed, injects nothing
    wd = m.arm_watchdog(interval_ns=1)      # a sample at every charge
    try:
        reg = ua.register_mem(va, 2 * PAGE_SIZE)
    finally:
        wd.disarm()
    assert wd.checks_run >= 2 and wd.violations == 0
    assert m.kernel.pinning == []
    ua.deregister_mem(reg)
    assert not m.kernel.pagemap.table.pinned


@pytest.mark.no_posthoc_audit
def test_a_sample_inside_an_odp_deregistration_is_clean():
    # The record is dropped before the TPT-update charge and the ODP
    # unpins; the agent's releasing list explains the pins meanwhile.
    m = Machine(num_frames=64, backend="odp")
    task = m.spawn()
    ua = m.user_agent(task)
    va = task.mmap(4)
    task.touch_pages(va, 4)
    reg = ua.register_mem(va, 4 * PAGE_SIZE)
    m.agent.service_translation_fault(reg.handle, range(4))
    wd = m.arm_watchdog(interval_ns=1)      # a sample at every charge
    try:
        ua.deregister_mem(reg)
    finally:
        wd.disarm()
    assert wd.checks_run >= 3 and wd.violations == 0
    assert m.agent.releasing == [] and not m.kernel.pagemap.table.pinned


# --------------------------------------------------------------------------
# Mutations between two clean samples
# --------------------------------------------------------------------------

INTERVAL = 1_000


class Armed:
    """A kiobuf machine with one task: pages 0-3 of an 8-page buffer
    registered, pages 4-7 only mapped, an idle second task, and a
    watchdog whose second clean sample skipped its walks."""

    def __init__(self):
        self.m = Machine(num_frames=256, backend="kiobuf")
        self.kernel, self.agent = self.m.kernel, self.m.agent
        self.table = self.kernel.pagemap.table
        self.task = self.m.spawn("app")
        self.va = self.task.mmap(8)
        self.task.touch_pages(self.va, 8)
        self.vpn = self.task.vpn_of(self.va)
        self.reg = self.m.user_agent(self.task).register_mem(
            self.va, 4 * PAGE_SIZE)
        self.other = self.m.spawn("other")
        self.wd = self.m.arm_watchdog(interval_ns=INTERVAL)
        for _ in range(2):
            self.kernel.clock.charge(INTERVAL, "test")
        assert (self.wd.checks_run, self.wd.walks_run) == (2, 1)
        assert self.wd.violations == 0

    def frame(self, page):
        return self.task.page_table.lookup(self.vpn + page).frame

    def next_sample_raises(self, kind, detail):
        """The next cadence sample raises ``kind`` with ``detail``, the
        message the full audits give for the state; returns the
        violation's snapshot and the walk count after it."""
        checks = self.wd.checks_run
        want = f"invariant violation ({kind}) at cadence: {detail}"
        assert full_walk(self.kernel, [self.agent], "cadence")[0] == want
        with pytest.raises(InvariantViolation) as info:
            self.kernel.clock.charge(INTERVAL, "test")
        assert str(info.value) == want
        assert self.wd.checks_run == checks + 1
        return info.value.snapshot, self.wd.walks_run

    def repaired_sample_walks(self, walks):
        """After a violation the next sample walks again, and is clean."""
        self.kernel.clock.charge(INTERVAL, "test")
        assert self.wd.walks_run == walks + 1
        self.wd.disarm()


@pytest.fixture
def armed():
    return Armed()


@pytest.mark.no_posthoc_audit
class TestMutationsBetweenCleanSamples:
    def test_counts_column_write(self, armed):
        frame = armed.frame(1)
        armed.table.counts[frame] = 0
        _, walks = armed.next_sample_raises(
            "kernel",
            f"pid {armed.task.pid} vpn {armed.vpn + 1} maps free frame "
            f"{frame}")
        armed.table.counts[frame] = 1
        armed.repaired_sample_walks(walks)

    def test_pin_counts_column_write(self, armed):
        frame = armed.frame(2)
        armed.table.pin_counts[frame] += 2     # registration + kiobuf = 2
        snap, walks = armed.next_sample_raises("pin_leak", "1 leaked pins")
        assert snap["leaks"] == [
            {"frame": frame, "pin_count": 3, "expected": 2}]
        armed.table.pin_counts[frame] -= 2
        armed.repaired_sample_walks(walks)

    def test_negative_pin_count(self, armed):
        frame = armed.frame(6)
        armed.table.pin_counts[frame] = -1
        _, walks = armed.next_sample_raises(
            "kernel", f"frame {frame} has negative counters")
        armed.table.pin_counts[frame] = 0
        armed.repaired_sample_walks(walks)

    def test_tags_column_write(self, armed):
        frame = armed.frame(5)
        saved = armed.table.tags[frame]
        armed.table.tags[frame] = "kernel-image"
        _, walks = armed.next_sample_raises(
            "kernel",
            f"pid {armed.task.pid} vpn {armed.vpn + 5} maps kernel frame "
            f"{frame}")
        armed.table.tags[frame] = saved
        armed.repaired_sample_walks(walks)

    def test_set_pin_count_on_a_free_frame(self, armed):
        frame = armed.kernel.pagemap._free[-1]
        armed.table.set_pin_count(frame, 1)
        _, walks = armed.next_sample_raises(
            "kernel", f"frame {frame} pinned (1) but free")
        armed.table.set_pin_count(frame, 0)
        armed.repaired_sample_walks(walks)

    def test_free_list_entry_outside_the_table(self, armed):
        pm = armed.kernel.pagemap
        pm._free.append(10_000)
        pm._free_set.add(10_000)
        _, walks = armed.next_sample_raises(
            "kernel", "frame 10000 on the free list is outside the frame "
                      "table [0, 256)")
        pm._free_set.discard(10_000)
        pm._free.pop()
        armed.repaired_sample_walks(walks)

    def test_region_frame_overwrite(self, armed):
        actual = armed.frame(3)
        armed.reg.region.frames[3] = armed.frame(5)
        snap, walks = armed.next_sample_raises(
            "stale_tpt", "1 stale TPT entries")
        assert snap["stale"] == [{
            "handle": armed.reg.handle, "pid": armed.task.pid,
            "vpn": armed.vpn + 3, "tpt_frame": armed.frame(5),
            "actual_frame": actual}]
        armed.reg.region.frames[3] = actual
        armed.repaired_sample_walks(walks)

    def test_resident_counter_write(self, armed):
        armed.task.page_table._resident -= 1
        _, walks = armed.next_sample_raises(
            "kernel",
            f"pid {armed.task.pid} resident counter 7 != 8 present PTEs")
        armed.task.page_table._resident += 1
        armed.repaired_sample_walks(walks)

    def test_set_mapping(self, armed):
        # The page stays present, so only the table's gen moves.
        frame = armed.frame(6)
        armed.task.page_table.set_mapping(armed.vpn + 6, 0, writable=True)
        _, walks = armed.next_sample_raises(
            "kernel",
            f"pid {armed.task.pid} vpn {armed.vpn + 6} maps kernel frame 0")
        armed.task.page_table.set_mapping(armed.vpn + 6, frame,
                                          writable=True)
        armed.repaired_sample_walks(walks)

    def test_set_swapped(self, armed):
        # Both entries exist and are not present before and after, so
        # only the table's gen shows the rewritten slot.
        paging.swap_out(armed.kernel, 2)
        for _ in range(2):
            armed.kernel.clock.charge(INTERVAL, "test")
        page_table = armed.task.page_table
        (vpn_a, pte_a), (vpn_b, pte_b) = sorted(
            (vpn, pte) for vpn, pte in page_table._entries.items()
            if pte.swapped)
        slot_b = pte_b.swap_slot
        page_table.set_swapped(vpn_b, pte_a.swap_slot)
        _, walks = armed.next_sample_raises(
            "kernel",
            f"swap slot {pte_a.swap_slot} referenced by both "
            f"{(armed.task.pid, vpn_a)} and {(armed.task.pid, vpn_b)}")
        page_table.set_swapped(vpn_b, slot_b)
        armed.repaired_sample_walks(walks)

    def test_clear(self, armed):
        frame = armed.frame(0)
        armed.task.page_table.clear(armed.vpn)
        snap, walks = armed.next_sample_raises(
            "stale_tpt", "1 stale TPT entries")
        assert snap["stale"] == [{
            "handle": armed.reg.handle, "pid": armed.task.pid,
            "vpn": armed.vpn, "tpt_frame": frame, "actual_frame": None}]
        armed.task.page_table.set_mapping(armed.vpn, frame, writable=True)
        armed.repaired_sample_walks(walks)

    def test_clear_behind_a_counter_write(self, armed):
        # clear() drops the entry and the counter together; a direct
        # write puts the counter back, so only the table's gen moves.
        frame = armed.frame(7)
        armed.task.page_table.clear(armed.vpn + 7)
        armed.task.page_table._resident += 1
        _, walks = armed.next_sample_raises(
            "kernel",
            f"pid {armed.task.pid} resident counter 8 != 7 present PTEs")
        armed.task.page_table._resident -= 1
        armed.task.page_table.set_mapping(armed.vpn + 7, frame,
                                          writable=True)
        armed.repaired_sample_walks(walks)

    def test_pinned_set_write(self, armed):
        frame = armed.kernel.pagemap._free[-1]
        armed.table.pinned.add(frame)
        _, walks = armed.next_sample_raises(
            "kernel", f"frame {frame} pinned (0) but free")
        armed.table.pinned.discard(frame)
        armed.repaired_sample_walks(walks)

    def test_registration_recorded_behind_the_pin_path(self, armed):
        # A record whose frames name the pages in reverse, taking no pin
        # and writing no frame list: only the owner index changes.
        region = replace(armed.reg.region, handle=armed.reg.handle + 100,
                         frames=FrameList(reversed(armed.reg.region.frames)))
        armed.agent._record(replace(armed.reg, region=region))
        snap, walks = armed.next_sample_raises(
            "stale_tpt", "4 stale TPT entries")
        assert [entry["handle"] for entry in snap["stale"]] == \
            [region.handle] * 4
        armed.agent._unrecord(region.handle)
        armed.repaired_sample_walks(walks)


# --------------------------------------------------------------------------
# When the walks run
# --------------------------------------------------------------------------

def test_a_still_state_walks_once_and_counts_every_sample():
    armed = Armed()
    for _ in range(10):
        armed.kernel.clock.charge(INTERVAL, "test")
    assert (armed.wd.checks_run, armed.wd.walks_run) == (12, 1)
    armed.wd.disarm()


def test_a_task_exit_walks_again():
    armed = Armed()
    walks = armed.wd.walks_run
    armed.other.exit()                  # teardown-boundary sample
    assert armed.wd.walks_run == walks + 1
    armed.kernel.clock.charge(INTERVAL, "test")
    assert armed.wd.walks_run == walks + 1
    armed.wd.disarm()
