"""One writer per fact: the event hub's ``record`` writes the trace
record, and publishes the same record live while anything subscribes.

A seeded scenario drives every recorded kind — kiobuf and mlock
registrations, swap traffic, an ODP transfer under memory pressure, and
the orphan reaper's teardowns and forced pin release — and checks that
arming changes nothing the trace says, that every live event of a
recorded kind *is* its trace record, and that the hub falls back to the
bare trace writer once nobody listens.  ``REPRO_CHAOS_SEED`` (used by
the CI chaos job) varies the scenario.
"""

from __future__ import annotations

import itertools
import os
import random

import pytest

from repro.analysis import events as ev
from repro.analysis.races import RaceDetector
from repro.analysis.sanitizer import PinSanitizer
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.reaper import OrphanReaper
from repro.sim.trace import TraceEvent
from repro.via import tpt
from repro.via.descriptor import Descriptor
from repro.via.machine import Machine
from tests.pairs import connected_pair

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: the kinds the hub writes through ``record``
RECORDED = frozenset({
    ev.SWAP_OUT, ev.SWAP_IN, ev.MLOCK, ev.MUNLOCK, ev.DEREGISTER,
    ev.RECLAIM_REGISTRATION, ev.FORGET_REGISTRATION, ev.FAULT_SERVICE,
    ev.FAULT_COALESCED, ev.ODP_EVICT, ev.DMA_SUSPEND, ev.DMA_RESUME,
    ev.PIN_RELEASED,
})


def _hog(machine, rng, pages):
    """Touch more memory than the machine has, then read some back:
    reclaim swaps (or, for ODP, evicts) and the reads swap in."""
    hog = machine.spawn("hog")
    va = hog.mmap(pages)
    for i in range(pages):
        hog.write(va + i * PAGE_SIZE, b"HOG")
    for i in rng.sample(range(pages), 8):
        hog.read(va + i * PAGE_SIZE, 3)


def _pinning_host(machine, rng):
    """Nested registrations, pressure, deregistration, then the
    teardowns the reaper finishes: a forgotten registration, a leaked
    pin and a process killed without driver cleanup."""
    kernel, agent = machine.kernel, machine.agent
    reaper = OrphanReaper(kernel, agents=[agent])
    reaper.max_attempts = 2
    reaper.backoff_base_ns = 1
    app = machine.spawn("app")
    ua = machine.user_agent(app)
    va = app.mmap(8)
    app.touch_pages(va, 8)
    first = rng.randrange(4)
    outer = ua.register_mem(va, 8 * PAGE_SIZE)
    inner = ua.register_mem(va + first * PAGE_SIZE, 4 * PAGE_SIZE)
    _hog(machine, rng, 160)
    ua.deregister_mem(inner)
    ua.deregister_mem(outer)
    spare = ua.register_mem(va, 2 * PAGE_SIZE)
    agent.forget_registration(spare.handle)
    kernel.pin_user_page(app, app.vpn_of(va) + rng.randrange(8))
    victim = machine.spawn("victim")
    vva = victim.mmap(4)
    victim.touch_pages(vva, 4)
    machine.user_agent(victim).register_mem(vva, 4 * PAGE_SIZE)
    kernel.kill(victim.pid, cleanup=False)
    for _ in range(3):
        reaper.scan()
        kernel.clock.charge(10, "test")
    kernel.kill(app.pid, cleanup=False)
    reaper.scan()


def _odp_pair(rng, arm):
    """First-touch ODP sends before and after the receiver is put under
    memory pressure, plus a duplicate fault request."""
    cluster, ua_s, ua_r, vi_s, vi_r = connected_pair(
        "odp", num_frames=128)
    for machine in cluster.machines:
        arm(machine)
    npages = rng.randint(2, 4)
    dst = ua_r.task.mmap(npages)
    reg_r = ua_r.register_mem(dst, npages * PAGE_SIZE)
    src = ua_s.task.mmap(npages)
    reg_s = ua_s.register_mem(src, npages * PAGE_SIZE)
    for round_ in range(2):
        desc_r = Descriptor.recv([ua_r.segment(reg_r)])
        ua_r.post_recv(vi_r, desc_r)
        payload = bytes([round_ + 1]) * rng.randint(1, npages * PAGE_SIZE)
        ua_s.send_bytes(vi_s, reg_s, payload)
        assert ua_r.recv_bytes(vi_r, desc_r) == payload
        if round_ == 0:
            agent = cluster[1].agent
            agent.service_translation_fault(reg_r.handle, (0,))
            agent.service_translation_fault(reg_r.handle, (0,))
            _hog(cluster[1], rng, 256)
    ua_s.deregister_mem(reg_s)
    ua_r.deregister_mem(reg_r)
    return cluster


def run_scenario(seed, armed=False):
    """Run the scenario on fresh machines; returns ``(records, live)``:
    per trace, its ``(ts, kind, detail)`` records, and the live events
    its hubs published (every one of them, when ``armed``)."""
    rng = random.Random(seed)
    live: dict[int, list] = {}
    checkers: list = []
    #: a reaper retry names its item by the agent's ``id()``
    agent_ids: dict[str, str] = {}

    def arm(machine):
        agent_ids[str(id(machine.agent))] = machine.name
        hub = machine.kernel.events
        log = live.setdefault(id(machine.kernel.trace), [])
        if not armed:
            assert not hub.active
            return
        hub.subscribe(log.append)
        checkers.append(PinSanitizer(strict=True).arm(machine))
        checkers.append(RaceDetector(strict=True).arm(machine))

    traces = []
    for i, backend in enumerate(("kiobuf", "mlock")):
        machine = Machine(f"m{i}", backend=backend, num_frames=128,
                          swap_slots=2048)
        arm(machine)
        _pinning_host(machine, rng)
        traces.append(machine.kernel.trace)
    traces.append(_odp_pair(rng, arm).trace)
    for checker in checkers:
        checker.disarm()
    records = [[(e.ts_ns, e.kind, _stable(e.detail, agent_ids))
                for e in trace] for trace in traces]
    return records, [live[id(trace)] for trace in traces]


def _stable(detail, agent_ids):
    """``detail`` with agent ids in retry items replaced by host names,
    so two runs compare equal."""
    item = detail.get("item")
    if not isinstance(item, str):
        return detail
    for agent_id, name in agent_ids.items():
        item = item.replace(agent_id, name)
    return {**detail, "item": item}


@pytest.fixture
def fresh_handles(monkeypatch):
    """Restart TPT handle numbering, so two runs record equal details."""
    def restart():
        monkeypatch.setattr(tpt, "_handles", itertools.count(1))
    return restart


# Both runs manage their own subscribers: suite-level arming would make
# the unarmed run armed.
@pytest.mark.san_suppress
@pytest.mark.race_suppress
def test_arming_leaves_the_trace_unchanged(fresh_handles):
    fresh_handles()
    unarmed, _ = run_scenario(SEED)
    fresh_handles()
    armed, live = run_scenario(SEED, armed=True)
    assert armed == unarmed
    kinds = {kind for trace in unarmed for _, kind, _ in trace}
    assert RECORDED <= kinds, RECORDED - kinds
    assert all(live)


@pytest.mark.san_suppress
@pytest.mark.race_suppress
def test_live_events_of_recorded_kinds_are_their_trace_records(
        fresh_handles):
    fresh_handles()
    records, live = run_scenario(SEED, armed=True)
    for trace_records, events in zip(records, live):
        published = [(e.ts_ns, e.kind, e.detail) for e in events
                     if e.kind in RECORDED]
        recorded = [r for r in trace_records if r[1] in RECORDED]
        assert published == recorded
        assert all(e.host is not None for e in events)


def test_deregister_is_recorded_before_the_unlock_munlocks():
    m = Machine("m0", backend="mlock", num_frames=128)
    t = m.spawn("app")
    ua = m.user_agent(t)
    va = t.mmap(4)
    reg = ua.register_mem(va, 4 * PAGE_SIZE)
    m.kernel.trace.clear()
    ua.deregister_mem(reg)
    kinds = [e.kind for e in m.kernel.trace]
    assert ev.DEREGISTER in kinds and ev.MUNLOCK in kinds
    assert kinds.index(ev.DEREGISTER) < kinds.index(ev.MUNLOCK)
    assert m.kernel.trace.of_kind(ev.DEREGISTER)[-1]["handle"] == reg.handle


@pytest.mark.san_suppress
@pytest.mark.race_suppress
def test_record_is_the_trace_writer_while_nobody_subscribes():
    kernel = Machine("m0").kernel
    hub, trace = kernel.events, kernel.trace
    assert hub.record == trace.emit
    seen: list = []
    first = hub.subscribe(seen.append)
    second = hub.subscribe(seen.append)
    assert hub.record != trace.emit
    first()
    hub.record(ev.MLOCK, pid=1, start_vpn=0, end_vpn=1)
    record = trace.of_kind(ev.MLOCK)[-1]
    assert seen == [TraceEvent(record.ts_ns, ev.MLOCK, record.detail, "m0")]
    second()
    assert hub.record == trace.emit and not hub.active
    second()                                    # idempotent
    hub.record(ev.MUNLOCK, pid=1, start_vpn=0, end_vpn=1)
    assert len(seen) == 1 and trace.count(ev.MUNLOCK) == 1
