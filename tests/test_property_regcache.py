"""Property-based tests for the registration cache: random acquire/
release sequences must keep cache accounting, kernel pin counts, and
TPT capacity consistent."""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.core.audit import audit_kernel_invariants
from repro.core.regcache import RegistrationCache
from repro.hw.physmem import PAGE_SIZE
from repro.sim.costs import FREE
from repro.via.machine import Machine

BUFFER_PAGES = 8
NUM_BUFFERS = 3


class RegCacheOps(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.machine = Machine(num_frames=512, backend="kiobuf",
                               tpt_entries=64, costs=FREE)
        self.task = self.machine.spawn("app")
        self.machine.user_agent(self.task)   # allocates the prot tag
        self.cache = RegistrationCache(self.machine.agent, self.task)
        self.buffers: list[int] = []
        self.held: list[tuple[int, int]] = []   # (va, nbytes) acquired

    @initialize()
    def setup(self) -> None:
        for _ in range(NUM_BUFFERS):
            va = self.task.mmap(BUFFER_PAGES)
            self.task.touch_pages(va, BUFFER_PAGES)
            self.buffers.append(va)

    @rule(buf=st.integers(0, NUM_BUFFERS - 1),
          page=st.integers(0, BUFFER_PAGES - 1),
          pages=st.integers(1, BUFFER_PAGES))
    def acquire(self, buf: int, page: int, pages: int) -> None:
        pages = min(pages, BUFFER_PAGES - page)
        va = self.buffers[buf] + page * PAGE_SIZE
        nbytes = pages * PAGE_SIZE
        try:
            self.cache.acquire(va, nbytes)
        except Exception:
            # capacity failure with everything held is legal
            assert self.held, "capacity failure with nothing held"
            return
        self.held.append((va, nbytes))

    @precondition(lambda self: self.held)
    @rule(idx=st.integers(0, 10**6))
    def release(self, idx: int) -> None:
        va, nbytes = self.held.pop(idx % len(self.held))
        self.cache.release(va, nbytes)

    @rule()
    def flush_unused(self) -> None:
        self.cache.shed(None)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def users_match_held(self) -> None:
        total_users = sum(e.users for e in self.cache._entries.values())
        assert total_users == len(self.held)

    @invariant()
    def tpt_within_capacity(self) -> None:
        tpt = self.machine.nic.tpt
        assert 0 <= tpt.entries_used <= tpt.capacity_entries

    @invariant()
    def every_cached_entry_registered_and_pinned(self) -> None:
        agent = self.machine.agent
        for entry in self.cache._entries.values():
            reg = entry.registration
            assert reg.handle in agent.registrations
            for frame in reg.region.frames:
                assert self.machine.kernel.pagemap.table.pin_counts[
                    frame] >= 1

    @invariant()
    def kernel_accounting_sound(self) -> None:
        audit_kernel_invariants(self.machine.kernel)


TestRegCacheOps = RegCacheOps.TestCase
TestRegCacheOps.settings = settings(max_examples=30,
                                    stateful_step_count=50,
                                    deadline=None)
