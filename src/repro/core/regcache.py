"""Registration cache.

Section 1: dynamic buffer registration "is actually a contradiction to
the aim of the VI Architecture, namely to remove operating system calls
from the communication path, but it is the only way to achieve
zero-copy.  Furthermore, the bad effects can be remedied by 'caching'
registered regions, i.e. by keeping them registered as long as
possible."

The cache keys on page-aligned ranges.  ``acquire`` returns a live
registration for the covering range — a cache *hit* costs no kernel
call; a *miss* registers the aligned range.  ``release`` only drops the
caller's use; the registration itself stays cached (pinned!) until
capacity pressure evicts an unused entry, LRU-first.

Lookup is O(1): an interval index keyed by virtual page number maps the
first page of a request straight to the entries covering it (any
covering entry must cover the request's first page), and recency is the
order of an ``OrderedDict`` — a hit is one dict probe plus a
``move_to_end``, and eviction pops from the cold end, with no linear
scans on the communication fast path.

Because entries stay registered while cached, the cache **requires** a
backend that supports multiple registration safely — with mlock_naive or
pageflags semantics a second user of an overlapping range would be
silently unprotected.  (That interaction is measured in benchmark E5.)
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.via.kernel_agent import Registration

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import Task
    from repro.via.kernel_agent import KernelAgent


def aligned_range(va: int, nbytes: int) -> tuple[int, int]:
    """Page-align ``[va, va+nbytes)``; returns ``(base_va, nbytes)``."""
    start = (va // PAGE_SIZE) * PAGE_SIZE
    end = ((va + nbytes - 1) // PAGE_SIZE + 1) * PAGE_SIZE
    return start, end - start


@dataclass
class CacheEntry:
    """One cached registration."""

    registration: Registration
    users: int = 0           #: live acquisitions
    hits: int = 0
    rdma_write: bool = False
    rdma_read: bool = False

    @property
    def key(self) -> tuple[int, int, int, bool, bool]:
        """Identity of the cached registration.  Includes the RDMA
        enables: the same range registered with different enables is a
        *different* registration (a plain entry cannot serve an
        rdma_write acquire), and keying on the range alone would let the
        second insert silently shadow the first in ``_entries`` while
        both stay in ``_page_index`` — a leak."""
        r = self.registration
        return (r.pid, r.va, r.nbytes, self.rdma_write, self.rdma_read)

    def page_span(self) -> tuple[int, int]:
        """``[first_vpn, last_vpn]`` (inclusive) of the cached range."""
        r = self.registration
        return r.va // PAGE_SIZE, (r.va + r.nbytes - 1) // PAGE_SIZE


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    capacity_failures: int = 0
    #: registration attempts retried after a VIP_ERROR_RESOURCE failure
    retries: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: how many times a failing registration is tried when there is
#: nothing left to evict (transient VIP_ERROR_RESOURCE)
MAX_REGISTER_ATTEMPTS = 3


class RegistrationCache:
    """LRU cache of registrations for one (agent, task) pair."""

    def __init__(self, agent: "KernelAgent", task: "Task",
                 max_pages: int | None = None) -> None:
        self.agent = agent
        self.task = task
        #: page budget; None = bounded only by the TPT
        self.max_pages = max_pages
        #: entries in LRU order: oldest acquire first (acquire moves an
        #: entry to the hot end; release does not change recency)
        self._entries: OrderedDict[tuple[int, int, int, bool, bool],
                                   CacheEntry] = OrderedDict()
        #: interval index: vpn → entries covering that page, in
        #: insertion order (so candidate priority matches the old scan)
        self._page_index: dict[int, list[CacheEntry]] = {}
        #: pages the cached entries cover
        self.pages_cached = 0
        self.stats = CacheStats()
        # Per-tenant sharding: the cache registers itself with the
        # agent's tenant service so admission pressure can shed its
        # unused entries (tenant-local first) instead of denying.
        agent.tenants.attach_cache(self)

    @staticmethod
    def _count(obs, stat: str) -> None:
        """Add one to the ``core.regcache.<stat>`` counter (callers check
        ``obs.enabled``).  Every cache sharing ``obs`` adds to the same
        counters, so the hit rate is derived from their totals rather
        than from one cache's :class:`CacheStats`."""
        metrics = obs.metrics
        metrics.counter(f"core.regcache.{stat}").inc()
        hits = metrics.counter("core.regcache.hits").value
        lookups = hits + metrics.counter("core.regcache.misses").value
        if lookups:
            metrics.gauge("core.regcache.hit_rate").set(hits / lookups)

    # -- internals -----------------------------------------------------------

    def _index_add(self, entry: CacheEntry) -> None:
        first, last = entry.page_span()
        for vpn in range(first, last + 1):
            self._page_index.setdefault(vpn, []).append(entry)
        self.pages_cached += entry.registration.region.npages

    def _index_remove(self, entry: CacheEntry) -> None:
        first, last = entry.page_span()
        for vpn in range(first, last + 1):
            bucket = self._page_index.get(vpn)
            if bucket is not None:
                # Remove by identity, not equality: two distinct entries
                # covering the same span compare equal (dataclass
                # __eq__), and list.remove would evict whichever comes
                # first — desyncing _page_index from _entries.
                for i, candidate in enumerate(bucket):
                    if candidate is entry:
                        del bucket[i]
                        break
                if not bucket:
                    del self._page_index[vpn]
        self.pages_cached -= entry.registration.region.npages

    def _candidates(self, va: int) -> list[CacheEntry]:
        """Entries that could cover a range starting at ``va`` — exactly
        those indexed under ``va``'s page."""
        return self._page_index.get(va // PAGE_SIZE, [])

    def _find_covering(self, va: int, nbytes: int,
                       rdma_write: bool, rdma_read: bool
                       ) -> CacheEntry | None:
        """A cached entry whose range covers the request and whose RDMA
        enables are at least as permissive."""
        for entry in self._candidates(va):
            r = entry.registration
            if (r.va <= va and va + nbytes <= r.va + r.nbytes
                    and (not rdma_write or entry.rdma_write)
                    and (not rdma_read or entry.rdma_read)):
                return entry
        return None

    def _evict_one(self) -> bool:
        """Evict the least-recently-used unused entry; False if none.

        The OrderedDict runs cold→hot, so the victim is the first
        unused entry from the cold end — no min-scan over all entries.
        """
        victim = None
        for entry in self._entries.values():
            if entry.users == 0:
                victim = entry
                break
        if victim is None:
            return False
        del self._entries[victim.key]
        self._index_remove(victim)
        self.agent.deregister_memory(victim.registration.handle)
        self.stats.evictions += 1
        obs = self.agent.kernel.obs
        if obs.enabled:
            self._count(obs, "evictions")
        return True

    # -- interface -------------------------------------------------------------

    def acquire(self, va: int, nbytes: int, rdma_write: bool = False,
                rdma_read: bool = False) -> Registration:
        """Get a registration covering ``[va, va+nbytes)``.

        Pair every acquire with a :meth:`release` of the same range.
        """
        obs = self.agent.kernel.obs
        entry = self._find_covering(va, nbytes, rdma_write, rdma_read)
        if entry is not None:
            entry.users += 1
            entry.hits += 1
            self._entries.move_to_end(entry.key)
            self.stats.hits += 1
            if obs.enabled:
                self._count(obs, "hits")
            return entry.registration

        self.stats.misses += 1
        if obs.enabled:
            self._count(obs, "misses")
        base, length = aligned_range(va, nbytes)
        want_pages = length // PAGE_SIZE
        if self.max_pages is not None:
            while (self.pages_cached + want_pages > self.max_pages
                   and self._evict_one()):
                pass
        attempts = 0
        while True:
            try:
                reg = self.agent.register_memory(
                    self.task, base, length,
                    rdma_write=rdma_write, rdma_read=rdma_read)
                break
            except ViaError as exc:
                if exc.status != "VIP_ERROR_RESOURCE":
                    raise
                # Resource pressure: shed an unused cached entry (freeing
                # TPT capacity *and* pinned pages) and retry.  When
                # nothing is evictable the failure may still be
                # transient, so try up to MAX_REGISTER_ATTEMPTS times
                # before surfacing it.
                attempts += 1
                evicted = self._evict_one()
                retry = evicted or attempts < MAX_REGISTER_ATTEMPTS
                self.agent.kernel.trace.emit(
                    "regcache_retry", pid=self.task.pid, va=base,
                    nbytes=length, attempt=attempts, evicted=evicted,
                    giving_up=not retry)
                if not retry:
                    self.stats.capacity_failures += 1
                    if obs.enabled:
                        self._count(obs, "capacity_failures")
                    raise
                self.stats.retries += 1
                if obs.enabled:
                    self._count(obs, "retries")
        entry = CacheEntry(registration=reg, users=1,
                           rdma_write=rdma_write, rdma_read=rdma_read)
        self._entries[entry.key] = entry
        self._index_add(entry)
        return reg

    def release(self, va: int, nbytes: int) -> None:
        """Drop one use of the covering entry (stays cached)."""
        for entry in self._candidates(va):
            r = entry.registration
            if (r.va <= va and va + nbytes <= r.va + r.nbytes
                    and entry.users > 0):
                entry.users -= 1
                return
        raise ViaError(f"release of unacquired range [{va}, {va + nbytes})")

    def shed(self, target_pages: int | None = None) -> int:
        """Admission-pressure hook: evict unused entries, cold end
        first, until ``target_pages`` pinned pages were released (None =
        everything unused).  Entries whose registration is already gone
        — the owner died and the exit path (or the reaper) deregistered
        underneath the cache — are purged as pure bookkeeping, without a
        kernel call and without counting toward the released total.
        Returns pinned pages actually released."""
        obs = self.agent.kernel.obs
        freed = 0
        for key in list(self._entries):
            if target_pages is not None and freed >= target_pages:
                break
            entry = self._entries.get(key)
            if entry is None or entry.users > 0:
                continue
            del self._entries[key]
            self._index_remove(entry)
            handle = entry.registration.handle
            if handle in self.agent.registrations:
                self.agent.deregister_memory(handle)
                self.stats.evictions += 1
                if obs.enabled:
                    self._count(obs, "evictions")
                freed += entry.registration.region.npages
        return freed

    @property
    def cached_regions(self) -> int:
        return len(self._entries)
