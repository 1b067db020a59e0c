"""The Translation and Protection Table (TPT).

"All memory which is to be used to hold descriptors or data buffers must
be registered in advance.  That means that all involved memory pages are
locked into physical memory and the addresses are stored in the NIC's
Translation and Protection Table."

The TPT records, **at registration time**, the physical frame of every
page of a region, together with the owner's protection tag and the
region's RDMA enables.  All later translation happens against these
recorded frames — the NIC has no way to notice that the kernel moved a
page.  That asymmetry is the entire failure mode of Section 3.1, so this
module deliberately performs *no* freshness checks.

Fast path.  Because frames are captured once, translation is a pure
function of the recorded frames — so the table can (a) merge physically
adjacent frames into maximal ``(addr, len)`` *extents* at registration
time and serve spans with one bisect instead of a per-page walk, and
(b) memoize whole translations in a bounded LRU cache keyed by
``(handle, va, length)``.  The cache is **invalidated** whenever a
region is removed (deregistration) or its recorded frames are mutated,
and can be flushed wholesale on a NIC reset — a cached translation must
never outlive the registration it was derived from.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.analysis.events import (
    TPT_INSERT, TPT_INVALIDATE, TPT_PAGE_INVALIDATE, TPT_TRANSLATE,
)
from repro.errors import (
    NotRegistered, ProtectionError, TranslationFault, ViaError,
)
from repro.hw.physmem import PAGE_SIZE
from repro.via.constants import (
    DEFAULT_TPT_ENTRIES, DEFAULT_TRANSLATION_CACHE_ENTRIES,
)

_handles = itertools.count(1)

#: Sentinel frame number of a TPT entry whose valid bit is clear.  An
#: ODP registration installs every entry like this; the fault-service
#: path patches real frames in just-in-time, and pressure-driven
#: eviction writes the sentinel back.
INVALID_FRAME = -1


class FrameList(list):
    """A frame list that versions in-place mutation.

    Every region's recorded frames are one: ``install`` wraps them, and
    they are only ever written in place.  The extent map and the
    translation cache are derived from them; the ODP fault service
    patches entries, and tests (and the staleness experiments) simulate
    "the kernel moved a page" by assigning ``region.frames[i]``
    directly, so every mutating operation bumps :attr:`version` and
    derived state is rebuilt on the next translation.  It also bumps
    the class-wide ``epoch[0]``, which state derived from many lists at
    once (a Kernel Agent's registered-frame array) compares instead of
    every version.
    """

    __slots__ = ("version",)

    #: ``[n]``: n counts the in-place mutations of every FrameList.  The
    #: count is bumped inside the list; rebinding a class attribute on
    #: every write would invalidate the interpreter's caches for the
    #: class each time.
    epoch = [0]

    def __init__(self, iterable=()) -> None:
        super().__init__(iterable)
        self.version = 0

    def _mutated(self) -> None:
        self.version += 1
        self.epoch[0] += 1

    def __setitem__(self, *args):
        self._mutated()
        return super().__setitem__(*args)

    def __delitem__(self, *args):
        self._mutated()
        return super().__delitem__(*args)

    def __iadd__(self, other):
        self._mutated()
        return super().__iadd__(other)

    def __imul__(self, n):
        self._mutated()
        return super().__imul__(n)

    def append(self, *args):
        self._mutated()
        return super().append(*args)

    def extend(self, *args):
        self._mutated()
        return super().extend(*args)

    def insert(self, *args):
        self._mutated()
        return super().insert(*args)

    def pop(self, *args):
        self._mutated()
        return super().pop(*args)

    def remove(self, *args):
        self._mutated()
        return super().remove(*args)

    def clear(self):
        self._mutated()
        return super().clear()

    def sort(self, *args, **kwargs):
        self._mutated()
        return super().sort(*args, **kwargs)

    def reverse(self):
        self._mutated()
        return super().reverse()


def coalesce_frames(frames: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """Merge per-page frames into maximal physically-contiguous extents.

    Returns ``(starts, extents)`` where ``extents[i]`` is
    ``(phys_base, nbytes)`` for the run beginning at page-relative byte
    offset ``starts[i]`` (offsets are relative to the region's
    page-aligned base; ``starts`` is sorted for bisecting).
    """
    starts: list[int] = []
    extents: list[tuple[int, int]] = []
    run_start = 0
    n = len(frames)
    for i in range(1, n + 1):
        if i == n or frames[i] != frames[i - 1] + 1:
            starts.append(run_start * PAGE_SIZE)
            extents.append((frames[run_start] * PAGE_SIZE,
                            (i - run_start) * PAGE_SIZE))
            run_start = i
    return starts, extents


@dataclass
class MemoryRegion:
    """One registered region: the NIC-visible view of a user buffer."""

    handle: int
    va_base: int                 #: user virtual base address
    nbytes: int
    prot_tag: int
    frames: FrameList            #: physical frame per page, captured at
                                 #: registration time
    rdma_write_enable: bool = False
    rdma_read_enable: bool = False
    rdma_atomic_enable: bool = False
    valid: bool = True
    #: on-demand-paging region: entries may carry :data:`INVALID_FRAME`
    #: and translation must check per-page validity (non-ODP regions
    #: skip that walk entirely)
    odp: bool = False
    #: opaque cookie the locking backend returned; owned by the Kernel
    #: Agent, carried here so deregistration can find it
    lock_cookie: object = field(default=None, compare=False)
    #: lazily-built extent map: (starts, extents, frames-version)
    _extent_map: object = field(default=None, repr=False, compare=False)

    @property
    def npages(self) -> int:
        return len(self.frames)

    @property
    def first_vpn(self) -> int:
        return self.va_base // PAGE_SIZE

    def extent_map(self) -> tuple[list[int], list[tuple[int, int]]]:
        """The coalesced extent map, rebuilt when the recorded frames
        were mutated since the last build."""
        cached = self._extent_map
        version = self.frames.version
        if cached is not None and cached[2] == version:
            return cached[0], cached[1]
        starts, extents = coalesce_frames(self.frames)
        self._extent_map = (starts, extents, version)
        return starts, extents

    def covers(self, va: int, length: int) -> bool:
        """True iff ``[va, va+length)`` lies inside the region."""
        return (length >= 0 and va >= self.va_base
                and va + length <= self.va_base + self.nbytes)

    def page_span(self, va: int, length: int) -> range:
        """Region-relative page indices touched by ``[va, va+length)``."""
        aligned_base = self.first_vpn * PAGE_SIZE
        first = (va - aligned_base) // PAGE_SIZE
        last = (va + max(length, 1) - 1 - aligned_base) // PAGE_SIZE
        return range(first, last + 1)

    def invalid_pages(self, va: int, length: int) -> tuple[int, ...]:
        """Region-relative indices of not-yet-resident pages in the span
        (only meaningful for ODP regions)."""
        frames = self.frames
        return tuple(i for i in self.page_span(va, length)
                     if frames[i] == INVALID_FRAME)

    @property
    def resident_pages(self) -> int:
        """Pages currently backed by a real frame."""
        return sum(1 for f in self.frames if f != INVALID_FRAME)


class TranslationProtectionTable:
    """Per-NIC table of registered regions.

    Capacity is counted in *page entries*, like real TPT silicon: a
    1024-entry TPT can hold e.g. one 1024-page region or 256 four-page
    regions.  Registration fails with ``VIP_ERROR_RESOURCE`` when full —
    the resource limit that forces MPI layers to deregister and motivates
    the registration cache.

    ``clock``/``costs`` are optional: when provided (the NIC wires its
    kernel's in), translation charges simulated time per extent, or per
    cache hit when the translation cache served it.
    """

    #: capacity of the bounded LRU of memoized translations
    translation_cache_entries = DEFAULT_TRANSLATION_CACHE_ENTRIES

    def __init__(self, capacity_entries: int = DEFAULT_TPT_ENTRIES,
                 clock=None, costs=None, events=None) -> None:
        self.capacity_entries = capacity_entries
        self.regions: dict[int, MemoryRegion] = {}
        self.entries_used = 0
        self._clock = clock
        self._costs = costs
        #: analysis EventHub for TPT lifecycle events (optional)
        self._events = events
        self._xcache: OrderedDict[tuple, tuple] = OrderedDict()
        self._xcache_by_handle: dict[int, set[tuple]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0

    # -- registration ----------------------------------------------------------

    def install(self, va_base: int, nbytes: int, prot_tag: int,
                frames: list[int], rdma_write: bool = False,
                rdma_read: bool = False, rdma_atomic: bool = False,
                lock_cookie: object = None, odp: bool = False
                ) -> MemoryRegion:
        """Install a region; returns it with a fresh handle."""
        if len(frames) == 0:
            raise ViaError("cannot register an empty region")
        if self.entries_used + len(frames) > self.capacity_entries:
            raise ViaError(
                f"TPT full: {self.entries_used}/{self.capacity_entries} "
                f"entries used, {len(frames)} requested",
                status="VIP_ERROR_RESOURCE")
        region = MemoryRegion(
            handle=next(_handles), va_base=va_base, nbytes=nbytes,
            prot_tag=prot_tag, frames=FrameList(frames),
            rdma_write_enable=rdma_write, rdma_read_enable=rdma_read,
            rdma_atomic_enable=rdma_atomic, lock_cookie=lock_cookie,
            odp=odp)
        self.regions[region.handle] = region
        self.entries_used += len(frames)
        events = self._events
        if events is not None and events.active:
            events.emit(TPT_INSERT, handle=region.handle,
                        frames=tuple(f for f in frames
                                     if f != INVALID_FRAME),
                        first_vpn=region.first_vpn, npages=len(frames),
                        odp=odp)
        return region

    # -- ODP valid-bit maintenance -------------------------------------------

    def patch(self, handle: int, pages: dict[int, int]) -> None:
        """Write real frames behind ODP entries (fault-service path).

        ``pages`` maps region-relative page index → frame.  Assigning
        through the :class:`FrameList` bumps its version, so stale
        cached translations and the extent map rebuild on the next use.
        """
        region = self.lookup(handle)
        if not region.odp:
            raise ViaError(f"handle {handle} is not an ODP region")
        for index, frame in pages.items():
            region.frames[index] = frame

    def invalidate_pages(self, handle: int, pages: list[int]
                         ) -> tuple[int, ...]:
        """Clear the valid bit of individual ODP entries (eviction path).

        The region itself stays registered — unlike :meth:`remove`, a
        later DMA touching these pages takes a translation fault and the
        fault service brings them back.  Returns the frames that were
        resident behind the invalidated entries.
        """
        region = self.lookup(handle)
        if not region.odp:
            raise ViaError(f"handle {handle} is not an ODP region")
        dropped: list[int] = []
        for index in pages:
            frame = region.frames[index]
            if frame != INVALID_FRAME:
                dropped.append(frame)
                region.frames[index] = INVALID_FRAME
        self.invalidate_translations(handle)
        if self._costs is not None:
            self._charge(len(pages) * self._costs.odp_invalidate_page_ns)
        events = self._events
        if events is not None and events.active:
            events.emit(TPT_PAGE_INVALIDATE, handle=handle,
                        pages=tuple(pages), frames=tuple(dropped))
        return tuple(dropped)

    def remove(self, handle: int) -> MemoryRegion:
        """Invalidate and drop a region; returns it (for its cookie).

        Any cached translations derived from the region are discarded —
        a stale translation served after deregistration would be exactly
        the failure mode the paper's mechanism exists to prevent.
        """
        region = self.regions.pop(handle, None)
        if region is None:
            raise NotRegistered(f"no region with handle {handle}")
        region.valid = False
        self.entries_used -= region.npages
        self.invalidate_translations(handle)
        events = self._events
        if events is not None and events.active:
            events.emit(TPT_INVALIDATE, handle=handle)
        return region

    def lookup(self, handle: int) -> MemoryRegion:
        """The region for ``handle`` (must be valid)."""
        region = self.regions.get(handle)
        if region is None or not region.valid:
            raise NotRegistered(f"no region with handle {handle}")
        return region

    # -- translation cache ---------------------------------------------------

    def invalidate_translations(self, handle: int | None = None) -> int:
        """Drop cached translations — for one handle, or all of them
        (``handle=None``, the NIC-reset path).  Returns how many cached
        spans were discarded."""
        if handle is None:
            dropped = len(self._xcache)
            self._xcache.clear()
            self._xcache_by_handle.clear()
        else:
            keys = self._xcache_by_handle.pop(handle, ())
            dropped = 0
            for key in keys:
                if self._xcache.pop(key, None) is not None:
                    dropped += 1
        self.cache_invalidations += dropped
        return dropped

    def _cache_put(self, key: tuple, segments: list[tuple[int, int]],
                   version: int) -> None:
        cache = self._xcache
        limit = self.translation_cache_entries
        while len(cache) >= limit:
            old_key, _ = cache.popitem(last=False)
            owners = self._xcache_by_handle.get(old_key[0])
            if owners is not None:
                owners.discard(old_key)
                if not owners:
                    del self._xcache_by_handle[old_key[0]]
        cache[key] = (segments, version)
        owners = self._xcache_by_handle.get(key[0])
        if owners is None:
            self._xcache_by_handle[key[0]] = {key}
        else:
            owners.add(key)

    def _charge(self, ns: int) -> None:
        if self._clock is not None and ns:
            self._clock.charge(ns, "via_nic")

    # -- translation --------------------------------------------------------------

    def translate(self, handle: int, va: int, length: int, prot_tag: int,
                  *, rdma_write: bool = False, rdma_read: bool = False,
                  rdma_atomic: bool = False) -> list[tuple[int, int]]:
        """Translate ``[va, va+length)`` of a region into flat physical
        ``(addr, len)`` segments, enforcing protection.

        Checks, in hardware order:

        1. the handle names a valid region (``VIP_INVALID_MEMORY``),
        2. the protection tag of the requesting VI equals the region's
           tag (``VIP_PROTECTION_ERROR``),
        3. the access kind is enabled on the region (RDMA enables),
        4. the span lies within the region.

        What is *not* checked — because the hardware cannot — is whether
        the recorded frames still back the owner's virtual pages.

        Protection is enforced on **every** call; only the segment list
        itself is memoized, and a memoized list is served only while the
        region's recorded frames are unchanged since it was built.
        """
        region = self.lookup(handle)
        if region.prot_tag != prot_tag:
            raise ProtectionError(
                f"protection tag mismatch on handle {handle}: region tag "
                f"{region.prot_tag}, VI tag {prot_tag}")
        if rdma_write and not region.rdma_write_enable:
            raise ProtectionError(
                f"RDMA write not enabled on handle {handle}")
        if rdma_read and not region.rdma_read_enable:
            raise ProtectionError(
                f"RDMA read not enabled on handle {handle}")
        if rdma_atomic and not region.rdma_atomic_enable:
            raise ProtectionError(
                f"remote atomics not enabled on handle {handle}")
        if not region.covers(va, length):
            raise NotRegistered(
                f"span [{va}, {va + length}) outside region "
                f"[{region.va_base}, {region.va_base + region.nbytes})")
        if region.odp:
            missing = region.invalid_pages(va, length)
            if missing:
                raise TranslationFault(
                    f"handle {handle}: pages {missing} not resident",
                    handle=handle, va=va, length=length, pages=missing)

        version = region.frames.version
        key = (handle, va, length)
        cached = self._xcache.get(key)
        if cached is not None and cached[1] == version:
            self._xcache.move_to_end(key)
            self.cache_hits += 1
            costs = self._costs
            if costs is not None and self._clock is not None:
                self._clock.charge(costs.tpt_cache_hit_ns, "via_nic")
            events = self._events
            if events is not None and events.active:
                events.emit(TPT_TRANSLATE, handle=handle, va=va,
                            length=length, cached=True)
            return list(cached[0])
        self.cache_misses += 1

        segments = self._translate_extents(region, va, length)
        if self._costs is not None:
            self._charge(len(segments) * self._costs.tpt_translate_extent_ns)
        self._cache_put(key, segments, version)
        events = self._events
        if events is not None and events.active:
            events.emit(TPT_TRANSLATE, handle=handle, va=va,
                        length=length, cached=False)
        return list(segments)

    @staticmethod
    def _translate_extents(region: MemoryRegion, va: int, length: int
                           ) -> list[tuple[int, int]]:
        """Serve a span from the coalesced extent map: one segment per
        physically-contiguous run touched, found by bisect."""
        starts, extents = region.extent_map()
        rel = va - region.first_vpn * PAGE_SIZE
        segments: list[tuple[int, int]] = []
        remaining = length
        idx = bisect_right(starts, rel) - 1
        while remaining > 0:
            ext_start = starts[idx]
            phys_base, ext_len = extents[idx]
            offset = rel - ext_start
            n = min(remaining, ext_len - offset)
            segments.append((phys_base + offset, n))
            rel += n
            remaining -= n
            idx += 1
        return segments
