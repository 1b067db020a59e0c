"""Multi-tenant registration service: pinned-memory quotas and admission.

The paper's §3 mechanisms all assume a cooperative single user; the
moment several uids share one NIC, pinned communication memory becomes
the contended resource NP-RDMA warns about — an unprivileged tenant can
register until the host has no reclaimable memory left.  This module is
the budget layer the Kernel Agent consults before any pin is taken:

* every tenant (keyed by uid, like ``RLIMIT_MEMLOCK``) has a pinned-page
  budget, and the host has a physical-pin ceiling shared by all tenants;
* :meth:`TenantService.admit` gates each registration.  Over-budget
  requests are not rejected immediately — admission *degrades* first:
  shed unused registration-cache entries (tenant-local for a quota
  shortage, everyone's for a host shortage), draft the orphan reaper,
  and back off in simulated time to let in-flight teardown settle.
  Only when the budget is still short after
  :data:`MAX_ADMISSION_ATTEMPTS` rounds does the request fail, with a
  typed error (:class:`~repro.errors.QuotaExceeded` /
  :class:`~repro.errors.PinCeilingExceeded`) whose
  ``VIP_ERROR_RESOURCE`` status rides the existing resource-pressure
  recovery paths (regcache retry, protocol degrade-to-copy);
* accounting is charged/credited by the Kernel Agent as registration
  records appear and disappear, so the service's view is exactly "pages
  backed by a live registration record" — the reaper's reclamations and
  the exit path's deregistrations credit tenants automatically.

Observability (all under ``obs.enabled``): ``tenant.<uid>.pinned_pages``
and ``via.tenancy.total_pinned_pages`` gauges, summed over every service
that shares the facade (a cluster's machines share one),
``via.admission.{accepted,denied,degraded}`` counters, and a
``via.admission.wait_ns`` histogram of time spent inside the degrade
ladder.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary, WeakSet

from repro.errors import PinCeilingExceeded, QuotaExceeded

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.regcache import RegistrationCache
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task
    from repro.obs import Observability
    from repro.via.kernel_agent import KernelAgent, Registration

#: degrade-ladder rounds before an over-budget registration is denied
MAX_ADMISSION_ATTEMPTS = 3
#: first backoff of the ladder; each later round doubles it
ADMISSION_BACKOFF_NS = 50_000

#: the live services publishing to each observability facade, so a
#: pinned-page gauge can report the sum over all of them
_PEERS: WeakKeyDictionary[Observability, WeakSet[TenantService]] = \
    WeakKeyDictionary()


@dataclass
class TenantAccount:
    """One tenant's usage, plus its admission history."""

    uid: int
    pinned_pages: int = 0
    peak_pinned_pages: int = 0
    registrations: int = 0       #: live registration records
    accepted: int = 0
    denied: int = 0
    degraded: int = 0            #: accepted, but only after shedding/backoff
    wait_ns: int = 0             #: total simulated time spent in backoff


class TenantService:
    """Per-uid pinned-memory accounting and admission control for one
    Kernel Agent.

    Defaults are fully open (no quota, no ceiling) so single-tenant
    setups pay nothing; every uid gets the same ``default_quota_pages``
    budget.
    """

    def __init__(self, kernel: "Kernel", *,
                 default_quota_pages: int | None = None,
                 host_ceiling_pages: int | None = None) -> None:
        if default_quota_pages is not None and default_quota_pages < 0:
            raise ValueError(
                f"default_quota_pages must be >= 0, got "
                f"{default_quota_pages}")
        if host_ceiling_pages is not None and host_ceiling_pages < 0:
            raise ValueError(
                f"host_ceiling_pages must be >= 0, got "
                f"{host_ceiling_pages}")
        self.kernel = kernel
        self.default_quota_pages = default_quota_pages
        self.host_ceiling_pages = host_ceiling_pages
        self.accounts: dict[int, TenantAccount] = {}
        self.total_pinned_pages = 0
        self.peak_total_pinned_pages = 0
        #: pid → uid, recorded at open/admission time and kept after the
        #: pid dies so the reaper can attribute posthumous reclamation
        self._pid_uids: dict[int, int] = {}
        #: per-uid registration-cache shards (admission sheds these)
        self._caches: dict[int, list["RegistrationCache"]] = {}
        _PEERS.setdefault(kernel.obs, WeakSet()).add(self)

    # ------------------------------------------------------------- accounts

    def account(self, uid: int) -> TenantAccount:
        """The tenant's account (created on first touch)."""
        acct = self.accounts.get(uid)
        if acct is None:
            acct = self.accounts[uid] = TenantAccount(uid=uid)
        return acct

    def note_task(self, task: "Task") -> None:
        """Remember the pid→uid binding (survives the pid's death, for
        posthumous attribution)."""
        self._pid_uids[task.pid] = task.uid

    def uid_of(self, pid: int) -> int | None:
        """The uid a pid belongs (or belonged) to, if ever seen."""
        return self._pid_uids.get(pid)

    # ----------------------------------------------------- regcache shards

    def attach_cache(self, cache: "RegistrationCache") -> None:
        """Register a per-tenant regcache shard; admission pressure can
        shed its unused entries."""
        self._caches.setdefault(cache.task.uid, []).append(cache)

    def _alive(self, pid: int) -> bool:
        return pid in self.kernel.tasks_by_pid

    def _shed_caches(self, need_pages: int,
                     uid: int | None = None) -> int:
        """Evict unused cached registrations until ``need_pages`` pinned
        pages were released (tenant-local when ``uid`` is given, global
        otherwise).  Shards that emptied after their owner died are
        dropped.  Returns pages actually released."""
        freed = 0
        for u in ([uid] if uid is not None else list(self._caches)):
            shards = self._caches.get(u)
            if shards is None:
                continue
            for cache in list(shards):
                if freed < need_pages:
                    freed += cache.shed(need_pages - freed)
                if (cache.cached_regions == 0
                        and not self._alive(cache.task.pid)):
                    shards.remove(cache)
            if not shards:
                self._caches.pop(u, None)
        return freed

    def purge_dead_caches(self) -> int:
        """Shed everything unused from shards whose owner is dead and
        drop the emptied shards; returns pinned pages released.  The
        soak harness calls this after kill churn so a tenant's budget is
        not held hostage by a predecessor's cache."""
        freed = 0
        for u in list(self._caches):
            shards = self._caches[u]
            for cache in list(shards):
                if self._alive(cache.task.pid):
                    continue
                freed += cache.shed(None)
                if cache.cached_regions == 0:
                    shards.remove(cache)
            if not shards:
                del self._caches[u]
        return freed

    # ------------------------------------------------------------ admission

    def admit(self, task: "Task", npages: int) -> int:
        """Admission gate for one registration of ``npages`` pages.

        Returns the simulated nanoseconds spent waiting (0 on the fast
        path).  Raises :class:`~repro.errors.QuotaExceeded` or
        :class:`~repro.errors.PinCeilingExceeded` when the degrade
        ladder could not free enough budget.
        """
        self.note_task(task)
        acct = self.account(task.uid)
        quota = self.default_quota_pages
        ceiling = self.host_ceiling_pages
        if quota is None and ceiling is None:
            acct.accepted += 1
            self._publish_admission()
            return 0
        waited_ns = 0
        attempts = 0
        degraded = False
        while True:
            over_quota = (quota is not None
                          and acct.pinned_pages + npages > quota)
            over_host = (ceiling is not None
                         and self.total_pinned_pages + npages > ceiling)
            if not over_quota and not over_host:
                break
            if attempts >= MAX_ADMISSION_ATTEMPTS:
                acct.denied += 1
                acct.wait_ns += waited_ns
                self._publish_admission(denied=True, waited_ns=waited_ns)
                self.kernel.trace.emit(
                    "admission_denied", uid=task.uid, pid=task.pid,
                    npages=npages, tenant_pinned=acct.pinned_pages,
                    host_pinned=self.total_pinned_pages,
                    reason="quota" if over_quota else "ceiling")
                if over_quota:
                    raise QuotaExceeded(
                        f"uid {task.uid}: registering {npages} pages "
                        f"would exceed its quota of {quota} "
                        f"(currently {acct.pinned_pages} pinned)",
                        uid=task.uid, requested_pages=npages,
                        limit_pages=quota,
                        pinned_pages=acct.pinned_pages)
                raise PinCeilingExceeded(
                    f"host: registering {npages} pages for uid "
                    f"{task.uid} would exceed the pin ceiling of "
                    f"{ceiling} (currently {self.total_pinned_pages} "
                    f"pinned)",
                    uid=task.uid, requested_pages=npages,
                    limit_pages=ceiling,
                    pinned_pages=self.total_pinned_pages)
            attempts += 1
            degraded = True
            # Degrade ladder: shed cached-but-unused registrations —
            # the tenant's own shards first (its quota, its caches); a
            # host-level shortage sheds everyone's and drafts the
            # reaper, because the shortfall may be a dead pid's leak.
            freed = self._shed_caches(npages, uid=task.uid)
            if over_host:
                if freed < npages:
                    self._shed_caches(npages - freed)
                reaper = self.kernel.reaper
                if reaper is not None and not reaper._in_scan:
                    reaper.scan()
            wait = ADMISSION_BACKOFF_NS * (2 ** (attempts - 1))
            self.kernel.clock.charge(wait, "admission_wait")
            waited_ns += wait
        acct.accepted += 1
        if degraded:
            acct.degraded += 1
            self.kernel.trace.emit(
                "admission_degraded", uid=task.uid, pid=task.pid,
                npages=npages, waited_ns=waited_ns, attempts=attempts)
        acct.wait_ns += waited_ns
        self._publish_admission(degraded=degraded, waited_ns=waited_ns)
        return waited_ns

    # ----------------------------------------------------------- accounting

    def charge(self, reg: "Registration") -> None:
        """A registration record now exists: charge its tenant."""
        acct = self.account(reg.uid)
        npages = reg.region.npages
        acct.pinned_pages += npages
        acct.registrations += 1
        acct.peak_pinned_pages = max(acct.peak_pinned_pages,
                                     acct.pinned_pages)
        self.total_pinned_pages += npages
        self.peak_total_pinned_pages = max(self.peak_total_pinned_pages,
                                           self.total_pinned_pages)
        self._publish_account(acct)

    def credit(self, reg: "Registration") -> None:
        """A registration record is gone: credit its tenant.  (A leaked
        *pin* past this point is the reaper's problem, not the budget's
        — the budget tracks records, which is what admission can see.)"""
        acct = self.account(reg.uid)
        npages = reg.region.npages
        acct.pinned_pages -= npages
        acct.registrations -= 1
        self.total_pinned_pages -= npages
        self._publish_account(acct)

    # -------------------------------------------------------------- obs

    def _publish_account(self, acct: TenantAccount) -> None:
        """Set the tenant's and the total pinned-page gauges to their
        sums over every service on the facade, including pins taken
        before observability was enabled."""
        obs = self.kernel.obs
        if obs.enabled:
            uid = acct.uid
            peers = _PEERS[obs]
            metrics = obs.metrics
            metrics.gauge(f"tenant.{uid}.pinned_pages").set(
                sum(peer.accounts[uid].pinned_pages for peer in peers
                    if uid in peer.accounts))
            metrics.gauge("via.tenancy.total_pinned_pages").set(
                sum(peer.total_pinned_pages for peer in peers))

    def _publish_admission(self, *, denied: bool = False,
                           degraded: bool = False,
                           waited_ns: int = 0) -> None:
        obs = self.kernel.obs
        if obs.enabled:
            metrics = obs.metrics
            if denied:
                metrics.counter("via.admission.denied").inc()
            else:
                metrics.counter("via.admission.accepted").inc()
                if degraded:
                    metrics.counter("via.admission.degraded").inc()
            metrics.histogram("via.admission.wait_ns").observe(waited_ns)

    # ------------------------------------------------------------ reporting

    def snapshot(self) -> dict:
        """Plain-dict view for reports and BENCH.json payloads."""
        return {
            "host_ceiling_pages": self.host_ceiling_pages,
            "default_quota_pages": self.default_quota_pages,
            "total_pinned_pages": self.total_pinned_pages,
            "peak_total_pinned_pages": self.peak_total_pinned_pages,
            "tenants": {
                uid: {
                    "pinned_pages": acct.pinned_pages,
                    "peak_pinned_pages": acct.peak_pinned_pages,
                    "accepted": acct.accepted,
                    "denied": acct.denied,
                    "degraded": acct.degraded,
                    "wait_ns": acct.wait_ns,
                }
                for uid, acct in sorted(self.accounts.items())
            },
        }


def audit_tenant_accounting(agent: "KernelAgent") -> list[str]:
    """Cross-check the service's books against the driver's records.

    Recomputes per-tenant pinned pages from ``agent.registrations`` and
    returns a list of discrepancy descriptions (empty = consistent).
    The soak harness runs this continuously; a non-empty result means
    charge/credit got out of step with record lifetime somewhere.
    """
    by_uid: Counter[int] = Counter()
    for reg in agent.registrations.values():
        by_uid[reg.uid] += reg.region.npages
    service = agent.tenants
    problems: list[str] = []
    for uid, acct in service.accounts.items():
        actual = by_uid.get(uid, 0)
        if acct.pinned_pages != actual:
            problems.append(
                f"uid {uid}: account says {acct.pinned_pages} pinned "
                f"pages, registrations say {actual}")
    for uid in by_uid:
        if uid not in service.accounts:
            problems.append(
                f"uid {uid}: has registrations but no tenant account")
    total = sum(by_uid.values())
    if service.total_pinned_pages != total:
        problems.append(
            f"host: service total {service.total_pinned_pages} != "
            f"registrations total {total}")
    return problems
