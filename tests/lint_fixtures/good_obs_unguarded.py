"""Fixture: every registry access is guarded (0 findings)."""


def guarded_by_if(kernel, n):
    obs = kernel.obs
    if obs.enabled:
        obs.metrics.counter("ops").inc()
        obs.metrics.gauge("depth").set(n)


def guarded_by_none_check(obs):
    if obs is not None and obs.enabled:
        obs.metrics.counter("ops").inc()


def guarded_by_early_return(obs):
    if not obs.enabled:
        return
    obs.metrics.histogram("lat_ns").observe(1)


def facade_is_self_guarding(obs):
    obs.inc("ops")          # facade call — checks .enabled internally
    obs.observe("lat_ns", 3)


def pragma_suppresses(obs):
    # repro-lint: allow(instrumentation-unguarded)
    obs.metrics.counter("ops").inc()
