"""Fixture: every event-hub emission is guarded (0 findings)."""


def guarded_by_active(kernel, frame):
    if kernel.events.active:
        kernel.events.emit("pin", frames=(frame,))


def guarded_by_truthiness(kernel, frame):
    # EventHub.__bool__ returns `.active`, so this is the same guard.
    if kernel.events:
        kernel.events.emit("pin", frames=(frame,))


def guarded_by_none_check(events, frame):
    if events is not None and events.active:
        events.emit("unpin", frames=(frame,))


def guarded_by_early_return(self, frame):
    events = self._events
    if not events.active:
        return
    events.emit("pin", frames=(frame,))


def other_emitters_are_not_hubs(kernel, frame):
    # trace/log emitters guard internally; only event hubs are checked.
    kernel.trace.emit("pin", frame=frame)


def pragma_suppresses(kernel, frame):
    # repro-lint: allow(instrumentation-unguarded)
    kernel.events.emit("pin", frames=(frame,))


def record_is_unguarded(kernel, frame):
    # A record writes the trace whether or not anything subscribes.
    kernel.events.record("swap_out", frame=frame)


def record_beside_a_guarded_emit(kernel, frame):
    if kernel.events.active:
        kernel.events.emit("pin", frames=(frame,))
    else:
        kernel.events.record("swap_out", frame=frame)
