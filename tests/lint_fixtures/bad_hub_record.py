"""Fixture: event-hub records under a hub guard (3 findings)."""


def under_active(kernel, frame):
    if kernel.events.active:
        kernel.events.record("swap_out", frame=frame)   # <- finding


def under_truthiness(events, frame):
    if events:
        events.record("swap_in", frame=frame)           # <- finding


def after_bail_out(self, frame):
    events = self._events
    if not events.active:
        return
    events.record("mlock", frame=frame)                 # <- finding
