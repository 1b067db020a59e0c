"""What sits on top of the paper's mechanism (the Kernel Agent's
kiobuf registration path in :mod:`repro.via.kernel_agent`).

* :mod:`repro.core.regcache` — the registration cache the paper
  motivates ("caching registered regions, i.e. keeping them registered
  as long as possible");
* :mod:`repro.core.locktest` — the Section 3.1 experiment, parameterised
  over locking backends;
* :mod:`repro.core.audit` — TPT-vs-page-table consistency checks and
  kernel accounting invariants.
"""

from repro.core.regcache import RegistrationCache
from repro.core.locktest import LocktestExperiment, LocktestResult
from repro.core.audit import (
    audit_kernel_invariants, audit_tpt_consistency, StaleEntry,
)

__all__ = [
    "RegistrationCache", "LocktestExperiment", "LocktestResult",
    "audit_kernel_invariants", "audit_tpt_consistency", "StaleEntry",
]
