"""Locking-backend interface.

A backend answers one question for the Kernel Agent: *given a user
range, pin it and tell me its physical pages* — and later, *release it*.
Everything the paper compares lives behind these two calls.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hw.physmem import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


@dataclass
class LockResult:
    """Outcome of a lock operation."""

    frames: list[int]     #: physical frame per page of the range
    cookie: object        #: backend-private state for unlock


def range_vpns(va: int, nbytes: int) -> tuple[int, int]:
    """Page range ``[start_vpn, end_vpn)`` covering ``[va, va+nbytes)``."""
    return va // PAGE_SIZE, (va + nbytes - 1) // PAGE_SIZE + 1


class LockingBackend(abc.ABC):
    """Abstract memory-locking mechanism."""

    #: registry name
    name: str = "abstract"
    #: does the mechanism actually keep pages pinned under pressure?
    reliable: bool = False
    #: can the same range be registered several times safely?
    supports_multiple_registration: bool = False
    #: does the *driver* walk page tables (mainline-policy violation)?
    walks_page_tables: bool = True

    @abc.abstractmethod
    def lock(self, kernel: "Kernel", task: "Task", va: int,
             nbytes: int) -> LockResult:
        """Pin ``[va, va+nbytes)`` of ``task``; return physical frames."""

    @abc.abstractmethod
    def unlock(self, kernel: "Kernel", cookie: object) -> None:
        """Release a previous :meth:`lock` identified by its cookie."""
