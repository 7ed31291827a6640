"""Deterministic fault injection for the durability subsystem.

Every write/fsync/rename site in the durable store fires a named *crash
point* through :func:`fire`.  Unarmed, a fire is one dictionary lookup —
effectively free on the hot path.  Tests arm a point with
:func:`crash_at` (or :func:`arm` with a custom action) and the next fire
raises :class:`InjectedCrash`, which derives from :class:`BaseException`
so ordinary ``except Exception`` recovery code cannot swallow it — the
injection simulates the process dying at exactly that instruction, and
nothing downstream of the crash point may run.

The registry is the crash-matrix test's source of truth: the matrix in
``tests/test_failure_injection.py`` iterates :data:`CRASH_POINTS`, so a
new durability code path that adds a fire site is automatically covered
(and a typo'd point name fails loudly at arm time).
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from contextlib import contextmanager

__all__ = [
    "CRASH_POINTS",
    "InjectedCrash",
    "arm",
    "armed",
    "crash_at",
    "disarm",
    "disarm_all",
    "fire",
]

#: Every registered crash point, in the order the write paths reach them.
#: ``*.before*`` points crash with the effect not yet durable;
#: ``*.after*`` points crash with the effect durable but the caller
#: never acknowledged — both must recover to a well-defined state.
CRASH_POINTS = (
    # WAL append: before the frame is written, after the write but before
    # the fsync, and after the fsync (durable, unacknowledged).
    "wal.append.before_write",
    "wal.append.after_write",
    "wal.append.after_fsync",
    # Segment seal: before the temp payload is written, after the temp is
    # written+fsynced but not yet visible, and after the atomic rename.
    "segment.seal.before_write",
    "segment.seal.after_write",
    "segment.seal.after_rename",
    # Manifest publish: before the temp manifest is written, after it is
    # written+fsynced but the old manifest still rules, and after the
    # os.replace made the new manifest the store's truth.
    "manifest.publish.before_write",
    "manifest.publish.before_replace",
    "manifest.publish.after_replace",
    # WAL truncation at the end of a checkpoint.
    "wal.truncate.before",
    "wal.truncate.after",
)

_lock = threading.Lock()
_hooks: dict[str, Callable[[str], None]] = {}


class InjectedCrash(BaseException):
    """A simulated process death at a registered crash point.

    Deliberately *not* an :class:`Exception`: recovery code that guards
    I/O with ``except Exception`` must not be able to absorb an injected
    crash and keep running past the point of death.
    """

    def __init__(self, point: str) -> None:
        self.point = point
        super().__init__(f"injected crash at {point}")


def _check(point: str) -> None:
    if point not in CRASH_POINTS:
        raise ValueError(
            f"unknown crash point {point!r}; registered: {list(CRASH_POINTS)}"
        )


def fire(point: str) -> None:
    """Hit a crash point; raises/acts only if a test armed it."""
    hook = _hooks.get(point)
    if hook is not None:
        hook(point)


def arm(point: str, action: Callable[[str], None] | None = None) -> None:
    """Arm ``point`` with ``action`` (default: raise :class:`InjectedCrash`)."""
    _check(point)
    with _lock:
        _hooks[point] = action if action is not None else _raise


def _raise(point: str) -> None:
    raise InjectedCrash(point)


def disarm(point: str) -> None:
    """Disarm one point (idempotent)."""
    _check(point)
    with _lock:
        _hooks.pop(point, None)


def disarm_all() -> None:
    """Disarm every point (test teardown)."""
    with _lock:
        _hooks.clear()


@contextmanager
def armed(point: str, action: Callable[[str], None] | None = None):
    """Context manager: arm ``point`` for the body, disarm on exit."""
    arm(point, action)
    try:
        yield
    finally:
        disarm(point)


def crash_at(point: str, *, after: int = 0) -> None:
    """Arm ``point`` to raise on its ``after``-th subsequent fire.

    ``after=0`` crashes on the next fire; ``after=2`` lets two fires
    pass and crashes on the third — so a test can survive setup traffic
    and kill exactly the mutation under scrutiny.
    """
    remaining = {"n": int(after)}

    def action(name: str) -> None:
        if remaining["n"] <= 0:
            raise InjectedCrash(name)
        remaining["n"] -= 1

    arm(point, action)
