"""Shared internal utilities: stable hashing, seeded RNGs, timing.

Everything in this module is deterministic given its inputs.  Python's
builtin ``hash`` is salted per process, so all content hashing here goes
through :mod:`hashlib` instead.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import time
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "stable_hash64",
    "stable_hash_bytes",
    "stable_uint64",
    "rng_for",
    "Stopwatch",
    "Timer",
    "chunked",
    "format_bytes",
    "format_seconds",
    "DegradationPolicy",
]

_MASK64 = (1 << 64) - 1


def stable_hash_bytes(data: bytes, *, salt: str = "") -> bytes:
    """Return a 16-byte BLAKE2b digest of ``data`` (optionally salted).

    BLAKE2b is used because it is fast, in the stdlib, and supports keyed
    hashing, which gives us cheap independent hash families for LSH.
    """
    salt_bytes = salt.encode("utf-8")[:16]
    return hashlib.blake2b(data, digest_size=16, salt=salt_bytes.ljust(16, b"\0")).digest()


def stable_hash64(value: str | bytes, *, salt: str = "") -> int:
    """Return a signed 64-bit stable hash of a string or bytes value."""
    data = value.encode("utf-8") if isinstance(value, str) else value
    digest = stable_hash_bytes(data, salt=salt)
    (unsigned,) = struct.unpack_from("<Q", digest)
    return unsigned - (1 << 63)


def stable_uint64(value: str | bytes, *, salt: str = "") -> int:
    """Return an unsigned 64-bit stable hash of a string or bytes value."""
    data = value.encode("utf-8") if isinstance(value, str) else value
    digest = stable_hash_bytes(data, salt=salt)
    (unsigned,) = struct.unpack_from("<Q", digest)
    return unsigned & _MASK64


def rng_for(*parts: object, base_seed: int = 0) -> np.random.Generator:
    """Return a numpy Generator deterministically derived from ``parts``.

    Independent subsystems derive their own generators from readable string
    keys (e.g. ``rng_for("nextiajd", "testbedS", 3)``) so that changing one
    generator's consumption pattern never perturbs another subsystem.
    """
    key = "\x1f".join(str(part) for part in parts)
    seed = (stable_uint64(key) ^ (base_seed & _MASK64)) & _MASK64
    return np.random.default_rng(seed)


class Stopwatch:
    """Accumulating wall-clock stopwatch with named splits.

    Used by the evaluation harness to decompose end-to-end query response
    time into load / embed / lookup components, as the paper does.
    """

    def __init__(self) -> None:
        self._splits: dict[str, float] = {}

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Context manager accumulating elapsed seconds under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._splits[name] = self._splits.get(name, 0.0) + elapsed

    def add(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to the named split directly."""
        self._splits[name] = self._splits.get(name, 0.0) + seconds

    def get(self, name: str) -> float:
        """Return accumulated seconds for ``name`` (0.0 if never measured)."""
        return self._splits.get(name, 0.0)

    @property
    def total(self) -> float:
        """Sum of all splits."""
        return sum(self._splits.values())

    def as_dict(self) -> dict[str, float]:
        """Return a copy of the split table."""
        return dict(self._splits)

    def reset(self) -> None:
        """Clear all splits."""
        self._splits.clear()


@dataclass
class Timer:
    """Single-shot timer usable as a context manager.

    >>> with Timer() as t:
    ...     _ = sum(range(10))
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._start


def chunked(items: Sequence, size: int) -> Iterator[Sequence]:
    """Yield successive slices of ``items`` with at most ``size`` elements.

    >>> list(chunked([1, 2, 3, 4, 5], 2))
    [[1, 2], [3, 4], [5]]
    """
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    for start in range(0, len(items), size):
        yield items[start : start + size]


def format_bytes(count: int | float) -> str:
    """Render a byte count with a binary-ish human unit.

    >>> format_bytes(2048)
    '2.0 KB'
    """
    value = float(count)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(seconds: float) -> str:
    """Render a duration at a precision that suits its magnitude.

    >>> format_seconds(0.0042)
    '4.2 ms'
    """
    if seconds < 0:
        return f"-{format_seconds(-seconds)}"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    return f"{seconds / 60.0:.1f} min"


class DegradationPolicy:
    """Hysteretic degraded-mode controller driven by load-shed events.

    The serving stack's overload signal is admission-control sheds: each
    one is timestamped into a sliding window.  The window drives a
    three-tier state machine:

    * **tier 0 (normal)** — nothing capped;
    * **tier 1 (degraded)** — sustained shedding
      (``>= shed_threshold`` sheds inside ``window_s``): multi-hop
      path queries are capped to one hop (:meth:`max_hops_cap`);
      searches answer exactly as at tier 0;
    * **tier 2 (critical)** — ``>= 2 * shed_threshold`` sheds: the
      tier-1 cap plus a not-ready readiness signal, so load balancers
      drain the replica instead of feeding the collapse.

    Escalation is immediate; **recovery is hysteretic**: the policy
    steps *down* one tier at a time, each step requiring
    ``recovery_s`` consecutive shed-free seconds, so a service at the
    overload boundary settles instead of flapping.  All methods are
    thread-safe (sheds arrive from the accept path while probes read
    the tier concurrently); ``clock`` is injectable for deterministic
    tests.
    """

    TIER_NORMAL = 0
    TIER_DEGRADED = 1
    TIER_CRITICAL = 2

    def __init__(
        self,
        *,
        shed_threshold: int = 16,
        window_s: float = 10.0,
        recovery_s: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        if shed_threshold < 1:
            raise ValueError(f"shed_threshold must be >= 1, got {shed_threshold}")
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if recovery_s < 0:
            raise ValueError(f"recovery_s must be >= 0, got {recovery_s}")
        self.shed_threshold = shed_threshold
        self.window_s = window_s
        self.recovery_s = recovery_s
        self._clock = clock
        self._lock = threading.Lock()
        self._sheds: list[float] = []
        self._shed_total = 0
        self._tier = self.TIER_NORMAL
        self._transitions = 0
        # Recovery anchor: the last moment the window was "dirty" — a
        # shed landed or a step-down consumed the elapsed clean time.
        self._quiet_since = 0.0

    def record_shed(self) -> None:
        """Note one admission-control shed (called from the accept path)."""
        with self._lock:
            now = self._clock()
            self._prune_locked(now)
            self._sheds.append(now)
            self._shed_total += 1
            self._quiet_since = now
            self._evaluate_locked(now)

    def _prune_locked(self, now: float) -> None:
        horizon = now - self.window_s
        self._sheds = [stamp for stamp in self._sheds if stamp > horizon]

    def _evaluate_locked(self, now: float) -> None:
        """Advance the tier state machine; caller holds the lock."""
        count = len(self._sheds)
        if count >= 2 * self.shed_threshold:
            target = self.TIER_CRITICAL
        elif count >= self.shed_threshold:
            target = self.TIER_DEGRADED
        else:
            target = self.TIER_NORMAL
        if target > self._tier:
            self._tier = target
            self._transitions += 1
            self._quiet_since = now
        elif (
            self._tier > self.TIER_NORMAL
            and target < self._tier
            and now - self._quiet_since >= self.recovery_s
        ):
            # One step down per recovery period, never straight to the
            # target: the next step requires another full quiet stretch.
            self._tier -= 1
            self._transitions += 1
            self._quiet_since = now

    def tier(self) -> int:
        """Current degradation tier (evaluates pending transitions)."""
        with self._lock:
            now = self._clock()
            self._prune_locked(now)
            self._evaluate_locked(now)
            return self._tier

    @property
    def is_degraded(self) -> bool:
        """True at any tier above normal."""
        return self.tier() > self.TIER_NORMAL

    def max_hops_cap(self) -> int | None:
        """Hop cap for path queries (``None`` = uncapped, tiers > 0 = 1)."""
        return 1 if self.tier() > self.TIER_NORMAL else None

    def snapshot(self) -> dict[str, object]:
        """Machine-readable state for ``IndexStats`` / ``/stats``."""
        with self._lock:
            now = self._clock()
            self._prune_locked(now)
            self._evaluate_locked(now)
            return {
                "tier": self._tier,
                "recent_sheds": len(self._sheds),
                "shed_total": self._shed_total,
                "transitions": self._transitions,
                "shed_threshold": self.shed_threshold,
                "window_s": self.window_s,
                "recovery_s": self.recovery_s,
            }


def mean_or_zero(values: Iterable[float]) -> float:
    """Arithmetic mean of ``values``; 0.0 for an empty iterable."""
    total = 0.0
    count = 0
    for value in values:
        total += value
        count += 1
    return total / count if count else 0.0
