"""Generation-keyed query-result cache for the serving layer.

BI traffic is heavily repetitive: the same joinability probes arrive from
many dashboards and sessions against an index that mutates rarely by
comparison.  :class:`QueryResultCache` memoizes ranked candidate lists in
a bounded, thread-safe LRU whose key embeds the *index mutation
generation* — the monotonic counter every index backend exposes
(:attr:`~repro.index.arena.ColumnarIndex.mutation_generation`).  Any
``add_table`` / ``drop_table`` / ``refresh_column`` / compaction moves
the generation, so every previously cached entry stops matching *by
construction*: there is no explicit invalidation hook to forget, and a
stale result can never be served.  Entries from dead generations age out
of the LRU tail naturally.

Keying is exact, not semantic: the query vector is digested byte-for-byte
(as the canonical ``float64`` array the probe consumes), and ``k``, the
effective threshold, and the excluded ref are all part of the key, so a
hit is guaranteed to denote the identical probe.  Cached values are
immutable ``(ref, score)`` tuples; callers rebuild result objects per
response, so responses never alias shared state.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.embedding.base import LRUCache

__all__ = ["QueryResultCache"]

#: Cached candidate lists: an immutable tuple of (ref, exact float32 score).
CachedCandidates = tuple


class QueryResultCache:
    """Bounded, thread-safe LRU of ranked search results, keyed by
    ``(query digest, k, threshold, exclude, index generation)``.

    Parameters
    ----------
    capacity:
        Maximum cached probes; the least recently used entry is evicted
        first.  Construction with ``capacity <= 0`` raises — callers
        model "cache disabled" as no cache at all, not an empty one.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._entries = LRUCache(capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"QueryResultCache(size={len(self)}, "
            f"capacity={self._entries.capacity}, "
            f"hit_rate={self._entries.hit_rate:.2f})"
        )

    @property
    def capacity(self) -> int:
        return self._entries.capacity

    @property
    def hit_rate(self) -> float:
        """Hits / (hits + misses); 0.0 before any access."""
        return self._entries.hit_rate

    @staticmethod
    def key(
        vector: np.ndarray,
        k: int,
        threshold: float,
        exclude: object,
        generation: int,
    ) -> tuple:
        """The exact-probe cache key.

        The vector is digested as the canonical ``float64`` contiguous
        array the probe consumes (so logically-equal queries arriving as
        float32 vs float64 views collide as they should), and the
        generation rides in the key: one mutation anywhere in the index
        and every older entry simply stops matching.
        """
        canonical = np.ascontiguousarray(vector, dtype=np.float64)
        digest = hashlib.blake2b(canonical.tobytes(), digest_size=16).digest()
        return (
            digest,
            int(k),
            float(threshold),
            str(exclude) if exclude is not None else None,
            int(generation),
        )

    def get(self, key: tuple) -> CachedCandidates | None:
        """Cached ``(ref, score)`` tuple for ``key``, or ``None`` (a miss)."""
        return self._entries.get(key)

    def put(self, key: tuple, candidates: list) -> None:
        """Store a ranked candidate list (frozen into a tuple of pairs)."""
        self._entries.put(key, tuple((ref, float(score)) for ref, score in candidates))

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._entries.clear()

    def stats(self) -> dict[str, object]:
        """Machine-readable snapshot (``/stats`` and the bench report)."""
        return self._entries.stats()
