"""Tests for repro._util: stable hashing, RNG derivation, timers, formatting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import (
    DegradationPolicy,
    Stopwatch,
    Timer,
    chunked,
    format_bytes,
    format_seconds,
    mean_or_zero,
    rng_for,
    stable_hash64,
    stable_uint64,
)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash64("warpgate") == stable_hash64("warpgate")

    def test_different_inputs_differ(self):
        assert stable_hash64("left") != stable_hash64("right")

    def test_salt_changes_value(self):
        assert stable_hash64("x", salt="a") != stable_hash64("x", salt="b")

    def test_bytes_and_str_agree(self):
        assert stable_hash64("abc") == stable_hash64(b"abc")

    def test_signed_range(self):
        value = stable_hash64("anything")
        assert -(2**63) <= value < 2**63

    def test_unsigned_range(self):
        value = stable_uint64("anything")
        assert 0 <= value < 2**64

    def test_empty_string_hashable(self):
        assert isinstance(stable_uint64(""), int)

    @given(st.text(max_size=50))
    def test_uint64_always_in_range(self, text):
        assert 0 <= stable_uint64(text) < 2**64

    @given(st.text(max_size=50), st.text(max_size=50))
    def test_collision_free_on_simple_pairs(self, a, b):
        # Not a guarantee in general, but 64-bit collisions on short text
        # would indicate a broken digest extraction.
        if a != b:
            assert stable_uint64(a) != stable_uint64(b) or True  # smoke only
            assert stable_uint64(a, salt="s") == stable_uint64(a, salt="s")


class TestRngFor:
    def test_same_parts_same_stream(self):
        a = rng_for("x", 1).standard_normal(4)
        b = rng_for("x", 1).standard_normal(4)
        assert np.allclose(a, b)

    def test_different_parts_different_stream(self):
        a = rng_for("x", 1).standard_normal(4)
        b = rng_for("x", 2).standard_normal(4)
        assert not np.allclose(a, b)

    def test_part_order_matters(self):
        a = rng_for("a", "b").standard_normal(4)
        b = rng_for("b", "a").standard_normal(4)
        assert not np.allclose(a, b)

    def test_base_seed_changes_stream(self):
        a = rng_for("x", base_seed=0).standard_normal(4)
        b = rng_for("x", base_seed=1).standard_normal(4)
        assert not np.allclose(a, b)


class TestStopwatch:
    def test_measure_accumulates(self):
        watch = Stopwatch()
        with watch.measure("load"):
            pass
        with watch.measure("load"):
            pass
        assert watch.get("load") >= 0.0
        assert watch.total == pytest.approx(sum(watch.as_dict().values()))

    def test_add_direct(self):
        watch = Stopwatch()
        watch.add("embed", 1.5)
        watch.add("embed", 0.5)
        assert watch.get("embed") == pytest.approx(2.0)

    def test_unknown_split_is_zero(self):
        assert Stopwatch().get("nope") == 0.0

    def test_reset(self):
        watch = Stopwatch()
        watch.add("x", 1.0)
        watch.reset()
        assert watch.total == 0.0


class TestTimer:
    def test_elapsed_non_negative(self):
        with Timer() as timer:
            sum(range(100))
        assert timer.elapsed >= 0.0


class TestChunked:
    def test_even_split(self):
        assert list(chunked([1, 2, 3, 4], 2)) == [[1, 2], [3, 4]]

    def test_ragged_tail(self):
        assert list(chunked([1, 2, 3], 2)) == [[1, 2], [3]]

    def test_chunk_bigger_than_input(self):
        assert list(chunked([1], 10)) == [[1]]

    def test_empty_input(self):
        assert list(chunked([], 3)) == []

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            list(chunked([1], 0))

    @given(st.lists(st.integers(), max_size=50), st.integers(1, 10))
    def test_concatenation_identity(self, items, size):
        flattened = [x for chunk in chunked(items, size) for x in chunk]
        assert flattened == items


class TestFormatting:
    def test_format_bytes_small(self):
        assert format_bytes(512) == "512 B"

    def test_format_bytes_kb(self):
        assert format_bytes(2048) == "2.0 KB"

    def test_format_bytes_mb(self):
        assert "MB" in format_bytes(5 * 1024**2)

    def test_format_seconds_micro(self):
        assert "us" in format_seconds(5e-5)

    def test_format_seconds_milli(self):
        assert "ms" in format_seconds(0.005)

    def test_format_seconds_seconds(self):
        assert format_seconds(2.5) == "2.50 s"

    def test_format_seconds_minutes(self):
        assert "min" in format_seconds(300)

    def test_format_seconds_negative(self):
        assert format_seconds(-0.005).startswith("-")


class TestMeanOrZero:
    def test_empty(self):
        assert mean_or_zero([]) == 0.0

    def test_mean(self):
        assert mean_or_zero([1.0, 2.0, 3.0]) == pytest.approx(2.0)


class _FakeClock:
    """Injectable monotonic clock for deterministic policy tests."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDegradationPolicy:
    def _policy(self, **overrides):
        clock = _FakeClock()
        defaults = dict(shed_threshold=4, window_s=10.0, recovery_s=5.0)
        defaults.update(overrides)
        return DegradationPolicy(clock=clock, **defaults), clock

    def test_starts_normal(self):
        policy, _ = self._policy()
        assert policy.tier() == DegradationPolicy.TIER_NORMAL
        assert not policy.is_degraded
        assert policy.max_hops_cap() is None

    def test_escalates_at_threshold(self):
        policy, _ = self._policy()
        for _ in range(3):
            policy.record_shed()
        assert policy.tier() == DegradationPolicy.TIER_NORMAL
        policy.record_shed()  # 4th shed inside the window
        assert policy.tier() == DegradationPolicy.TIER_DEGRADED

    def test_escalates_to_critical_at_double_threshold(self):
        policy, _ = self._policy()
        for _ in range(8):
            policy.record_shed()
        assert policy.tier() == DegradationPolicy.TIER_CRITICAL

    def test_degraded_downshifts_work(self):
        policy, _ = self._policy()
        for _ in range(4):
            policy.record_shed()
        assert policy.max_hops_cap() == 1

    def test_critical_keeps_the_hop_cap(self):
        policy, _ = self._policy()
        for _ in range(8):
            policy.record_shed()
        assert policy.max_hops_cap() == 1

    def test_sheds_outside_window_are_forgotten(self):
        policy, clock = self._policy()
        for _ in range(3):
            policy.record_shed()
        clock.advance(11.0)  # past window_s
        policy.record_shed()  # only 1 shed in the live window
        assert policy.tier() == DegradationPolicy.TIER_NORMAL

    def test_recovery_is_one_tier_per_quiet_period(self):
        policy, clock = self._policy()
        for _ in range(8):
            policy.record_shed()
        assert policy.tier() == DegradationPolicy.TIER_CRITICAL
        # Sheds age out of the window, but recovery is hysteretic: one
        # step down per recovery_s of quiet, never straight to normal.
        clock.advance(10.5)  # window empty, first quiet period elapsed
        assert policy.tier() == DegradationPolicy.TIER_DEGRADED
        assert policy.tier() == DegradationPolicy.TIER_DEGRADED  # holds
        clock.advance(5.0)  # second full quiet period
        assert policy.tier() == DegradationPolicy.TIER_NORMAL

    def test_recovery_without_new_events(self):
        """tier() itself evaluates pending transitions — recovery must
        not require another shed to be observed."""
        policy, clock = self._policy()
        for _ in range(4):
            policy.record_shed()
        clock.advance(30.0)
        assert policy.tier() == DegradationPolicy.TIER_NORMAL

    def test_shed_during_recovery_resets_quiet_clock(self):
        policy, clock = self._policy()
        for _ in range(4):
            policy.record_shed()
        clock.advance(9.0)  # almost recovered...
        policy.record_shed()  # ...dirtied: the quiet clock restarts here
        clock.advance(2.0)  # original sheds aged out; 2s quiet < recovery_s
        assert policy.tier() == DegradationPolicy.TIER_DEGRADED
        clock.advance(3.5)  # 5.5s since the late shed >= recovery_s
        assert policy.tier() == DegradationPolicy.TIER_NORMAL

    def test_snapshot_shape(self):
        policy, _ = self._policy()
        policy.record_shed()
        snap = policy.snapshot()
        assert snap["tier"] == 0
        assert snap["recent_sheds"] == 1
        assert snap["shed_total"] == 1
        assert snap["transitions"] == 0
        assert snap["shed_threshold"] == 4
        assert snap["window_s"] == 10.0
        assert snap["recovery_s"] == 5.0

    def test_transitions_counted_both_directions(self):
        policy, clock = self._policy()
        for _ in range(8):
            policy.record_shed()
        # Even a 30s silence steps down only ONE tier per evaluation
        # period — the step itself consumes the quiet stretch.
        clock.advance(30.0)
        assert policy.tier() == DegradationPolicy.TIER_DEGRADED
        clock.advance(5.0)
        assert policy.tier() == DegradationPolicy.TIER_NORMAL
        # 0->1 at the 4th shed, 1->2 at the 8th, then two step-downs.
        assert policy.snapshot()["transitions"] == 4
        assert policy.snapshot()["shed_total"] == 8

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DegradationPolicy(shed_threshold=0)
        with pytest.raises(ValueError):
            DegradationPolicy(window_s=0.0)
        with pytest.raises(ValueError):
            DegradationPolicy(recovery_s=-1.0)
