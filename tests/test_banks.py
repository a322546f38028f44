"""Unit tests for the GDDR5 bank model in :mod:`tests.gddr5_banks`."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CalibrationError
from repro.workloads.registry import all_kernels
from tests.gddr5_banks import (
    AccessPattern,
    BankTiming,
    DEFAULT_GDDR5_BANK_TIMING,
    REFERENCE_PATTERNS,
    pattern_for_efficiency,
    scheduling_efficiency,
)


class TestSchedulingEfficiency:
    def test_perfect_stream_approaches_pin_bandwidth(self):
        pattern = AccessPattern(row_hit_rate=1.0, write_fraction=0.0)
        assert scheduling_efficiency(pattern) > 0.99

    def test_row_misses_cost_bandwidth(self):
        high = scheduling_efficiency(AccessPattern(row_hit_rate=0.9))
        low = scheduling_efficiency(AccessPattern(row_hit_rate=0.3))
        assert low < high

    def test_bank_spread_hides_miss_penalty(self):
        narrow = scheduling_efficiency(
            AccessPattern(row_hit_rate=0.5, bank_spread=0.25)
        )
        wide = scheduling_efficiency(
            AccessPattern(row_hit_rate=0.5, bank_spread=1.0)
        )
        assert wide > narrow

    def test_turnarounds_cost_bandwidth(self):
        read_only = scheduling_efficiency(
            AccessPattern(row_hit_rate=0.8, write_fraction=0.0)
        )
        mixed = scheduling_efficiency(
            AccessPattern(row_hit_rate=0.8, write_fraction=0.5)
        )
        assert mixed < read_only

    def test_explicit_switch_rate_overrides_estimate(self):
        batched = AccessPattern(row_hit_rate=0.8, write_fraction=0.5,
                                burst_switch_rate=0.0)
        assert scheduling_efficiency(batched) > scheduling_efficiency(
            AccessPattern(row_hit_rate=0.8, write_fraction=0.5)
        )

    def test_faw_binds_for_miss_heavy_streams(self):
        tight_faw = BankTiming(faw_cycles=64.0)
        loose_faw = BankTiming(faw_cycles=16.0)
        pattern = AccessPattern(row_hit_rate=0.1, bank_spread=1.0)
        assert scheduling_efficiency(pattern, tight_faw) < \
            scheduling_efficiency(pattern, loose_faw)

    @given(
        hit=st.floats(min_value=0.0, max_value=1.0),
        write=st.floats(min_value=0.0, max_value=1.0),
        spread=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_efficiency_bounded(self, hit, write, spread):
        pattern = AccessPattern(row_hit_rate=hit, write_fraction=write,
                                bank_spread=spread)
        assert 0.0 < scheduling_efficiency(pattern) <= 1.0

    @given(hit=st.floats(min_value=0.0, max_value=0.98))
    def test_efficiency_monotone_in_locality(self, hit):
        lower = scheduling_efficiency(AccessPattern(row_hit_rate=hit))
        higher = scheduling_efficiency(
            AccessPattern(row_hit_rate=min(1.0, hit + 0.02))
        )
        assert higher >= lower


class TestReferencePatterns:
    def test_ordering(self):
        # streaming > blocked > gather > pointer_chase, as the suite's
        # efficiency constants assume.
        efficiencies = {
            name: scheduling_efficiency(pattern)
            for name, pattern in REFERENCE_PATTERNS.items()
        }
        assert efficiencies["streaming"] > efficiencies["blocked"] > \
            efficiencies["gather"] > efficiencies["pointer_chase"]

    def test_streaming_matches_suite_constants(self):
        # The streaming reference must justify ~0.85-0.95 efficiencies.
        assert scheduling_efficiency(REFERENCE_PATTERNS["streaming"]) > 0.85

    def test_pointer_chase_matches_suite_constants(self):
        # The pointer-chase reference must justify ~0.45-0.55 efficiencies.
        value = scheduling_efficiency(REFERENCE_PATTERNS["pointer_chase"])
        assert 0.35 < value < 0.6


class TestInversion:
    @pytest.mark.parametrize("efficiency", [0.5, 0.6, 0.7, 0.8, 0.9])
    def test_roundtrip(self, efficiency):
        pattern = pattern_for_efficiency(efficiency)
        achieved = scheduling_efficiency(pattern)
        assert achieved == pytest.approx(efficiency, abs=0.02)

    def test_every_suite_constant_is_realizable(self):
        # Audit: each kernel's access_efficiency corresponds to a physical
        # row-hit rate under a plausible mix.
        for kernel in all_kernels():
            pattern = pattern_for_efficiency(kernel.base.access_efficiency)
            assert 0.0 <= pattern.row_hit_rate <= 1.0

    def test_unreachable_efficiency_raises(self):
        with pytest.raises(CalibrationError):
            # Even perfect row locality cannot beat the turnaround floor
            # of a write-heavy mix.
            pattern_for_efficiency(0.99, write_fraction=0.5)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(CalibrationError):
            pattern_for_efficiency(0.0)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(row_hit_rate=1.5),
        dict(row_hit_rate=0.5, write_fraction=-0.1),
        dict(row_hit_rate=0.5, bank_spread=0.0),
        dict(row_hit_rate=0.5, burst_switch_rate=1.5),
    ])
    def test_pattern_validation(self, kwargs):
        with pytest.raises(CalibrationError):
            AccessPattern(**kwargs)

    def test_timing_validation(self):
        with pytest.raises(CalibrationError):
            BankTiming(burst_cycles=0.0)
        with pytest.raises(CalibrationError):
            BankTiming(banks=0)
