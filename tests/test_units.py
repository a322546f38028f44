"""Unit tests for :mod:`repro.units`."""

import pytest

from repro import units


class TestFrequencyConversions:
    def test_mhz_constant(self):
        assert units.MHZ == 1.0e6

    def test_ghz_is_thousand_mhz(self):
        assert units.GHZ == 1000 * units.MHZ

    def test_hz_to_mhz(self):
        assert units.hz_to_mhz(925e6) == pytest.approx(925.0)

    def test_roundtrip(self):
        assert units.hz_to_mhz(1375.0 * units.MHZ) == pytest.approx(1375.0)


class TestBandwidthConversions:
    def test_gb_per_s_is_decimal(self):
        # Vendor bandwidth units are decimal GB, not GiB.
        assert units.GB_PER_S == 1.0e9


class TestCapacityConstants:
    def test_kb_is_binary(self):
        assert units.KB == 1024.0

    def test_mb(self):
        assert units.MB == 1024.0 ** 2

    def test_gb(self):
        assert units.GB == 1024.0 ** 3


class TestTimeAndEnergy:
    def test_ns(self):
        assert 350 * units.NS == pytest.approx(3.5e-7)
