"""Sensitivity binning (Section 5.2).

"Sensitivity is computed for each tunable ... and binned into three bins of
high, medium, and low. ... In our case, the three bins are set to <30%,
30%-70%, and >70%."

Each bin maps to a fraction of the tunable's range the CG block targets —
"the change in actual values of the hardware tunables is proportional to
the sensitivity value". A LOW-sensitivity tunable is dropped near its
minimum, MED to mid-range, HIGH is left at maximum.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import PolicyError


class Bin(enum.Enum):
    """A sensitivity bin."""

    LOW = "low"
    MED = "med"
    HIGH = "high"


class _BinsFields(NamedTuple):
    """The fields of :class:`SensitivityBins`, in declaration order."""

    low_edge: float = 0.30
    high_edge: float = 0.70
    low_target: float = 0.0
    med_target: float = 0.5
    high_target: float = 1.0


class SensitivityBins(_BinsFields):
    """Binning thresholds and the per-bin tunable-range targets.

    Attributes:
        low_edge: sensitivities strictly below this are LOW.
        high_edge: sensitivities strictly above this are HIGH.
        low_target: fraction of the tunable's range set for a LOW bin.
        med_target: fraction of the tunable's range set for a MED bin.
        high_target: fraction of the tunable's range set for a HIGH bin.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SensitivityBins":
        bins = super().__new__(cls, *args, **kwargs)
        if not 0 <= bins.low_edge <= bins.high_edge:
            raise PolicyError("bin edges must satisfy 0 <= low <= high")
        for name in ("low_target", "med_target", "high_target"):
            if not 0 <= getattr(bins, name) <= 1:
                raise PolicyError(f"{name} must be in [0, 1]")
        return bins

    def classify(self, sensitivity: float) -> Bin:
        """Bin a sensitivity value.

        Values are clamped into [0, 1] first: a measured *negative*
        sensitivity (performance improves as the tunable shrinks — the
        BPT cache-thrashing case) is as LOW as it gets, and super-linear
        scaling saturates at HIGH.
        """
        clamped = max(0.0, min(1.0, sensitivity))
        if clamped < self.low_edge:
            return Bin.LOW
        if clamped > self.high_edge:
            return Bin.HIGH
        return Bin.MED

    def target_fraction(self, bin_: Bin) -> float:
        """Tunable-range fraction the CG block sets for ``bin_``."""
        if bin_ is Bin.LOW:
            return self.low_target
        if bin_ is Bin.MED:
            return self.med_target
        return self.high_target


#: The paper's binning: <30% LOW, 30-70% MED, >70% HIGH.
PAPER_BINS = SensitivityBins()
