"""Synthesised CodeXL-style performance counters (paper Table 2).

The Harmonia controller never sees the simulator's internals — it consumes
the same counter vocabulary the paper's implementation read through CodeXL.
This module defines that vocabulary and the two derived metrics the paper
computes from it:

* ``icActivity`` (Equations 1-2): achieved read+write DRAM bandwidth as a
  fraction of the Equation-2 peak,
* ``C-to-M Intensity`` (Equation 3):
  ``(VALUBusy * VALUUtilization) / 100 / MemUnitBusy``, normalized to 100.

All percentage counters are in [0, 100].
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

#: The feature vocabulary of the sensitivity models (Table 2 plus
#: Equation 3), in :meth:`PerfCounters.feature_vector` order.
FEATURE_NAMES: Tuple[str, ...] = (
    "VALUUtilization",
    "VALUBusy",
    "MemUnitBusy",
    "MemUnitStalled",
    "WriteUnitStalled",
    "icActivity",
    "NormVGPR",
    "NormSGPR",
    "CtoMIntensity",
)


class _CounterFields(NamedTuple):
    """The fields of :class:`PerfCounters`, in declaration order."""

    #: % of active vector ALU threads in a wave (branch divergence proxy)
    valu_utilization: float
    #: % of total GPU time spent processing vector ALU instructions
    valu_busy: float
    #: % of total GPU time the memory fetch/read unit is active
    mem_unit_busy: float
    #: % of total GPU time the memory fetch/read unit is stalled
    mem_unit_stalled: float
    #: % of total GPU time the write/store unit is stalled
    write_unit_stalled: float
    #: off-chip interconnect utilization (Eq. 1), as a fraction in [0, 1]
    ic_activity: float
    #: VGPRs used, normalized by the 256-entry file (Table 2)
    norm_vgpr: float
    #: SGPRs used, normalized by the 102-entry budget (Table 2)
    norm_sgpr: float
    #: total vector ALU instructions executed (millions)
    valu_insts_millions: float
    #: total vector fetch instructions executed (millions)
    vfetch_insts_millions: float
    #: total vector write instructions executed (millions)
    vwrite_insts_millions: float


class PerfCounters(_CounterFields):
    """One kernel launch's performance-counter sample.

    Attributes mirror Table 2 plus the raw instruction counters used in
    Figure 14 (VALUInsts / VFetchInsts / VWriteInsts).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "PerfCounters":
        counters = super().__new__(cls, *args, **kwargs)
        for name in ("valu_utilization", "valu_busy", "mem_unit_busy",
                     "mem_unit_stalled", "write_unit_stalled"):
            value = getattr(counters, name)
            if not 0.0 <= value <= 100.0 + 1e-9:
                raise ValueError(f"counter {name}={value} outside [0, 100]")
        if not 0.0 <= counters.ic_activity <= 1.0 + 1e-9:
            raise ValueError(f"ic_activity={counters.ic_activity} outside [0, 1]")
        for name in ("norm_vgpr", "norm_sgpr"):
            value = getattr(counters, name)
            if not 0.0 <= value <= 1.0 + 1e-9:
                raise ValueError(f"counter {name}={value} outside [0, 1]")
        return counters

    def compute_to_memory_intensity(self) -> float:
        """C-to-M Intensity per Equation 3, normalized to 100.

        Ratio of time the vector ALU is busy processing *active* threads to
        the time the memory unit is busy. Saturated at 100 as the paper's
        normalization implies.
        """
        if self.mem_unit_busy <= 0:
            return 100.0
        raw = (self.valu_busy * self.valu_utilization / 100.0) / self.mem_unit_busy
        return min(100.0, raw * 100.0)

    def feature_vector(self) -> Tuple[float, ...]:
        """The sensitivity models' features, in :data:`FEATURE_NAMES` order.

        Percentage counters stay on their 0-100 scale; icActivity and the
        register counters are fractions of their maxima — exactly the
        "normalize all counter values to a percentage of its maximum"
        treatment of Section 4.2 (expressed as fractions of 1 or 100).

        The first eight fields are the first eight features, in order.
        """
        return self[:8] + (self.compute_to_memory_intensity(),)

    def as_feature_dict(self) -> dict:
        """:meth:`feature_vector` keyed by :data:`FEATURE_NAMES` (the
        mapping the sensitivity-training pipeline reads)."""
        return dict(zip(FEATURE_NAMES, self.feature_vector()))

    @staticmethod
    def feature_names() -> tuple:
        """Names of all features produced by :meth:`as_feature_dict`."""
        return FEATURE_NAMES
