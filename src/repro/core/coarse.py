"""The coarse-grain (CG) tuning block (Section 5.2).

"Within the CG block, all three tunables are concurrently adjusted in
SetCU-Freq-MemBW(). Sensitivity is computed for each tunable using
weighted linear equation per Table 3, and binned into three bins of high,
medium, and low. Each bin is associated with a specific empirically fixed
high, medium, or low value of the tunable."

The compute-throughput sensitivity bin drives both compute tunables (CU
count and CU frequency); the bandwidth sensitivity bin drives the memory
bus frequency. Bin targets are fractions of each tunable's range, snapped
to the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.gpu.config import ConfigSpace, HardwareConfig
from repro.perf.counters import PerfCounters
from repro.sensitivity.binning import Bin, SensitivityBins
from repro.sensitivity.predictor import SensitivityPredictor

#: Names of the three hardware tunables.
TUNABLES: Tuple[str, ...] = ("n_cu", "f_cu", "f_mem")

#: Empirically fixed per-bin range targets per tunable (Section 5.2: "Each
#: bin is associated with a specific empirically fixed high, medium, or low
#: value of the tunable"). Compute frequency is kept high even in its MED
#: bin — the paper finds scaling CU count and memory bandwidth far more
#: effective than scaling frequency (Section 7.3, insight 2).
DEFAULT_BIN_TARGETS: Mapping[str, Mapping[Bin, float]] = {
    "n_cu": {Bin.LOW: 0.0, Bin.MED: 0.75, Bin.HIGH: 1.0},
    "f_cu": {Bin.LOW: 0.3, Bin.MED: 0.9, Bin.HIGH: 1.0},
    "f_mem": {Bin.LOW: 0.0, Bin.MED: 0.5, Bin.HIGH: 1.0},
}


@dataclass(frozen=True)
class SensitivitySnapshot:
    """One monitoring sample's predicted sensitivities and bins."""

    compute: float
    bandwidth: float
    compute_bin: Bin
    bandwidth_bin: Bin

    @property
    def bins(self) -> Tuple[Bin, Bin]:
        """(compute bin, bandwidth bin) — CG reacts to changes in these."""
        return (self.compute_bin, self.bandwidth_bin)


class CoarseGrainTuner:
    """Computes sensitivity snapshots and CG target configurations.

    Args:
        space: the platform configuration grid.
        compute_predictor: the Table 3 compute-throughput model.
        bandwidth_predictor: the Table 3 bandwidth model.
        bins: binning thresholds and per-bin range targets.
        tunables: which tunables the CG block may move (the compute-DVFS-
            only variant restricts this to ``{"f_cu"}``).
    """

    def __init__(
        self,
        space: ConfigSpace,
        compute_predictor: SensitivityPredictor,
        bandwidth_predictor: SensitivityPredictor,
        bins: Optional[SensitivityBins] = None,
        tunables: FrozenSet[str] = frozenset(TUNABLES),
        bin_targets: Optional[Mapping[str, Mapping[Bin, float]]] = None,
    ):
        unknown = tunables - set(TUNABLES)
        if unknown:
            raise ValueError(f"unknown tunables: {sorted(unknown)}")
        self._space = space
        self._compute = compute_predictor
        self._bandwidth = bandwidth_predictor
        self._bins = bins or SensitivityBins()
        self._tunables = tunables
        self._targets = bin_targets or DEFAULT_BIN_TARGETS
        for tunable in TUNABLES:
            if tunable not in self._targets:
                raise ValueError(f"bin_targets missing tunable {tunable!r}")

    @property
    def bins(self) -> SensitivityBins:
        """The binning in use."""
        return self._bins

    def snapshot(self, counters: PerfCounters) -> SensitivitySnapshot:
        """Predict sensitivities from a counter sample and bin them."""
        return self.snapshot_from_vector(counters.feature_vector())

    def snapshot_from_vector(
            self, features: Sequence[float]) -> SensitivitySnapshot:
        """Predict sensitivities from a (possibly smoothed) feature
        vector in :data:`~repro.perf.counters.FEATURE_NAMES` order."""
        compute = self._compute.predict_vector(features)
        bandwidth = self._bandwidth.predict_vector(features)
        return SensitivitySnapshot(
            compute=compute,
            bandwidth=bandwidth,
            compute_bin=self._bins.classify(compute),
            bandwidth_bin=self._bins.classify(bandwidth),
        )

    def target_config(self, snapshot: SensitivitySnapshot,
                      current: HardwareConfig) -> HardwareConfig:
        """``SetCU_Freq_MemBW``: the CG jump for a sensitivity snapshot.

        The compute bin drives the two compute tunables, the bandwidth bin
        drives the memory bus; each tunable jumps to its own empirically
        fixed per-bin range fraction. Tunables outside this tuner's
        jurisdiction keep their current values.
        """
        jumped = self._space.fraction_to_grid(
            frac_cu=self._targets["n_cu"][snapshot.compute_bin],
            frac_f_cu=self._targets["f_cu"][snapshot.compute_bin],
            frac_f_mem=self._targets["f_mem"][snapshot.bandwidth_bin],
        )
        return current.replace(
            n_cu=jumped.n_cu if "n_cu" in self._tunables else None,
            f_cu=jumped.f_cu if "f_cu" in self._tunables else None,
            f_mem=jumped.f_mem if "f_mem" in self._tunables else None,
        )
