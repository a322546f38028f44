"""Online sensitivity predictors (Sections 4.3 and 5.2, Table 3).

A :class:`SensitivityPredictor` evaluates a linear model over a
performance-counter sample, exactly as Harmonia's monitoring block does at
every kernel boundary. Two provenances are supported:

* **paper coefficients** — the published Table 3 weights, shipped verbatim
  as :data:`PAPER_COMPUTE_PREDICTOR` and :data:`PAPER_BANDWIDTH_PREDICTOR`,
* **retrained coefficients** — :func:`train_predictors` reruns the
  Section 4 pipeline (sweep, average, regress) against *this* substrate,
  which is what the simulated evaluation uses (the paper's weights encode
  the real silicon's counter scales).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

from repro.errors import AnalysisError
from repro.perf.counters import FEATURE_NAMES, PerfCounters
from repro.platform.hd7970 import HardwarePlatform
from repro.sensitivity.dataset import SensitivityDataset, build_dataset
from repro.sensitivity.regression import LinearModel, fit_linear_model
from repro.workloads.application import Application

#: Feature subsets of the two Table 3 models.
BANDWIDTH_FEATURES: Tuple[str, ...] = (
    "VALUUtilization",
    "WriteUnitStalled",
    "MemUnitBusy",
    "MemUnitStalled",
    "icActivity",
    "NormVGPR",
    "NormSGPR",
)
COMPUTE_FEATURES: Tuple[str, ...] = (
    "CtoMIntensity",
    "NormVGPR",
    "NormSGPR",
)


@dataclass(frozen=True)
class SensitivityPredictor:
    """A linear sensitivity model over performance-counter features.

    Raises:
        AnalysisError: on construction, if the model names a feature
            outside :data:`~repro.perf.counters.FEATURE_NAMES`.
    """

    model: LinearModel
    #: which sensitivity this predicts ("compute" or "bandwidth")
    kind: str

    def __post_init__(self) -> None:
        # The model's (feature position, coefficient) terms over the
        # counter feature vector, resolved once.
        object.__setattr__(self, "_terms", self.model.terms(FEATURE_NAMES))

    def predict(self, counters: PerfCounters) -> float:
        """Predicted sensitivity for a counter sample, clamped to [0, 1].

        The clamp mirrors the paper's use: sensitivities feed the
        HIGH/MED/LOW bins, which saturate outside [0, 1] anyway.
        """
        return self.predict_vector(counters.feature_vector())

    def predict_vector(self, features: Sequence[float]) -> float:
        """Clamped prediction from a feature vector in
        :data:`~repro.perf.counters.FEATURE_NAMES` order (the monitoring
        block's smoothed features)."""
        raw = self.model.evaluate(self._terms, features)
        return max(0.0, min(1.0, raw))

    def predict_features(self, features: Mapping[str, float]) -> float:
        """Clamped prediction from a feature mapping (through
        :meth:`LinearModel.predict`)."""
        raw = self.model.predict(features)
        return max(0.0, min(1.0, raw))


def _paper_model(intercept: float, coefficients: Mapping[str, float],
                 correlation: float) -> LinearModel:
    return LinearModel(
        feature_names=tuple(coefficients),
        intercept=intercept,
        coefficients=dict(coefficients),
        correlation=correlation,
    )


#: Table 3, bandwidth-sensitivity column (correlation 0.96, Section 4.3).
PAPER_BANDWIDTH_PREDICTOR = SensitivityPredictor(
    model=_paper_model(
        intercept=-0.42,
        coefficients={
            "VALUUtilization": 0.003,
            "WriteUnitStalled": 0.011,
            "MemUnitBusy": 0.01,
            "MemUnitStalled": -0.004,
            "icActivity": 1.003,
            "NormVGPR": 1.158,
            "NormSGPR": -0.731,
        },
        correlation=0.96,
    ),
    kind="bandwidth",
)

#: Table 3, compute-sensitivity column (correlation 0.91, Section 4.3).
PAPER_COMPUTE_PREDICTOR = SensitivityPredictor(
    model=_paper_model(
        intercept=0.06,
        coefficients={
            "CtoMIntensity": 0.007,
            "NormVGPR": 0.452,
            "NormSGPR": 0.024,
        },
        correlation=0.91,
    ),
    kind="compute",
)


@dataclass(frozen=True)
class TrainingReport:
    """Everything the Section 4 pipeline produced."""

    dataset: SensitivityDataset
    compute: SensitivityPredictor
    bandwidth: SensitivityPredictor

    @property
    def compute_correlation(self) -> float:
        """Fit correlation of the compute model (paper: 0.91)."""
        return self.compute.model.correlation

    @property
    def bandwidth_correlation(self) -> float:
        """Fit correlation of the bandwidth model (paper: 0.96)."""
        return self.bandwidth.model.correlation

    def prediction_errors(self) -> Tuple[float, float]:
        """(bandwidth, compute) mean absolute prediction error over the
        training kernels — the Section 7.2 numbers (3.03% / 5.71%)."""
        bw_err = 0.0
        comp_err = 0.0
        n = len(self.dataset)
        if n == 0:
            raise AnalysisError("empty dataset")
        for row, bw_t, comp_t in zip(self.dataset.rows,
                                     self.dataset.bandwidth_targets,
                                     self.dataset.compute_targets):
            bw_p = self.bandwidth.model.predict(row)
            comp_p = self.compute.model.predict(row)
            bw_err += abs(bw_p - max(0.0, min(1.0, bw_t)))
            comp_err += abs(comp_p - max(0.0, min(1.0, comp_t)))
        return bw_err / n, comp_err / n


def train_predictors(
    platform: HardwarePlatform,
    applications: Sequence[Application],
    config_stride: int = 16,
) -> TrainingReport:
    """Run the full Section 4 pipeline against the given workloads.

    Args:
        platform: the test bed to measure on.
        applications: the training applications.
        config_stride: configuration subsampling for counter averaging.

    Returns:
        A :class:`TrainingReport` with the dataset and both fitted
        predictors (the Table 3 feature subsets, refit to this substrate).
    """
    dataset = build_dataset(platform, applications,
                            config_stride=config_stride)
    bw_model = fit_linear_model(
        dataset.rows, dataset.bandwidth_targets, BANDWIDTH_FEATURES
    )
    comp_model = fit_linear_model(
        dataset.rows, dataset.compute_targets, COMPUTE_FEATURES
    )
    return TrainingReport(
        dataset=dataset,
        compute=SensitivityPredictor(model=comp_model, kind="compute"),
        bandwidth=SensitivityPredictor(model=bw_model, kind="bandwidth"),
    )
