"""Policy variants used in the paper's analysis.

* **CG-only** (Figures 10-13): Harmonia with the fine-grain loop disabled.
  Achieves comparable energy savings but loses up to 27% performance on
  Streamcluster for lack of feedback (Section 7.1).
* **Compute-DVFS-only** (Section 7.2): scaling only compute frequency and
  voltage — what "modern systems rely primarily on" — which achieves a
  mere 3% ED² gain with 1% performance loss, motivating coordinated
  CU-count and memory-bandwidth scaling.
"""

from __future__ import annotations

from typing import Optional

from repro.core.harmonia import HarmoniaPolicy
from repro.gpu.config import ConfigSpace
from repro.sensitivity.binning import SensitivityBins
from repro.sensitivity.predictor import SensitivityPredictor


def make_cg_only_policy(
    space: ConfigSpace,
    compute_predictor: SensitivityPredictor,
    bandwidth_predictor: SensitivityPredictor,
    bins: Optional[SensitivityBins] = None,
) -> HarmoniaPolicy:
    """Harmonia with the FG loop disabled (the "CG" bars)."""
    return HarmoniaPolicy(
        space=space,
        compute_predictor=compute_predictor,
        bandwidth_predictor=bandwidth_predictor,
        bins=bins,
        enable_fg=False,
        policy_name="cg-only",
    )


class ComputeDvfsOnlyPolicy(HarmoniaPolicy):
    """Frequency/voltage scaling of the compute domain only.

    CU count and memory bus frequency stay at their maxima; only the
    compute frequency is tuned (CG jump from the compute-sensitivity bin,
    FG refinement on the utilization gradient).
    """

    def __init__(
        self,
        space: ConfigSpace,
        compute_predictor: SensitivityPredictor,
        bandwidth_predictor: SensitivityPredictor,
        bins: Optional[SensitivityBins] = None,
    ):
        super().__init__(
            space=space,
            compute_predictor=compute_predictor,
            bandwidth_predictor=bandwidth_predictor,
            bins=bins,
            enable_fg=True,
            tunables=("f_cu",),
            policy_name="dvfs-only",
        )
