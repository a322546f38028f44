"""Vectorized numeric stage of the Harmonia controller, across lanes.

The scalar controller (:class:`~repro.core.harmonia.HarmoniaPolicy`) splits
each observation into a *numeric stage* — phase detection, the feature
EWMA, the Table 3 sensitivity predictions and binning, the utilization-rate
feedback — followed by the branchy *transition stage*
(``_apply_observation``: CG jumps, phase recalls, FG hill-climb steps).

This module vectorizes the numeric stage over **lanes**: independent
controller sessions (one per app × seed × policy-variant) advanced in
lockstep by :class:`~repro.runtime.session.BatchSessionRunner`. Lane state
lives in struct-of-arrays form — one ``(lanes, features)`` EWMA matrix per
kernel — and every tick folds all lanes' counters in with a handful of
array expressions instead of per-lane dict walks.

**Bitwise contract.** Every array expression replicates the scalar
left-to-right IEEE operation order element-wise:

* the EWMA is ``(1 - alpha) * state + alpha * value`` per feature;
* the linear predictors accumulate ``intercept + c0*f0 + c1*f1 + ...``
  sequentially in each model's ``feature_names`` order (never a dot
  product, whose pairwise reduction could differ in the last ULP);
* C-to-M intensity follows Equation 3's exact guard and saturation order;
* clamps and bin edges use the same comparisons as the scalar code.

The transition stage is *not* vectorized: each lane funnels its numeric
observations through the very same ``_apply_observation`` the scalar path
runs, so every branch decision is shared verbatim. That hybrid is what
makes the batched engine bitwise-identical to the scalar loop — the
differential suite in ``tests/test_session_equivalence.py`` holds it to
exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.harmonia import HarmoniaPolicy
from repro.core.coarse import SensitivitySnapshot
from repro.core.monitor import PhaseDetector
from repro.perf.batch import BatchRunResult
from repro.perf.counters import PerfCounters
from repro.sensitivity.binning import Bin

#: canonical feature column order of the lane-state matrices
FEATURE_NAMES: Tuple[str, ...] = PerfCounters.feature_names()
_COLUMN: Dict[str, int] = {name: j for j, name in enumerate(FEATURE_NAMES)}
_BIN_BY_CODE: Tuple[Bin, ...] = (Bin.LOW, Bin.MED, Bin.HIGH)


@dataclass(frozen=True)
class SurfaceNumerics:
    """Per-surface precomputes serving the vectorized numeric stage.

    Derived once per clean grid surface (so shared across every lane,
    seed and tick that launches the spec) and indexed by grid position:

    Attributes:
        features: ``(configs, features)`` raw feature matrix — row ``i``
            is exactly ``result_at(i).counters.as_feature_dict()`` in
            :data:`FEATURE_NAMES` order.
        feedback: per-config utilization rate
            (:func:`~repro.core.fine.utilization_rate`) of a launch
            served at that config.
        identity: the config-invariant workload-identity tuple
            (:meth:`~repro.core.monitor.PhaseDetector.identity_of`) —
            one value for the whole surface by construction.
    """

    features: np.ndarray
    feedback: np.ndarray
    identity: tuple


def surface_numerics(surface: BatchRunResult) -> SurfaceNumerics:
    """Build the :class:`SurfaceNumerics` of one clean grid surface.

    Every element replicates the scalar computation bitwise: the same
    multiplications and divisions, in the same order, on the same float64
    values the scalar counters carry.
    """
    counters = surface.counters
    n = len(surface.configs)
    valu_busy = np.asarray(counters.valu_busy, dtype=np.float64)
    mem_busy = np.asarray(counters.mem_unit_busy, dtype=np.float64)

    features = np.empty((n, len(FEATURE_NAMES)), dtype=np.float64)
    features[:, _COLUMN["VALUUtilization"]] = counters.valu_utilization
    features[:, _COLUMN["VALUBusy"]] = valu_busy
    features[:, _COLUMN["MemUnitBusy"]] = mem_busy
    features[:, _COLUMN["MemUnitStalled"]] = counters.mem_unit_stalled
    features[:, _COLUMN["WriteUnitStalled"]] = counters.write_unit_stalled
    features[:, _COLUMN["icActivity"]] = counters.ic_activity
    features[:, _COLUMN["NormVGPR"]] = counters.norm_vgpr
    features[:, _COLUMN["NormSGPR"]] = counters.norm_sgpr
    # Equation 3, in the scalar's exact order:
    #   raw = (valu_busy * valu_utilization / 100.0) / mem_unit_busy
    #   ctom = min(100.0, raw * 100.0), guarded to 100 when mem is idle.
    idle = mem_busy <= 0
    raw = valu_busy * counters.valu_utilization / 100.0
    raw = raw / np.where(idle, 1.0, mem_busy)
    ctom = np.minimum(100.0, raw * 100.0)
    features[:, _COLUMN["CtoMIntensity"]] = np.where(idle, 100.0, ctom)

    # utilization_rate: valu_busy / 100.0 * n_cu * f_cu, left to right.
    n_cu = np.array([c.n_cu for c in surface.configs], dtype=np.float64)
    f_cu = np.array([c.f_cu for c in surface.configs], dtype=np.float64)
    feedback = valu_busy / 100.0 * n_cu * f_cu

    identity = PhaseDetector.identity_of(counters.at(0))
    return SurfaceNumerics(
        features=features, feedback=feedback, identity=identity
    )


def fast_path_eligible(policy) -> bool:
    """True when a policy can ride the vectorized numeric stage.

    Requires a :class:`HarmoniaPolicy` (or a subclass that overrides
    neither ``observe`` nor ``config_for`` — the Section 7.2 variants
    qualify), traced or not: the numeric stage emits nothing, and every
    decision event comes from the shared transition stage. Anything else
    steps through its own ``observe`` per lane (still batched at the
    platform layer, just not at the numeric stage).
    """
    return (
        isinstance(policy, HarmoniaPolicy)
        and type(policy).observe is HarmoniaPolicy.observe
        and type(policy).config_for is HarmoniaPolicy.config_for
    )


def group_signature(policy: HarmoniaPolicy) -> tuple:
    """Lockstep-compatibility key of one fast-path policy.

    Lanes sharing a :class:`LaneGroupObserver` must agree on whatever
    shapes the *sequence* of vectorized operations: the predictors'
    feature accumulation order and the phase threshold (which decides
    the shared per-tick reset mask). Per-lane *values* — EWMA weight,
    model coefficients, bin edges — may differ freely; they are carried
    as lane arrays.
    """
    cg = policy.coarse_tuner
    return (
        tuple(cg.compute_predictor.model.feature_names),
        tuple(cg.bandwidth_predictor.model.feature_names),
        policy.phase_threshold,
    )


class LaneGroupObserver:
    """The struct-of-arrays numeric stage for one lockstep lane group.

    Holds, per kernel, an ``(lanes, features)`` EWMA matrix plus the
    per-lane model parameters, and turns each tick's gathered grid
    indices into per-lane sensitivity snapshots and feedback values —
    the exact inputs ``HarmoniaPolicy._apply_observation`` consumes.

    All lanes must share one :func:`group_signature`; the session
    runner groups them accordingly.
    """

    def __init__(self, policies: Sequence[HarmoniaPolicy]):
        if not policies:
            raise ValueError("a lane group needs at least one policy")
        self._lanes = len(policies)
        alphas = np.array([p.monitor.alpha for p in policies],
                          dtype=np.float64)
        self._alpha = alphas.reshape(-1, 1)
        self._one_minus_alpha = (1.0 - alphas).reshape(-1, 1)

        def model_terms(models):
            intercepts = np.array([m.intercept for m in models],
                                  dtype=np.float64)
            names = models[0].feature_names
            terms = [
                (
                    _COLUMN[name],
                    np.array([m.coefficients[name] for m in models],
                             dtype=np.float64),
                )
                for name in names
            ]
            return intercepts, terms

        self._c_intercept, self._c_terms = model_terms(
            [p.coarse_tuner.compute_predictor.model for p in policies]
        )
        self._b_intercept, self._b_terms = model_terms(
            [p.coarse_tuner.bandwidth_predictor.model for p in policies]
        )
        self._low = np.array(
            [p.coarse_tuner.bins.low_edge for p in policies],
            dtype=np.float64,
        )
        self._high = np.array(
            [p.coarse_tuner.bins.high_edge for p in policies],
            dtype=np.float64,
        )
        #: kernel name -> (lanes, features) running average
        self._ewma: Dict[str, np.ndarray] = {}

    @property
    def lanes(self) -> int:
        """Number of lanes advanced by this observer."""
        return self._lanes

    def _predict(self, intercepts: np.ndarray, terms,
                 state: np.ndarray) -> np.ndarray:
        # Sequential accumulation in feature_names order — the scalar
        # LinearModel.predict loop, vectorized over the lane axis only.
        total = intercepts.copy()
        for column, coefficients in terms:
            total = total + coefficients * state[:, column]
        # SensitivityPredictor.predict_features: max(0.0, min(1.0, raw)).
        return np.maximum(0.0, np.minimum(1.0, total))

    def tick(self, kernel_name: str, numerics: SurfaceNumerics,
             grid_indices: np.ndarray, phase_changed: bool):
        """Fold one lockstep launch into every lane's numeric state.

        Args:
            kernel_name: the kernel all lanes just launched.
            numerics: the launch surface's precomputes.
            grid_indices: per-lane grid position of the launched config.
            phase_changed: the (lane-uniform) phase-change flag of this
                launch — precomputed from the schedule, since the phase
                identity is config-invariant.

        Returns:
            ``(snapshots, feedback)``: per-lane
            :class:`~repro.core.coarse.SensitivitySnapshot` list and
            per-lane utilization-rate feedback list.
        """
        raw = numerics.features[grid_indices]          # (lanes, features)
        state = self._ewma.get(kernel_name)
        if state is None or phase_changed:
            # First observation of the kernel/phase: the average restarts
            # from the raw sample (MonitoringBlock's dict(features)).
            state = raw
        else:
            state = self._one_minus_alpha * state + self._alpha * raw
        self._ewma[kernel_name] = state

        compute = self._predict(self._c_intercept, self._c_terms, state)
        bandwidth = self._predict(self._b_intercept, self._b_terms, state)
        # SensitivityBins.classify: < low_edge LOW, > high_edge HIGH.
        c_codes = np.where(compute < self._low, 0,
                           np.where(compute > self._high, 2, 1))
        b_codes = np.where(bandwidth < self._low, 0,
                           np.where(bandwidth > self._high, 2, 1))
        feedback = numerics.feedback[grid_indices]

        # One C-level conversion per array (`.tolist()`), then plain-float
        # construction: per-lane numpy scalar extraction dominates the
        # tick at realistic lane counts. The frozen-dataclass __init__
        # pays object.__setattr__ per field, so the snapshot is built by
        # seeding the instance dict directly — value-equal to the scalar
        # constructor's output.
        new = SensitivitySnapshot.__new__
        snapshots = []
        append = snapshots.append
        for values in zip(compute.tolist(), bandwidth.tolist(),
                          c_codes.tolist(), b_codes.tolist()):
            snap = new(SensitivitySnapshot)
            snap.__dict__.update(
                compute=values[0], bandwidth=values[1],
                compute_bin=_BIN_BY_CODE[values[2]],
                bandwidth_bin=_BIN_BY_CODE[values[3]],
            )
            append(snap)
        return snapshots, feedback.tolist()

    def export_lane(self, lane: int) -> Dict[str, Dict[str, float]]:
        """One lane's final per-kernel feature averages, as the scalar
        :class:`~repro.core.monitor.MonitoringBlock` dicts (for the
        policy-state hand-back)."""
        return {
            kernel: {
                name: float(state[lane, column])
                for name, column in _COLUMN.items()
            }
            for kernel, state in self._ewma.items()
        }


@dataclass(frozen=True)
class SchedulePlan:
    """Precomputed numeric observations of one application schedule.

    The phase identity is a pure function of the launched spec (its
    counters never depend on the chosen configuration), so the whole
    phase-change sequence of a run is known before stepping any lane —
    the same flags for every lane, seed and policy sharing a threshold.

    Attributes:
        flags: per-launch phase-change booleans.
        identities: per-launch identity tuples.
        last_identity: final identity per kernel (the value the scalar
            :class:`~repro.core.monitor.PhaseDetector` would retain).
    """

    flags: Tuple[bool, ...]
    identities: Tuple[tuple, ...]
    last_identity: Dict[str, tuple]


def plan_schedule(steps: Sequence[Tuple[int, str, SurfaceNumerics]],
                  threshold: float) -> SchedulePlan:
    """Replay the phase detector over a known launch schedule.

    Args:
        steps: per-launch ``(iteration, kernel_name, numerics)`` rows in
            execution order.
        threshold: the lane group's phase threshold.
    """
    flags: List[bool] = []
    identities: List[tuple] = []
    previous: Dict[str, tuple] = {}
    for _iteration, kernel_name, numerics in steps:
        identity = numerics.identity
        before = previous.get(kernel_name)
        previous[kernel_name] = identity
        if before is None:
            changed = True
        else:
            changed = PhaseDetector.identity_differs(
                before, identity, threshold
            )
        flags.append(changed)
        identities.append(identity)
    return SchedulePlan(
        flags=tuple(flags),
        identities=tuple(identities),
        last_identity=previous,
    )
