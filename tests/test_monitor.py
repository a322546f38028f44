"""Unit tests for :mod:`repro.core.monitor` (Section 5.1's monitoring)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coarse import CoarseGrainTuner
from repro.errors import AnalysisError, PolicyError
from repro.core.monitor import MonitoringBlock, PhaseDetector
from repro.gpu.architecture import HD7970
from repro.gpu.config import ConfigSpace
from repro.perf.counters import FEATURE_NAMES, PerfCounters
from repro.sensitivity.binning import PAPER_BINS
from repro.sensitivity.predictor import (
    BANDWIDTH_FEATURES, COMPUTE_FEATURES, PAPER_BANDWIDTH_PREDICTOR,
    PAPER_COMPUTE_PREDICTOR, SensitivityPredictor)
from repro.sensitivity.regression import LinearModel


def counters(valu_busy=50.0, valu_insts=100.0, utilization=90.0, vgpr=0.25):
    return PerfCounters(
        valu_utilization=utilization,
        valu_busy=valu_busy,
        mem_unit_busy=40.0,
        mem_unit_stalled=5.0,
        write_unit_stalled=2.0,
        ic_activity=0.3,
        norm_vgpr=vgpr,
        norm_sgpr=0.2,
        valu_insts_millions=valu_insts,
        vfetch_insts_millions=10.0,
        vwrite_insts_millions=5.0,
    )


class TestMonitoringBlock:
    def test_first_sample_passes_through(self):
        monitor = MonitoringBlock(alpha=0.4)
        features = monitor.update("k", counters(valu_busy=80.0))
        assert features["VALUBusy"] == pytest.approx(80.0)

    def test_ewma_smooths_jumps(self):
        monitor = MonitoringBlock(alpha=0.4)
        monitor.update("k", counters(valu_busy=100.0))
        smoothed = monitor.update("k", counters(valu_busy=0.0))
        assert smoothed["VALUBusy"] == pytest.approx(60.0)

    def test_converges_to_stable_value(self):
        monitor = MonitoringBlock(alpha=0.4)
        monitor.update("k", counters(valu_busy=100.0))
        for _ in range(30):
            smoothed = monitor.update("k", counters(valu_busy=20.0))
        assert smoothed["VALUBusy"] == pytest.approx(20.0, abs=0.1)

    def test_kernels_tracked_independently(self):
        monitor = MonitoringBlock(alpha=0.4)
        monitor.update("a", counters(valu_busy=100.0))
        monitor.update("b", counters(valu_busy=0.0))
        assert monitor.current("a")["VALUBusy"] == pytest.approx(100.0)
        assert monitor.current("b")["VALUBusy"] == pytest.approx(0.0)

    def test_reset_kernel(self):
        monitor = MonitoringBlock(alpha=0.4)
        monitor.update("k", counters(valu_busy=100.0))
        monitor.reset_kernel("k")
        assert monitor.current("k") is None
        fresh = monitor.update("k", counters(valu_busy=10.0))
        assert fresh["VALUBusy"] == pytest.approx(10.0)

    def test_reset_all(self):
        monitor = MonitoringBlock()
        monitor.update("k", counters())
        monitor.reset()
        assert monitor.current("k") is None

    def test_alpha_one_disables_smoothing(self):
        monitor = MonitoringBlock(alpha=1.0)
        monitor.update("k", counters(valu_busy=100.0))
        smoothed = monitor.update("k", counters(valu_busy=0.0))
        assert smoothed["VALUBusy"] == pytest.approx(0.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(PolicyError):
            MonitoringBlock(alpha=0.0)
        with pytest.raises(PolicyError):
            MonitoringBlock(alpha=1.5)


class TestPhaseDetector:
    def test_first_observation_is_a_phase_change(self):
        detector = PhaseDetector()
        assert detector.phase_changed("k", counters())

    def test_identical_counters_are_stable(self):
        detector = PhaseDetector()
        detector.phase_changed("k", counters())
        assert not detector.phase_changed("k", counters())

    def test_instruction_swing_triggers(self):
        # Figure 14: Graph500's instruction totals swing iteration to
        # iteration — exactly what the detector watches.
        detector = PhaseDetector(threshold=0.10)
        detector.phase_changed("k", counters(valu_insts=100.0))
        assert detector.phase_changed("k", counters(valu_insts=150.0))

    def test_small_drift_below_threshold_is_stable(self):
        detector = PhaseDetector(threshold=0.10)
        detector.phase_changed("k", counters(valu_insts=100.0))
        assert not detector.phase_changed("k", counters(valu_insts=105.0))

    def test_divergence_change_triggers(self):
        detector = PhaseDetector()
        detector.phase_changed("k", counters(utilization=90.0))
        assert detector.phase_changed("k", counters(utilization=50.0))

    def test_busy_fraction_change_does_not_trigger(self):
        # VALUBusy moves with the hardware configuration; the detector
        # must ignore it (the isolation guarantee of Algorithm 1).
        detector = PhaseDetector()
        detector.phase_changed("k", counters(valu_busy=100.0))
        assert not detector.phase_changed("k", counters(valu_busy=10.0))

    def test_kernels_independent(self):
        detector = PhaseDetector()
        detector.phase_changed("a", counters(valu_insts=100.0))
        # First observation of "b" is a phase change regardless of "a".
        assert detector.phase_changed("b", counters(valu_insts=100.0))

    def test_reset(self):
        detector = PhaseDetector()
        detector.phase_changed("k", counters())
        detector.reset()
        assert detector.phase_changed("k", counters())

    def test_rejects_bad_threshold(self):
        with pytest.raises(PolicyError):
            PhaseDetector(threshold=0.0)

    def test_identity_vector_is_scale_invariant(self):
        # Doubling the launched work at the same per-item mix yields the
        # same identity: sensitivities are intensive properties.
        small = PhaseDetector.identity_of(counters(valu_insts=100.0))
        large = PhaseDetector.identity_of(PerfCounters(
            valu_utilization=90.0, valu_busy=50.0, mem_unit_busy=40.0,
            mem_unit_stalled=5.0, write_unit_stalled=2.0, ic_activity=0.3,
            norm_vgpr=0.25, norm_sgpr=0.2,
            valu_insts_millions=200.0, vfetch_insts_millions=20.0,
            vwrite_insts_millions=10.0,
        ))
        assert small == pytest.approx(large)

    def test_identity_vector_contents(self):
        identity = PhaseDetector.identity_of(counters(
            valu_insts=100.0, utilization=88.0, vgpr=0.5
        ))
        assert identity[0] == pytest.approx(10.0 / 100.0)   # fetch/valu
        assert identity[1] == pytest.approx(5.0 / 100.0)    # write/valu
        assert identity[2] == pytest.approx(88.0)
        assert identity[3] == pytest.approx(0.5)


# --- the vector numeric stage against its mapping definition ---------------------


def _percent():
    return st.floats(0.0, 100.0)


def _fraction():
    return st.floats(0.0, 1.0)


_COUNTERS = st.builds(
    PerfCounters,
    valu_utilization=_percent(),
    valu_busy=_percent(),
    mem_unit_busy=_percent(),
    mem_unit_stalled=_percent(),
    write_unit_stalled=_percent(),
    ic_activity=_fraction(),
    norm_vgpr=_fraction(),
    norm_sgpr=_fraction(),
    valu_insts_millions=st.floats(0.0, 1e4),
    vfetch_insts_millions=st.floats(0.0, 1e4),
    vwrite_insts_millions=st.floats(0.0, 1e4),
)

_COEFFICIENT = st.floats(-2.0, 2.0, allow_subnormal=False)


@st.composite
def _models(draw, names):
    """A linear model over a drawn, reordered subset of ``names``."""
    subset = draw(st.lists(st.sampled_from(names), min_size=1,
                           max_size=len(names), unique=True))
    return LinearModel(
        feature_names=tuple(subset),
        intercept=draw(_COEFFICIENT),
        coefficients={name: draw(_COEFFICIENT) for name in subset},
        correlation=0.0,
    )


#: (kernel, reset the kernel's average first, counter sample) launches.
_LAUNCHES = st.lists(
    st.tuples(st.sampled_from(("a", "b", "c")), st.booleans(), _COUNTERS),
    min_size=1, max_size=40)


def _bits(value: float) -> str:
    return float(value).hex()


def _definition(model: LinearModel, features) -> float:
    """The model on a feature mapping, name by name, left to right."""
    total = model.intercept
    for name in model.feature_names:
        total += model.coefficients[name] * features[name]
    return total


class TestVectorStageMatchesMappingDefinition:
    """The monitor's vector EWMA and the predictors' precomputed terms
    give, bit for bit, what the mapping definition gives: an EWMA over
    ``as_feature_dict()``, then ``LinearModel.predict`` on that mapping
    and the clamp."""

    @settings(max_examples=80, deadline=None)
    @given(launches=_LAUNCHES, alpha=st.sampled_from((0.4, 1.0, 0.25, 0.7)),
           compute=st.one_of(st.just(PAPER_COMPUTE_PREDICTOR.model),
                             _models(COMPUTE_FEATURES),
                             _models(FEATURE_NAMES)),
           bandwidth=st.one_of(st.just(PAPER_BANDWIDTH_PREDICTOR.model),
                               _models(BANDWIDTH_FEATURES),
                               _models(FEATURE_NAMES)))
    def test_snapshots_are_bitwise(self, launches, alpha, compute,
                                   bandwidth):
        monitor = MonitoringBlock(alpha=alpha)
        tuner = CoarseGrainTuner(
            ConfigSpace(HD7970),
            SensitivityPredictor(model=compute, kind="compute"),
            SensitivityPredictor(model=bandwidth, kind="bandwidth"))
        reference = {}
        for kernel, reset, sample in launches:
            if reset:
                monitor.reset_kernel(kernel)
                reference.pop(kernel, None)
            features = sample.as_feature_dict()
            state = reference.get(kernel)
            if state is None:
                state = dict(features)
            else:
                for name, value in features.items():
                    state[name] = (1 - alpha) * state[name] + alpha * value
            reference[kernel] = state

            vector = monitor.update_vector(kernel, sample)
            assert [_bits(v) for v in vector] == [
                _bits(state[name]) for name in FEATURE_NAMES]
            assert monitor.current(kernel) == state
            for model in (compute, bandwidth):
                # Unclamped, so no saturation hides a changed sum.
                raw = _bits(_definition(model, state))
                assert _bits(model.predict(state)) == raw
                assert _bits(model.evaluate(model.terms(FEATURE_NAMES),
                                            vector)) == raw
            snapshot = tuner.snapshot_from_vector(vector)
            want_compute = max(0.0, min(1.0, compute.predict(state)))
            want_bandwidth = max(0.0, min(1.0, bandwidth.predict(state)))
            assert _bits(snapshot.compute) == _bits(want_compute)
            assert _bits(snapshot.bandwidth) == _bits(want_bandwidth)
            assert snapshot.compute_bin is PAPER_BINS.classify(want_compute)
            assert (snapshot.bandwidth_bin
                    is PAPER_BINS.classify(want_bandwidth))

    @settings(max_examples=40, deadline=None)
    @given(kernel_launches=_LAUNCHES)
    def test_mapping_update_is_the_vector_by_name(self, kernel_launches):
        by_vector, by_mapping = MonitoringBlock(), MonitoringBlock()
        for kernel, _, sample in kernel_launches:
            vector = by_vector.update_vector(kernel, sample)
            assert by_mapping.update(kernel, sample) == dict(
                zip(FEATURE_NAMES, vector))

    def test_predictor_rejects_an_unknown_feature_when_built(self):
        model = LinearModel(feature_names=("VALUBusy", "Occupancy"),
                            intercept=0.0,
                            coefficients={"VALUBusy": 1.0, "Occupancy": 1.0},
                            correlation=0.0)
        with pytest.raises(AnalysisError, match="Occupancy"):
            SensitivityPredictor(model=model, kind="compute")
