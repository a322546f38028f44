"""The record rule: named tuples on the compute path, dataclasses only
where a store key needs them.

Every value record under ``src/repro`` is a named tuple, every mutable
state holder a plain ``__slots__`` class. Two groups stay frozen
dataclasses: the seven types a store key can hold (``canonical_encode``
renders dataclasses and plain tuples only, and ``KernelSpec`` and
``HardwareConfig`` cache their hashes on the instance) and the
``telemetry.events`` hierarchy, whose subclasses add fields. Creating a
dataclass compiles its generated methods each time the class is made,
which no bytecode cache removes.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.core.coarse import SensitivitySnapshot
from repro.core.fine import FineGrainState, _Step
from repro.core.harmonia import _KernelControlState
from repro.core.policy import KernelHistory, LaunchContext
from repro.errors import (AnalysisError, CalibrationError, PolicyError,
                          WorkloadError)
from repro.gpu.config import HardwareConfig
from repro.gpu.occupancy import OccupancyLimits
from repro.perf.counters import PerfCounters
from repro.perf.result import KernelRunResult
from repro.platform.calibration import default_calibration
from repro.platform.hd7970 import make_hd7970_platform
from repro.platform.store import canonical_encode
from repro.power.board import BoardPowerModel
from repro.power.daq import DaqTrace
from repro.power.thermal import ThermalModel
from repro.runtime.trace import LaunchRecord
from repro.sensitivity.binning import Bin, SensitivityBins
from repro.sensitivity.dataset import SensitivityDataset
from repro.sensitivity.predictor import (PAPER_COMPUTE_PREDICTOR,
                                         SensitivityPredictor)
from repro.sensitivity.regression import LinearModel
from repro.telemetry.report import KernelActionMix
from repro.telemetry.spans import SpanRecord
from repro.telemetry.spantrace import SpanNode
from repro.workloads.kernel import (ConstantSchedule, CyclicSchedule,
                                    TableSchedule, WorkloadKernel)
from repro.workloads.registry import get_application, get_kernel

#: The only dataclasses a compute path may create: the types a store key
#: can hold (``tests/test_cli.py`` checks a cold run and a Monte Carlo run).
STORE_KEY_TYPES = {
    "repro.perf.kernelspec.KernelSpec", "repro.gpu.config.HardwareConfig",
    "repro.platform.calibration.PlatformCalibration",
    "repro.gpu.architecture.GpuArchitecture", "repro.gpu.dvfs.GpuDvfsTable",
    "repro.gpu.dvfs.DvfsState", "repro.memory.gddr5.Gddr5Timing",
}
EVENT_TYPES = {
    f"repro.telemetry.events.{name}" for name in (
        "TelemetryEvent", "KernelLaunch", "PhaseChange", "CGJump", "FGStep",
        "FGRevert", "FGConverged", "ConfigApplied")
}


def _repro_classes():
    """Every class defined in a ``repro`` module."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == info.name:
                yield value


def _qualified(cls) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _counters(**changes) -> PerfCounters:
    fields = dict(valu_utilization=90.0, valu_busy=50.0, mem_unit_busy=40.0,
                  mem_unit_stalled=5.0, write_unit_stalled=1.0,
                  ic_activity=0.4, norm_vgpr=0.25, norm_sgpr=0.2,
                  valu_insts_millions=10.0, vfetch_insts_millions=2.0,
                  vwrite_insts_millions=1.0)
    return PerfCounters(**{**fields, **changes})


def _board() -> BoardPowerModel:
    calibration = default_calibration()
    return BoardPowerModel(gpu=calibration.gpu_power_model(),
                           memory=calibration.memory_power_model(),
                           other_power=14.0)


def _bad_predictor_model() -> LinearModel:
    return LinearModel(feature_names=("Nope",), intercept=0.0,
                       coefficients={"Nope": 1.0}, correlation=1.0)


#: (id, a valid record, field changes that break it, the error type and
#: message): every record whose construction checks its fields.
VALIDATING = [
    ("clock-domains", lambda: default_calibration().clock_domain_model(),
     {"crossing_bytes_per_cycle": 0.0}, CalibrationError,
     "crossing width must be positive"),
    ("memory-power", lambda: default_calibration().memory_power_model(),
     {"bus_voltage_min": 2.0}, CalibrationError,
     "bus_voltage_min must not exceed max"),
    ("gpu-power", lambda: default_calibration().gpu_power_model(),
     {"min_activity": 1.5}, CalibrationError,
     r"min_activity must be in \[0, 1\]"),
    ("board-power", _board, {"other_power": -1.0}, CalibrationError,
     "other_power must be non-negative"),
    ("daq-trace", lambda: DaqTrace(sample_period=0.01, samples=(1.0, 2.0)),
     {"sample_period": 0.0}, CalibrationError,
     "sample_period must be positive"),
    ("thermal", lambda: ThermalModel(resistance=0.2, capacitance=40.0),
     {"t_max": 30.0}, CalibrationError, "t_max must exceed ambient"),
    ("counters", _counters, {"valu_busy": 101.0}, ValueError,
     r"counter valu_busy=101.0 outside \[0, 100\]"),
    ("bins", SensitivityBins, {"low_edge": 0.9}, PolicyError,
     "bin edges must satisfy 0 <= low <= high"),
    ("dataset", lambda: SensitivityDataset(
        rows=({"NormVGPR": 0.5},), compute_targets=(0.5,),
        bandwidth_targets=(0.5,), kernel_names=("k",)),
     {"kernel_names": ()}, AnalysisError,
     "dataset columns have mismatched lengths"),
    ("predictor", lambda: PAPER_COMPUTE_PREDICTOR,
     {"model": _bad_predictor_model()}, AnalysisError,
     "model feature 'Nope' is not one of"),
    ("application", lambda: get_application("Graph500"),
     {"kernels": ()}, WorkloadError,
     "application 'Graph500' has no kernels"),
    ("table-schedule", lambda: TableSchedule(rows=({"l2_hit_rate": 0.5},)),
     {"rows": ()}, WorkloadError, "TableSchedule needs at least one row"),
    ("cyclic-schedule", lambda: CyclicSchedule(work_factors=(1.0, 2.0)),
     {"work_factors": (1.0, 0.0)}, WorkloadError,
     "work factors must be positive"),
]


class TestTheRule:
    def test_only_store_key_types_and_events_are_dataclasses(self):
        dataclasses = {_qualified(cls) for cls in _repro_classes()
                       if "__dataclass_fields__" in vars(cls)}
        assert dataclasses == STORE_KEY_TYPES | EVENT_TYPES

    def test_named_tuple_records_keep_no_instance_dict(self):
        """Every class between a record and ``tuple`` declares empty
        ``__slots__``; the predictor alone keeps its resolved terms."""
        records = [cls for cls in _repro_classes()
                   if issubclass(cls, tuple) and hasattr(cls, "_fields")]
        assert len(records) > 80
        for cls in records:
            if cls is SensitivityPredictor:
                continue
            for klass in cls.__mro__[:cls.__mro__.index(tuple)]:
                assert vars(klass).get("__slots__") == (), _qualified(klass)

    def test_store_keys_refuse_records(self):
        limits = OccupancyLimits(10, 3, 10, 10, 10)
        with pytest.raises(TypeError, match="OccupancyLimits"):
            canonical_encode(limits)
        with pytest.raises(TypeError, match="WorkloadKernel"):
            canonical_encode((get_kernel("Sort.BottomScan"),))


class TestValidatingRecords:
    """Each record's field checks run in ``__new__``, raising the error
    types and messages its ``__post_init__`` raised as a dataclass."""

    @pytest.mark.parametrize("make, bad, error, message",
                             [case[1:] for case in VALIDATING],
                             ids=[case[0] for case in VALIDATING])
    def test_bad_field_raises_its_error(self, make, bad, error, message):
        valid = make()
        with pytest.raises(error, match=message):
            type(valid)(**{**valid._asdict(), **bad})

    @pytest.mark.parametrize("make", [case[1] for case in VALIDATING],
                             ids=[case[0] for case in VALIDATING])
    def test_keyword_and_positional_construction_agree(self, make):
        valid = make()
        cls = type(valid)
        assert cls(*valid) == cls(**valid._asdict()) == valid
        assert type(cls(*valid)) is cls

    @pytest.mark.parametrize("make", [case[1] for case in VALIDATING],
                             ids=[case[0] for case in VALIDATING])
    def test_fields_are_read_only_and_replace_keeps_the_type(self, make):
        valid = make()
        name = valid._fields[0]
        with pytest.raises(AttributeError):
            setattr(valid, name, getattr(valid, name))
        copy = valid._replace(**{name: getattr(valid, name)})
        assert type(copy) is type(valid) and copy == valid

    def test_predictor_resolves_its_terms_once(self):
        predictor = SensitivityPredictor(model=PAPER_COMPUTE_PREDICTOR.model,
                                         kind="compute")
        features = _counters().feature_vector()
        assert predictor.predict_vector(features) == \
            PAPER_COMPUTE_PREDICTOR.predict_vector(features)
        assert predictor.predict(_counters()) == predictor.predict_features(
            _counters().as_feature_dict())


class TestHotRecords:
    """The per-launch records: keyword construction, read-only fields,
    no new attributes, and the accessors the controller reads."""

    def launch(self) -> KernelRunResult:
        platform = make_hd7970_platform()
        spec = get_kernel("Sort.BottomScan").base
        return platform.launch(spec, platform.config_space.max_config())

    def test_keyword_and_positional_construction_agree(self):
        result = self.launch()
        assert KernelRunResult(*result) == KernelRunResult(
            **result._asdict()) == result
        record = LaunchRecord(iteration=2, kernel_name="k", result=result)
        assert record == LaunchRecord(2, "k", result)
        assert (record.config, record.time, record.power) == (
            result.config, result.time, result.power)
        context = LaunchContext(kernel_name="k", iteration=2,
                                spec=get_kernel("Sort.BottomScan").base)
        assert context._fields == ("kernel_name", "iteration", "spec")
        snapshot = SensitivitySnapshot(0.2, 0.8, Bin.LOW, Bin.HIGH)
        assert snapshot == SensitivitySnapshot(
            compute=0.2, bandwidth=0.8, compute_bin=Bin.LOW,
            bandwidth_bin=Bin.HIGH)
        assert snapshot.bins == (Bin.LOW, Bin.HIGH)

    @pytest.mark.parametrize("name", ["time", "config", "counters"])
    def test_assignment_raises(self, name):
        result = self.launch()
        before = getattr(result, name)
        with pytest.raises(AttributeError):
            setattr(result, name, before)
        with pytest.raises(AttributeError):
            result.extra = 1
        assert getattr(result, name) is before

    def test_feature_vector_is_the_counter_prefix_plus_intensity(self):
        counters = _counters()
        assert counters.feature_vector() == (
            90.0, 50.0, 40.0, 5.0, 1.0, 0.4, 0.25, 0.2,
            counters.compute_to_memory_intensity())
        assert type(counters.feature_vector()) is tuple

    def test_noisy_result_keeps_everything_but_time(self):
        platform = make_hd7970_platform(noise_std_fraction=0.05, seed=3)
        spec = get_kernel("Sort.BottomScan").base
        config = platform.config_space.max_config()
        clean = make_hd7970_platform().launch(spec, config)
        noisy = platform.launch(spec, config, iteration=1)
        assert type(noisy) is KernelRunResult
        assert noisy.time != clean.time
        assert noisy._replace(time=clean.time) == clean


class TestStatelessSchedule:
    """A zero-field named tuple would be falsy and equal ``()``; the
    constant schedule is a plain class whose instances are all equal."""

    def test_truthy_and_equal_only_to_itself(self):
        schedule = ConstantSchedule()
        assert schedule and schedule != ()
        assert schedule == ConstantSchedule()
        assert hash(schedule) == hash(ConstantSchedule())
        assert repr(schedule) == "ConstantSchedule()"
        with pytest.raises(AttributeError):
            schedule.extra = 1

    def test_default_schedule(self):
        base = get_kernel("Sort.BottomScan").base
        kernel = WorkloadKernel(base=base)
        assert kernel == WorkloadKernel(base, ConstantSchedule())
        assert kernel.spec_for_iteration(3) is base


class TestMutableState:
    """The six mutable holders are ``__slots__`` classes that start from
    the defaults their dataclass fields declared."""

    def test_defaults(self):
        state = FineGrainState()
        assert (state.frozen, state.inflight, state.pending, state.dithering,
                state.best, state.converged) == (set(), None, None, 0, None,
                                                 False)
        assert FineGrainState().frozen is not state.frozen
        history = KernelHistory()
        assert (history.results, history.current_config,
                history.previous_config, history.config_changed_last) == (
            [], None, None, False)
        assert history.last_result is None
        control = _KernelControlState()
        assert isinstance(control.fg, FineGrainState)
        assert (control.last_snapshot, control.cg_actions,
                control.fg_actions, control.phase_changes, control.phase_age,
                control.phase_recalls, control.last_identity) == (
            None, 0, 0, 0, 0, 0, None)
        mix = KernelActionMix(kernel="k")
        assert (mix.kernel, mix.launches, mix.time_s, mix.phase_changes,
                mix.cg_jumps, mix.fg_steps, mix.fg_reverts, mix.fg_converged,
                mix.recalls) == ("k", 0, 0.0, 0, 0, 0, 0, 0, 0)

    def test_no_new_attributes(self):
        record = SpanRecord("work", 1, None, 0.0, 1.0, 1, 1, ())
        config = HardwareConfig(n_cu=32, f_cu=1e9, f_mem=1.375e9)
        holders = [FineGrainState(), KernelHistory(), _KernelControlState(),
                   KernelActionMix(kernel="k"), SpanNode(record, []),
                   _Step(tunable="f_cu", direction=-1, before_config=config,
                         before_feedback=1.0, tried_opposite=False)]
        for holder in holders:
            with pytest.raises(AttributeError):
                holder.extra = 1
        step = holders[-1]
        step.tried_opposite = True
        assert (step.tunable, step.direction, step.before_config,
                step.before_feedback, step.tried_opposite) == (
            "f_cu", -1, config, 1.0, True)
