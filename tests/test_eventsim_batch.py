"""Differential tests: batched lockstep engine vs the scalar event loop.

The batched engine's contract is *bitwise* equivalence — every
:class:`~repro.perf.eventsim.EventSimResult` field must equal the scalar
simulator's exactly (``==``, not approx), for every lane shape the scalar
loop can encounter. The suite sweeps the full workload registry over both
calibrations and the validation experiment's 3x3x3 config sample, and
over every 16th hd7970 grid config (a fleet-class grid), probes
the structural edge lanes individually (compute-only kernels with
``bytes_per_segment == 0``, wave-population cap hit vs not, single-wave
launches, occupancy-limited residency, a raised wave cap), and fuzzes
generated kernels across the descriptor space in mixed, shuffled blocks.
A tracemalloc guard keeps the production-shape working set bounded.
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError
from repro.gpu.config import ConfigSpace, HardwareConfig
from repro.memory.controller import MemoryControllerModel
from repro.perf.eventsim import EventDrivenModel, _derive_lane_params
from repro.perf.eventsim_batch import (BatchedEventModel, _finalize,
                                       _simulate_block)
from repro.perf.kernelspec import KernelSpec
from repro.platform.calibration import (default_calibration,
                                        pitcairn_calibration)
from repro.units import MHZ
from repro.workloads.registry import all_kernels, get_kernel
from tests.kernel_strategies import CALIBRATIONS, fuzz_specs


def _models(calibration, **kwargs):
    controller = MemoryControllerModel(
        arch=calibration.arch, timing=calibration.gddr5_timing
    )
    clocks = calibration.clock_domain_model()
    scalar = EventDrivenModel(calibration.arch, controller, clocks,
                              **kwargs)
    batched = BatchedEventModel(calibration.arch, controller, clocks,
                                **kwargs)
    return scalar, batched


def _sample(space):
    """The validation experiment's 3x3x3 corner/midpoint sample."""
    from repro.experiments.ext_model_validation import _sample_configs
    return _sample_configs(space)


def _fleet(space):
    """Every 16th config of the full grid: a fleet-characterization
    shape, 700 lanes over the registry."""
    return list(space)[::16]


def assert_bitwise_equal(batched_result, scalar_result, label):
    """All four result fields must match exactly — no tolerance."""
    assert batched_result.time == scalar_result.time, label
    assert (batched_result.simulated_waves
            == scalar_result.simulated_waves), label
    assert batched_result.total_waves == scalar_result.total_waves, label
    assert (batched_result.simd_busy_fraction
            == scalar_result.simd_busy_fraction), label


class TestFullRegistryDifferential:
    """Every kernel x every sampled config, on both calibrations, and
    x a strided fleet-class grid on the hd7970."""

    @pytest.mark.parametrize("make_calibration, pick", [
        pytest.param(default_calibration, _sample, id="hd7970"),
        pytest.param(pitcairn_calibration, _sample, id="pitcairn"),
        pytest.param(default_calibration, _fleet, id="hd7970-fleet"),
    ])
    def test_all_kernels_all_sampled_configs(self, make_calibration, pick):
        calibration = make_calibration()
        scalar, batched = _models(calibration)
        configs = pick(ConfigSpace(calibration.arch))
        specs = [kernel.base for kernel in all_kernels()]

        rows = batched.run_batch(specs, configs)
        assert len(rows) == len(specs)
        for spec, row in zip(specs, rows):
            assert len(row) == len(configs)
            for config, result in zip(configs, row):
                expected = scalar.run(spec, config)
                assert_bitwise_equal(result, expected,
                                     f"{spec.name} @ {config.describe()}")


def _edge_spec(**overrides):
    defaults = dict(
        name="Edge.Kernel",
        total_workitems=1 << 16,
        workgroup_size=256,
        valu_insts_per_item=50.0,
        vfetch_insts_per_item=6.0,
        vwrite_insts_per_item=2.0,
    )
    defaults.update(overrides)
    return KernelSpec(**defaults)


class TestEdgeLanes:
    """Structural corners of the scalar loop, each checked bitwise."""

    @pytest.fixture(scope="class")
    def calibration(self):
        return default_calibration()

    @pytest.fixture(scope="class")
    def config(self, calibration):
        space = ConfigSpace(calibration.arch)
        return space.max_config()

    def _check(self, calibration, spec, config, **kwargs):
        scalar, batched = _models(calibration, **kwargs)
        (result,) = batched.run_pairs([(spec, config)])
        assert_bitwise_equal(result, scalar.run(spec, config), spec.name)
        return result

    def test_compute_only_lane(self, calibration, config):
        # No memory instructions -> bytes_per_segment == 0: the lane
        # never touches the bandwidth server or the in-flight window.
        spec = _edge_spec(name="Edge.ComputeOnly",
                          vfetch_insts_per_item=0.0,
                          vwrite_insts_per_item=0.0)
        params = _derive_lane_params(
            calibration.arch,
            MemoryControllerModel(arch=calibration.arch,
                                  timing=calibration.gddr5_timing),
            calibration.clock_domain_model(), 256, spec, config)
        assert params.bytes_per_segment == 0.0
        result = self._check(calibration, spec, config)
        assert result.simd_busy_fraction > 0.9

    def test_single_wave_launch(self, calibration, config):
        # One wavefront total: the ready queue holds a single entry and
        # admission never fires.
        spec = _edge_spec(name="Edge.SingleWave", total_workitems=64,
                          workgroup_size=64)
        result = self._check(calibration, spec, config)
        assert result.total_waves == 1
        assert result.simulated_waves == 1

    def test_wave_cap_hit(self, calibration):
        # waves_per_cu far above the cap: simulated == cap, scale > 1.
        spec = _edge_spec(name="Edge.CapHit", total_workitems=1 << 22)
        config = HardwareConfig(4, 925 * MHZ, 1375 * MHZ)
        result = self._check(calibration, spec, config)
        assert result.simulated_waves == 256
        assert result.total_waves > result.simulated_waves

    def test_wave_cap_not_hit(self, calibration, config):
        # Small launch on a full chip: every wave is simulated directly.
        spec = _edge_spec(name="Edge.CapMiss", total_workitems=1 << 14)
        result = self._check(calibration, spec, config)
        assert result.simulated_waves < 256

    def test_occupancy_limited_residency(self, calibration, config):
        # Register pressure limits resident waves per SIMD, so admission
        # throttles the simulated population below the launch size.
        spec = _edge_spec(name="Edge.Occupancy", vgprs_per_workitem=128,
                          total_workitems=1 << 18)
        self._check(calibration, spec, config)

    def test_raised_wave_cap(self, calibration):
        # A raised wave cap pushes simulated waves past 255, widening
        # the wave-index field of the packed ready key to nine bits.
        spec = _edge_spec(name="Edge.WideIndex", total_workitems=1 << 22)
        config = HardwareConfig(4, 925 * MHZ, 1375 * MHZ)
        result = self._check(calibration, spec, config,
                             max_simulated_waves=512)
        assert result.simulated_waves == 512

    def test_mixed_block_memory_and_compute_only(self, calibration, config):
        # Memory and compute-only lanes in ONE lockstep block exercise
        # the masked (non-allmem) server path.
        scalar, batched = _models(calibration)
        pairs = [
            (_edge_spec(name="Edge.Mixed0"), config),
            (_edge_spec(name="Edge.Mixed1", vfetch_insts_per_item=0.0,
                        vwrite_insts_per_item=0.0), config),
            (get_kernel("DeviceMemory.DeviceMemory").base, config),
        ]
        results = batched.run_pairs(pairs)
        for (spec, cfg), result in zip(pairs, results):
            assert_bitwise_equal(result, scalar.run(spec, cfg), spec.name)


class TestBatchApi:
    def test_run_batch_shape_and_order(self):
        calibration = default_calibration()
        scalar, batched = _models(calibration)
        space = ConfigSpace(calibration.arch)
        specs = [get_kernel("MaxFlops.MaxFlops").base,
                 get_kernel("DeviceMemory.DeviceMemory").base]
        configs = [space.min_config(), space.max_config()]
        rows = batched.run_batch(specs, configs)
        assert [len(row) for row in rows] == [2, 2]
        for i, spec in enumerate(specs):
            for j, config in enumerate(configs):
                assert_bitwise_equal(rows[i][j], scalar.run(spec, config),
                                     f"[{i}][{j}]")

    def test_run_batch_does_not_load_numpy_ma(self):
        # Nothing else in a cold `reproduce` imports numpy.ma, so the
        # engine must not either: its first load costs ~15 ms and ~1 MiB.
        script = textwrap.dedent("""
            import sys
            from repro.gpu.config import ConfigSpace
            from repro.memory.controller import MemoryControllerModel
            from repro.perf.eventsim_batch import BatchedEventModel
            from repro.platform.calibration import default_calibration
            from repro.workloads.registry import get_kernel

            calibration = default_calibration()
            controller = MemoryControllerModel(
                arch=calibration.arch, timing=calibration.gddr5_timing)
            batched = BatchedEventModel(calibration.arch, controller,
                                        calibration.clock_domain_model())
            space = ConfigSpace(calibration.arch)
            rows = batched.run_batch(
                [get_kernel("MaxFlops.MaxFlops").base,
                 get_kernel("DeviceMemory.DeviceMemory").base],
                [space.min_config(), space.max_config()])
            assert [len(row) for row in rows] == [2, 2]
            print("numpy.ma" in sys.modules)
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        child = subprocess.run([sys.executable, "-c", script], env=env,
                               check=True, stdout=subprocess.PIPE, text=True)
        assert child.stdout.strip() == "False"

    def test_empty_batch(self):
        calibration = default_calibration()
        _, batched = _models(calibration)
        assert batched.run_pairs([]) == []
        assert batched.run_batch([], []) == []

    def test_small_block_limit_still_exact(self):
        # Tiny max_lanes_per_block forces multi-block execution; blocks
        # must not change results.
        calibration = default_calibration()
        controller = MemoryControllerModel(
            arch=calibration.arch, timing=calibration.gddr5_timing
        )
        clocks = calibration.clock_domain_model()
        scalar = EventDrivenModel(calibration.arch, controller, clocks)
        batched = BatchedEventModel(calibration.arch, controller, clocks,
                                    max_lanes_per_block=3)
        space = ConfigSpace(calibration.arch)
        configs = _sample(space)[:5]
        spec = get_kernel("Sort.BottomScan").base
        for config, result in zip(configs,
                                  batched.run_batch([spec], configs)[0]):
            assert_bitwise_equal(result, scalar.run(spec, config),
                                 config.describe())

    def test_rejects_tiny_wave_cap(self):
        calibration = default_calibration()
        controller = MemoryControllerModel(
            arch=calibration.arch, timing=calibration.gddr5_timing
        )
        with pytest.raises(AnalysisError):
            BatchedEventModel(calibration.arch, controller,
                              calibration.clock_domain_model(),
                              max_simulated_waves=4)

    def test_rejects_bad_block_limit(self):
        calibration = default_calibration()
        controller = MemoryControllerModel(
            arch=calibration.arch, timing=calibration.gddr5_timing
        )
        with pytest.raises(AnalysisError):
            BatchedEventModel(calibration.arch, controller,
                              calibration.clock_domain_model(),
                              max_lanes_per_block=0)



# --- differential fuzzing --------------------------------------------------------


@st.composite
def _fuzz_lanes(draw):
    """(calibration name, spec, config) lanes from both calibrations'
    grids, in a drawn order."""
    lanes = []
    for _ in range(draw(st.integers(4, 10))):
        name = draw(st.sampled_from(sorted(CALIBRATIONS)))
        space = ConfigSpace(CALIBRATIONS[name].arch)
        config = HardwareConfig(
            draw(st.sampled_from(space.cu_counts)),
            draw(st.sampled_from(space.compute_frequencies)),
            draw(st.sampled_from(space.memory_frequencies)))
        lanes.append((name, draw(fuzz_specs()), config))
    return draw(st.permutations(lanes))


#: Wave caps: small enough for tier-1 time, large enough for admissions.
_WAVE_CAPS = st.sampled_from((64, 64, 48, 32, 16, 8))


class TestDifferentialFuzz:
    """Generated kernels well beyond the 25 calibrated ones, in shuffled
    blocks that mix wave caps, windows, segment counts, residency limits
    and compute-only lanes beside memory lanes."""

    @settings(max_examples=60, deadline=None)
    @given(lanes=_fuzz_lanes(), max_waves=_WAVE_CAPS)
    def test_mixed_calibration_block(self, lanes, max_waves):
        # Lanes of both calibrations share one lockstep block: the block
        # engine sees only per-lane constants.
        params = []
        for name, spec, config in lanes:
            calibration = CALIBRATIONS[name]
            params.append(_derive_lane_params(
                calibration.arch,
                MemoryControllerModel(arch=calibration.arch,
                                      timing=calibration.gddr5_timing),
                calibration.clock_domain_model(), max_waves, spec, config))
        scalars = {name: _models(calibration,
                                 max_simulated_waves=max_waves)[0]
                   for name, calibration in CALIBRATIONS.items()}
        for lane_params, (finish, busy), (name, spec, config) in zip(
                params, _simulate_block(params), lanes):
            assert_bitwise_equal(_finalize(lane_params, finish, busy),
                                 scalars[name].run(spec, config),
                                 f"{name} {spec} @ {config.describe()}")

    @settings(max_examples=20, deadline=None)
    @given(lanes=_fuzz_lanes(), max_waves=_WAVE_CAPS)
    def test_run_pairs_per_calibration(self, lanes, max_waves):
        for name, calibration in CALIBRATIONS.items():
            scalar, batched = _models(calibration,
                                      max_simulated_waves=max_waves)
            pairs = [(spec, config) for lane, spec, config in lanes
                     if lane == name]
            for (spec, config), result in zip(pairs,
                                              batched.run_pairs(pairs)):
                assert_bitwise_equal(result, scalar.run(spec, config),
                                     f"{name} {spec} @ {config.describe()}")


class TestWorkingSet:
    #: tracemalloc peak of this run_batch before the per-slot layout
    #: (per-wave rings and slot maps), in MiB.
    PREVIOUS_PEAK_MIB = 10.98

    def test_production_shape_peak(self):
        # The cold `reproduce` high-water mark sits inside this stage,
        # so its working set bounds the run's peak RSS.
        calibration = default_calibration()
        _, batched = _models(calibration)
        configs = _sample(ConfigSpace(calibration.arch))
        specs = [kernel.base for kernel in all_kernels()]
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            rows = batched.run_batch(specs, configs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert [len(row) for row in rows] == [len(configs)] * len(specs)
        assert (peak - before) / 2**20 <= self.PREVIOUS_PEAK_MIB
