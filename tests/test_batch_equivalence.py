"""Batch sweep engine vs the scalar path: element-exact equivalence.

The vectorized full-grid surface (``grid_sweep``) mirrors the scalar
arithmetic operation for operation, so its results must match per-launch
evaluation exactly — not merely approximately — for every registered
kernel on both calibrations. These tests pin that contract, plus the
documented noise semantics: the launch-keyed noise model gives the batch
path the exact per-launch draws of the scalar path, so noisy batch and
noisy scalar agree bitwise too.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.sweep import ConfigSweep
from repro.errors import AnalysisError, ConfigurationError
from repro.perf.batch import BANDWIDTH_LIMITS
from repro.platform.hd7970 import make_hd7970_platform, make_pitcairn_platform
from repro.platform.store import SweepStore
from repro.platform.sweepcache import SweepCache
from repro.workloads.registry import all_kernels, get_kernel
from tests.kernel_strategies import fuzz_specs

#: Acceptance tolerance on time/energy/power. The implementation is
#: bitwise exact; 1e-9 is the documented contract ceiling.
REL_TOL = 1e-9

#: Noise fraction of the launch-contract test: heavy enough that draws
#: hit the multiplier floor on every kernel, so clip accounting is
#: exercised and not just the multiplier.
CLIPPING_NOISE = 0.6

#: Kernels of the noisy full-grid comparison: the compute and memory
#: stress kernels and three of the applications' kernels.
NOISY_KERNELS = ("MaxFlops.MaxFlops", "DeviceMemory.DeviceMemory",
                 "Sort.BottomScan", "CoMD.AdvanceVelocity", "BPT.FindRange")


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / abs(a) if a != 0 else abs(b)


@pytest.fixture(scope="module", params=["hd7970", "pitcairn"])
def any_platform(request):
    if request.param == "hd7970":
        return make_hd7970_platform()
    return make_pitcairn_platform()


@pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: k.base.name)
def test_batch_matches_scalar_everywhere(any_platform, kernel):
    """Every kernel, every grid config, both calibrations: batch == scalar."""
    spec = kernel.base
    configs = tuple(any_platform.config_space)
    batch = any_platform.grid_sweep(spec, cache=SweepCache())
    assert batch.configs == configs

    for i, config in enumerate(configs):
        scalar = any_platform.run_kernel(spec, config)
        assert _rel_err(scalar.time, float(batch.time[i])) <= REL_TOL
        assert _rel_err(scalar.energy, float(batch.energy[i])) <= REL_TOL
        assert _rel_err(scalar.power.card, float(batch.card_power[i])) <= REL_TOL
        assert scalar.bandwidth_limit == batch.bandwidth_limit[i]

        # Full reconstruction: breakdown, counters, power decomposition.
        rebuilt = batch.result_at(i)
        assert rebuilt.config == config
        assert _rel_err(scalar.power.gpu, rebuilt.power.gpu) <= REL_TOL
        assert _rel_err(scalar.power.memory, rebuilt.power.memory) <= REL_TOL
        assert rebuilt.power.other == scalar.power.other
        assert _rel_err(scalar.breakdown.compute, rebuilt.breakdown.compute) <= REL_TOL
        assert _rel_err(scalar.breakdown.memory, rebuilt.breakdown.memory) <= REL_TOL
        assert _rel_err(scalar.achieved_bandwidth,
                        rebuilt.achieved_bandwidth) <= REL_TOL
        assert rebuilt.occupancy == scalar.occupancy
        assert rebuilt.counters == scalar.counters


def test_batch_metric_surfaces_are_consistent(fresh_platform):
    """Derived arrays (ed, ed2, performance) agree with per-point math."""
    spec = all_kernels()[0].base
    batch = fresh_platform.grid_sweep(spec, cache=SweepCache())
    np.testing.assert_array_equal(batch.ed, batch.energy * batch.time)
    np.testing.assert_array_equal(
        batch.ed2, batch.energy * batch.time * batch.time
    )
    np.testing.assert_array_equal(batch.performance, 1.0 / batch.time)


def test_batch_subset_and_lookup(fresh_platform):
    """An explicit config subset evaluates in order; point lookups index
    the full-grid surface."""
    spec = all_kernels()[0].base
    batch = fresh_platform.grid_sweep(spec, cache=SweepCache())
    configs = batch.configs[::37]
    subset = fresh_platform.performance_model.run_batch(spec, configs)
    np.testing.assert_array_equal(subset.time, batch.time[::37])
    assert subset.bandwidth_limit == batch.bandwidth_limit[::37]
    for probe in configs:
        assert batch.time_at(probe) == float(batch.time[batch.index_of(probe)])


def test_batch_validates_configs(fresh_platform):
    """An off-grid configuration is rejected by the scalar path and is
    on no batch surface."""
    spec = all_kernels()[0].base
    bad = fresh_platform.config_space.max_config().replace(f_mem=123e6)
    with pytest.raises(ConfigurationError):
        fresh_platform.run_kernel(spec, bad)
    batch = fresh_platform.grid_sweep(spec, cache=SweepCache())
    with pytest.raises(AnalysisError):
        batch.index_of(bad)
    with pytest.raises(AnalysisError):
        batch.time_at(bad)


def test_empty_batch_rejected(fresh_platform):
    spec = all_kernels()[0].base
    with pytest.raises(AnalysisError):
        fresh_platform.performance_model.run_batch(spec, [])


def test_noisy_batch_matches_scalar_bitwise():
    """Launch-keyed noise: noisy batch == noisy scalar, bit for bit, at
    every grid config."""
    noisy = make_hd7970_platform(noise_std_fraction=0.05, seed=7)
    assert not noisy.is_deterministic
    for name in NOISY_KERNELS:
        spec = get_kernel(name).base
        for iteration in (0, 3):
            batch = noisy.grid_sweep(spec, cache=SweepCache(),
                                     iteration=iteration)
            for i, config in enumerate(noisy.config_space):
                scalar = noisy.run_kernel(spec, config, iteration=iteration)
                assert scalar.time == float(batch.time[i]), name
                assert scalar.energy == float(batch.energy[i]), name


@pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: k.base.name)
def test_noisy_launch_matches_run_kernel(kernel):
    """Noisy ``launch`` (memoized clean surface + keyed draw) equals
    ``run_kernel`` field by field and in the noise-clip count, over the
    27-point validation sample, iterations 0-2 and two seeds."""
    from repro.experiments.ext_model_validation import _sample_configs
    spec = kernel.base
    clips = 0
    for seed in (3, 11):
        launched = make_hd7970_platform(noise_std_fraction=CLIPPING_NOISE,
                                        seed=seed)
        scalar = make_hd7970_platform(noise_std_fraction=CLIPPING_NOISE,
                                      seed=seed)
        for iteration in range(3):
            for config in _sample_configs(scalar.config_space):
                got = launched.launch(spec, config, iteration=iteration)
                want = scalar.run_kernel(spec, config, iteration=iteration)
                for name in want._fields:
                    assert getattr(got, name) == getattr(want, name), name
                assert launched.noise_clip_count == scalar.noise_clip_count
        clips += scalar.noise_clip_count
    assert clips > 0


def test_noisy_sweep_runs_through_batch():
    """ConfigSweep takes the batched path on noisy rigs, draws included."""
    noisy = make_hd7970_platform(noise_std_fraction=0.05, seed=7)
    clean = make_hd7970_platform()
    spec = all_kernels()[0].base
    noisy_sweep = ConfigSweep(noisy, spec)
    clean_sweep = ConfigSweep(clean, spec)
    assert len(noisy_sweep) == len(clean_sweep) == len(clean.config_space)
    # The noise draw actually landed: surfaces differ point-for-point.
    diffs = sum(
        1 for a, b in zip(noisy_sweep.points, clean_sweep.points)
        if a.time != b.time
    )
    assert diffs > len(clean_sweep) // 2
    # And each point carries exactly the scalar launch's draw.
    for point in noisy_sweep.points[::61]:
        scalar = noisy.run_kernel(spec, point.config)
        assert point.time == scalar.time


def test_noisy_batch_is_iteration_keyed():
    """Different iterations draw different multipliers; same repeats."""
    noisy = make_hd7970_platform(noise_std_fraction=0.05, seed=7)
    spec = all_kernels()[0].base
    first = noisy.grid_sweep(spec, cache=SweepCache(), iteration=0)
    again = noisy.grid_sweep(spec, cache=SweepCache(), iteration=0)
    other = noisy.grid_sweep(spec, cache=SweepCache(), iteration=1)
    np.testing.assert_array_equal(first.time, again.time)
    assert np.any(first.time != other.time)


# --- generated kernels ------------------------------------------------------------


#: One deterministic platform per calibration for the generated kernels.
_FUZZ_PLATFORMS = {"hd7970": make_hd7970_platform(),
                   "pitcairn": make_pitcairn_platform()}


def _only_shared_limit_names(batch) -> bool:
    """Every entry of the surface's limit tuple is one of the
    :data:`BANDWIDTH_LIMITS` string objects itself."""
    return all(any(limit is name for name in BANDWIDTH_LIMITS)
               for limit in batch.bandwidth_limit)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestGeneratedKernels:
    """The surface contract beyond the 25 calibrated kernels: generated
    specs (``tests/kernel_strategies.py``) on both calibrations."""

    @settings(max_examples=25, deadline=None)
    @given(spec=fuzz_specs())
    def test_full_grid_matches_scalar(self, spec):
        for name, platform in _FUZZ_PLATFORMS.items():
            batch = platform.grid_sweep(spec, cache=SweepCache())
            assert _only_shared_limit_names(batch), name
            for i, config in enumerate(platform.config_space):
                scalar = platform.run_kernel(spec, config)
                rebuilt = batch.result_at(i)
                label = f"{name} {config.describe()}"
                assert rebuilt.config == config, label
                assert rebuilt.counters == scalar.counters, label
                assert rebuilt.occupancy == scalar.occupancy, label
                assert rebuilt.bandwidth_limit == scalar.bandwidth_limit, label
                for got, want in (
                        (rebuilt.time, scalar.time),
                        (rebuilt.breakdown.compute, scalar.breakdown.compute),
                        (rebuilt.breakdown.memory, scalar.breakdown.memory),
                        (rebuilt.energy, scalar.energy),
                        (rebuilt.power.gpu, scalar.power.gpu),
                        (rebuilt.power.memory, scalar.power.memory),
                        (rebuilt.power.card, scalar.power.card)):
                    assert _rel_err(want, got) <= REL_TOL, label

    @settings(max_examples=15, deadline=None)
    @given(spec=fuzz_specs())
    def test_store_round_trip_is_bitwise(self, spec):
        with tempfile.TemporaryDirectory() as root:
            store = SweepStore(Path(root))
            for name, platform in _FUZZ_PLATFORMS.items():
                batch = platform.grid_sweep(spec, cache=SweepCache())
                key = platform.sweep_cache_key(spec)
                assert store.save_batch(key, batch), name
                loaded = store.load_batch(key)
                assert loaded is not None, name
                for field in ("time", "compute_time", "memory_time",
                              "overlap_residue", "achieved_bandwidth",
                              "gpu_power", "memory_power", "card_power",
                              "energy"):
                    assert _same_bits(getattr(batch, field),
                                      getattr(loaded, field)), field
                for field in ("valu_busy", "mem_unit_busy",
                              "mem_unit_stalled", "write_unit_stalled",
                              "ic_activity", "valu_utilization", "norm_vgpr",
                              "norm_sgpr", "valu_insts_millions",
                              "vfetch_insts_millions",
                              "vwrite_insts_millions"):
                    assert _same_bits(getattr(batch.counters, field),
                                      getattr(loaded.counters, field)), field
                assert _same_bits(batch.launch_overhead,
                                  loaded.launch_overhead)
                assert _same_bits(batch.other_power, loaded.other_power)
                assert loaded.kernel_name == batch.kernel_name
                assert loaded.configs == batch.configs
                assert loaded.configs is platform.config_space.configs, name
                assert loaded.occupancy == batch.occupancy
                assert loaded.bandwidth_limit == batch.bandwidth_limit
                assert _only_shared_limit_names(loaded), name
