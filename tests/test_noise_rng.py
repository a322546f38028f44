"""The stateless launch-keyed noise RNG: determinism under any execution.

The tentpole contract: a launch's noise multiplier is a pure function of
``(platform seed, kernel spec, iteration, config)``. These tests pin the
consequences — draws are bitwise reproducible regardless of launch order,
interleaving, thread fan-out, or sweep-cache state — plus the documented
clamp floor and its clip accounting.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError
from repro.platform.hd7970 import make_hd7970_platform
from repro.platform.noise import (
    NOISE_FLOOR, LaunchKeyedNoise, _stream_key, _uint32_words, spec_entropy)
from repro.platform.sweepcache import SweepCache
from repro.workloads.registry import all_kernels, get_application

SPEC = all_kernels()[0].base
OTHER = all_kernels()[1].base
BASES = tuple(kernel.base for kernel in all_kernels())


class TestLaunchKeyedNoise:
    def test_spec_entropy_is_stable_and_distinct(self):
        assert spec_entropy(SPEC) == spec_entropy(SPEC)
        assert spec_entropy(SPEC) != spec_entropy(OTHER)

    def test_draws_are_pure_functions_of_the_key(self):
        a = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        b = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        m_a, _ = a.multipliers_for(SPEC, 4)
        m_b, _ = b.multipliers_for(SPEC, 4)
        np.testing.assert_array_equal(m_a, m_b)

    def test_each_key_component_matters(self):
        model = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        base, _ = model.multipliers_for(SPEC, 0)
        other_iter, _ = model.multipliers_for(SPEC, 1)
        other_spec, _ = model.multipliers_for(OTHER, 0)
        other_seed, _ = LaunchKeyedNoise(0.05, 4, 10).multipliers_for(SPEC, 0)
        assert np.any(base != other_iter)
        assert np.any(base != other_spec)
        assert np.any(base != other_seed)

    def test_scalar_indexes_the_batch_vector(self):
        model = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        vector, clipped = model.multipliers_for(SPEC, 2)
        for i in range(10):
            value, clip = model.multiplier_at(SPEC, 2, i)
            assert value == vector[i]
            assert clip == clipped[i]

    def test_clamp_floor(self):
        # Heavy noise: some raw draws land below the floor and get clamped.
        model = LaunchKeyedNoise(2.0, seed=0, grid_size=2048)
        multipliers, clipped = model.multipliers_for(SPEC, 0)
        assert np.any(clipped)
        assert np.all(multipliers >= NOISE_FLOOR)
        assert np.all(multipliers[clipped] == NOISE_FLOOR)

    def test_negative_iteration_rejected(self):
        model = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        with pytest.raises(ValueError):
            model.multipliers_for(SPEC, -1)


class TestExecutionOrderInvariance:
    def test_launch_order_does_not_matter(self):
        launches = [
            (spec, config, iteration)
            for spec in (SPEC, OTHER)
            for iteration in (0, 1, 2)
            for config in tuple(make_hd7970_platform().config_space)[::97]
        ]
        forward = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        reverse = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        times_fwd = {
            key: forward.run_kernel(key[0], key[1], iteration=key[2]).time
            for key in launches
        }
        times_rev = {
            key: reverse.run_kernel(key[0], key[1], iteration=key[2]).time
            for key in reversed(launches)
        }
        assert times_fwd == times_rev

    def test_interleaving_scalar_and_batch_does_not_matter(self):
        scalar_first = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        batch_first = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        config = scalar_first.baseline_config()

        t_scalar = scalar_first.run_kernel(SPEC, config).time
        b_after = scalar_first.run_kernel_batch(SPEC)

        b_first = batch_first.run_kernel_batch(SPEC)
        t_after = batch_first.run_kernel(SPEC, config).time

        assert t_scalar == t_after
        np.testing.assert_array_equal(b_after.time, b_first.time)

    def test_jobs_fanout_does_not_matter(self):
        applications = [get_application("MaxFlops"), get_application("BPT")]

        def run_all(jobs):
            from repro.core.baseline import BaselinePolicy
            from repro.runtime.parallel import fan_out
            from repro.runtime.session import BatchSessionRunner
            platform = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
            return fan_out(
                lambda app: BatchSessionRunner(platform).run(
                    app, BaselinePolicy(platform.config_space)),
                applications, jobs=jobs,
            )

        serial = run_all(1)
        fanned = run_all(4)
        for a, b in zip(serial, fanned):
            assert a.metrics.time == b.metrics.time
            assert a.metrics.energy == b.metrics.energy

    def test_cache_state_does_not_matter(self):
        # Miss path: a fresh cache computes the clean surface.
        cold = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        cold_cache = SweepCache()
        miss = cold.grid_sweep(SPEC, cache=cold_cache, iteration=1)
        assert cold_cache.stats().memory == (0, 1)

        # Hit path: a pre-warmed cache serves the same clean surface.
        warm = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        warm_cache = SweepCache()
        warm.grid_sweep(SPEC, cache=warm_cache, iteration=0)
        hit = warm.grid_sweep(SPEC, cache=warm_cache, iteration=1)
        assert warm_cache.stats().memory == (1, 1)

        np.testing.assert_array_equal(miss.time, hit.time)
        np.testing.assert_array_equal(miss.energy, hit.energy)


class TestClipAccounting:
    def test_scalar_and_batch_count_the_same_clips(self):
        scalar = make_hd7970_platform(noise_std_fraction=2.0, seed=1)
        batch = make_hd7970_platform(noise_std_fraction=2.0, seed=1)
        configs = tuple(scalar.config_space)
        for config in configs:
            scalar.run_kernel(SPEC, config)
        batch.run_kernel_batch(SPEC, configs)
        assert scalar.noise_clip_count == batch.noise_clip_count > 0

    def test_clips_feed_the_telemetry_counter(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        platform = make_hd7970_platform(noise_std_fraction=2.0, seed=1,
                                        telemetry=telemetry)
        platform.run_kernel_batch(SPEC)
        counter = telemetry.metrics.counter("noise_floor_clips_total")
        assert counter.value(kernel=SPEC.name) == platform.noise_clip_count
        assert platform.noise_clip_count > 0

    def test_clean_platform_never_clips(self):
        platform = make_hd7970_platform()
        platform.run_kernel(SPEC, platform.baseline_config())
        platform.run_kernel_batch(SPEC)
        assert platform.noise_clip_count == 0


def reference_entropy(spec) -> int:
    """The spec key computed anew: BLAKE2b of the rendered fields, with
    no per-spec cache."""
    payload = "|".join(
        f"{field.name}={getattr(spec, field.name)!r}"
        for field in dataclasses.fields(spec)
    )
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=16).digest()
    return int.from_bytes(digest, "little")


def reference_multipliers(seed, spec, iteration, std, grid_size):
    """``(multipliers, clipped)`` derived the plain way: numpy coerces the
    int list ``[seed, iteration, entropy]`` itself."""
    sequence = np.random.SeedSequence(
        [seed, iteration, reference_entropy(spec)])
    draws = np.random.Generator(np.random.Philox(sequence)).normal(
        0.0, std, size=grid_size)
    raw = 1.0 + draws
    return np.maximum(NOISE_FLOOR, raw), raw < NOISE_FLOOR


#: key words drawn around the uint32 word boundaries
WORD_BOUNDARIES = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96)
key_ints = st.one_of(
    st.integers(0, 2**16),
    st.builds(lambda edge, k: edge + k,
              st.sampled_from(WORD_BOUNDARIES), st.integers(0, 2**8)),
    st.integers(0, 2**130),
)


@st.composite
def kernel_specs(draw):
    """A registry kernel with some of its characteristics redrawn."""
    base = draw(st.sampled_from(BASES))
    changes = draw(st.fixed_dictionaries({}, optional={
        "total_workitems": st.integers(1, 2**24),
        "workgroup_size": st.sampled_from((64, 128, 256)),
        "valu_insts_per_item": st.floats(1.0, 1e4),
        "vfetch_insts_per_item": st.floats(0.0, 64.0),
        "branch_divergence": st.floats(0.0, 0.99),
        "l2_hit_rate": st.floats(0.0, 1.0),
        "outstanding_per_wave": st.floats(0.1, 16.0),
        "access_efficiency": st.floats(0.05, 1.0),
        "launch_overhead": st.floats(0.0, 1e-3),
    }))
    return dataclasses.replace(base, **changes)


class TestDifferentialDerivation:
    """Every stream equals the plain ``SeedSequence([seed, iteration,
    entropy])`` derivation byte for byte: the cached spec key and the
    pre-coerced uint32 words change the cost, never a draw."""

    @settings(max_examples=150, deadline=None)
    @given(seed=key_ints, iteration=key_ints, spec=kernel_specs(),
           std=st.floats(0.001, 3.0),
           grid_size=st.sampled_from((1, 7, 448)))
    def test_multipliers_match_the_plain_derivation(
            self, seed, iteration, spec, std, grid_size):
        model = LaunchKeyedNoise(std, seed, grid_size)
        multipliers, clipped = model.multipliers_for(spec, iteration)
        expected, expected_clipped = reference_multipliers(
            seed, spec, iteration, std, grid_size)
        assert multipliers.tobytes() == expected.tobytes()
        assert clipped.tobytes() == expected_clipped.tobytes()

    def test_heavy_noise_clips_identically(self):
        model = LaunchKeyedNoise(3.0, 2**32, 448)
        multipliers, clipped = model.multipliers_for(SPEC, 2**64 + 1)
        expected, expected_clipped = reference_multipliers(
            2**32, SPEC, 2**64 + 1, 3.0, 448)
        assert clipped.any()
        assert multipliers.tobytes() == expected.tobytes()
        assert clipped.tobytes() == expected_clipped.tobytes()

    @pytest.mark.parametrize(
        "entropy", [0, 1, 2**32 - 1, 2**32, 2**96 - 1, 2**127 + 5])
    @pytest.mark.parametrize(
        "seed,iteration", [(0, 0), (2**32 - 1, 2**32), (2**64 + 3, 7)])
    def test_word_rule_matches_numpy_int_coercion(self, seed, iteration,
                                                  entropy):
        key = _stream_key(_uint32_words(seed), iteration, entropy)
        assert key.dtype == np.uint32
        pool = np.random.SeedSequence(key).pool
        expected = np.random.SeedSequence([seed, iteration, entropy]).pool
        assert pool.tobytes() == expected.tobytes()


class TestSeedValidation:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            LaunchKeyedNoise(0.05, seed=-1, grid_size=10)

    def test_float_seed_rejected(self):
        with pytest.raises(TypeError):
            LaunchKeyedNoise(0.05, seed=3.0, grid_size=10)

    @pytest.mark.parametrize("seed,equivalent",
                             [(True, 1), (np.int64(3), 3)])
    def test_integer_like_seeds_key_their_value(self, seed, equivalent):
        draws, _ = LaunchKeyedNoise(0.05, seed, 10).multipliers_for(SPEC, 2)
        same, _ = LaunchKeyedNoise(0.05, equivalent, 10).multipliers_for(
            SPEC, 2)
        assert draws.tobytes() == same.tobytes()


class TestSpecEntropyCache:
    def test_cached_value_equals_a_fresh_computation(self):
        spec = dataclasses.replace(SPEC)
        first = spec_entropy(spec)
        assert spec.__dict__["_cached_entropy"] == first
        copy = dataclasses.replace(spec)
        assert "_cached_entropy" not in copy.__dict__
        assert spec_entropy(spec) == spec_entropy(copy) == \
            reference_entropy(copy)

    def test_cached_value_survives_pickle(self):
        spec = dataclasses.replace(OTHER)
        key = spec_entropy(spec)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.__dict__["_cached_entropy"] == key
        assert spec_entropy(clone) == reference_entropy(clone) == key

    def test_changed_field_changes_the_key(self):
        spec = dataclasses.replace(SPEC)
        key = spec_entropy(spec)
        changed = dataclasses.replace(
            spec, launch_overhead=spec.launch_overhead * 2 + 1e-6)
        assert spec_entropy(changed) != key
        assert spec_entropy(changed) == reference_entropy(changed)
