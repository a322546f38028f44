"""The stateless launch-keyed noise RNG: determinism under any execution.

The tentpole contract: a launch's noise multiplier is a pure function of
``(platform seed, kernel spec, iteration, config)``. These tests pin the
consequences — draws are bitwise reproducible regardless of launch order,
interleaving, application order, or sweep-cache state — plus the documented
clamp floor and its clip accounting.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys
import textwrap
import threading
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError
from repro.platform import noise
from repro.platform.hd7970 import make_hd7970_platform
from repro.platform.noise import (
    NOISE_FLOOR, LaunchKeyedNoise, _pair_words, _stream_words, _words,
    fill_memos, seed_sequence_keys, spec_entropy)
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

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf")])
    def test_nonfinite_fraction_rejected(self, fraction):
        """A NaN fraction would pass a ``<= 0`` check and draw NaN
        multipliers."""
        with pytest.raises(ValueError):
            LaunchKeyedNoise(fraction, seed=3, grid_size=10)


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

    def test_application_order_does_not_matter(self):
        from repro.core.baseline import BaselinePolicy
        from repro.runtime.session import BatchSessionRunner

        platform = make_hd7970_platform(noise_std_fraction=0.05, seed=9)
        runner = BatchSessionRunner(platform)

        def run_all(names):
            return {name: runner.run(get_application(name),
                                     BaselinePolicy(platform.config_space))
                    for name in names}

        forward = run_all(["MaxFlops", "BPT"])
        backward = run_all(["BPT", "MaxFlops"])
        for name, run in forward.items():
            assert run.metrics.time == backward[name].metrics.time
            assert run.metrics.energy == backward[name].metrics.energy

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
        platform = make_hd7970_platform(noise_std_fraction=2.0, seed=1)
        with telemetry.span("clips"):
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


#: spec keys whose low (first) words are zero
leading_zero_entropies = st.builds(lambda high, shift: high << (32 * shift),
                                   st.integers(1, 2**32 - 1),
                                   st.integers(1, 3))
#: the entropy words of one stream, as ``LaunchKeyedNoise`` builds them
stream_rows = st.builds(
    lambda seed, iteration, entropy: _stream_words(
        _words(seed), _pair_words(iteration, entropy)),
    key_ints, key_ints, st.one_of(key_ints, leading_zero_entropies))
#: arbitrary entropy of 1-9 words, zero words included
word_rows = st.lists(
    st.one_of(st.just(0), st.integers(0, 2**32 - 1)),
    min_size=1, max_size=9,
).map(lambda words: np.array(words, dtype="<u4").tobytes())


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


#: the memo size of the fill fuzz: small enough that fills evict
FUZZ_MEMO = 4


@st.composite
def fill_scenarios(draw):
    """Distinct seeds, a pool of ``(spec, iteration)`` pairs and the steps
    run over them: fills of a chunk of pool pairs (repeats allowed, at
    most :data:`FUZZ_MEMO` distinct) and lone misses of one model."""
    seeds = draw(st.lists(key_ints, min_size=1, max_size=4, unique=True))
    pool = draw(st.lists(st.tuples(kernel_specs(), key_ints),
                         min_size=1, max_size=6))
    pair = st.integers(0, len(pool) - 1)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("fill"),
                  st.lists(pair, min_size=1, max_size=FUZZ_MEMO)),
        st.tuples(st.just("miss"), st.integers(0, len(seeds) - 1), pair),
    ), min_size=1, max_size=6))
    return seeds, pool, steps


class TestDifferentialDerivation:
    """Every stream equals the plain ``SeedSequence([seed, iteration,
    entropy])`` derivation byte for byte: the cached spec key, the
    pre-coerced uint32 words, the vectorized keys and the re-keyed
    generator change the cost, never a draw."""

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
        key = np.frombuffer(
            _stream_words(_words(seed), _pair_words(iteration, entropy)),
            dtype="<u4")
        assert key.dtype == np.uint32
        pool = np.random.SeedSequence(key).pool
        expected = np.random.SeedSequence([seed, iteration, entropy]).pool
        assert pool.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.one_of(stream_rows, word_rows),
                         min_size=1, max_size=12),
           order=st.randoms(use_true_random=False))
    def test_vectorized_keys_match_numpy_row_by_row(self, rows, order):
        """One call over rows of mixed word counts returns, in input
        order, each row's ``SeedSequence(row).generate_state(2,
        np.uint64)``; permuting the rows permutes the keys."""
        def keys_of(rows):
            return seed_sequence_keys(
                np.frombuffer(b"".join(rows), dtype="<u4"),
                [len(row) // 4 for row in rows])

        keys = keys_of(rows)
        assert keys.shape == (len(rows), 2) and keys.dtype == np.uint64
        for row, key in zip(rows, keys):
            expected = np.random.SeedSequence(
                np.frombuffer(row, dtype="<u4")).generate_state(2, np.uint64)
            assert key.tobytes() == expected.tobytes()
        permutation = list(range(len(rows)))
        order.shuffle(permutation)
        shuffled = keys_of([rows[i] for i in permutation])
        assert shuffled.tobytes() == keys[permutation].tobytes()

    def test_bulk_fill_matches_the_plain_derivation(self):
        models = [LaunchKeyedNoise(0.7, seed, 448)
                  for seed in (0, 2**32 - 1, 2**32, 2**64 + 5)]
        pairs = [(SPEC, 0), (OTHER, 2**32), (SPEC, 2**64 + 1)]
        fill_memos(models, pairs)
        for model in models:
            for spec, iteration in pairs:
                multipliers, clipped = model._memo[spec, iteration]
                expected, expected_clipped = reference_multipliers(
                    model.seed, spec, iteration, 0.7, 448)
                assert multipliers.tobytes() == expected.tobytes()
                assert clipped.tobytes() == expected_clipped.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(scenario=fill_scenarios(),
           std=st.one_of(st.just(0.05), st.floats(1.0, 3.0)),
           grid_size=st.sampled_from((1, 7, 448)))
    def test_fills_and_misses_match_the_plain_derivation(
            self, scenario, std, grid_size):
        """Fills of chunks that the memos partly hold already (the
        ``keep`` path) and lone misses, interleaved under a memo small
        enough to evict, at a noise heavy enough to clip: after every
        step each memo entry is the plain stream byte for byte, and a
        fill leaves every pair of its chunk memoized."""
        seeds, pool, steps = scenario
        models = [LaunchKeyedNoise(std, seed, grid_size) for seed in seeds]
        references = {}
        with mock.patch.object(noise, "MEMO_SIZE", FUZZ_MEMO):
            for step in steps:
                if step[0] == "fill":
                    chunk = [pool[i] for i in step[1]]
                    fill_memos(models, chunk)
                    for model in models:
                        assert set(chunk) <= set(model._memo)
                else:
                    spec, iteration = pool[step[2]]
                    models[step[1]].multipliers_for(spec, iteration)
                for model in models:
                    assert len(model._memo) <= FUZZ_MEMO
                    for (spec, iteration), (multipliers, clipped) in \
                            model._memo.items():
                        key = (model.seed, spec, iteration)
                        if key not in references:
                            references[key] = reference_multipliers(
                                *key, std, grid_size)
                        expected, expected_clipped = references[key]
                        assert multipliers.tobytes() == expected.tobytes()
                        assert clipped.tobytes() == \
                            expected_clipped.tobytes()


class TestBulkDerivation:
    def test_rollout_pair_derives_each_stream_once(self, monkeypatch,
                                                   derived_streams):
        """Baseline and candidate rolled out together over S seeds, with
        chunk boundaries inside the application: each of the G x S
        streams is derived exactly once and looked up exactly once, and
        no memo ever holds more than ``MEMO_SIZE`` streams."""
        from repro.core.baseline import BaselinePolicy
        from repro.core.oracle import OraclePolicy
        from repro.runtime.montecarlo import MonteCarloEngine

        monkeypatch.setattr(noise, "MEMO_SIZE", 7)
        seeds = (0, 1, 2)
        app = get_application("Sort")
        engine = MonteCarloEngine(make_hd7970_platform(), 0.05, seeds)
        groups = {(spec, iteration)
                  for iteration, _, spec in app.launches()}
        assert len(groups) > noise.MEMO_SIZE
        lookups, memo_sizes = [], []
        lookup = LaunchKeyedNoise.multipliers_for

        def counting_lookup(self, spec, iteration):
            lookups.append((self.seed, spec, iteration))
            memo_sizes.append(len(self._memo))
            return lookup(self, spec, iteration)

        monkeypatch.setattr(LaunchKeyedNoise, "multipliers_for",
                            counting_lookup)
        space = engine.platform.config_space
        engine.rollout(app, [BaselinePolicy(space),
                             OraclePolicy(engine.platform)])
        streams = Counter((seed, spec, iteration) for seed in seeds
                          for spec, iteration in groups)
        assert Counter(derived_streams) == Counter(
            (_words(seed), _words(iteration) + _words(spec_entropy(spec)))
            for seed, spec, iteration in streams)
        assert Counter(lookups) == streams
        assert max(memo_sizes) <= noise.MEMO_SIZE

    def test_fill_keeps_the_pairs_it_serves(self, monkeypatch,
                                            derived_streams):
        """A pair already memoized, but oldest, survives the eviction
        that the fill of its chunk's missing pairs causes."""
        monkeypatch.setattr(noise, "MEMO_SIZE", 4)
        model = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        fill_memos([model], [(SPEC, 0)])
        fill_memos([model], [(SPEC, 1), (SPEC, 2), (SPEC, 3)])
        chunk = [(SPEC, 0), (OTHER, 0), (OTHER, 1), (OTHER, 2)]
        fill_memos([model], chunk)
        assert list(model._memo) == chunk
        derived_streams.clear()
        for spec, iteration in chunk:
            multipliers, _ = model.multipliers_for(spec, iteration)
            expected, _ = reference_multipliers(3, spec, iteration, 0.05, 10)
            assert multipliers.tobytes() == expected.tobytes()
        assert derived_streams == []

    def test_entries_own_their_data(self):
        """Each stream gets a read-only copy of its row of the fill's
        block, not a view that would keep the whole block alive as long
        as the memo holds any row of it; streams that did not clip share
        one read-only all-False ``clipped``."""
        light = [LaunchKeyedNoise(0.05, seed, 448) for seed in (0, 1)]
        heavy = LaunchKeyedNoise(3.0, 2, 448)
        fill_memos([*light, heavy], [(SPEC, 0), (OTHER, 1)])
        filled = [entry for model in (*light, heavy)
                  for entry in model._memo.values()]
        missed = [model.multipliers_for(SPEC, 2) for model in (*light, heavy)]
        assert len(filled) == 6
        for multipliers, clipped in filled + missed:
            assert multipliers.base is None
            assert not multipliers.flags.writeable
            assert clipped.base is None
            assert not clipped.flags.writeable
        for model in light:
            for _, clipped in model._memo.values():
                assert not clipped.any()
        for _, clipped in heavy._memo.values():
            assert clipped.any()

    def test_fill_does_not_load_numpy_ma(self):
        # Nothing else in `montecarlo` imports numpy.ma, so the fill must
        # not either (np.unique would): its first load costs ~20 ms and
        # ~1 MiB. Seeds of one and two words make two row lengths.
        script = textwrap.dedent("""
            import sys
            from repro.platform.noise import LaunchKeyedNoise, fill_memos
            from repro.workloads.registry import all_kernels

            specs = [kernel.base for kernel in all_kernels()[:3]]
            models = [LaunchKeyedNoise(0.05, seed, 448)
                      for seed in (0, 1, 2**32)]
            fill_memos(models, [(spec, i) for spec in specs
                                for i in range(2)])
            assert all(len(model._memo) == 6 for model in models)
            print("numpy.ma" in sys.modules)
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        child = subprocess.run([sys.executable, "-c", script], env=env,
                               check=True, stdout=subprocess.PIPE, text=True)
        assert child.stdout.strip() == "False"

    def test_fill_rejects_more_pairs_than_one_memo_holds(self, monkeypatch):
        monkeypatch.setattr(noise, "MEMO_SIZE", 2)
        model = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        with pytest.raises(ValueError):
            fill_memos([model], [(SPEC, 0), (SPEC, 1), (SPEC, 2)])
        with pytest.raises(ValueError):
            fill_memos([model], [(SPEC, -1)])
        assert not model._memo


class TestConcurrentDerivation:
    def test_threads_sharing_models_draw_the_plain_streams(self):
        """Each model re-keys one shared generator, so a derivation must
        hold the model's lock from re-keying to the last draw: threads
        filling and missing on the same models still publish exactly the
        plain streams."""
        models = [LaunchKeyedNoise(0.3, seed, 64) for seed in range(3)]
        errors = []

        def work(offset):
            try:
                for i in range(30):
                    fill_memos(models, [(SPEC, offset + i), (OTHER, i)])
                    for model in models:
                        model.multipliers_for(BASES[2], offset + i)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        threads = [threading.Thread(target=work, args=(1000 * k,))
                   for k in range(4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for model in models:
            assert 0 < len(model._memo) <= noise.MEMO_SIZE
            for (spec, iteration), (multipliers, clipped) in \
                    model._memo.items():
                expected, expected_clipped = reference_multipliers(
                    model.seed, spec, iteration, 0.3, 64)
                assert multipliers.tobytes() == expected.tobytes()
                assert clipped.tobytes() == expected_clipped.tobytes()


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


class TestIterationValidation:
    @pytest.mark.parametrize("iteration,equivalent",
                             [(np.int64(2), 2), (np.uint8(7), 7), (True, 1)])
    def test_integer_like_iterations_key_their_value(self, iteration,
                                                     equivalent):
        """Both entry points coerce an iteration as ``SeedSequence``
        coerces an int of its entropy list, and memoize it under the
        int."""
        expected, _ = reference_multipliers(3, SPEC, iteration, 0.05, 10)
        same, _ = reference_multipliers(3, SPEC, equivalent, 0.05, 10)
        assert expected.tobytes() == same.tobytes()
        lone = LaunchKeyedNoise(0.05, 3, 10)
        multipliers, _ = lone.multipliers_for(SPEC, iteration)
        assert multipliers.tobytes() == expected.tobytes()
        filled = LaunchKeyedNoise(0.05, 3, 10)
        fill_memos([filled], [(SPEC, iteration)])
        for model in (lone, filled):
            ((spec, key),) = model._memo
            assert type(key) is int and key == equivalent
            multipliers, _ = model._memo[SPEC, equivalent]
            assert multipliers.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("iteration", [2.0, "2", None])
    def test_non_integer_iteration_rejected(self, iteration):
        model = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        model.multipliers_for(SPEC, 2)      # a memoized 2 serves no 2.0
        with pytest.raises(TypeError):
            model.multipliers_for(SPEC, iteration)
        with pytest.raises(TypeError):
            fill_memos([model], [(SPEC, iteration)])
        assert list(model._memo) == [(SPEC, 2)]

    def test_negative_numpy_iteration_rejected(self):
        model = LaunchKeyedNoise(0.05, seed=3, grid_size=10)
        with pytest.raises(ValueError):
            model.multipliers_for(SPEC, np.int64(-1))
        with pytest.raises(ValueError):
            fill_memos([model], [(SPEC, np.int64(-1))])
        assert not model._memo


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
