"""The hardware-platform facade.

Everything above the substrate — sensitivity measurement, the Harmonia
controller, the oracle, the benchmarks — interacts with the simulated test
bed exclusively through :class:`HardwarePlatform`:

    result = platform.launch(spec, config)

which is the software-visible contract a real rig offers (launch a kernel
at a configuration; read back time, counters, and DAQ power). Launches
index the kernel's cached full-grid surface; :meth:`HardwarePlatform.
run_kernel` evaluates one launch from scratch and is the scalar reference
the surface is tested against. An optional
run-to-run noise term models the measurement variance the paper averages
away by running each application multiple times (Section 6). Noise is
**launch-keyed** (:mod:`repro.platform.noise`): a launch's multiplier is a
pure function of ``(seed, kernel spec, iteration, config)``, so noisy
evaluation is order-independent, batchable, and identical between the
scalar and vectorized paths.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import TYPE_CHECKING, Hashable, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.config import ConfigSpace, HardwareConfig
from repro.memory.controller import MemoryControllerModel
from repro.perf.batch import BatchRunResult, config_grid
from repro.perf.kernelspec import KernelSpec
from repro.perf.model import PerformanceModel
from repro.perf.result import KernelRunResult
from repro.platform.calibration import (PlatformCalibration, default_calibration, pitcairn_calibration)
from repro.platform.sweepcache import (SweepCache, grid_space, shared_cache,
                                       sweep_key)
from repro.power.board import BoardPowerModel
from repro.telemetry.spans import ambient_telemetry

if TYPE_CHECKING:
    from repro.platform.noise import LaunchKeyedNoise


class HardwarePlatform:
    """A simulated HD7970 card: performance + power + measurement."""

    def __init__(self, calibration: Optional[PlatformCalibration] = None,
                 noise_std_fraction: float = 0.0, seed: int = 0):
        """
        Args:
            calibration: substrate constants; defaults to
                :func:`~repro.platform.calibration.default_calibration`.
            noise_std_fraction: run-to-run execution-time noise as a
                finite, non-negative fraction of the launch time (0
                disables noise). Draws are launch-keyed: the same
                ``(seed, spec, iteration, config)`` always yields the
                same multiplier.
            seed: key seed for the launch-keyed noise.

        Under a traced run, clipped noise draws feed the ambient span's
        ``noise_floor_clips_total`` counter, and each full-grid
        evaluation runs in a ``batch_sweep.compute`` span.
        """
        self._cal = calibration or default_calibration()
        arch = self._cal.arch
        self._space = grid_space(arch)
        controller = MemoryControllerModel(arch=arch, timing=self._cal.gddr5_timing)
        self._perf = PerformanceModel(
            arch=arch,
            controller=controller,
            clock_domains=self._cal.clock_domain_model(),
        )
        self._board = BoardPowerModel(
            gpu=self._cal.gpu_power_model(),
            memory=self._cal.memory_power_model(),
            other_power=self._cal.other_power,
        )
        if not (noise_std_fraction >= 0 and math.isfinite(noise_std_fraction)):
            raise ValueError("noise_std_fraction must be finite and >= 0")
        self._noise = noise_std_fraction
        self._noise_model: Optional[LaunchKeyedNoise] = None
        if noise_std_fraction > 0:
            # Only a noisy platform loads the noise model's module.
            from repro.platform.noise import LaunchKeyedNoise
            self._noise_model = LaunchKeyedNoise(
                noise_std_fraction, seed, len(self._space))
        self._noise_clips = 0
        # Per-spec surface memo for the launch fast path: keyed by the
        # (cheaply hashable) KernelSpec alone, since calibration and grid
        # are fixed per platform instance. Entries are deterministic, so
        # a memoized reference can never go stale. Population is
        # double-checked under the lock so concurrent launch threads
        # produce exactly one grid_sweep (and one sweep-cache lookup)
        # per spec — keeping cache counters scheduling-independent.
        self._launch_surfaces: dict = {}
        self._launch_surfaces_lock = threading.Lock()

    # --- accessors ------------------------------------------------------------

    @property
    def calibration(self) -> PlatformCalibration:
        """The substrate constants in use."""
        return self._cal

    @property
    def config_space(self) -> ConfigSpace:
        """The ~450-point hardware configuration grid, shared by every
        platform of this architecture
        (:func:`~repro.platform.sweepcache.grid_space`)."""
        return self._space

    @property
    def performance_model(self) -> PerformanceModel:
        """The underlying analytical performance model."""
        return self._perf

    @property
    def noise_std_fraction(self) -> float:
        """Run-to-run execution-time noise fraction (0 = deterministic)."""
        return self._noise

    @property
    def noise_clip_count(self) -> int:
        """Launches whose noise draw hit the
        :data:`~repro.platform.noise.NOISE_FLOOR` clamp.

        The clamp (``max(0.05, 1 + draw)``) keeps launch times positive
        under heavy noise but truncates the fast tail of the distribution;
        this counter (and the ``noise_floor_clips_total`` telemetry
        counter) makes the truncation observable instead of silent.
        """
        return self._noise_clips

    @property
    def is_deterministic(self) -> bool:
        """True when launches are noise-free.

        Both paths work either way — with launch-keyed noise the batch
        path serves noisy platforms too — but noise-free platforms skip
        the draw entirely.
        """
        return self._noise == 0

    def _record_clips(self, spec: KernelSpec, count: int) -> None:
        """Account noise draws clipped at the floor (see noise_clip_count)."""
        if count <= 0:
            return
        self._noise_clips += count
        ambient_telemetry().metrics.counter(
            "noise_floor_clips_total",
            "noise draws clipped at the multiplier floor",
        ).inc(count, kernel=spec.name)

    def baseline_config(self) -> HardwareConfig:
        """The shipping PowerTune operating point.

        Section 7: "Due to the consistent availability of thermal headroom,
        the baseline power management always runs at the boost frequency of
        1 GHz for all applications" — with all CUs and maximum memory bus.
        """
        return self._space.max_config()

    # --- main entry ------------------------------------------------------------

    def run_kernel(self, spec: KernelSpec, config: HardwareConfig,
                   iteration: int = 0) -> KernelRunResult:
        """Launch ``spec`` at ``config`` and measure it.

        Args:
            spec: the kernel to launch.
            config: the hardware configuration to launch at.
            iteration: the application iteration of this launch — a key
                component of the noise draw, so repeated launches of the
                same kernel across iterations see independent noise while
                the *same* launch always sees the same multiplier. Ignored
                on a noise-free platform.

        Raises:
            ConfigurationError: if ``config`` is off the platform grid.
        """
        self._space.validate(config)
        output = self._perf.run(spec, config)

        time = output.time
        if self._noise > 0:
            multiplier, clipped = self._noise_model.multiplier_at(
                spec, iteration, self._space.index_of(config)
            )
            time *= multiplier
            if clipped:
                self._record_clips(spec, 1)

        power = self._board.sample(
            config=config,
            counters=output.counters,
            achieved_bandwidth=output.achieved_bandwidth,
        )
        return KernelRunResult(
            kernel_name=spec.name,
            config=config,
            time=time,
            breakdown=output.breakdown,
            counters=output.counters,
            power=power,
            achieved_bandwidth=output.achieved_bandwidth,
            occupancy=output.occupancy.occupancy,
            bandwidth_limit=output.bandwidth_limit,
        )

    # --- batched entry ----------------------------------------------------------

    def run_kernel_batch(
        self,
        spec: KernelSpec,
        configs: Optional[Sequence[HardwareConfig]] = None,
        iteration: int = 0,
    ) -> BatchRunResult:
        """Launch ``spec`` at many configurations in one vectorized pass.

        Equivalent to calling :meth:`run_kernel` once per configuration,
        but evaluated as NumPy array expressions over the configuration
        axis — one model evaluation for the whole grid instead of ~450
        Python round trips. On a noisy platform the deterministic surface
        is evaluated once and the launch-keyed noise is applied as one
        vectorized draw over the configuration axis; each element is
        bitwise identical to the corresponding scalar launch.

        Args:
            spec: the kernel to evaluate.
            configs: configurations to evaluate, in order; defaults to the
                platform's full configuration grid.
            iteration: the application iteration keying the noise draws
                (ignored on a noise-free platform).

        Raises:
            ConfigurationError: if a configuration is off the platform grid.
        """
        batch = self._run_batch_clean(spec, configs)
        if self._noise > 0:
            batch = self._perturb(batch, spec, iteration)
        return batch

    def _run_batch_clean(
        self,
        spec: KernelSpec,
        configs: Optional[Sequence[HardwareConfig]] = None,
    ) -> BatchRunResult:
        """The deterministic (noise-free) batch surface."""
        if configs is None:
            configs = self._space.configs
        else:
            configs = tuple(configs)
            for config in configs:
                self._space.validate(config)

        model = self._perf.run_batch(spec, configs)
        grid = config_grid(configs)
        gpu_watts, mem_watts = self._board.sample_batch(
            n_cu=grid.n_cu,
            f_cu=grid.f_cu,
            f_mem=grid.f_mem,
            counters=model.counters,
            achieved_bandwidth=model.achieved_bandwidth,
        )
        return BatchRunResult(
            kernel_name=spec.name,
            configs=configs,
            model=model,
            gpu_power=gpu_watts,
            memory_power=mem_watts,
            other_power=self._board.other_power,
        )

    def _perturb(self, batch: BatchRunResult, spec: KernelSpec,
                 iteration: int) -> BatchRunResult:
        """Apply the launch-keyed noise to a clean batch surface."""
        multipliers, clipped = self._noise_model.multipliers_for(
            spec, iteration
        )
        positions = config_grid(self._space.configs).index
        indices = np.array(
            [positions[c] for c in batch.configs], dtype=np.intp
        )
        self._record_clips(spec, int(np.count_nonzero(clipped[indices])))
        return batch.with_time_multipliers(multipliers[indices])

    def launch(self, spec: KernelSpec, config: HardwareConfig,
               iteration: int = 0) -> KernelRunResult:
        """Launch ``spec`` at ``config``, served from the cached grid
        surface.

        Same observable contract as :meth:`run_kernel` — field by field,
        and in the noise-clip count — but repeated launches of the same
        kernel (the kernel-boundary execution loop re-launches every spec
        each iteration) index one memoized :meth:`launch_surface` instead
        of re-running the model, and that surface comes from the two-tier
        sweep cache, so whole application runs are store-served across
        processes. On a noisy platform the clean element takes its
        launch-keyed draw through :meth:`noisy_result_from`, exactly as
        in the batched session engine.

        Args:
            spec: the kernel to launch.
            config: the hardware configuration to launch at.
            iteration: the application iteration of this launch (noise
                key; ignored on a noise-free platform).

        Raises:
            ConfigurationError: if ``config`` is off the platform grid.
        """
        index = self.grid_index(config)
        result = self.launch_surface(spec).result_at(index)
        if self._noise > 0:
            return self.noisy_result_from(result, spec, iteration,
                                          index=index)
        return result

    def launch_surface(self, spec: KernelSpec) -> BatchRunResult:
        """The memoized deterministic launch surface of ``spec``.

        The clean full-grid surface that :meth:`launch` indexes on a
        deterministic platform, exposed for the batched session engine
        (:mod:`repro.runtime.session`): per-index results are the exact
        memoized objects scalar launches return, so serving lanes from
        this surface is identity-equal — not merely value-equal — to the
        scalar path. On a noisy platform this is the *clean* base
        surface; per-launch noise is applied by
        :meth:`noisy_result_from` (the same keyed draw
        :meth:`run_kernel` uses).

        Hot path: thousands of launches per application run. Memoized
        per (cheaply hashable) spec so repeated launches skip re-hashing
        the full (calibration, spec, axes) cache key; population is
        double-checked under a lock so concurrent callers produce
        exactly one sweep-cache lookup per spec.
        """
        surface = self._launch_surfaces.get(spec)
        if surface is None:
            with self._launch_surfaces_lock:
                surface = self._launch_surfaces.get(spec)
                if surface is None:
                    surface = self._clean_sweep(spec)
                    self._launch_surfaces[spec] = surface
        return surface

    def grid_index(self, config: HardwareConfig) -> int:
        """Position of ``config`` in grid iteration order
        (``config_space.index_of``, one dict probe).

        Raises:
            ConfigurationError: if ``config`` is off the platform grid.
        """
        return self._space.index_of(config)

    def noise_draws(self, spec: KernelSpec, iteration: int):
        """The full-grid ``(multipliers, clipped)`` draw vectors of one
        ``(spec, iteration)`` — read-only, memoized by the noise model.

        Exposed so the batched session engine can fetch one platform's
        draw stream once per lockstep step and index it per lane,
        instead of paying the memo lookup on every launch.

        Raises:
            ConfigurationError: on a noise-free platform (there is no
                draw stream to expose).
        """
        if self._noise <= 0:
            raise ConfigurationError("platform has no noise model")
        return self._noise_model.multipliers_for(spec, iteration)

    def noisy_result_from(self, base: KernelRunResult, spec: KernelSpec,
                          iteration: int, index: Optional[int] = None,
                          draws=None) -> KernelRunResult:
        """Apply the launch-keyed noise draw to one clean launch result.

        The batched session engine's per-launch noisy path: the same
        multiplier, floor-clip accounting and result values as
        :meth:`run_kernel` at this ``(spec, iteration, config)``, but
        starting from the memoized clean surface element instead of a
        fresh scalar model evaluation (the two are element-exact).

        Args:
            base: the clean surface element to perturb.
            spec: the launched kernel.
            iteration: the application iteration keying the draw.
            index: ``base``'s grid index, when the caller already knows
                it (skips the config-to-index lookup).
            draws: the ``(multipliers, clipped)`` vectors from
                :meth:`noise_draws`, when the caller batches launches of
                one ``(spec, iteration)`` (skips the memo lookup).
        """
        if index is None:
            index = self.grid_index(base.config)
        if draws is None:
            draws = self._noise_model.multipliers_for(spec, iteration)
        multipliers, clipped = draws
        if clipped[index]:
            self._record_clips(spec, 1)
        # Hot path: one unpack and the tuple constructor, skipping the
        # generated ``__new__`` (``KernelRunResult`` checks nothing).
        (name, config, time, breakdown, counters, power, bandwidth,
         occupancy, limit) = base
        return tuple.__new__(KernelRunResult, (
            name, config, time * float(multipliers[index]), breakdown,
            counters, power, bandwidth, occupancy, limit))

    def sweep_cache_key(self, spec: KernelSpec) -> Hashable:
        """The shared-cache key of this platform's full-grid sweep of
        ``spec``: calibration, kernel and grid axes, all by value (see
        :func:`~repro.platform.sweepcache.sweep_key`)."""
        return sweep_key(self._cal, spec)

    def grid_sweep(
        self, spec: KernelSpec, cache: Optional[SweepCache] = None,
        iteration: int = 0,
    ) -> BatchRunResult:
        """Full-grid batch evaluation of ``spec`` through the sweep cache.

        All whole-grid consumers (oracle, sensitivity measurement,
        characterization, analysis sweeps) go through this entry so one
        kernel's 450-point surface is computed once per process and shared.

        Only the *deterministic* surface is ever cached; on a noisy
        platform the launch-keyed noise is applied after the cache lookup
        as a vectorized draw (cache-then-perturb), so noisy consumers get
        both the cache's amortization and fresh, correctly keyed noise —
        no frozen realization can be served.

        Args:
            spec: the kernel to evaluate.
            cache: the cache to consult; defaults to the process-wide
                :func:`~repro.platform.sweepcache.shared_cache`.
            iteration: the application iteration keying the noise draws
                (ignored on a noise-free platform).
        """
        batch = self._clean_sweep(spec, cache=cache)
        if self._noise > 0:
            batch = self._perturb(batch, spec, iteration)
        return batch

    def _clean_sweep(self, spec: KernelSpec,
                     cache: Optional[SweepCache] = None) -> BatchRunResult:
        """The cached deterministic full-grid surface of ``spec``."""
        if cache is None:
            cache = shared_cache()

        def compute() -> BatchRunResult:
            # Only cache misses pay the full-grid evaluation; span it so
            # a traced run shows exactly which kernels were recomputed
            # and where that time went.
            with ambient_telemetry().span("batch_sweep.compute",
                                          kernel=spec.name):
                return self._run_batch_clean(spec)

        return cache.get_or_compute(self.sweep_cache_key(spec), compute)


def make_hd7970_platform(noise_std_fraction: float = 0.0, seed: int = 0,
                         memory_voltage_scaling: bool = False,
                         ) -> HardwarePlatform:
    """Convenience constructor for the default-calibrated test bed.

    Args:
        noise_std_fraction: run-to-run execution-time noise fraction.
        seed: key seed for the launch-keyed noise.
        memory_voltage_scaling: enable the Section 7.2 what-if — scale the
            memory bus voltage with its frequency (the paper's platform
            could not; enabling it makes memory-side savings larger).
    """
    calibration = default_calibration()
    if memory_voltage_scaling:
        calibration = dataclasses.replace(
            calibration, memory_voltage_scaling=True
        )
    return HardwarePlatform(
        calibration=calibration,
        noise_std_fraction=noise_std_fraction,
        seed=seed,
    )


def make_pitcairn_platform(noise_std_fraction: float = 0.0,
                           seed: int = 0) -> HardwarePlatform:
    """The Pitcairn-class portability test bed (Section 4.3's claim).

    A smaller GCN sibling — 20 CUs, four GDDR5 channels, 154 GB/s peak —
    on which the full Section 4 pipeline (measure, train, bin) and the
    Harmonia controller run unchanged.
    """
    return HardwarePlatform(
        calibration=pitcairn_calibration(),
        noise_std_fraction=noise_std_fraction,
        seed=seed,
    )
