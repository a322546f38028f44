"""Hardware tunables and the Section 3.1 configuration space.

The paper defines:

* a **compute configuration** — (number of active CUs, CU frequency),
* a **memory configuration** — the memory bus frequency (equivalently the
  peak bandwidth it delivers),
* a **hardware configuration** — one of each, ~450 combinations total
  (8 CU counts x 8 compute frequencies x 7 memory frequencies = 448).

Each hardware configuration delivers a specific platform ops/byte: peak
compute throughput divided by peak memory bandwidth. Balance (Section 3.2)
is about matching that to the application's demanded ops/byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ConfigurationError
from repro.gpu.architecture import GpuArchitecture
from repro.units import hz_to_mhz


@dataclass(frozen=True)
class HardwareConfig:
    """A full hardware configuration (compute + memory) on a platform grid."""

    n_cu: int
    f_cu: float
    f_mem: float

    def __hash__(self) -> int:
        # Configs key per-launch dict lookups (grid indices, residency
        # tables, phase memories); the value is computed once per frozen
        # instance. Numeric-field hashes are process-stable, so — unlike
        # a string-keyed spec — the cached value is safe to pickle. Same
        # tuple as the generated implementation, so hash values and dict
        # iteration orders are unchanged.
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash((self.n_cu, self.f_cu, self.f_mem))
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    def describe_compute(self) -> str:
        """The compute configuration alone, e.g. ``32CU@925MHz``."""
        return f"{self.n_cu}CU@{hz_to_mhz(self.f_cu):.0f}MHz"

    def describe(self) -> str:
        """Human-readable form, e.g. ``32CU@925MHz/mem@1375MHz``."""
        return (f"{self.describe_compute()}"
                f"/mem@{hz_to_mhz(self.f_mem):.0f}MHz")

    def replace(self, n_cu: Optional[int] = None, f_cu: Optional[float] = None,
                f_mem: Optional[float] = None) -> "HardwareConfig":
        """Return a copy with the given tunables replaced."""
        return HardwareConfig(
            n_cu=self.n_cu if n_cu is None else n_cu,
            f_cu=self.f_cu if f_cu is None else f_cu,
            f_mem=self.f_mem if f_mem is None else f_mem,
        )


class ConfigSpace:
    """The discrete configuration grid of one GPU platform.

    Provides validation, enumeration, neighbour stepping (used by the FG
    tuner, which moves one grid step at a time: CU step = 4, compute
    frequency step = 100 MHz, memory step = 150 MHz / 30 GB/s), and the
    platform ops/byte of a configuration.
    """

    def __init__(self, arch: GpuArchitecture):
        self._arch = arch
        self._cu_counts: Tuple[int, ...] = arch.cu_counts()
        self._f_cu_grid: Tuple[float, ...] = tuple(arch.compute_frequencies)
        self._f_mem_grid: Tuple[float, ...] = tuple(arch.memory_bus_frequencies)
        # Lazily built config -> grid position map: validate()'s accept
        # set and index_of()'s answer in one probe.
        self._positions: Optional[Dict[HardwareConfig, int]] = None
        # Lazily materialized grid for __iter__: callers enumerate the
        # space thousands of times per run (batch index maps, grid
        # sweeps, samplers), and yielding fresh HardwareConfig objects
        # made every pass re-hash every config. One shared tuple means
        # one object — and one cached hash — per grid point; grid steps
        # and the corner configurations hand out these objects too.
        self._configs: Optional[Tuple[HardwareConfig, ...]] = None

    # --- basic accessors ----------------------------------------------------

    @property
    def arch(self) -> GpuArchitecture:
        """The underlying architecture description."""
        return self._arch

    @property
    def cu_counts(self) -> Tuple[int, ...]:
        """Supported active-CU counts, ascending."""
        return self._cu_counts

    @property
    def compute_frequencies(self) -> Tuple[float, ...]:
        """Supported compute frequencies (Hz), ascending."""
        return self._f_cu_grid

    @property
    def memory_frequencies(self) -> Tuple[float, ...]:
        """Supported memory bus frequencies (Hz), ascending."""
        return self._f_mem_grid

    def __len__(self) -> int:
        return len(self._cu_counts) * len(self._f_cu_grid) * len(self._f_mem_grid)

    def __iter__(self) -> Iterator[HardwareConfig]:
        return iter(self._materialized())

    @property
    def configs(self) -> Tuple[HardwareConfig, ...]:
        """Every grid point in iteration order, as one shared tuple (the
        same object on every call, so per-grid memos can key on it)."""
        return self._materialized()

    def _materialized(self) -> Tuple[HardwareConfig, ...]:
        configs = self._configs
        if configs is None:
            # Benign race under threads: both sides build identical
            # tuples and the last assignment wins.
            configs = tuple(
                HardwareConfig(n_cu, f_cu, f_mem)
                for n_cu in self._cu_counts
                for f_cu in self._f_cu_grid
                for f_mem in self._f_mem_grid
            )
            self._configs = configs
        return configs

    def __contains__(self, config: HardwareConfig) -> bool:
        return (
            config.n_cu in self._cu_counts
            and config.f_cu in self._f_cu_grid
            and config.f_mem in self._f_mem_grid
        )

    def index_of(self, config: HardwareConfig) -> int:
        """Position of ``config`` in grid iteration order.

        The inverse of enumeration: ``tuple(space)[space.index_of(c)] == c``.
        Used as the launch-keyed noise model's per-configuration draw
        position, so it must be stable for a given grid.

        Raises:
            ConfigurationError: if ``config`` is off the grid.
        """
        try:
            return self._position_map()[config]
        except KeyError:
            self.validate(config)  # raises, naming the offending tunable
            raise

    def _position_map(self) -> Dict[HardwareConfig, int]:
        positions = self._positions
        if positions is None:
            positions = {c: i for i, c in enumerate(self._materialized())}
            self._positions = positions
        return positions

    # --- named corner configurations ----------------------------------------

    def min_config(self) -> HardwareConfig:
        """The minimum configuration the paper normalizes to.

        4 CUs, 300 MHz compute, 475 MHz memory bus (90 GB/s).
        """
        return self._materialized()[0]

    def max_config(self) -> HardwareConfig:
        """The maximum (baseline boost) configuration."""
        return self._materialized()[-1]

    def validate(self, config: HardwareConfig) -> HardwareConfig:
        """Return ``config`` if it lies on the grid, else raise.

        Raises:
            ConfigurationError: with a message naming the offending tunable.
        """
        # Fast path: one cached-hash probe instead of three linear tuple
        # scans. The per-tunable checks below are kept as the reject path
        # for their precise error messages.
        if config in self._position_map():
            return config
        if config.n_cu not in self._cu_counts:
            raise ConfigurationError(
                f"unsupported CU count {config.n_cu}; grid is {self._cu_counts}"
            )
        if config.f_cu not in self._f_cu_grid:
            raise ConfigurationError(
                f"unsupported compute frequency {config.f_cu:.3e} Hz"
            )
        if config.f_mem not in self._f_mem_grid:
            raise ConfigurationError(
                f"unsupported memory frequency {config.f_mem:.3e} Hz"
            )
        return config

    # --- grid stepping --------------------------------------------------------

    def _step(self, config: HardwareConfig, stride: int, size: int,
              delta: int) -> HardwareConfig:
        """The grid point ``delta`` steps along the axis with ``size``
        values and position ``stride`` (clamped at its ends)."""
        index = self.index_of(config)
        position = index // stride % size
        moved = max(0, min(size - 1, position + delta))
        return self._materialized()[index + (moved - position) * stride]

    def step_cu(self, config: HardwareConfig, delta: int) -> HardwareConfig:
        """Move ``delta`` grid steps in active-CU count (clamped at ends)."""
        return self._step(config, len(self._f_cu_grid) * len(self._f_mem_grid),
                          len(self._cu_counts), delta)

    def step_f_cu(self, config: HardwareConfig, delta: int) -> HardwareConfig:
        """Move ``delta`` grid steps in compute frequency (clamped at ends)."""
        return self._step(config, len(self._f_mem_grid),
                          len(self._f_cu_grid), delta)

    def step_f_mem(self, config: HardwareConfig, delta: int) -> HardwareConfig:
        """Move ``delta`` grid steps in memory bus frequency (clamped)."""
        return self._step(config, 1, len(self._f_mem_grid), delta)

    def snap(self, n_cu: int, f_cu: float, f_mem: float) -> HardwareConfig:
        """Snap arbitrary tunable values to the nearest grid point."""
        best_cu = min(self._cu_counts, key=lambda c: abs(c - n_cu))
        best_f_cu = min(self._f_cu_grid, key=lambda f: abs(f - f_cu))
        best_f_mem = min(self._f_mem_grid, key=lambda f: abs(f - f_mem))
        return HardwareConfig(best_cu, best_f_cu, best_f_mem)

    def fraction_to_grid(self, frac_cu: float, frac_f_cu: float,
                         frac_f_mem: float) -> HardwareConfig:
        """Map per-tunable fractions in [0, 1] to a grid configuration.

        A fraction of 0 maps to the minimum grid value, 1 to the maximum.
        Used by the coarse-grain tuner, whose sensitivity bins translate to
        fractions of each tunable's range.
        """
        def pick(grid: Tuple, frac: float):
            frac = max(0.0, min(1.0, frac))
            idx = round(frac * (len(grid) - 1))
            return grid[idx]

        return HardwareConfig(
            n_cu=pick(self._cu_counts, frac_cu),
            f_cu=pick(self._f_cu_grid, frac_f_cu),
            f_mem=pick(self._f_mem_grid, frac_f_mem),
        )

    # --- platform balance --------------------------------------------------------

    def platform_ops_per_byte(self, config: HardwareConfig) -> float:
        """Peak compute throughput / peak memory bandwidth for ``config``.

        This is the "hardware ops/byte" on the x-axes of Figures 3-5.
        """
        flops = self._arch.peak_flops(config.n_cu, config.f_cu)
        bandwidth = self._arch.peak_memory_bandwidth(config.f_mem)
        return flops / bandwidth
