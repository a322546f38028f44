"""Batched (vectorized) evaluation results for whole configuration grids.

The scalar path — :meth:`~repro.platform.hd7970.HardwarePlatform.run_kernel`
— evaluates one (kernel, configuration) pair at a time and returns one
:class:`~repro.perf.result.KernelRunResult`. Every expensive workflow in
this repro (the ED² oracle, the Table 3 training-set build, the Figure 3-6
sweeps, the characterization suite) walks the same ~450-point grid, so the
batch path evaluates the whole grid at once: every per-configuration
quantity becomes a NumPy array over the configuration axis.

Everything fixed per grid — the tunables as float64 arrays and each
configuration's position — is built once per configs tuple
(:func:`config_grid`) and shared by every surface over that grid.

Two containers mirror the scalar result types:

* :class:`BatchModelOutput` ↔ :class:`~repro.perf.model.ModelOutput` —
  the performance model's raw outputs before power is attached,
* :class:`BatchRunResult` ↔ :class:`~repro.perf.result.KernelRunResult` —
  the full platform observation, including power and energy.

The vectorized kernels mirror the scalar arithmetic operation for
operation, so :meth:`BatchRunResult.result_at` reconstructs per-launch
results that match the scalar path exactly (to within one or two ULPs on
power terms, where ``x ** 2`` implementations may differ) — the batch/scalar
equivalence tests pin this down to a 1e-12 relative tolerance.
"""

from __future__ import annotations

import copy
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.gpu.config import HardwareConfig
from repro.gpu.occupancy import OccupancyResult
from repro.perf.counters import PerfCounters
from repro.perf.result import KernelRunResult, PowerSample, TimeBreakdown

#: Names of the limit that binds a launch's DRAM bandwidth, indexed by
#: the code the batched model computes: no DRAM traffic, the L2->MC
#: clock-domain crossing, controller efficiency, memory-level
#: parallelism. A surface's ``bandwidth_limit`` holds these very string
#: objects, so its 448 entries cost one tuple, not 448 strings.
BANDWIDTH_LIMITS: Tuple[str, ...] = ("none", "crossing", "efficiency", "mlp")


class ConfigGrid:
    """The per-grid constants every surface over one configs tuple shares.

    Attributes:
        configs: the configurations, in surface order.
        n_cu: active CU counts as read-only float64 (small integers are
            exact in float64, so the batched arithmetic matches the
            scalar int/float mix bit for bit).
        f_cu: compute frequencies (Hz), read-only float64.
        f_mem: memory bus frequencies (Hz), read-only float64.
        index: configuration -> position in ``configs``.
    """

    __slots__ = ("configs", "n_cu", "f_cu", "f_mem", "index")

    def __init__(self, configs: Tuple[HardwareConfig, ...]):
        self.configs = configs
        self.n_cu = _frozen([c.n_cu for c in configs])
        self.f_cu = _frozen([c.f_cu for c in configs])
        self.f_mem = _frozen([c.f_mem for c in configs])
        self.index: Dict[HardwareConfig, int] = {
            c: i for i, c in enumerate(configs)}


def _frozen(values: List[float]) -> np.ndarray:
    array = np.array(values, dtype=np.float64)
    array.setflags(write=False)
    return array


#: ``id(configs) -> ConfigGrid``; each grid holds its tuple, so the id
#: stays taken while the entry lives. Computed and store-loaded surfaces
#: share their architecture's one configs tuple, so the memo stays tiny.
_GRIDS: Dict[int, ConfigGrid] = {}


def config_grid(configs: Tuple[HardwareConfig, ...]) -> ConfigGrid:
    """The :class:`ConfigGrid` of ``configs``, built once per tuple
    object (a platform's surfaces all pass its ``config_space.configs``)."""
    grid = _GRIDS.get(id(configs))
    if grid is None or grid.configs is not configs:
        grid = ConfigGrid(configs)
        if len(_GRIDS) >= 64:
            _GRIDS.clear()
        _GRIDS[id(configs)] = grid
    return grid


class BatchCounters(NamedTuple):
    """Performance counters over the configuration axis.

    Configuration-dependent counters are arrays; configuration-invariant
    ones (divergence, register pressure, instruction counts) are scalars,
    exactly as the scalar synthesis produces them.
    """

    #: % of total GPU time processing vector ALU instructions, per config
    valu_busy: np.ndarray
    #: % of total GPU time the memory fetch/read unit is active, per config
    mem_unit_busy: np.ndarray
    #: % of total GPU time the memory fetch/read unit is stalled, per config
    mem_unit_stalled: np.ndarray
    #: % of total GPU time the write/store unit is stalled, per config
    write_unit_stalled: np.ndarray
    #: off-chip interconnect utilization (Eq. 1) in [0, 1], per config
    ic_activity: np.ndarray
    #: % of active vector ALU threads in a wave (config-invariant)
    valu_utilization: float
    #: VGPRs used, normalized (config-invariant)
    norm_vgpr: float
    #: SGPRs used, normalized (config-invariant)
    norm_sgpr: float
    #: total vector ALU instructions executed, millions (config-invariant)
    valu_insts_millions: float
    #: total vector fetch instructions, millions (config-invariant)
    vfetch_insts_millions: float
    #: total vector write instructions, millions (config-invariant)
    vwrite_insts_millions: float

    def at(self, index: int) -> PerfCounters:
        """The scalar :class:`PerfCounters` of one configuration."""
        return PerfCounters(
            valu_utilization=self.valu_utilization,
            valu_busy=float(self.valu_busy[index]),
            mem_unit_busy=float(self.mem_unit_busy[index]),
            mem_unit_stalled=float(self.mem_unit_stalled[index]),
            write_unit_stalled=float(self.write_unit_stalled[index]),
            ic_activity=float(self.ic_activity[index]),
            norm_vgpr=self.norm_vgpr,
            norm_sgpr=self.norm_sgpr,
            valu_insts_millions=self.valu_insts_millions,
            vfetch_insts_millions=self.vfetch_insts_millions,
            vwrite_insts_millions=self.vwrite_insts_millions,
        )


class BatchModelOutput(NamedTuple):
    """Raw performance-model outputs for a batch of configurations."""

    #: per-configuration compute-pipeline time (s)
    compute_time: np.ndarray
    #: per-configuration memory-system time (s)
    memory_time: np.ndarray
    #: per-configuration un-overlapped residue (s)
    overlap_residue: np.ndarray
    #: fixed launch/driver overhead (s, config-invariant)
    launch_overhead: float
    #: per-configuration total launch time (s)
    time: np.ndarray
    #: per-configuration achieved DRAM bandwidth (B/s)
    achieved_bandwidth: np.ndarray
    #: the kernel's occupancy (config-invariant)
    occupancy: OccupancyResult
    #: per-configuration binding bandwidth limit (a
    #: :data:`BANDWIDTH_LIMITS` name)
    bandwidth_limit: Tuple[str, ...]
    #: synthesised counters over the batch
    counters: BatchCounters


class BatchRunResult:
    """Everything observed from one kernel across a batch of configs.

    The array-of-structs scalar result becomes a struct-of-arrays: each
    field holds one value per configuration, in the order of ``configs``.
    """

    def __init__(
        self,
        kernel_name: str,
        configs: Tuple[HardwareConfig, ...],
        model: BatchModelOutput,
        gpu_power: np.ndarray,
        memory_power: np.ndarray,
        other_power: float,
    ):
        self.kernel_name = kernel_name
        self.configs = configs
        self.time = model.time
        self.compute_time = model.compute_time
        self.memory_time = model.memory_time
        self.overlap_residue = model.overlap_residue
        self.launch_overhead = model.launch_overhead
        self.achieved_bandwidth = model.achieved_bandwidth
        self.occupancy = model.occupancy
        self.bandwidth_limit = model.bandwidth_limit
        self.counters = model.counters
        self.gpu_power = gpu_power
        self.memory_power = memory_power
        self.other_power = other_power
        #: per-configuration total card power (W)
        self.card_power = gpu_power + memory_power + other_power
        #: per-configuration card energy (J)
        self.energy = self.card_power * self.time
        self._grid = config_grid(configs)
        self._result_cache: Dict[int, "KernelRunResult"] = {}

    def __len__(self) -> int:
        return len(self.configs)

    # --- derived metric surfaces ---------------------------------------------

    @property
    def performance(self) -> np.ndarray:
        """Per-configuration performance (1 / time)."""
        return 1.0 / self.time

    @property
    def ed(self) -> np.ndarray:
        """Per-configuration energy-delay (J*s)."""
        return self.energy * self.time

    @property
    def ed2(self) -> np.ndarray:
        """Per-configuration energy-delay-squared (J*s^2)."""
        return self.energy * self.time * self.time

    def with_time_multipliers(self, multipliers: np.ndarray) -> "BatchRunResult":
        """A copy with every launch time scaled element-wise.

        This is how the platform applies measurement noise to a batch: the
        deterministic surface stays cacheable and the noise is a
        post-lookup perturbation of ``time`` (and of the time-derived
        ``energy`` / ``ed`` / ``ed2`` / ``performance``). Power samples,
        counters and the time breakdown stay the noise-free model outputs
        — exactly as on the scalar path, where noise multiplies only the
        reported launch time.

        Raises:
            AnalysisError: if ``multipliers`` does not match the batch
                length one-to-one.
        """
        multipliers = np.asarray(multipliers, dtype=np.float64)
        if multipliers.shape != self.time.shape:
            raise AnalysisError(
                f"need one multiplier per configuration: got shape "
                f"{multipliers.shape} for {len(self)} configs"
            )
        clone = copy.copy(self)
        clone.time = self.time * multipliers
        clone.energy = clone.card_power * clone.time
        clone._result_cache = {}  # times differ: never share scalar results
        return clone

    # --- lookups -------------------------------------------------------------

    def index_of(self, config: HardwareConfig) -> int:
        """Position of ``config`` in the batch.

        Raises:
            AnalysisError: if the batch does not contain ``config``.
        """
        try:
            return self._grid.index[config]
        except KeyError:
            raise AnalysisError(
                f"batch does not contain configuration {config.describe()}"
            ) from None

    def time_at(self, config: HardwareConfig) -> float:
        """Launch time (s) at one configuration."""
        return float(self.time[self.index_of(config)])

    def result_at(self, index: int) -> KernelRunResult:
        """Reconstruct the scalar :class:`KernelRunResult` of one config.

        Reconstructions are memoized per index: the runner re-launches
        the same kernel at the same configuration every application
        iteration, and the results are immutable value objects, so
        repeated launches share one instance.
        """
        cached = self._result_cache.get(index)
        if cached is not None:
            return cached
        breakdown = TimeBreakdown(
            compute=float(self.compute_time[index]),
            memory=float(self.memory_time[index]),
            overlap_residue=float(self.overlap_residue[index]),
            launch_overhead=self.launch_overhead,
        )
        power = PowerSample(
            gpu=float(self.gpu_power[index]),
            memory=float(self.memory_power[index]),
            other=self.other_power,
        )
        result = KernelRunResult(
            kernel_name=self.kernel_name,
            config=self.configs[index],
            time=float(self.time[index]),
            breakdown=breakdown,
            counters=self.counters.at(index),
            power=power,
            achieved_bandwidth=float(self.achieved_bandwidth[index]),
            occupancy=self.occupancy.occupancy,
            bandwidth_limit=self.bandwidth_limit[index],
        )
        self._result_cache[index] = result
        return result

    def result_at_config(self, config: HardwareConfig) -> KernelRunResult:
        """Scalar result at one configuration (by grid lookup)."""
        return self.result_at(self.index_of(config))

    def to_results(self) -> List[KernelRunResult]:
        """All scalar results, in batch order."""
        return [self.result_at(i) for i in range(len(self))]
