"""Analytical execution-time model for GCN kernels.

Given a :class:`~repro.perf.kernelspec.KernelSpec` and a
:class:`~repro.gpu.config.HardwareConfig`, the model produces the launch
time, a time breakdown, the achieved DRAM bandwidth, and the synthesised
performance counters. It is deliberately simple — a handful of first-order
microarchitectural effects — but those effects are exactly the ones the
paper's characterization section identifies, so the qualitative surfaces
over the 450-point configuration space match:

1. **Compute pipeline** (Figure 3a): wavefronts issue VALU instructions at
   4 cycles each over ``n_cu x 4`` SIMDs; divergence serializes control
   paths, inflating issued instructions by ``1 / lane_utilization``
   (Figure 8); time scales as ``1 / (n_cu * f_cu)``.
2. **Memory system** (Figure 3b): DRAM traffic is the L2-miss fraction of
   the kernel footprint; achievable bandwidth is the minimum of controller
   efficiency, an MLP (Little's-law) limit that scales with occupancy and
   active CUs (Figure 7), and the L2->MC clock-domain crossing which
   scales with *compute* frequency (Figure 9).
3. **Cache interference**: the effective L2 hit rate recovers as CUs are
   power-gated (Section 7.1's BPT/CFD/XSBench speedups).
4. **Overlap**: total time is ``max(compute, memory)`` plus a small
   un-overlapped residue and a fixed launch overhead, which is what makes
   tiny kernels (SRAD.Prepare, 8 ALU instructions) insensitive to every
   tunable (Figure 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.gpu.architecture import GpuArchitecture
from repro.gpu.clocks import ClockDomainModel
from repro.gpu.config import HardwareConfig
from repro.gpu.occupancy import OccupancyResult, compute_occupancy
from repro.memory.controller import MemoryControllerModel
from repro.perf.batch import (BANDWIDTH_LIMITS, BatchCounters,
                              BatchModelOutput, config_grid)
from repro.perf.counters import PerfCounters
from repro.perf.kernelspec import KernelSpec
from repro.perf.result import TimeBreakdown


@dataclass(frozen=True)
class ModelOutput:
    """Raw model outputs before power is attached."""

    breakdown: TimeBreakdown
    counters: PerfCounters
    achieved_bandwidth: float
    occupancy: OccupancyResult
    bandwidth_limit: str

    @property
    def time(self) -> float:
        """Total launch time (s)."""
        return self.breakdown.total


class PerformanceModel:
    """Maps (kernel, configuration) -> time, counters, bandwidth."""

    def __init__(
        self,
        arch: GpuArchitecture,
        controller: MemoryControllerModel,
        clock_domains: ClockDomainModel,
    ):
        self._arch = arch
        self._controller = controller
        self._clock_domains = clock_domains

    # --- pieces -----------------------------------------------------------------

    def _wavefront_count(self, spec: KernelSpec) -> int:
        return math.ceil(spec.total_workitems / self._arch.wavefront_width)

    def _compute_time(self, spec: KernelSpec, config: HardwareConfig) -> float:
        """Time the compute pipelines need, ignoring memory (s)."""
        waves = self._wavefront_count(spec)
        issue_cycles_per_wave = (
            spec.valu_insts_per_item / max(spec.lane_utilization, 1e-6)
            + spec.mem_insts_per_item
        ) * self._arch.cycles_per_valu_inst
        simds = config.n_cu * self._arch.simds_per_cu
        total_cycles = waves * issue_cycles_per_wave / simds
        return total_cycles / config.f_cu

    def _dram_traffic(self, spec: KernelSpec, config: HardwareConfig) -> float:
        """Bytes that miss L2 and travel to DRAM."""
        hit = spec.effective_l2_hit_rate(config.n_cu, self._arch.max_compute_units)
        footprint = spec.footprint_bytes_per_item * spec.total_workitems
        return footprint * (1.0 - hit)

    def _memory_time(
        self, spec: KernelSpec, config: HardwareConfig,
        occupancy: OccupancyResult,
    ) -> tuple:
        """(memory time s, achieved bandwidth B/s, binding limit name)."""
        traffic = self._dram_traffic(spec, config)
        if traffic <= 0:
            return 0.0, 0.0, "none"

        limits = self._controller.achievable_bandwidth(
            f_mem=config.f_mem,
            n_cu=config.n_cu,
            waves_per_simd=occupancy.waves_per_simd,
            outstanding_per_wave=spec.outstanding_per_wave,
            access_efficiency=spec.access_efficiency,
        )
        crossing = self._clock_domains.crossing_bandwidth(config.f_cu)
        achievable = min(limits.achievable, crossing)
        if achievable == crossing and crossing < limits.achievable:
            binding = "crossing"
        else:
            binding = limits.binding_limit

        # The kernel only *demands* bandwidth at the rate its resident waves
        # generate misses; achieved bandwidth is capped by that demand when
        # the kernel is compute bound (handled by the caller via busy
        # fractions, not here — memory time is simply traffic/achievable).
        return traffic / achievable, achievable, binding

    # --- main entry -----------------------------------------------------------------

    def run(self, spec: KernelSpec, config: HardwareConfig) -> ModelOutput:
        """Evaluate the model for one kernel launch at one configuration."""
        occupancy = compute_occupancy(
            self._arch,
            vgprs_per_workitem=spec.vgprs_per_workitem,
            sgprs_per_wave=spec.sgprs_per_wave,
            lds_bytes_per_workgroup=spec.lds_bytes_per_workgroup,
            workgroup_size=spec.workgroup_size,
        )

        t_comp = self._compute_time(spec, config)
        t_mem, achievable_bw, binding = self._memory_time(spec, config, occupancy)

        overlap_residue = spec.overlap_inefficiency * min(t_comp, t_mem)
        breakdown = TimeBreakdown(
            compute=t_comp,
            memory=t_mem,
            overlap_residue=overlap_residue,
            launch_overhead=spec.launch_overhead,
        )
        total_time = breakdown.total

        traffic = self._dram_traffic(spec, config)
        achieved_bw = traffic / total_time if total_time > 0 else 0.0

        counters = self._synthesize_counters(
            spec, config, breakdown, achieved_bw, occupancy
        )
        return ModelOutput(
            breakdown=breakdown,
            counters=counters,
            achieved_bandwidth=achieved_bw,
            occupancy=occupancy,
            bandwidth_limit=binding,
        )

    # --- batched entry ----------------------------------------------------------

    def run_batch(
        self, spec: KernelSpec, configs: Sequence[HardwareConfig]
    ) -> BatchModelOutput:
        """Evaluate the model for one kernel over many configurations.

        Vectorized equivalent of calling :meth:`run` once per configuration:
        every per-config quantity is computed as a NumPy array over the
        configuration axis, mirroring the scalar arithmetic operation for
        operation so the results match :meth:`run` bit for bit. Occupancy,
        instruction counts and register pressure are configuration-invariant
        and computed once; the tunable arrays are built once per configs
        tuple (:func:`~repro.perf.batch.config_grid`).
        """
        configs = tuple(configs)
        if not configs:
            raise AnalysisError("run_batch requires at least one configuration")
        grid = config_grid(configs)
        n_cu, f_cu, f_mem = grid.n_cu, grid.f_cu, grid.f_mem

        occupancy = compute_occupancy(
            self._arch,
            vgprs_per_workitem=spec.vgprs_per_workitem,
            sgprs_per_wave=spec.sgprs_per_wave,
            lds_bytes_per_workgroup=spec.lds_bytes_per_workgroup,
            workgroup_size=spec.workgroup_size,
        )
        waves = self._wavefront_count(spec)

        # Compute time (mirrors _compute_time).
        issue_cycles_per_wave = (
            spec.valu_insts_per_item / max(spec.lane_utilization, 1e-6)
            + spec.mem_insts_per_item
        ) * self._arch.cycles_per_valu_inst
        simds = n_cu * self._arch.simds_per_cu
        t_comp = waves * issue_cycles_per_wave / simds / f_cu

        # DRAM traffic (mirrors _dram_traffic / effective_l2_hit_rate).
        gated_fraction = 1.0 - n_cu / self._arch.max_compute_units
        hit = np.minimum(
            0.98, spec.l2_hit_rate + spec.l2_thrash_sensitivity * gated_fraction
        )
        footprint = spec.footprint_bytes_per_item * spec.total_workitems
        traffic = footprint * (1.0 - hit)
        has_traffic = traffic > 0

        # Memory time (mirrors _memory_time).
        peak, efficiency_limited, mlp_limited = (
            self._controller.achievable_bandwidth_many(
                f_mem=f_mem,
                n_cu=n_cu,
                waves_per_simd=occupancy.waves_per_simd,
                outstanding_per_wave=spec.outstanding_per_wave,
                access_efficiency=spec.access_efficiency,
            )
        )
        limit_achievable = np.minimum(efficiency_limited, mlp_limited)
        crossing = self._clock_domains.crossing_bytes_per_cycle * f_cu
        achievable = np.minimum(limit_achievable, crossing)
        t_mem = np.where(has_traffic, traffic / achievable, 0.0)
        # Codes into BANDWIDTH_LIMITS: 0 none, 1 crossing, 2 efficiency,
        # 3 mlp.
        binding = np.where(
            has_traffic,
            np.where(crossing < limit_achievable, 1,
                     np.where(efficiency_limited <= mlp_limited, 2, 3)),
            0,
        )

        overlap_residue = spec.overlap_inefficiency * np.minimum(t_comp, t_mem)
        # TimeBreakdown.total: max(compute, memory) + residue + overhead.
        total = np.maximum(t_comp, t_mem) + overlap_residue + spec.launch_overhead
        # t_comp > 0 always (a spec executes at least one instruction), so
        # total > 0 and the scalar path's `if total > 0` guards never bind.
        achieved_bw = traffic / total

        counters = self._synthesize_counters_batch(
            spec, n_cu, f_cu, f_mem, t_comp, t_mem, total, achieved_bw
        )
        return BatchModelOutput(
            compute_time=t_comp,
            memory_time=t_mem,
            overlap_residue=overlap_residue,
            launch_overhead=spec.launch_overhead,
            time=total,
            achieved_bandwidth=achieved_bw,
            occupancy=occupancy,
            bandwidth_limit=tuple(map(BANDWIDTH_LIMITS.__getitem__,
                                      binding.tolist())),
            counters=counters,
        )

    def _synthesize_counters_batch(
        self,
        spec: KernelSpec,
        n_cu: np.ndarray,
        f_cu: np.ndarray,
        f_mem: np.ndarray,
        t_comp: np.ndarray,
        t_mem: np.ndarray,
        total: np.ndarray,
        achieved_bw: np.ndarray,
    ) -> BatchCounters:
        """Vectorized :meth:`_synthesize_counters` (total > 0 guaranteed)."""
        valu_busy = 100.0 * np.minimum(1.0, t_comp / total)

        waves = self._wavefront_count(spec)
        cache_cycles = (
            waves * spec.mem_insts_per_item * self._arch.cycles_per_valu_inst
            / (n_cu * self._arch.simds_per_cu)
        )
        t_cache = cache_cycles / f_cu
        mem_busy = 100.0 * np.minimum(1.0, (t_mem + t_cache) / total)

        exposed = np.maximum(0.0, t_mem - t_comp)
        stalled = 100.0 * np.minimum(1.0, exposed / total)
        write_share = (
            spec.vwrite_insts_per_item / spec.mem_insts_per_item
            if spec.mem_insts_per_item > 0
            else 0.0
        )
        mem_unit_stalled = stalled * (1.0 - write_share)
        write_unit_stalled = stalled * write_share

        # Peak bandwidth, mirroring GpuArchitecture.peak_memory_bandwidth.
        per_mc_bytes = self._arch.bus_width_bits_per_mc / 8.0
        peak_bw = (f_mem * per_mc_bytes * self._arch.memory_controllers
                   * self._arch.gddr5_transfer_rate)
        ic_activity = np.minimum(1.0, achieved_bw / peak_bw)

        lane_factor = self._arch.wavefront_width / 1.0e6
        return BatchCounters(
            valu_busy=valu_busy,
            mem_unit_busy=mem_busy,
            mem_unit_stalled=mem_unit_stalled,
            write_unit_stalled=write_unit_stalled,
            ic_activity=ic_activity,
            valu_utilization=100.0 * spec.lane_utilization,
            norm_vgpr=min(1.0, spec.vgprs_per_workitem / self._arch.vgprs_per_simd),
            norm_sgpr=min(1.0, spec.sgprs_per_wave / self._arch.sgprs_per_wave_file),
            valu_insts_millions=waves * spec.valu_insts_per_item * lane_factor,
            vfetch_insts_millions=waves * spec.vfetch_insts_per_item * lane_factor,
            vwrite_insts_millions=waves * spec.vwrite_insts_per_item * lane_factor,
        )

    # --- counters -----------------------------------------------------------------

    def _synthesize_counters(
        self,
        spec: KernelSpec,
        config: HardwareConfig,
        breakdown: TimeBreakdown,
        achieved_bw: float,
        occupancy: OccupancyResult,
    ) -> PerfCounters:
        total = breakdown.total
        t_comp = breakdown.compute
        t_mem = breakdown.memory

        valu_busy = 100.0 * min(1.0, t_comp / total) if total > 0 else 0.0

        # The memory fetch/read unit is "active including stalls and cache
        # effects" (Table 2): busy whenever DRAM or cache traffic is in
        # flight. Cache service time runs on the compute clock.
        waves = self._wavefront_count(spec)
        cache_cycles = (
            waves * spec.mem_insts_per_item * self._arch.cycles_per_valu_inst
            / (config.n_cu * self._arch.simds_per_cu)
        )
        t_cache = cache_cycles / config.f_cu
        mem_busy = 100.0 * min(1.0, (t_mem + t_cache) / total) if total > 0 else 0.0

        # Stall counters: the exposed (un-hidden) portion of memory time.
        exposed = max(0.0, t_mem - t_comp)
        stalled = 100.0 * min(1.0, exposed / total) if total > 0 else 0.0
        write_share = (
            spec.vwrite_insts_per_item / spec.mem_insts_per_item
            if spec.mem_insts_per_item > 0
            else 0.0
        )
        mem_unit_stalled = stalled * (1.0 - write_share)
        write_unit_stalled = stalled * write_share

        peak_bw = self._arch.peak_memory_bandwidth(config.f_mem)
        ic_activity = min(1.0, achieved_bw / peak_bw)

        waves_total = self._wavefront_count(spec)
        lane_factor = self._arch.wavefront_width / 1.0e6
        return PerfCounters(
            valu_utilization=100.0 * spec.lane_utilization,
            valu_busy=valu_busy,
            mem_unit_busy=mem_busy,
            mem_unit_stalled=mem_unit_stalled,
            write_unit_stalled=write_unit_stalled,
            ic_activity=ic_activity,
            norm_vgpr=min(1.0, spec.vgprs_per_workitem / self._arch.vgprs_per_simd),
            norm_sgpr=min(1.0, spec.sgprs_per_wave / self._arch.sgprs_per_wave_file),
            valu_insts_millions=waves_total * spec.valu_insts_per_item * lane_factor,
            vfetch_insts_millions=waves_total * spec.vfetch_insts_per_item * lane_factor,
            vwrite_insts_millions=waves_total * spec.vwrite_insts_per_item * lane_factor,
        )
