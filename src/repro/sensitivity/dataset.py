"""Training-set construction (Section 4.2).

The paper records 50+ counters per kernel per configuration (25 kernels x
450 configurations = 11250 vectors), then exploits the observation that
"for the same kernel ... across multiple hardware configurations, there are
generally only small variations around the nominal values" by replacing
each counter with its **average across all hardware configurations** of
that kernel, reducing the set to ~2000 points. Each averaged vector is
paired with the kernel's measured compute-throughput and memory-bandwidth
sensitivities.

We reproduce that pipeline: for every workload kernel (including each
distinct phase of phased kernels — phases are behaviourally different
kernels to the predictor), sample counters over a spread of hardware
configurations, average them, and attach measured sensitivities.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, map_items
from repro.perf.counters import PerfCounters
from repro.perf.kernelspec import KernelSpec
from repro.platform.hd7970 import HardwarePlatform
from repro.sensitivity.measurement import SensitivityMeasurement, measure_sensitivities
from repro.workloads.application import Application
from repro.workloads.kernel import WorkloadKernel


class _DatasetFields(NamedTuple):
    """The fields of :class:`SensitivityDataset`, in declaration order."""

    #: one feature mapping per training kernel (config-averaged counters)
    rows: Tuple[Mapping[str, float], ...]
    #: measured compute-throughput sensitivity per row
    compute_targets: Tuple[float, ...]
    #: measured memory-bandwidth sensitivity per row
    bandwidth_targets: Tuple[float, ...]
    #: kernel (or kernel-phase) name per row
    kernel_names: Tuple[str, ...]


class SensitivityDataset(_DatasetFields):
    """Per-kernel averaged features with measured sensitivity targets."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SensitivityDataset":
        dataset = super().__new__(cls, *args, **kwargs)
        n = len(dataset.rows)
        if not (len(dataset.compute_targets) == len(dataset.bandwidth_targets)
                == len(dataset.kernel_names) == n):
            raise AnalysisError("dataset columns have mismatched lengths")
        return dataset

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def _make(cls, iterable) -> "SensitivityDataset":
        # The inherited one checks ``len``, which counts rows here.
        return cls(*iterable)


def _distinct_specs(applications: Sequence[Application]) -> List[KernelSpec]:
    """Every behaviourally distinct kernel spec across the workload set.

    Phased kernels contribute one spec per distinct phase — to the
    predictor a phase is simply a kernel with different counters.
    """
    specs: List[KernelSpec] = []
    seen: set = set()
    for app in applications:
        for kernel in app.kernels:
            for iteration in range(app.iterations):
                spec = kernel.spec_for_iteration(iteration)
                key = (spec.name, spec.total_workitems, spec.valu_insts_per_item,
                       spec.vfetch_insts_per_item, spec.branch_divergence,
                       spec.l2_hit_rate)
                if key not in seen:
                    seen.add(key)
                    phase_tag = "" if iteration == 0 else f"#phase{iteration}"
                    specs.append(spec.evolve(name=spec.name + phase_tag))
    return specs


def _averaged_features(platform: HardwarePlatform, spec: KernelSpec,
                       config_stride: int) -> Dict[str, float]:
    """Counter features averaged over a spread of configurations.

    Operates on the strided counter columns directly instead of
    materializing a scalar :class:`PerfCounters` per sampled index; the
    per-feature sums run in the same sequential index order as the old
    scalar loop, so the averages are bitwise unchanged.
    """
    # Counters are noise-free on both paths (noise multiplies only the
    # reported launch time), so the cached surface serves noisy
    # platforms too and the features are identical either way.
    counters = platform.grid_sweep(spec).counters
    valu_busy = counters.valu_busy[::config_stride].tolist()
    mem_unit_busy = counters.mem_unit_busy[::config_stride].tolist()
    count = len(valu_busy)
    if count == 0:
        raise AnalysisError("config_stride too large: no configurations sampled")

    def mean(values) -> float:
        total = 0.0
        for value in values:
            total += value
        return total / count

    def intensity(busy: float, mem_busy: float) -> float:
        # Equation 3, exactly as PerfCounters.compute_to_memory_intensity.
        if mem_busy <= 0:
            return 100.0
        raw = (busy * counters.valu_utilization / 100.0) / mem_busy
        return min(100.0, raw * 100.0)

    return {
        "VALUUtilization": mean([counters.valu_utilization] * count),
        "VALUBusy": mean(valu_busy),
        "MemUnitBusy": mean(mem_unit_busy),
        "MemUnitStalled": mean(
            counters.mem_unit_stalled[::config_stride].tolist()),
        "WriteUnitStalled": mean(
            counters.write_unit_stalled[::config_stride].tolist()),
        "icActivity": mean(counters.ic_activity[::config_stride].tolist()),
        "NormVGPR": mean([counters.norm_vgpr] * count),
        "NormSGPR": mean([counters.norm_sgpr] * count),
        "CtoMIntensity": mean([intensity(busy, mem_busy) for busy, mem_busy
                               in zip(valu_busy, mem_unit_busy)]),
    }


def build_dataset(
    platform: HardwarePlatform,
    applications: Sequence[Application],
    config_stride: int = 16,
) -> SensitivityDataset:
    """Build the Section 4.2 training set from a workload list.

    Args:
        platform: the test bed to measure on.
        applications: the training applications (normally all 14).
        config_stride: sample every Nth configuration when averaging
            counters (the average is extremely stable across configs, so a
            stride keeps training cheap without changing the result).

    Returns:
        A :class:`SensitivityDataset` with one row per distinct kernel
        (or kernel phase).
    """
    if config_stride < 1:
        raise AnalysisError("config_stride must be >= 1")

    def measure_one(spec: KernelSpec):
        features = _averaged_features(platform, spec, config_stride)
        measured = measure_sensitivities(platform, spec)
        return features, measured

    specs = _distinct_specs(applications)
    outcomes = map_items(measure_one, specs)

    rows: List[Mapping[str, float]] = []
    compute_targets: List[float] = []
    bandwidth_targets: List[float] = []
    names: List[str] = []
    for spec, (features, measured) in zip(specs, outcomes):
        rows.append(features)
        compute_targets.append(measured.compute)
        bandwidth_targets.append(measured.bandwidth)
        names.append(spec.name)

    return SensitivityDataset(
        rows=tuple(rows),
        compute_targets=tuple(compute_targets),
        bandwidth_targets=tuple(bandwidth_targets),
        kernel_names=tuple(names),
    )
