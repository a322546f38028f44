"""The Section 4.1 characterization data, in full.

"We execute the kernels and applications multiple times for multiple
iterations across the entire design space of compute and memory
configurations states ... Sensitivity is computed for each hardware
configuration."

The paper shows only "the most relevant data from a few representative
applications" (Figures 7-9); this experiment produces the complete
characterization the training pipeline consumes: per kernel, the measured
sensitivity to each tunable, plus per-tunable performance scaling curves
(normalized performance as each tunable sweeps its range with the others
at maximum).
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Tuple

from repro.analysis.report import format_table
from repro.experiments.context import ExperimentContext
from repro.sensitivity.measurement import measure_sensitivities
from repro.units import hz_to_mhz
from repro.workloads.registry import all_kernels


class ScalingCurve(NamedTuple):
    """Normalized performance along one tunable (others at maximum)."""

    tunable: str
    #: (tunable value, performance normalized to the max setting)
    points: Tuple[Tuple[float, float], ...]

    def scaling_ratio(self) -> float:
        """Performance at max setting over performance at min setting."""
        return self.points[-1][1] / self.points[0][1]


class KernelCharacterization(NamedTuple):
    """One kernel's full Section 4.1 record."""

    kernel: str
    cu_sensitivity: float
    f_cu_sensitivity: float
    bandwidth_sensitivity: float
    compute_sensitivity: float
    curves: Mapping[str, ScalingCurve]


class CharacterizationResult(NamedTuple):
    """The whole suite's characterization."""

    rows: Tuple[KernelCharacterization, ...]

    def kernel(self, name: str) -> KernelCharacterization:
        """One kernel's record."""
        for row in self.rows:
            if row.kernel == name:
                return row
        raise KeyError(name)

    def most_bandwidth_sensitive(self) -> KernelCharacterization:
        """The kernel with the highest measured bandwidth sensitivity."""
        return max(self.rows, key=lambda r: r.bandwidth_sensitivity)

    def least_bandwidth_sensitive(self) -> KernelCharacterization:
        """The kernel with the lowest measured bandwidth sensitivity."""
        return min(self.rows, key=lambda r: r.bandwidth_sensitivity)


def _curve(platform, spec, tunable: str) -> ScalingCurve:
    space = platform.config_space
    top = space.max_config()
    if tunable == "n_cu":
        values = space.cu_counts
        configs = [top.replace(n_cu=v) for v in values]
    elif tunable == "f_cu":
        values = space.compute_frequencies
        configs = [top.replace(f_cu=v) for v in values]
    else:
        values = space.memory_frequencies
        configs = [top.replace(f_mem=v) for v in values]
    # Every curve point is a grid point of the kernel's sweep surface,
    # which measure_sensitivities already pulled into the shared cache.
    # Noisy platforms are served too: the launch-keyed draws applied
    # after the cache lookup match the scalar path bitwise.
    surface = platform.grid_sweep(spec)
    times = [surface.time_at(config) for config in configs]
    reference = 1.0 / times[-1]
    points = tuple(
        (float(value), (1.0 / t) / reference)
        for value, t in zip(values, times)
    )
    return ScalingCurve(tunable=tunable, points=points)


def run(context: ExperimentContext) -> CharacterizationResult:
    """Characterize every kernel along every tunable."""
    platform = context.platform
    rows = []
    for kernel in all_kernels():
        measured = measure_sensitivities(platform, kernel.base)
        curves = {
            tunable: _curve(platform, kernel.base, tunable)
            for tunable in ("n_cu", "f_cu", "f_mem")
        }
        rows.append(KernelCharacterization(
            kernel=kernel.name,
            cu_sensitivity=measured.cu,
            f_cu_sensitivity=measured.f_cu,
            bandwidth_sensitivity=measured.bandwidth,
            compute_sensitivity=measured.compute,
            curves=curves,
        ))
    return CharacterizationResult(rows=tuple(rows))


def format_report(result: CharacterizationResult) -> str:
    """Render the per-kernel sensitivity table and scaling summaries."""
    table = format_table(
        headers=("kernel", "cu", "f_cu", "bandwidth", "compute",
                 "cu-scale", "f-scale", "bw-scale"),
        rows=[
            (r.kernel,
             f"{r.cu_sensitivity:+.2f}",
             f"{r.f_cu_sensitivity:+.2f}",
             f"{r.bandwidth_sensitivity:+.2f}",
             f"{r.compute_sensitivity:+.2f}",
             f"{r.curves['n_cu'].scaling_ratio():.2f}x",
             f"{r.curves['f_cu'].scaling_ratio():.2f}x",
             f"{r.curves['f_mem'].scaling_ratio():.2f}x")
            for r in result.rows
        ],
        title=("Section 4.1 characterization: measured sensitivities and "
               "per-tunable performance scaling (max/min) for all 25 "
               "kernels"),
    )
    return table
