"""Measured performance sensitivities (Section 4.1).

"CU sensitivity is computed as the ratio of: i) relative change in
execution times, to ii) relative change in number of active CUs. CU
frequency and memory bandwidth are set to their maximum possible values in
the hardware so that they are not the limiting factors. Sensitivities to
CU frequency and memory bandwidth are similarly computed. Finally, the
sensitivity to the number of CUs and CU frequency are aggregated into a
single compute throughput sensitivity metric."

Concretely we use the normalized endpoint form

    S = (P_hi - P_lo) / P_hi  /  ((x_hi - x_lo) / x_hi)

with performance ``P = 1/T``. For a kernel that scales perfectly with the
tunable (``P`` proportional to ``x``) this gives 1; for one that does not
scale at all it gives 0; a kernel that runs *faster* when the tunable
shrinks (the BPT cache-thrashing case) yields a negative value.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import AnalysisError
from repro.gpu.config import HardwareConfig
from repro.perf.kernelspec import KernelSpec
from repro.platform.hd7970 import HardwarePlatform


class SensitivityMeasurement(NamedTuple):
    """Measured sensitivities of one kernel."""

    kernel_name: str
    #: sensitivity to the number of active CUs (freq/BW at max)
    cu: float
    #: sensitivity to compute frequency (CUs/BW at max)
    f_cu: float
    #: sensitivity to memory bandwidth (compute at max)
    bandwidth: float
    #: aggregated compute-throughput sensitivity (CUs and frequency
    #: scaled together, Section 4.1's aggregation)
    compute: float


def sensitivity_between(time_lo: float, time_hi: float,
                        x_lo: float, x_hi: float) -> float:
    """Endpoint sensitivity from times at a low/high tunable setting.

    Args:
        time_lo: execution time at the low tunable value.
        time_hi: execution time at the high tunable value.
        x_lo: the low tunable value.
        x_hi: the high tunable value.

    Raises:
        AnalysisError: if times or tunable values are non-positive, or the
            tunable endpoints coincide.
    """
    if time_lo <= 0 or time_hi <= 0:
        raise AnalysisError("execution times must be positive")
    if x_lo <= 0 or x_hi <= 0:
        raise AnalysisError("tunable values must be positive")
    if x_hi == x_lo:
        raise AnalysisError("tunable endpoints must differ")
    perf_lo, perf_hi = 1.0 / time_lo, 1.0 / time_hi
    d_perf = (perf_hi - perf_lo) / perf_hi
    d_x = (x_hi - x_lo) / x_hi
    return d_perf / d_x


def measure_sensitivities(platform: HardwarePlatform,
                          spec: KernelSpec) -> SensitivityMeasurement:
    """Measure all per-tunable sensitivities of ``spec`` on ``platform``.

    Each tunable is swept from its minimum to its maximum grid value while
    the other tunables are pinned at maximum (Section 4.1), and the
    aggregate compute-throughput sensitivity scales CUs and frequency
    together.
    """
    space = platform.config_space
    top = space.max_config()

    # The corner launches are grid points of the kernel's full sweep
    # surface, which other consumers (oracle, characterization, analysis
    # sweeps) need anyway — read them off the shared cached batch
    # evaluation instead of re-launching. Noisy platforms read the same
    # surface: launch-keyed noise is applied after the cache lookup, so
    # each corner sees exactly the draw a per-launch call would.
    surface = platform.grid_sweep(spec)

    def run_time(config: HardwareConfig) -> float:
        return surface.time_at(config)

    t_top = run_time(top)

    # CU sensitivity: min vs max CU count at max frequency and bandwidth.
    cu_lo = space.cu_counts[0]
    t_cu_lo = run_time(top.replace(n_cu=cu_lo))
    cu_sens = sensitivity_between(t_cu_lo, t_top, cu_lo, space.cu_counts[-1])

    # Compute-frequency sensitivity.
    f_lo = space.compute_frequencies[0]
    t_f_lo = run_time(top.replace(f_cu=f_lo))
    f_sens = sensitivity_between(t_f_lo, t_top, f_lo, space.compute_frequencies[-1])

    # Memory-bandwidth sensitivity (bandwidth is proportional to bus freq).
    m_lo = space.memory_frequencies[0]
    t_m_lo = run_time(top.replace(f_mem=m_lo))
    bw_sens = sensitivity_between(t_m_lo, t_top, m_lo, space.memory_frequencies[-1])

    # Aggregate compute-throughput sensitivity (Section 4.1 aggregates the
    # CU-count and CU-frequency sensitivities into one metric): the mean of
    # the two per-tunable sensitivities. Scaling their product instead
    # would skew every kernel high — a 10x joint throughput swing slows
    # almost anything — and wash out the low-sensitivity end the
    # predictor's intercept needs.
    compute_sens = 0.5 * (cu_sens + f_sens)

    return SensitivityMeasurement(
        kernel_name=spec.name,
        cu=cu_sens,
        f_cu=f_sens,
        bandwidth=bw_sens,
        compute=compute_sens,
    )
