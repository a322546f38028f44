"""Roofline analysis of kernels and configurations.

The paper's framing (Section 1) is explicitly roofline-shaped: "the
ops/byte value of an application ... represents the relative demand placed
on the GPU cores and the memory system", citing Williams et al.'s Roofline
model [51] and Choi et al.'s energy roofline [9]. "Ideally, the relative
ops/byte demand of the applications matches the relative time and power
costs of compute and memory hardware of the platform and we have a
perfectly balanced system."

This module makes that framing computable:

* :func:`roofline` — attainable throughput at a given operational
  intensity under a configuration's compute and bandwidth ceilings,
* :func:`ridge_point` — the configuration's balance intensity (where the
  two ceilings meet; the paper's "hardware ops/byte"),
* :func:`classify_kernel` — which ceiling a kernel sits under, and how
  much of the other resource is provisioned in excess (the power Harmonia
  can recover).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import AnalysisError
from repro.gpu.architecture import GpuArchitecture
from repro.gpu.config import HardwareConfig
from repro.perf.kernelspec import KernelSpec


class Regime(enum.Enum):
    """Which roofline ceiling binds."""

    COMPUTE_BOUND = "compute-bound"
    MEMORY_BOUND = "memory-bound"
    BALANCED = "balanced"


class RooflinePoint(NamedTuple):
    """One kernel's position under one configuration's roofline."""

    kernel: str
    config: HardwareConfig
    #: the kernel's operational intensity (ops per DRAM byte)
    intensity: float
    #: the configuration's ridge point (hardware ops/byte)
    ridge: float
    #: attainable throughput (ops/s) at the kernel's intensity
    attainable: float
    #: which ceiling binds
    regime: Regime
    #: fraction of the non-binding resource that is surplus (0 when
    #: perfectly balanced) — the provisioning Harmonia can trim
    surplus_fraction: float


def roofline(arch: GpuArchitecture, config: HardwareConfig,
             intensity: float) -> float:
    """Attainable throughput (ops/s) at ``intensity`` (ops/byte).

    The classic two-ceiling roofline:
    ``min(peak_compute, intensity x peak_bandwidth)``.
    """
    if intensity <= 0:
        raise AnalysisError("operational intensity must be positive")
    compute_ceiling = arch.peak_flops(config.n_cu, config.f_cu)
    bandwidth_ceiling = intensity * arch.peak_memory_bandwidth(config.f_mem)
    return min(compute_ceiling, bandwidth_ceiling)


def ridge_point(arch: GpuArchitecture, config: HardwareConfig) -> float:
    """The intensity (ops/byte) where the two ceilings meet.

    This is exactly the paper's "hardware ops/byte" — the x-axis of
    Figures 3-5.
    """
    return (arch.peak_flops(config.n_cu, config.f_cu)
            / arch.peak_memory_bandwidth(config.f_mem))


def classify_kernel(arch: GpuArchitecture, spec: KernelSpec,
                    config: HardwareConfig,
                    balance_band: float = 0.25) -> RooflinePoint:
    """Place a kernel under a configuration's roofline.

    Args:
        arch: the machine description.
        spec: the kernel (its demanded ops/byte comes from
            :meth:`~repro.perf.kernelspec.KernelSpec.demanded_ops_per_byte`).
        config: the hardware configuration.
        balance_band: relative half-width of the "balanced" regime around
            the ridge point.

    Returns:
        A :class:`RooflinePoint` with the regime and the surplus fraction
        of the over-provisioned resource.
    """
    if not 0 <= balance_band < 1:
        raise AnalysisError("balance_band must be in [0, 1)")
    intensity = spec.demanded_ops_per_byte()
    ridge = ridge_point(arch, config)
    attainable = roofline(arch, config, intensity)

    ratio = intensity / ridge
    if ratio > 1 + balance_band:
        regime = Regime.COMPUTE_BOUND
        # Memory bandwidth is provisioned in excess.
        surplus = 1.0 - ridge / intensity
    elif ratio < 1 - balance_band:
        regime = Regime.MEMORY_BOUND
        # Compute throughput is provisioned in excess.
        surplus = 1.0 - intensity / ridge
    else:
        regime = Regime.BALANCED
        surplus = abs(1.0 - ratio)

    return RooflinePoint(
        kernel=spec.name,
        config=config,
        intensity=intensity,
        ridge=ridge,
        attainable=attainable,
        regime=regime,
        surplus_fraction=surplus,
    )
