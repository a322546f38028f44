"""Workload-side kernel descriptions and phase schedules.

HPC applications are iterative: the same kernels are invoked many times as
a solver converges (Section 5.1). A kernel's behaviour may change from
iteration to iteration — Graph500's breadth-first search sweeps the
frontier up and back down (Figure 14), XSBench's lookup tables warm up —
and Harmonia exploits the *recurrence* by using each kernel's history to
pick the next iteration's configuration.

A :class:`WorkloadKernel` pairs a base
:class:`~repro.perf.kernelspec.KernelSpec` with a :class:`PhaseSchedule`
that derives the spec actually launched at a given iteration.
"""

from __future__ import annotations

from typing import (
    Dict, Mapping, NamedTuple, Optional, Protocol, Sequence, Tuple)

from repro.errors import WorkloadError
from repro.perf.kernelspec import KernelSpec


class PhaseSchedule(Protocol):
    """Maps (base spec, iteration index) -> the spec launched there."""

    def spec_for_iteration(self, base: KernelSpec, iteration: int) -> KernelSpec:
        """Return the kernel spec for ``iteration`` (0-based)."""
        ...


class ConstantSchedule:
    """No phase behaviour: every iteration launches the base spec.

    Not a named tuple, which with no fields is falsy and equals ``()``.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is ConstantSchedule

    def __hash__(self) -> int:
        return hash(ConstantSchedule)

    def __repr__(self) -> str:
        return "ConstantSchedule()"

    def spec_for_iteration(self, base: KernelSpec, iteration: int) -> KernelSpec:
        if iteration < 0:
            raise WorkloadError("iteration must be non-negative")
        return base


class _TableScheduleFields(NamedTuple):
    """The fields of :class:`TableSchedule`, in declaration order."""

    rows: Tuple[Mapping, ...]
    wrap: bool = True


class TableSchedule(_TableScheduleFields):
    """Per-iteration field overrides from an explicit table.

    Attributes:
        rows: one mapping of ``KernelSpec`` field overrides per iteration.
        wrap: if True, iterations beyond the table cycle through it; if
            False they clamp to the last row.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "TableSchedule":
        schedule = super().__new__(cls, *args, **kwargs)
        if not schedule.rows:
            raise WorkloadError("TableSchedule needs at least one row")
        return schedule

    def spec_for_iteration(self, base: KernelSpec, iteration: int) -> KernelSpec:
        if iteration < 0:
            raise WorkloadError("iteration must be non-negative")
        if self.wrap:
            row = self.rows[iteration % len(self.rows)]
        else:
            row = self.rows[min(iteration, len(self.rows) - 1)]
        return base.evolve(**dict(row))


class _CyclicScheduleFields(NamedTuple):
    """The fields of :class:`CyclicSchedule`, in declaration order."""

    work_factors: Tuple[float, ...]


class CyclicSchedule(_CyclicScheduleFields):
    """Multiplicative scaling of work per iteration, cycling a pattern.

    Useful for frontier-style workloads: ``work_factors = (0.2, 1.0, 3.0,
    1.5, 0.4)`` expands and contracts the launched work. The factor scales
    ``total_workitems`` (rounded to at least one workgroup).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "CyclicSchedule":
        schedule = super().__new__(cls, *args, **kwargs)
        if not schedule.work_factors:
            raise WorkloadError("CyclicSchedule needs at least one factor")
        if any(f <= 0 for f in schedule.work_factors):
            raise WorkloadError("work factors must be positive")
        return schedule

    def spec_for_iteration(self, base: KernelSpec, iteration: int) -> KernelSpec:
        if iteration < 0:
            raise WorkloadError("iteration must be non-negative")
        factor = self.work_factors[iteration % len(self.work_factors)]
        items = max(base.workgroup_size, int(base.total_workitems * factor))
        return base.evolve(total_workitems=items)


class WorkloadKernel(NamedTuple):
    """A named kernel inside an application, with phase behaviour."""

    base: KernelSpec
    schedule: PhaseSchedule = ConstantSchedule()

    @property
    def name(self) -> str:
        """The kernel's qualified name (e.g. ``"Sort.BottomScan"``)."""
        return self.base.name

    def spec_for_iteration(self, iteration: int) -> KernelSpec:
        """The spec launched at application iteration ``iteration``."""
        return self.schedule.spec_for_iteration(self.base, iteration)
