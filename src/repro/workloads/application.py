"""Application: an ordered set of kernels executed for many iterations.

"For applications that use iterative convergence algorithms and invoke the
entire application with multiple kernels multiple times, Harmonia records
the last best hardware configuration for all kernels within that
application" (Section 5.1). The :class:`Application` container captures
exactly that structure: per iteration, each kernel is launched once in
order.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Tuple

from repro.errors import WorkloadError
from repro.perf.kernelspec import KernelSpec
from repro.workloads.kernel import WorkloadKernel


class _ApplicationFields(NamedTuple):
    """The fields of :class:`Application`, in declaration order."""

    name: str
    suite: str
    kernels: Tuple[WorkloadKernel, ...]
    iterations: int


class Application(_ApplicationFields):
    """One benchmark application.

    Attributes:
        name: application name as the paper spells it (e.g. ``"BPT"``).
        suite: originating suite (``"SHOC"``, ``"Rodinia"``, ``"proxy"``,
            ``"Graph500"``).
        kernels: the kernels launched each iteration, in order.
        iterations: how many solver iterations a run executes (XSBench
            runs only 2, Section 7.2; Graph500's figure shows 8).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "Application":
        app = super().__new__(cls, *args, **kwargs)
        if not app.kernels:
            raise WorkloadError(f"application {app.name!r} has no kernels")
        if app.iterations < 1:
            raise WorkloadError(f"application {app.name!r} needs >= 1 iteration")
        names = [k.name for k in app.kernels]
        if len(set(names)) != len(names):
            raise WorkloadError(f"application {app.name!r} has duplicate kernel names")
        return app

    def launches(self) -> Iterator[Tuple[int, WorkloadKernel, KernelSpec]]:
        """Iterate every launch of a full run.

        Yields:
            ``(iteration, kernel, spec)`` triples in execution order.
        """
        for iteration in range(self.iterations):
            for kernel in self.kernels:
                yield iteration, kernel, kernel.spec_for_iteration(iteration)

    def total_launches(self) -> int:
        """Number of kernel launches in a full run."""
        return self.iterations * len(self.kernels)
