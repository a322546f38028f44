"""Application: an ordered set of kernels executed for many iterations.

"For applications that use iterative convergence algorithms and invoke the
entire application with multiple kernels multiple times, Harmonia records
the last best hardware configuration for all kernels within that
application" (Section 5.1). The :class:`Application` container captures
exactly that structure: per iteration, each kernel is launched once in
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import WorkloadError
from repro.perf.kernelspec import KernelSpec
from repro.workloads.kernel import WorkloadKernel


@dataclass(frozen=True)
class Application:
    """One benchmark application.

    Attributes:
        name: application name as the paper spells it (e.g. ``"BPT"``).
        suite: originating suite (``"SHOC"``, ``"Rodinia"``, ``"proxy"``,
            ``"Graph500"``).
        kernels: the kernels launched each iteration, in order.
        iterations: how many solver iterations a run executes (XSBench
            runs only 2, Section 7.2; Graph500's figure shows 8).
    """

    name: str
    suite: str
    kernels: Tuple[WorkloadKernel, ...]
    iterations: int

    def __post_init__(self) -> None:
        if not self.kernels:
            raise WorkloadError(f"application {self.name!r} has no kernels")
        if self.iterations < 1:
            raise WorkloadError(f"application {self.name!r} needs >= 1 iteration")
        names = [k.name for k in self.kernels]
        if len(set(names)) != len(names):
            raise WorkloadError(f"application {self.name!r} has duplicate kernel names")

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
