"""Policy protocol and shared per-kernel history.

Harmonia "operates as a system software policy overlaid on top of the
baseline power management system" (Section 5.1): at each kernel boundary
it reads the previous launch's counters, decides a hardware configuration,
and the kernel runs there. The simulator drives every policy through the
same two calls:

* :meth:`PowerPolicy.config_for` — before a launch: which configuration?
* :meth:`PowerPolicy.observe` — after a launch: here is what happened.

Policies are stateful across a run and are ``reset`` between applications
(per-kernel history is intentionally retained *within* an application
across its iterations — that recurrence is what Harmonia exploits).
"""

from __future__ import annotations

from typing import (
    Dict, List, NamedTuple, Optional, Protocol, runtime_checkable)

from repro.gpu.config import HardwareConfig
from repro.perf.kernelspec import KernelSpec
from repro.perf.result import KernelRunResult


class LaunchContext(NamedTuple):
    """What a policy knows about an upcoming launch.

    The ``spec`` field exists for the oracle (which by definition may
    profile the kernel exhaustively, Section 7); online policies like
    Harmonia must not inspect it and decide from counters alone.
    """

    kernel_name: str
    iteration: int
    spec: KernelSpec


@runtime_checkable
class PowerPolicy(Protocol):
    """A power-management policy driven at kernel boundaries."""

    @property
    def name(self) -> str:
        """Short policy name used in reports (e.g. ``"harmonia"``)."""
        ...

    def reset(self) -> None:
        """Forget all history (called before each application run)."""
        ...

    def config_for(self, context: LaunchContext) -> HardwareConfig:
        """Choose the configuration for the upcoming launch."""
        ...

    def observe(self, context: LaunchContext, result: KernelRunResult) -> None:
        """Record the outcome of the launch that just completed."""
        ...


class KernelHistory:
    """Per-kernel state a controller accumulates across iterations."""

    __slots__ = ("results", "current_config", "previous_config",
                 "config_changed_last")

    def __init__(self) -> None:
        #: results observed so far, in iteration order
        self.results: List[KernelRunResult] = []
        #: configuration the controller currently assigns to this kernel
        self.current_config: Optional[HardwareConfig] = None
        #: configuration used before the most recent change (for reverts)
        self.previous_config: Optional[HardwareConfig] = None
        #: whether the controller changed the config before the last launch
        self.config_changed_last = False

    @property
    def last_result(self) -> Optional[KernelRunResult]:
        """Most recent observation, if any."""
        return self.results[-1] if self.results else None

    def record(self, result: KernelRunResult) -> None:
        """Append an observation."""
        self.results.append(result)


class HistoryMixin:
    """Common per-kernel history bookkeeping for concrete policies."""

    def __init__(self) -> None:
        self._history: Dict[str, KernelHistory] = {}

    def history_for(self, kernel_name: str) -> KernelHistory:
        """The (auto-created) history of one kernel."""
        if kernel_name not in self._history:
            self._history[kernel_name] = KernelHistory()
        return self._history[kernel_name]

    def clear_history(self) -> None:
        """Drop all per-kernel state."""
        self._history.clear()
