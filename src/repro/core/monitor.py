"""The monitoring block (Section 5.1).

"Our implementation is organized into: i) a monitoring block that samples
the performance counters at application kernel boundaries ... and use[s]
each kernel's historical data from previous iterations."

Raw counter samples react to the hardware configuration as well as to the
workload; the monitoring block therefore maintains a per-kernel
exponentially-weighted moving average of the counter feature vector. The
smoothed features are what the sensitivity predictors consume: a genuine
workload phase change moves most features decisively and flips the
sensitivity bins, while a one-step configuration change perturbs the
average only fractionally — the online analogue of Section 4.2's
observation that per-kernel counters show "only small variations around
the nominal values" across hardware configurations.

Each kernel's average is a feature vector in
:data:`~repro.perf.counters.FEATURE_NAMES` order; the mapping accessors
key that vector by name.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.errors import PolicyError
from repro.perf.counters import FEATURE_NAMES, PerfCounters


class MonitoringBlock:
    """Per-kernel EWMA smoothing of counter features.

    Args:
        alpha: EWMA weight of the newest sample, in (0, 1]. 1.0 disables
            smoothing (raw per-launch features).
    """

    def __init__(self, alpha: float = 0.4):
        if not 0 < alpha <= 1:
            raise PolicyError("alpha must be in (0, 1]")
        self._alpha = alpha
        self._keep = 1 - alpha
        self._state: Dict[str, Tuple[float, ...]] = {}

    @property
    def alpha(self) -> float:
        """The EWMA weight in use."""
        return self._alpha

    def update_vector(self, kernel_name: str,
                      counters: PerfCounters) -> Tuple[float, ...]:
        """Fold a new counter sample into the kernel's running average.

        Returns:
            The smoothed feature vector (:data:`FEATURE_NAMES` order) to
            feed the predictors. Each element is
            ``(1 - alpha) * old + alpha * new``, evaluated in that order.
        """
        features = counters.feature_vector()
        state = self._state.get(kernel_name)
        if state is not None:
            keep, alpha = self._keep, self._alpha
            features = tuple([keep * old + alpha * new
                              for old, new in zip(state, features)])
        self._state[kernel_name] = features
        return features

    def update(self, kernel_name: str,
               counters: PerfCounters) -> Mapping[str, float]:
        """:meth:`update_vector`, keyed by feature name."""
        return dict(zip(FEATURE_NAMES,
                        self.update_vector(kernel_name, counters)))

    def current(self, kernel_name: str) -> Optional[Mapping[str, float]]:
        """The kernel's current smoothed features, if any."""
        state = self._state.get(kernel_name)
        return dict(zip(FEATURE_NAMES, state)) if state is not None else None

    def reset(self) -> None:
        """Forget all kernels."""
        self._state.clear()

    def reset_kernel(self, kernel_name: str) -> None:
        """Forget one kernel (called at a workload phase boundary so the
        average restarts from the new phase's behaviour)."""
        self._state.pop(kernel_name, None)


class PhaseDetector:
    """Workload phase-change detection from config-invariant counters.

    Algorithm 1 executes the CG block only for sensitivity changes caused
    by the *workload* ("we only execute CG when there have been no changes
    in the hardware tunables prior to the sensitivity change"). The robust
    way to isolate workload changes is to watch counters that depend only
    on the launched work, never on the hardware configuration: the
    instruction totals (VALUInsts / VFetchInsts / VWriteInsts — exactly
    the quantities Figure 14 plots for Graph500's phases), lane
    utilization (divergence), and register allocation.

    A phase change is declared when any identity component moves by more
    than ``threshold`` relative to the previous launch.
    """

    def __init__(self, threshold: float = 0.10):
        if threshold <= 0:
            raise PolicyError("threshold must be positive")
        self._threshold = threshold
        self._identity: Dict[str, tuple] = {}

    @property
    def threshold(self) -> float:
        """Relative-change threshold."""
        return self._threshold

    @staticmethod
    def identity_of(counters: PerfCounters) -> tuple:
        """The config-invariant workload-identity vector.

        Sensitivities are *intensive* properties of a kernel — they depend
        on the instruction mix per workitem, not on how much work was
        launched. The identity therefore uses the memory-to-compute
        instruction ratios rather than raw totals: a BFS level that doubles
        the frontier but keeps the same mix is the same phase (Harmonia
        keeps its configuration), while a level that shifts the
        compute/memory balance re-triggers CG even at identical totals.
        """
        valu = max(counters.valu_insts_millions, 1e-9)
        return (
            counters.vfetch_insts_millions / valu,
            counters.vwrite_insts_millions / valu,
            counters.valu_utilization,
            counters.norm_vgpr,
        )

    def phase_changed(self, kernel_name: str, counters: PerfCounters) -> bool:
        """Fold in a launch; True if it starts a new workload phase.

        The first observation of a kernel is reported as a phase change
        (the first phase has just been discovered).
        """
        identity = self.identity_of(counters)
        previous = self._identity.get(kernel_name)
        self._identity[kernel_name] = identity
        if previous is None:
            return True
        if previous == identity:
            # The steady state: no component moved at all.
            return False
        for old, new in zip(previous, identity):
            scale = max(abs(old), abs(new), 1e-12)
            if abs(new - old) / scale > self._threshold:
                return True
        return False

    def reset(self) -> None:
        """Forget all kernels."""
        self._identity.clear()

    def current_identity(self, kernel_name: str) -> Optional[tuple]:
        """The most recent identity vector of one kernel, if any."""
        return self._identity.get(kernel_name)


class PhaseMemory:
    """Per-(kernel, phase) configuration recall.

    Section 5.1: "Harmonia records the last best hardware configuration
    for all kernels within that application. This state is the initial
    state for the subsequent iteration. Such iterative behaviors are quite
    common in HPC and scientific applications."

    For phased kernels the natural generalization keys that memory by the
    workload-identity vector: when a previously seen phase *recurs* (a BFS
    level shape coming back around, a solver alternating between stages),
    the controller restores that phase's last settled configuration
    immediately instead of re-running the coarse-grain jump and the
    fine-grain refinement from scratch.
    """

    def __init__(self, threshold: float = 0.10):
        if threshold <= 0:
            raise PolicyError("threshold must be positive")
        self._threshold = threshold
        #: kernel -> list of (identity, config) entries, most recent last
        self._entries: Dict[str, list] = {}

    @staticmethod
    def _matches(a: tuple, b: tuple, threshold: float) -> bool:
        if a == b:
            # Stable phases recur with literally equal identity vectors;
            # the tolerance scan below accepts any equal pair anyway.
            return True
        for x, y in zip(a, b):
            scale = max(abs(x), abs(y), 1e-12)
            if abs(x - y) / scale > threshold:
                return False
        return True

    def recall(self, kernel_name: str, identity: tuple):
        """The remembered configuration for a matching phase, or None."""
        for stored_identity, config in reversed(
            self._entries.get(kernel_name, [])
        ):
            if self._matches(stored_identity, identity, self._threshold):
                return config
        return None

    def remember(self, kernel_name: str, identity: tuple, config) -> None:
        """Record (or update) the configuration for a phase."""
        entries = self._entries.setdefault(kernel_name, [])
        for index, (stored_identity, _) in enumerate(entries):
            if self._matches(stored_identity, identity, self._threshold):
                entries[index] = (stored_identity, config)
                return
        entries.append((identity, config))

    def phase_count(self, kernel_name: str) -> int:
        """Number of distinct phases remembered for a kernel."""
        return len(self._entries.get(kernel_name, []))

    def reset(self) -> None:
        """Forget everything."""
        self._entries.clear()
