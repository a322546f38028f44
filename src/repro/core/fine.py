"""The fine-grain (FG) tuning block (Section 5.2).

"Harmonia's FG block fine-tunes each of the hardware tunables based on
performance feedback through the gradient of core utilization. The idea is
to reduce power when the gradient is positive or zero and increase power
when the gradient is negative so as to eventually settle at the balance
point (minimum configuration with zero gradient). To prevent oscillation,
the configuration is set to the last best state after a certain number of
oscillations ... If performance starts to degrade, FG isolates the
responsible tunable and reverts it to previous value."

Feedback signal
---------------
The paper uses "changes in the VALUBusy performance counter" as the proxy
for changes in overall performance. Because launched work can differ
between iterations, the robust form of that proxy is the **ALU-issue
rate**: ``VALUBusy x n_cu x f_cu`` — the rate at which the machine retires
vector work. For a fixed kernel this is exactly proportional to 1/time; it
is invariant to trimming resources the kernel cannot use (zero gradient)
and drops as soon as a trimmed resource was actually needed (negative
gradient), which is precisely the paper's "balance point" semantics.

Control law
-----------
One tunable moves per FG engagement, chosen in *sensitivity-bin priority*
(LOW bins first — they have the most provable headroom; ties broken
memory bus, then CU count, then compute frequency, matching the paper's
observation that Harmonia "most often adjusts CU counts and memory bus
frequencies rather than the full range of compute frequencies"):

* moving **down** continues while feedback stays within tolerance (zero or
  positive gradient: trimming fat, possibly *gaining* performance as in
  the BPT cache-thrashing case);
* a drop in feedback reverts the move (dithering++) and tries the
  **opposite direction** once — this is how FG climbs back out of an
  over-aggressive CG jump (the Streamcluster recovery of Section 7.1);
* moving **up** continues only while feedback strictly improves;
* a tunable whose both directions fail is frozen at its local optimum;
* after ``max_dithering`` reverts the kernel converges to the best state
  seen ("converge to last state with zero gradient") until the workload
  phase changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set, Tuple

from repro.errors import PolicyError
from repro.gpu.config import ConfigSpace, HardwareConfig
from repro.perf.result import KernelRunResult
from repro.sensitivity.binning import Bin

#: FG probing priority among equal bins: memory bus, CU count, frequency.
_TIEBREAK_ORDER: Tuple[str, ...] = ("f_mem", "n_cu", "f_cu")
_BIN_RANK = {Bin.LOW: 0, Bin.MED: 1, Bin.HIGH: 2}

#: Pseudo-tunable marking a CG jump awaiting feedback validation.
CG_VALIDATION = "__cg__"


def utilization_rate(result: KernelRunResult) -> float:
    """The FG feedback signal: ALU-issue rate (see module docstring)."""
    return (
        result.counters.valu_busy / 100.0
        * result.config.n_cu
        * result.config.f_cu
    )


@dataclass
class _Step:
    """An in-flight FG move awaiting its feedback."""

    tunable: str
    direction: int
    before_config: HardwareConfig
    before_feedback: float
    tried_opposite: bool


@dataclass
class FineGrainState:
    """Per-kernel FG tuner state."""

    #: tunables frozen at their local optimum until the phase changes
    frozen: Set[str] = field(default_factory=set)
    #: the move awaiting feedback, if any
    inflight: Optional[_Step] = None
    #: a queued opposite-direction retry (tunable, direction)
    pending: Optional[Tuple[str, int]] = None
    #: oscillation counter
    dithering: int = 0
    #: best (feedback, config) seen since the last restart
    best: Optional[Tuple[float, HardwareConfig]] = None
    #: converged: hold the best state until the phase changes
    converged: bool = False

    def restart(self) -> None:
        """Re-arm the tuner after a workload phase change."""
        self.frozen.clear()
        self.inflight = None
        self.pending = None
        self.dithering = 0
        self.best = None
        self.converged = False

    def abort_inflight(self) -> None:
        """Drop the in-flight move (external revert invalidated it)."""
        self.inflight = None
        self.pending = None

    def prime_cg_validation(self, before_config: HardwareConfig,
                            before_feedback: float) -> None:
        """Arm validation of a CG jump against pre-jump feedback.

        The paper's FG loop is what "ensures much better performance ...
        and avoids outliers" (Section 7.1) — it corrects coarse-grain
        mispredictions (Section 7.3, insight 4). The first FG engagement
        after a CG jump therefore compares the post-jump utilization rate
        with the pre-jump one; a drop beyond tolerance reverts the jump
        wholesale ("converge to last state with zero gradient").
        """
        self.inflight = _Step(
            tunable=CG_VALIDATION,
            direction=-1,
            before_config=before_config,
            before_feedback=before_feedback,
            tried_opposite=True,
        )
        self.pending = None


class FineGrainTuner:
    """Feedback-driven one-step-at-a-time bidirectional tuner.

    Args:
        space: the platform configuration grid.
        tunables: the tunables this tuner may move.
        max_dithering: reverts tolerated before converging to the best
            state seen (the paper's ``dithering > max`` check).
        tolerance: relative feedback change treated as "stayed the same".
    """

    def __init__(
        self,
        space: ConfigSpace,
        tunables: Tuple[str, ...] = ("n_cu", "f_cu", "f_mem"),
        max_dithering: int = 3,
        tolerance: float = 0.01,
    ):
        if max_dithering < 1:
            raise PolicyError("max_dithering must be >= 1")
        if tolerance < 0:
            raise PolicyError("tolerance must be non-negative")
        self._space = space
        self._tunables = tuple(tunables)
        self._max_dithering = max_dithering
        self._tolerance = tolerance
        # Pure memo: probe order is a function of the bin assignment only
        # (at most |Bin|^len(tunables) entries for a fixed tuner).
        self._probe_memo: Dict[Tuple[Bin, ...], Tuple[str, ...]] = {}
        # Power-rank normalization is fixed by the grid; precompute the
        # inverse scales so the per-launch rank is two multiplies.
        self._rank_compute_scale = 1.0 / (
            space.cu_counts[-1] * space.compute_frequencies[-1]
        )
        self._rank_memory_scale = 0.3 / space.memory_frequencies[-1]

    # --- grid helpers ---------------------------------------------------------

    def _step(self, config: HardwareConfig, tunable: str,
              direction: int) -> HardwareConfig:
        if tunable == "n_cu":
            return self._space.step_cu(config, direction)
        if tunable == "f_cu":
            return self._space.step_f_cu(config, direction)
        if tunable == "f_mem":
            return self._space.step_f_mem(config, direction)
        raise PolicyError(f"unknown tunable {tunable!r}")

    def _probe_order(self, bins: Mapping[str, Bin]) -> Tuple[str, ...]:
        """Unfrozen tunables, lowest sensitivity bin first."""
        key = tuple(bins.get(t, Bin.MED) for t in self._tunables)
        order = self._probe_memo.get(key)
        if order is None:
            candidates = sorted(
                self._tunables,
                key=lambda t: (_BIN_RANK[bins.get(t, Bin.MED)],
                               _TIEBREAK_ORDER.index(t)),
            )
            order = self._probe_memo[key] = tuple(candidates)
        return order

    # --- main step ---------------------------------------------------------

    def propose(
        self,
        state: FineGrainState,
        current: HardwareConfig,
        feedback: float,
        bins: Mapping[str, Bin],
    ) -> HardwareConfig:
        """One FG decision.

        Args:
            state: the kernel's FG state (mutated in place).
            current: the configuration of the launch just observed.
            feedback: the launch's utilization-rate feedback.
            bins: per-tunable sensitivity bins (``n_cu``/``f_cu`` carry the
                compute bin, ``f_mem`` the bandwidth bin).

        Returns:
            The configuration for the next launch.
        """
        self._space.validate(current)
        self._update_best(state, current, feedback)

        if state.converged:
            return state.best[1]

        if state.inflight is not None:
            outcome = self._resolve_inflight(state, current, feedback)
            if outcome is not None:
                return outcome

        return self._start_next_move(state, current, feedback, bins)

    # --- best-state tracking ---------------------------------------------------------

    def _power_rank(self, config: HardwareConfig) -> float:
        """Monotone power proxy used to break feedback ties.

        "Converge to last state with zero gradient" means the *cheapest*
        state delivering the best feedback — among configs whose feedback
        is within tolerance, prefer lower compute throughput (dominant
        dynamic power) and then lower memory bus frequency.
        """
        return (config.n_cu * config.f_cu * self._rank_compute_scale
                + config.f_mem * self._rank_memory_scale)

    def _update_best(self, state: FineGrainState, current: HardwareConfig,
                     feedback: float) -> None:
        if state.best is None:
            state.best = (feedback, current)
            return
        best_feedback, best_config = state.best
        if feedback > best_feedback * (1.0 + self._tolerance):
            state.best = (feedback, current)
        elif (feedback >= best_feedback * (1.0 - self._tolerance)
              and self._power_rank(current) < self._power_rank(best_config)):
            state.best = (max(feedback, best_feedback), current)

    # --- inflight resolution ---------------------------------------------------------

    def _resolve_inflight(self, state: FineGrainState,
                          current: HardwareConfig,
                          feedback: float) -> Optional[HardwareConfig]:
        """Judge the in-flight move. Returns a config to run next, or None
        to fall through to starting a new move from ``current``."""
        step = state.inflight
        assert step is not None
        before = step.before_feedback
        change = 0.0 if before <= 0 else (feedback - before) / before

        if step.direction < 0:
            # Downward moves must stay within tolerance of the best
            # feedback seen this phase, not merely of the previous step —
            # otherwise a long descent ratchets away sub-tolerance losses
            # one step at a time.
            assert state.best is not None
            anchor = max(before, state.best[0])
            success = (anchor <= 0
                       or (feedback - anchor) / anchor >= -self._tolerance)
        else:
            success = change > self._tolerance

        if step.tunable == CG_VALIDATION:
            state.inflight = None
            if success:
                # The CG jump held up: hold it this round; normal FG moves
                # begin on the next engagement (subject to the caller's
                # patience gate).
                return current
            # The CG jump hurt: revert it wholesale.
            state.dithering += 1
            return step.before_config

        if success:
            if step.direction > 0:
                # Climbing out of an over-aggressive cut moves the
                # bottleneck: previously frozen tunables may have headroom
                # again (the max(compute, memory) ridge), so re-open them.
                state.frozen = {t for t in state.frozen if t == step.tunable}
            # Keep moving the same tunable in the same direction.
            proposal = self._step(current, step.tunable, step.direction)
            if proposal == current:
                # Grid edge: this tunable is done.
                state.frozen.add(step.tunable)
                state.inflight = None
                return None
            state.inflight = _Step(
                tunable=step.tunable,
                direction=step.direction,
                before_config=current,
                before_feedback=feedback,
                tried_opposite=step.tried_opposite,
            )
            return proposal

        # The move hurt (or an upward move bought nothing): revert it.
        state.dithering += 1
        state.inflight = None
        if state.dithering > self._max_dithering:
            state.converged = True
            assert state.best is not None
            return state.best[1]
        if step.tried_opposite or step.direction > 0:
            # Both directions exhausted (down failed earlier or this was
            # the upward retry): the tunable sits at its local optimum.
            state.frozen.add(step.tunable)
        else:
            state.pending = (step.tunable, +1)
        return step.before_config

    # --- starting moves ---------------------------------------------------------

    def _start_next_move(self, state: FineGrainState,
                         current: HardwareConfig, feedback: float,
                         bins: Mapping[str, Bin]) -> HardwareConfig:
        if state.pending is not None:
            tunable, direction = state.pending
            state.pending = None
            return self._launch_step(state, current, feedback, tunable,
                                     direction, tried_opposite=True)

        for tunable in self._probe_order(bins):
            if tunable in state.frozen:
                continue
            proposal = self._step(current, tunable, -1)
            if proposal == current:
                # At the grid minimum there is nothing to trim, but the
                # tunable may be *starved* (e.g. after an over-aggressive
                # LOW-bin jump): probe upward once. The up-move keeps only
                # on strict improvement, so a genuinely balanced tunable
                # costs a single reverted step before freezing.
                return self._launch_step(state, current, feedback, tunable,
                                         direction=+1, tried_opposite=True)
            return self._launch_step(state, current, feedback, tunable,
                                     direction=-1, tried_opposite=False)
        # Everything frozen or at minimum: settled (zero gradient).
        return current

    def _launch_step(self, state: FineGrainState, current: HardwareConfig,
                     feedback: float, tunable: str, direction: int,
                     tried_opposite: bool) -> HardwareConfig:
        proposal = self._step(current, tunable, direction)
        if proposal == current:
            state.frozen.add(tunable)
            return current
        state.inflight = _Step(
            tunable=tunable,
            direction=direction,
            before_config=current,
            before_feedback=feedback,
            tried_opposite=tried_opposite,
        )
        return proposal
