"""Harmonia: two-level coordinated power management (Algorithm 1).

Per kernel, at every kernel boundary:

1. **Monitor** — read the completed launch's counters; fold them into the
   kernel's running feature average (:class:`~repro.core.monitor.
   MonitoringBlock`); detect workload phase changes from config-invariant
   identity counters (:class:`~repro.core.monitor.PhaseDetector`).
2. **CG** — on a genuine workload phase change, predict compute and
   bandwidth sensitivities (Table 3 models), bin them HIGH/MED/LOW, and
   jump all tunables with ``SetCU_Freq_MemBW``. Algorithm 1's guard —
   "we only execute CG when there have been no changes in the hardware
   tunables prior to the sensitivity change" — is enforced by
   construction: the phase detector reacts only to counters the hardware
   tunables cannot move (instruction totals, divergence, registers), so a
   sensitivity change induced by our own configuration change can never
   re-trigger CG. This replaces the pseudo-code's revert-and-retry dance
   with the same isolation guarantee and no oscillation.
3. **FG** — within a stable phase, fine-tune one grid step at a time on
   the utilization-rate gradient (:class:`~repro.core.fine.
   FineGrainTuner`): decrement while performance holds, revert and try the
   opposite direction when it degrades, freeze dead tunables, and after
   too much dithering converge to the cheapest state with best feedback.

Kernel history is retained across application iterations — "Harmonia
records the last best hardware configuration for all kernels within that
application. This state is the initial state for the subsequent iteration"
(Section 5.1).
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.core.coarse import CoarseGrainTuner, SensitivitySnapshot, TUNABLES
from repro.core.fine import FineGrainState, FineGrainTuner, utilization_rate
from repro.core.monitor import MonitoringBlock, PhaseDetector, PhaseMemory
from repro.core.policy import HistoryMixin, KernelHistory, LaunchContext
from repro.gpu.config import ConfigSpace, HardwareConfig
from repro.perf.result import KernelRunResult
from repro.sensitivity.binning import Bin, SensitivityBins
from repro.sensitivity.predictor import SensitivityPredictor
from repro.telemetry.handle import NULL_TELEMETRY
from repro.telemetry.spans import ambient_telemetry


class _KernelControlState:
    """Controller state for one kernel beyond the generic history."""

    __slots__ = ("fg", "last_snapshot", "cg_actions", "fg_actions",
                 "phase_changes", "phase_age", "phase_recalls",
                 "last_identity")

    def __init__(self) -> None:
        self.fg = FineGrainState()
        self.last_snapshot: Optional[SensitivitySnapshot] = None
        #: count of CG jumps taken (for the Figure 18 CG/FG attribution)
        self.cg_actions = 0
        #: count of FG steps taken
        self.fg_actions = 0
        #: count of detected workload phase changes
        self.phase_changes = 0
        #: observations since the current phase started
        self.phase_age = 0
        #: count of phase-memory recalls (recurring phases restored directly)
        self.phase_recalls = 0
        #: identity of the phase currently executing (for exit snapshots)
        self.last_identity: Optional[Tuple] = None


class ControllerStats(NamedTuple):
    """Read-only snapshot of one kernel's controller counters.

    The public face of the per-kernel control state: the Figure 18
    CG/FG attribution and the phase bookkeeping, without reaching into
    the policy's private ``_KernelControlState``.
    """

    cg_actions: int = 0
    fg_actions: int = 0
    phase_changes: int = 0
    phase_recalls: int = 0


class HarmoniaPolicy(HistoryMixin):
    """The paper's two-level controller.

    Args:
        space: the platform configuration grid.
        compute_predictor: Table 3 compute-throughput sensitivity model.
        bandwidth_predictor: Table 3 bandwidth sensitivity model.
        bins: sensitivity binning (defaults to the paper's 30%/70%).
        enable_fg: disable for the CG-only comparator of Figures 10-13.
        tunables: tunables the controller may move (the compute-DVFS-only
            variant of Section 7.2 passes ``("f_cu",)``).
        max_dithering: FG oscillation bound before convergence.
        tolerance: FG relative-feedback tolerance.
        monitor_alpha: EWMA weight of the monitoring block.
        phase_threshold: relative identity-counter change that declares a
            workload phase change.
        fg_patience: observations a phase must survive before the FG loop
            starts probing. Rapidly phase-changing kernels (Graph500's BFS
            levels) would otherwise pay a probe-iteration penalty inside
            every short phase; stable kernels merely start FG one
            iteration later. The CG-jump validation is exempt — a bad
            jump is reverted immediately regardless of patience.
        enable_phase_memory: when a previously seen phase recurs, restore
            its last settled configuration instead of re-running CG from
            scratch (Section 5.1's per-kernel history, generalized to
            phases).
        policy_name: report name override.

    A session that starts inside the run handle's
    :meth:`~repro.telemetry.handle.Telemetry.record_events` scope
    records the policy's decision events and controller counters there
    (:meth:`reset` looks the handle up); the decisions are bit-identical
    either way.
    """

    def __init__(
        self,
        space: ConfigSpace,
        compute_predictor: SensitivityPredictor,
        bandwidth_predictor: SensitivityPredictor,
        bins: Optional[SensitivityBins] = None,
        enable_fg: bool = True,
        tunables: Tuple[str, ...] = TUNABLES,
        max_dithering: int = 8,
        tolerance: float = 0.01,
        monitor_alpha: float = 0.4,
        phase_threshold: float = 0.10,
        fg_patience: int = 3,
        enable_phase_memory: bool = True,
        policy_name: Optional[str] = None,
    ):
        super().__init__()
        self._space = space
        self._telemetry = NULL_TELEMETRY
        self._counters: Dict[str, Any] = {}
        self._cg = CoarseGrainTuner(
            space=space,
            compute_predictor=compute_predictor,
            bandwidth_predictor=bandwidth_predictor,
            bins=bins,
            tunables=frozenset(tunables),
        )
        self._fg = FineGrainTuner(
            space=space,
            tunables=tunables,
            max_dithering=max_dithering,
            tolerance=tolerance,
        )
        self._monitor = MonitoringBlock(alpha=monitor_alpha)
        self._phases = PhaseDetector(threshold=phase_threshold)
        self._phase_memory = (
            PhaseMemory(threshold=phase_threshold)
            if enable_phase_memory else None
        )
        self._enable_fg = enable_fg
        if fg_patience < 1:
            raise ValueError("fg_patience must be >= 1")
        self._fg_patience = fg_patience
        self._control: Dict[str, _KernelControlState] = {}
        # Pure memo: the per-tunable bin mapping handed to the FG tuner is
        # a function of the snapshot's (compute_bin, bandwidth_bin) pair
        # (at most |Bin|^2 shared read-only dicts).
        self._tunable_bins_memo: Dict[Tuple[Bin, Bin], Dict[str, Bin]] = {}
        default_name = "harmonia" if enable_fg else "cg-only"
        self._name = policy_name or default_name

    @property
    def name(self) -> str:
        """Policy name."""
        return self._name

    @property
    def monitor(self) -> MonitoringBlock:
        """The monitoring block (exposed for analysis)."""
        return self._monitor

    @property
    def phase_memory(self) -> Optional[PhaseMemory]:
        """The per-phase configuration memory (None when disabled)."""
        return self._phase_memory

    def reset(self) -> None:
        """Forget all per-kernel state (between applications) and look
        up the handle this session records its decisions on."""
        telemetry = ambient_telemetry()
        self._telemetry = (telemetry if telemetry.records_events
                           else NULL_TELEMETRY)
        self._counters = {}
        self.clear_history()
        self._control.clear()
        self._monitor.reset()
        self._phases.reset()
        if self._phase_memory is not None:
            self._phase_memory.reset()

    def _counter(self, name: str, help: str):
        """This session's counter ``name``, fetched from the handle's
        registry once: on first use, so an unused one stays unregistered."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self._telemetry.metrics.counter(
                name, help)
        return counter

    def control_state(self, kernel_name: str) -> _KernelControlState:
        """The (auto-created) controller state of one kernel."""
        if kernel_name not in self._control:
            self._control[kernel_name] = _KernelControlState()
        return self._control[kernel_name]

    def stats(self, kernel_name: Optional[str] = None):
        """Read-only controller counters (the Figure 18 attribution).

        Args:
            kernel_name: return one kernel's :class:`ControllerStats`
                (all-zero for a kernel never observed); ``None`` returns
                a mapping over every kernel seen so far.
        """
        if kernel_name is None:
            return {name: self.stats(name) for name in sorted(self._control)}
        control = self._control.get(kernel_name)
        if control is None:
            return ControllerStats()
        return ControllerStats(
            cg_actions=control.cg_actions,
            fg_actions=control.fg_actions,
            phase_changes=control.phase_changes,
            phase_recalls=control.phase_recalls,
        )

    # --- policy interface ---------------------------------------------------------

    def config_for(self, context: LaunchContext) -> HardwareConfig:
        """The configuration assigned to this kernel's next launch."""
        history = self.history_for(context.kernel_name)
        if history.current_config is None:
            # First launch: inherit the baseline (boost) operating point.
            history.current_config = self._space.max_config()
        return history.current_config

    def observe(self, context: LaunchContext, result: KernelRunResult) -> None:
        """Algorithm 1's monitoring + decision step.

        Split into a numeric stage (phase detection, feature averaging,
        sensitivity prediction, utilization-rate feedback) followed by
        :meth:`_apply_observation`, the branchy transition stage. The
        session engine (:mod:`repro.runtime.session`) and the scalar
        oracle both step every lane through this one method.
        """
        kernel_name = context.kernel_name
        counters = result.counters
        history = self.history_for(kernel_name)
        control = self.control_state(kernel_name)
        requested = history.current_config
        history.record(result)

        if requested is not None and result.config != requested:
            # An outer layer (e.g. a thermal governor, Section 2.3's
            # PowerTune enforcement) overrode our request. The launch's
            # feedback is not attributable to any FG move, so drop the
            # in-flight step and hold our own decision.
            control.fg.abort_inflight()
            self._phases.phase_changed(kernel_name, counters)
            self._monitor.update_vector(kernel_name, counters)
            return

        phase_changed = self._phases.phase_changed(kernel_name, counters)
        if phase_changed:
            # New workload phase: restart the feature average.
            self._monitor.reset_kernel(kernel_name)
        features = self._monitor.update_vector(kernel_name, counters)
        snapshot = self._cg.snapshot_from_vector(features)
        # phase_changed has just stored this launch's identity vector.
        identity = self._phases.current_identity(kernel_name)
        self._apply_observation(
            context, result, history, control,
            phase_changed=phase_changed,
            snapshot=snapshot,
            identity=identity,
            feedback=utilization_rate(result),
        )

    def _apply_observation(self, context: LaunchContext,
                           result: KernelRunResult,
                           history: KernelHistory,
                           control: _KernelControlState, *,
                           phase_changed: bool,
                           snapshot: SensitivitySnapshot,
                           identity: Tuple,
                           feedback: float) -> None:
        """Algorithm 1's decision step, downstream of the numeric stage.

        Applies the CG-jump / phase-recall / FG hill-climb transition
        rules given the launch's numeric observations: the phase-change
        flag, the binned sensitivity snapshot, the phase identity, and
        the utilization-rate feedback. Mutates the per-kernel history
        and control state in place. Kept apart from :meth:`observe`'s
        numeric stage so the decision rules read as one unit.
        """
        config = result.config
        if phase_changed:
            # New workload phase: restart the FG state.
            control.phase_changes += 1
            control.phase_age = 0
            control.fg.restart()
        control.phase_age += 1
        tel = self._telemetry
        if phase_changed and tel.enabled:
            from repro.telemetry.events import PhaseChange
            tel.emit(PhaseChange(
                kernel=context.kernel_name,
                iteration=context.iteration,
                time_s=result.time,
                identity=tuple(identity),
                phase_index=control.phase_changes,
            ))
            self._counter(
                "phase_changes_total",
                "workload phase changes declared by the phase detector",
            ).inc(kernel=context.kernel_name)
        source = None
        if phase_changed:
            recalled = (
                self._phase_memory.recall(context.kernel_name, identity)
                if self._phase_memory is not None else None
            )
            if recalled is not None:
                # A previously seen phase recurs: restore its last settled
                # configuration directly (Section 5.1's history, per phase).
                control.phase_recalls += 1
                next_config = recalled
                source = "recall"
                if tel.enabled:
                    self._counter(
                        "phase_recalls_total",
                        "recurring phases restored from phase memory",
                    ).inc(kernel=context.kernel_name)
            else:
                next_config = self._cg_jump(control, snapshot, config)
                source = "cg"
                if tel.enabled:
                    from repro.telemetry.events import CGJump
                    self._counter(
                        "cg_targets_total",
                        "SetCU_Freq_MemBW target computations",
                    ).inc()
                    tel.emit(CGJump(
                        kernel=context.kernel_name,
                        iteration=context.iteration,
                        time_s=result.time,
                        old_config=config,
                        new_config=next_config,
                        compute_bin=snapshot.compute_bin.value,
                        bandwidth_bin=snapshot.bandwidth_bin.value,
                        compute_sensitivity=snapshot.compute,
                        bandwidth_sensitivity=snapshot.bandwidth,
                    ))
                    self._counter(
                        "cg_actions_total", "coarse-grain jumps taken",
                    ).inc(kernel=context.kernel_name)
            if self._enable_fg and next_config != config:
                # Arm the FG loop to validate the jump (or the recall)
                # against the pre-jump utilization rate (Section 7.3,
                # insight 4) — both feedbacks are measured on the new
                # phase, so the comparison is meaningful.
                control.fg.prime_cg_validation(
                    before_config=config,
                    before_feedback=feedback,
                )
            control.last_identity = identity
        elif self._enable_fg and (
            control.phase_age > self._fg_patience
            or control.fg.inflight is not None
        ):
            control.fg_actions += 1
            bins_key = (snapshot.compute_bin, snapshot.bandwidth_bin)
            tunable_bins = self._tunable_bins_memo.get(bins_key)
            if tunable_bins is None:
                tunable_bins = self._tunable_bins_memo[bins_key] = {
                    "n_cu": snapshot.compute_bin,
                    "f_cu": snapshot.compute_bin,
                    "f_mem": snapshot.bandwidth_bin,
                }
            pre_inflight = control.fg.inflight
            pre_converged = control.fg.converged
            pre_dithering = control.fg.dithering
            next_config = self._fg.propose(
                control.fg, config, feedback, tunable_bins
            )
            source = "fg"
            if tel.enabled:
                self._emit_fg_telemetry(
                    context, result, control, snapshot, pre_inflight,
                    pre_converged, pre_dithering, next_config,
                )
        else:
            next_config = config

        history.previous_config = config
        history.config_changed_last = next_config != config
        history.current_config = next_config
        control.last_snapshot = snapshot
        if tel.enabled and source is not None and next_config != config:
            from repro.telemetry.events import ConfigApplied
            tel.emit(ConfigApplied(
                kernel=context.kernel_name,
                iteration=context.iteration,
                time_s=result.time,
                old_config=config,
                new_config=next_config,
                source=source,
            ))
            self._counter(
                "config_changes_total",
                "configuration changes applied, by deciding block",
            ).inc(kernel=context.kernel_name, source=source)
        if self._phase_memory is not None and control.fg.inflight is None:
            # Remember the phase's configuration only at settle points —
            # never a transient FG probe awaiting its feedback.
            self._phase_memory.remember(
                context.kernel_name, identity, next_config
            )

    def _cg_jump(self, control: _KernelControlState,
                 snapshot: SensitivitySnapshot,
                 current: HardwareConfig) -> HardwareConfig:
        control.cg_actions += 1
        return self._cg.target_config(snapshot, current)

    def _emit_fg_telemetry(self, context: LaunchContext,
                           result: KernelRunResult,
                           control: _KernelControlState,
                           snapshot: SensitivitySnapshot,
                           pre_inflight, pre_converged: bool,
                           pre_dithering: int,
                           next_config: HardwareConfig) -> None:
        """Classify one FG engagement into step/revert/converged events.

        The tuner mutates its state in place, so the engagement's nature
        is read off the pre/post deltas: a dithering increment is a
        revert (of ``pre_inflight``'s tunable, or of a whole CG jump
        under validation), a fresh ``converged`` flag is convergence,
        and any other configuration change is a forward step.
        """
        from repro.telemetry.events import FGConverged, FGRevert, FGStep

        tel = self._telemetry
        kernel = context.kernel_name
        self._counter(
            "fg_proposals_total", "fine-grain propose() decisions",
        ).inc()
        self._counter(
            "fg_actions_total", "fine-grain engagements",
        ).inc(kernel=kernel)
        reverted = control.fg.dithering > pre_dithering
        if reverted:
            tel.emit(FGRevert(
                kernel=kernel,
                iteration=context.iteration,
                time_s=result.time,
                tunable=pre_inflight.tunable if pre_inflight else "?",
                old_config=result.config,
                new_config=next_config,
            ))
            self._counter(
                "fg_dither_events_total", "fine-grain reverts (dithering)",
            ).inc(kernel=kernel)
        if control.fg.converged and not pre_converged:
            tel.emit(FGConverged(
                kernel=kernel,
                iteration=context.iteration,
                time_s=result.time,
                config=next_config,
            ))
            self._counter(
                "fg_converged_total", "fine-grain convergence events",
            ).inc(kernel=kernel)
        elif not reverted and next_config != result.config:
            tunable, direction = _moved_tunable(result.config, next_config)
            tel.emit(FGStep(
                kernel=kernel,
                iteration=context.iteration,
                time_s=result.time,
                tunable=tunable,
                direction=direction,
                old_config=result.config,
                new_config=next_config,
                compute_bin=snapshot.compute_bin.value,
                bandwidth_bin=snapshot.bandwidth_bin.value,
            ))
            self._counter(
                "fg_steps_total", "fine-grain grid steps taken",
            ).inc(kernel=kernel)


def _moved_tunable(old: HardwareConfig,
                   new: HardwareConfig) -> Tuple[str, int]:
    """(tunable, direction) of a one-tunable move; ("multi", 0) otherwise."""
    moved = [
        (name, 1 if getattr(new, name) > getattr(old, name) else -1)
        for name in TUNABLES
        if getattr(new, name) != getattr(old, name)
    ]
    if len(moved) == 1:
        return moved[0]
    return ("multi", 0)
