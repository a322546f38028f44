"""Batched controller sessions: many application runs in lockstep.

A **lane** is one independent controller session — an (application,
policy, platform) triple, e.g. one app × noise-seed × policy-variant cell
of an evaluation matrix. The :class:`BatchSessionRunner` advances all
lanes of one application in lockstep: every tick launches the same
``(iteration, kernel, spec)`` in every lane, gathers all lanes' pending
configurations against the kernel's one memoized grid surface, scatters
the per-lane results back, and steps each policy.

The speed comes from three structural facts:

* the launch schedule is policy-independent, so lanes never diverge in
  *which* kernel is in flight — only in the configuration they launch it
  at — and one surface lookup serves the whole tick;
* on noisy platforms the launch-keyed Philox noise makes a launch's
  multiplier a pure function of ``(seed, spec, iteration, config)``, so a
  lane's noisy result is the clean surface element times one keyed draw —
  no per-launch scalar model evaluation, and order-invariant across
  lanes;
* the Harmonia numeric stage (feature EWMA, sensitivity prediction,
  binning, feedback) vectorizes across lanes
  (:mod:`repro.core.batched`), while the branchy transition stage runs on
  the real per-lane policy objects — so the engine is bitwise-identical
  to the scalar loop, which stays in the tree as the differential-testing
  oracle.

**Scalar fallback triggers.** A lane silently takes the scalar
:class:`~repro.runtime.simulator.ApplicationRunner` path when batched
stepping could not be proven equivalent: a telemetry-enabled runner (the
instrumented loop's event stream is per-run, not lockstep),
``reset_policy=False`` (lanes would have to resume scalar-held numeric
state), or duplicate policy *instances* across lanes of one application
(their shared mutable history needs sequential stepping). Policies other
than the Harmonia family still batch at the platform layer but step their
own ``observe`` per lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batched import (
    LaneGroupObserver,
    SchedulePlan,
    SurfaceNumerics,
    fast_path_eligible,
    group_signature,
    plan_schedule,
    surface_numerics,
)
from repro.core.policy import LaunchContext, PowerPolicy
from repro.platform.hd7970 import HardwarePlatform
from repro.runtime.simulator import ApplicationRunner, RunResult, finish_run
from repro.runtime.trace import LaunchRecord, RunTrace
from repro.telemetry.handle import coalesce
from repro.workloads.application import Application


@dataclass(frozen=True)
class SessionSpec:
    """One lane: an application run under a policy on a platform.

    Attributes:
        application: the workload to execute.
        policy: the power-management policy driving the lane.
        platform: the test bed; ``None`` uses the runner's default (lanes
            may differ, e.g. one noisy platform per Monte Carlo seed).
    """

    application: Application
    policy: PowerPolicy
    platform: Optional[HardwarePlatform] = None


class _Lane:
    """Mutable per-lane stepping state."""

    __slots__ = ("policy", "platform", "trace", "index", "result",
                 "fast", "histories")

    def __init__(self, policy: PowerPolicy, platform: HardwarePlatform):
        self.policy = policy
        self.platform = platform
        self.trace = RunTrace()
        self.index = 0
        self.result = None
        # Fast-path lanes (set by _partition) carry the un-overridden
        # HarmoniaPolicy.config_for, so the gather loop may serve their
        # pending config straight from the kernel history it caches here.
        self.fast = False
        self.histories: Dict[str, object] = {}


class _FastGroup:
    """Lanes sharing one vectorized numeric observer."""

    __slots__ = ("lanes", "observer", "plan", "numerics", "bindings")

    def __init__(self, lanes: List[_Lane], observer: LaneGroupObserver,
                 plan: SchedulePlan,
                 numerics: Dict[object, SurfaceNumerics]):
        self.lanes = lanes
        self.observer = observer
        self.plan = plan
        self.numerics = numerics
        # kernel name -> [(policy, history, control), ...] per lane; the
        # per-kernel history/control objects are stable for a run, so the
        # lockstep loop resolves them once per kernel instead of paying
        # two keyed lookups per lane-step.
        self.bindings: Dict[str, list] = {}


class BatchSessionRunner:
    """Advances many controller sessions in lockstep.

    Args:
        platform: default test bed for lanes that don't carry their own.
        telemetry: telemetry handle; when enabled, every lane falls back
            to the scalar instrumented runner (see the module docstring).
    """

    def __init__(self, platform: HardwarePlatform, telemetry=None):
        self._platform = platform
        self._telemetry = coalesce(telemetry)
        # id(surface) -> (surface, numerics); the surface reference pins
        # the id so the cache can never alias a collected object.
        self._numerics: Dict[int, Tuple[object, SurfaceNumerics]] = {}

    @property
    def platform(self) -> HardwarePlatform:
        """The default test bed."""
        return self._platform

    def run(self, application: Application, policy: PowerPolicy,
            reset_policy: bool = True) -> RunResult:
        """Run a single session (one-lane convenience wrapper)."""
        return self.run_sessions(
            [SessionSpec(application=application, policy=policy)],
            reset_policy=reset_policy,
        )[0]

    def run_sessions(self, sessions: Sequence[SessionSpec],
                     reset_policy: bool = True) -> List[RunResult]:
        """Run every session, batching lanes of the same application.

        Results are returned in session order and are bitwise-identical
        to ``ApplicationRunner.run`` of each lane in isolation — the
        differential contract the equivalence suite enforces.
        """
        sessions = list(sessions)
        results: List[Optional[RunResult]] = [None] * len(sessions)
        # Lanes of one application advance in lockstep; distinct
        # applications run sequentially, preserving the scalar harness's
        # per-application ordering of platform/cache side effects.
        order: List[Application] = []
        grouped: Dict[int, List[int]] = {}
        for position, spec in enumerate(sessions):
            key = id(spec.application)
            if key not in grouped:
                grouped[key] = []
                order.append(spec.application)
            grouped[key].append(position)
        for application in order:
            positions = grouped[id(application)]
            outcomes = self._run_application(
                application, [sessions[p] for p in positions], reset_policy
            )
            for position, outcome in zip(positions, outcomes):
                results[position] = outcome
        return results

    # --- one application's lane group ------------------------------------------

    def _run_application(self, application: Application,
                         specs: Sequence[SessionSpec],
                         reset_policy: bool) -> List[RunResult]:
        platforms = [spec.platform or self._platform for spec in specs]
        policies = [spec.policy for spec in specs]

        batchable = self._batchable_mask(platforms, policies, reset_policy)
        results: List[Optional[RunResult]] = [None] * len(specs)
        for slot, ok in enumerate(batchable):
            if not ok:
                runner = ApplicationRunner(platforms[slot], self._telemetry)
                results[slot] = runner.run(
                    application, policies[slot], reset_policy=reset_policy
                )
        lanes_slots = [slot for slot, ok in enumerate(batchable) if ok]
        if not lanes_slots:
            return results

        lanes = []
        for slot in lanes_slots:
            if reset_policy:
                policies[slot].reset()
            lanes.append(_Lane(policies[slot], platforms[slot]))

        steps = list(application.launches())
        fast_groups, generic_lanes = self._partition(lanes, steps)
        self._step_lockstep(steps, lanes, fast_groups, generic_lanes)

        for group in fast_groups:
            for lane_slot, lane in enumerate(group.lanes):
                exported = group.observer.export_lane(lane_slot)
                for kernel_name, features in exported.items():
                    lane.policy.restore_numeric_state(
                        kernel_name, features,
                        group.plan.last_identity[kernel_name],
                    )
        for slot, lane in zip(lanes_slots, lanes):
            results[slot] = finish_run(application, lane.policy, lane.trace)
        return results

    def _batchable_mask(self, platforms, policies,
                        reset_policy: bool) -> List[bool]:
        if self._telemetry.enabled or not reset_policy:
            return [False] * len(platforms)
        instance_counts: Dict[int, int] = {}
        for policy in policies:
            key = id(policy)
            instance_counts[key] = instance_counts.get(key, 0) + 1
        # A policy instance shared between lanes carries shared mutable
        # history; only sequential scalar runs (which the fallback loop
        # performs in lane order) preserve its semantics, so every
        # occurrence goes scalar.
        return [instance_counts[id(policy)] == 1 for policy in policies]

    def _surface_numerics(self, surface) -> SurfaceNumerics:
        cached = self._numerics.get(id(surface))
        if cached is None or cached[0] is not surface:
            cached = (surface, surface_numerics(surface))
            self._numerics[id(surface)] = cached
        return cached[1]

    def _partition(self, lanes: List[_Lane], steps):
        """Split lanes into vectorized fast groups and generic lanes.

        Fast lanes are grouped by (numeric signature, surface identity):
        platforms with equal calibration share the very same cached
        surface objects, so the surface of the first scheduled spec is a
        sound group key for every spec of the schedule.
        """
        first_spec = steps[0][2]
        buckets: Dict[tuple, List[_Lane]] = {}
        generic: List[_Lane] = []
        for lane in lanes:
            if not fast_path_eligible(lane.policy):
                generic.append(lane)
                continue
            key = (
                group_signature(lane.policy),
                id(lane.platform.launch_surface(first_spec)),
            )
            lane.fast = True
            buckets.setdefault(key, []).append(lane)

        groups: List[_FastGroup] = []
        for (signature, _surface_id), members in buckets.items():
            threshold = signature[2]
            numerics: Dict[object, SurfaceNumerics] = {}
            plan_rows = []
            provider = members[0].platform
            for iteration, kernel, spec in steps:
                if spec not in numerics:
                    numerics[spec] = self._surface_numerics(
                        provider.launch_surface(spec)
                    )
                plan_rows.append((iteration, kernel.name, numerics[spec]))
            groups.append(_FastGroup(
                lanes=members,
                observer=LaneGroupObserver([m.policy for m in members]),
                plan=plan_schedule(plan_rows, threshold),
                numerics=numerics,
            ))
        return groups, generic

    def _step_lockstep(self, steps, lanes: List[_Lane],
                       fast_groups: List[_FastGroup],
                       generic_lanes: List[_Lane]) -> None:
        # Platform clusters: one surface lookup (and, when noisy, one
        # keyed draw stream) serves every lane on the same platform.
        clusters: Dict[int, Tuple[HardwarePlatform, List[_Lane]]] = {}
        for lane in lanes:
            entry = clusters.setdefault(id(lane.platform),
                                        (lane.platform, []))
            entry[1].append(lane)
        cluster_list = list(clusters.values())

        for step_index, (iteration, kernel, spec) in enumerate(steps):
            kernel_name = kernel.name
            context = LaunchContext(
                kernel_name=kernel_name, iteration=iteration, spec=spec
            )
            # Gather: decide every lane's config, serve it from the one
            # memoized surface (plus the lane's keyed noise draw). The
            # draw vectors are fetched once per platform per step, so
            # each lane launch is an array index, not a memo lookup.
            for platform, members in cluster_list:
                surface = platform.launch_surface(spec)
                draws = (platform.noise_draws(spec, iteration)
                         if platform.noise_std_fraction > 0 else None)
                grid_index = platform.grid_index
                result_at = surface.result_at
                noisy_from = platform.noisy_result_from
                for lane in members:
                    if lane.fast:
                        # Inlined HarmoniaPolicy.config_for: fast lanes
                        # are guaranteed the un-overridden implementation
                        # (fast_path_eligible), which returns the kernel
                        # history's pending config; the scalar call is
                        # kept for the first launch (it initializes the
                        # history to the baseline boost point).
                        history = lane.histories.get(kernel_name)
                        if history is None:
                            history = lane.histories[kernel_name] = \
                                lane.policy.history_for(kernel_name)
                        config = history.current_config
                        if config is None:
                            config = lane.policy.config_for(context)
                    else:
                        config = lane.policy.config_for(context)
                    index = grid_index(config)
                    result = result_at(index)
                    if draws is not None:
                        result = noisy_from(
                            result, spec, iteration, index, draws
                        )
                    lane.index = index
                    lane.result = result
                    lane.trace.append(LaunchRecord(
                        iteration, kernel_name, result,
                    ))
            # Observe: vectorized numeric stage + per-lane transitions.
            for group in fast_groups:
                numerics = group.numerics[spec]
                indices = np.array(
                    [lane.index for lane in group.lanes], dtype=np.intp
                )
                phase_changed = group.plan.flags[step_index]
                snapshots, feedback = group.observer.tick(
                    kernel_name, numerics, indices, phase_changed
                )
                identity = group.plan.identities[step_index]
                bindings = group.bindings.get(kernel_name)
                if bindings is None:
                    bindings = group.bindings[kernel_name] = [
                        (lane.policy,
                         lane.policy.history_for(kernel_name),
                         lane.policy.control_state(kernel_name))
                        for lane in group.lanes
                    ]
                for lane, (policy, history, control), snapshot, \
                        lane_feedback in zip(
                        group.lanes, bindings, snapshots, feedback):
                    history.record(lane.result)
                    policy._apply_observation(
                        context, lane.result, history, control,
                        phase_changed=phase_changed,
                        snapshot=snapshot,
                        identity=identity,
                        feedback=lane_feedback,
                    )
            for lane in generic_lanes:
                lane.policy.observe(context, lane.result)
