"""Batched controller sessions: many application runs in lockstep.

A **lane** is one independent controller session — an (application,
policy, platform) triple, e.g. one app × noise-seed × policy-variant cell
of an evaluation matrix. The :class:`BatchSessionRunner` advances all
lanes of one application in lockstep: every tick launches the same
``(iteration, kernel, spec)`` in every lane, gathers all lanes' pending
configurations against the kernel's one memoized grid surface, scatters
the per-lane results back, and steps each policy.

The speed comes from two structural facts:

* the launch schedule is policy-independent, so lanes never diverge in
  *which* kernel is in flight — only in the configuration they launch it
  at — and one surface lookup serves the whole tick;
* on noisy platforms the launch-keyed Philox noise makes a launch's
  multiplier a pure function of ``(seed, spec, iteration, config)``, so a
  lane's noisy result is the clean surface element times one keyed draw —
  no per-launch scalar model evaluation, and order-invariant across
  lanes.

Each lane then steps its own policy through ``config_for`` and
``observe``, the very calls the scalar loop makes, so the engine is
bitwise-identical to that loop, which stays in the tree as the
differential-testing oracle. Production groups hold one to five lanes
(one per policy of an evaluation cell), too few to amortize vectorizing
the policies themselves.

**No fallbacks.** Every run steps here, traced or not. The engine looks
up the ambient handle (:func:`~repro.telemetry.spans.ambient_telemetry`)
once per call and records its ``controller.session`` and
``controller.step`` spans there. When the call starts inside that
handle's ``record_events`` scope, the engine also emits each lane's
``KernelLaunch`` event and launch metrics after the tick's observe
stage, in session order, so a one-lane traced run writes exactly the
oracle's event stream; decision events come from each policy's own
``observe``. A policy instance drives at most one lane of an
application — shared mutable history has no lockstep meaning — and a
second lane raises :class:`~repro.errors.AnalysisError`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.policy import LaunchContext, PowerPolicy
from repro.errors import AnalysisError
from repro.platform.hd7970 import HardwarePlatform
from repro.runtime.simulator import RunResult, finish_run
from repro.runtime.trace import LaunchRecord, RunTrace
from repro.telemetry.spans import ambient_telemetry
from repro.workloads.application import Application


class SessionSpec(NamedTuple):
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

    __slots__ = ("policy", "platform", "trace", "result")

    def __init__(self, policy: PowerPolicy, platform: HardwarePlatform):
        self.policy = policy
        self.platform = platform
        self.trace = RunTrace()
        self.result = None


class BatchSessionRunner:
    """Advances many controller sessions in lockstep.

    Args:
        platform: default test bed for lanes that don't carry their own.
    """

    def __init__(self, platform: HardwarePlatform):
        self._platform = platform

    def run(self, application: Application,
            policy: PowerPolicy) -> RunResult:
        """Run a single session (one-lane convenience wrapper)."""
        return self.run_sessions(
            [SessionSpec(application=application, policy=policy)]
        )[0]

    def run_sessions(self,
                     sessions: Sequence[SessionSpec]) -> List[RunResult]:
        """Run every session, batching lanes of the same application.

        Every session starts from ``policy.reset()``. Results are
        returned in session order and are bitwise-identical to
        ``ApplicationRunner.run`` of each lane in isolation — the
        differential contract the equivalence suite enforces.

        Raises:
            AnalysisError: if one policy instance drives two lanes of
                the same application.
        """
        sessions = list(sessions)
        results: List[Optional[RunResult]] = [None] * len(sessions)
        # Lanes of one application advance in lockstep; distinct
        # applications run sequentially, preserving the scalar harness's
        # per-application ordering of platform/cache side effects.
        order: List[Application] = []
        grouped: Dict[int, List[int]] = {}
        lanes = set()
        for position, spec in enumerate(sessions):
            key = id(spec.application)
            lane = (key, id(spec.policy))
            if lane in lanes:
                raise AnalysisError(
                    f"{spec.application.name}: one policy instance drives "
                    "two lanes; give every lane its own instance"
                )
            lanes.add(lane)
            if key not in grouped:
                grouped[key] = []
                order.append(spec.application)
            grouped[key].append(position)
        telemetry = ambient_telemetry()
        for application in order:
            positions = grouped[id(application)]
            with telemetry.span("controller.session",
                                application=application.name,
                                lanes=len(positions)):
                outcomes = self._run_application(
                    application, [sessions[p] for p in positions],
                    telemetry,
                )
            for position, outcome in zip(positions, outcomes):
                results[position] = outcome
        return results

    # --- one application's lane group ------------------------------------------

    def _run_application(self, application: Application,
                         specs: Sequence[SessionSpec],
                         telemetry) -> List[RunResult]:
        lanes = []
        for spec in specs:
            spec.policy.reset()
            lanes.append(_Lane(spec.policy, spec.platform or self._platform))

        with telemetry.span("controller.step"):
            self._step_lockstep(application.launches(), lanes, telemetry)
        return [finish_run(application, lane.policy, lane.trace)
                for lane in lanes]

    def _step_lockstep(self, steps, lanes: List[_Lane], tel) -> None:
        # Platform clusters: one surface lookup (and, when noisy, one
        # keyed draw stream) serves every lane on the same platform.
        clusters: Dict[int, Tuple[HardwarePlatform, List[_Lane]]] = {}
        for lane in lanes:
            entry = clusters.setdefault(id(lane.platform),
                                        (lane.platform, []))
            entry[1].append(lane)
        cluster_list = list(clusters.values())
        record = tel.records_events
        if record:
            from repro.telemetry.events import KernelLaunch
            launches_total = tel.metrics.counter(
                "kernel_launches_total", "kernel launches executed",
            )
            launch_time = tel.metrics.histogram(
                "launch_time_seconds", "kernel launch execution time",
            )

        for iteration, kernel, spec in steps:
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
                    index = grid_index(lane.policy.config_for(context))
                    result = result_at(index)
                    if draws is not None:
                        result = noisy_from(
                            result, spec, iteration, index, draws
                        )
                    lane.result = result
                    lane.trace.append(LaunchRecord(
                        iteration, kernel_name, result,
                    ))
            # Observe: each lane's own policy, in session order.
            for lane in lanes:
                lane.policy.observe(context, lane.result)
            if record:
                # The oracle's per-launch emission, lane by lane in
                # session order, after every lane's decision events.
                for lane in lanes:
                    result = lane.result
                    launches_total.inc(kernel=kernel_name,
                                       policy=lane.policy.name)
                    launch_time.observe(result.time, kernel=kernel_name)
                    tel.emit(KernelLaunch(
                        kernel=kernel_name,
                        iteration=iteration,
                        time_s=result.time,
                        config=result.config,
                        power_w=result.power.card,
                        energy_j=result.energy,
                    ))
