"""The kernel-boundary execution loop.

Runs an application on the platform under a power policy, exactly the way
Harmonia's system-software implementation is driven: before each kernel
launch the policy picks a configuration, the kernel runs there, and the
policy observes the result ("we monitor and calculate sensitivities at
kernel boundaries and use each kernel's historical data from previous
iterations to predict hardware configurations for the same kernel in the
next iteration", Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.core.policy import LaunchContext, PowerPolicy
from repro.errors import AnalysisError
from repro.platform.hd7970 import HardwarePlatform
from repro.runtime.metrics import RunMetrics, metrics_from_launches
from repro.runtime.parallel import fan_out
from repro.runtime.trace import LaunchRecord, RunTrace
from repro.telemetry.events import KernelLaunch
from repro.telemetry.handle import coalesce
from repro.workloads.application import Application


@dataclass(frozen=True)
class RunResult:
    """Outcome of one application run under one policy."""

    application: str
    policy: str
    trace: RunTrace
    metrics: RunMetrics


def finish_run(application: Application, policy: PowerPolicy,
               trace: RunTrace) -> RunResult:
    """Assemble a :class:`RunResult` from a completed launch trace.

    Shared by the scalar runner and the batched session engine
    (:mod:`repro.runtime.session`) so both produce identical results.
    """
    launches = [record.result for record in trace.records]
    return RunResult(
        application=application.name,
        policy=policy.name,
        trace=trace,
        metrics=metrics_from_launches(launches),
    )


class ApplicationRunner:
    """Executes applications on a platform under a policy.

    Args:
        platform: the test bed to drive.
        telemetry: telemetry handle receiving per-launch events, the
            ``launch_time_seconds`` histogram and the runtime wall-time
            profile (disabled null handle by default; the disabled path
            runs the seed-identical tight loop).
    """

    def __init__(self, platform: HardwarePlatform, telemetry=None):
        self._platform = platform
        self._telemetry = coalesce(telemetry)

    @property
    def platform(self) -> HardwarePlatform:
        """The test bed being driven."""
        return self._platform

    @property
    def telemetry(self):
        """The telemetry handle in use (the null handle when disabled)."""
        return self._telemetry

    def run(self, application: Application, policy: PowerPolicy,
            reset_policy: bool = True) -> RunResult:
        """Run ``application`` end-to-end under ``policy``.

        Args:
            application: the workload to execute.
            policy: the power-management policy to drive.
            reset_policy: reset the policy's history first (each
                application run starts fresh, as in the paper's per-
                application measurements).
        """
        if reset_policy:
            policy.reset()
        if self._telemetry.enabled:
            return self._run_instrumented(application, policy)
        trace = RunTrace()
        for iteration, kernel, spec in application.launches():
            context = LaunchContext(
                kernel_name=kernel.name, iteration=iteration, spec=spec
            )
            config = policy.config_for(context)
            result = self._platform.launch(spec, config,
                                           iteration=iteration)
            policy.observe(context, result)
            trace.append(LaunchRecord(
                iteration=iteration, kernel_name=kernel.name, result=result
            ))
        return self._finish(application, policy, trace)

    def _run_instrumented(self, application: Application,
                          policy: PowerPolicy) -> RunResult:
        """The kernel-boundary loop with events, metrics and profiling."""
        tel = self._telemetry
        launches_total = tel.metrics.counter(
            "kernel_launches_total", "kernel launches executed",
        )
        launch_time = tel.metrics.histogram(
            "launch_time_seconds", "kernel launch execution time",
        )
        trace = RunTrace()
        for iteration, kernel, spec in application.launches():
            context = LaunchContext(
                kernel_name=kernel.name, iteration=iteration, spec=spec
            )
            with tel.time("policy.config_for"):
                config = policy.config_for(context)
            with tel.time("platform.run_kernel"):
                result = self._platform.launch(spec, config,
                                               iteration=iteration)
            with tel.time("policy.observe"):
                policy.observe(context, result)
            trace.append(LaunchRecord(
                iteration=iteration, kernel_name=kernel.name, result=result
            ))
            launches_total.inc(kernel=kernel.name, policy=policy.name)
            launch_time.observe(result.time, kernel=kernel.name)
            tel.emit(KernelLaunch(
                kernel=kernel.name,
                iteration=iteration,
                time_s=result.time,
                config=result.config,
                power_w=result.power.card,
                energy_j=result.energy,
            ))
        return self._finish(application, policy, trace)

    def _finish(self, application: Application, policy: PowerPolicy,
                trace: RunTrace) -> RunResult:
        return finish_run(application, policy, trace)

    def run_matrix(
        self,
        applications: Sequence[Application],
        policies: Optional[Sequence[PowerPolicy]] = None,
        jobs: int = 1,
        policy_factories: Optional[Sequence[Callable[[], PowerPolicy]]] = None,
    ) -> Dict[str, Dict[str, RunResult]]:
        """Run every application under every policy, fanned out per app.

        Each application's policies advance in lockstep via the batched
        session engine (:mod:`repro.runtime.session`), bitwise-identical
        to one :meth:`run` per policy; lanes the engine cannot prove
        equivalent fall back to :meth:`run` automatically.
        Applications are independent work items, so the matrix goes
        through :func:`~repro.runtime.parallel.fan_out` — the same
        serial-exact pattern as :meth:`~repro.analysis.evaluation.
        EvaluationHarness.evaluate_parallel`. With ``jobs > 1`` pass
        ``policy_factories`` instead of instances: stateful policies
        (:class:`~repro.core.policy.HistoryMixin`) must not be shared
        across concurrent applications, and a fresh instance per
        application is equivalent to a reset one, so the results are
        identical to the serial nested loop for any job count.

        Args:
            applications: workloads to run.
            policies: policy instances, run serially per application
                (mutually exclusive with ``policy_factories``).
            jobs: maximum concurrent application runs.
            policy_factories: zero-argument constructors of fresh policy
                instances, one policy set per application.

        Returns:
            ``results[application_name][policy_name] -> RunResult``.

        Raises:
            AnalysisError: if neither or both of ``policies`` /
                ``policy_factories`` are given, or if ``jobs > 1`` is
                requested with shared policy instances.
        """
        if (policies is None) == (policy_factories is None):
            raise AnalysisError(
                "run_matrix needs exactly one of policies or policy_factories"
            )
        if policy_factories is None:
            if jobs > 1:
                raise AnalysisError(
                    "run_matrix(jobs>1) requires policy_factories: stateful "
                    "policies must not be shared across worker threads"
                )
            policy_factories = [(lambda p=p: p) for p in policies]

        from repro.runtime.session import BatchSessionRunner, SessionSpec

        def run_app(application: Application) -> Dict[str, RunResult]:
            app_policies = [factory() for factory in policy_factories]
            engine = BatchSessionRunner(self._platform, self._telemetry)
            outcomes = engine.run_sessions([
                SessionSpec(application=application, policy=policy)
                for policy in app_policies
            ])
            return {policy.name: outcome
                    for policy, outcome in zip(app_policies, outcomes)}

        outcomes = fan_out(run_app, applications, jobs=jobs)
        return {
            application.name: per_app
            for application, per_app in zip(applications, outcomes)
        }
