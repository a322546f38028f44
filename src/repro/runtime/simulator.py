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

from repro.core.policy import LaunchContext, PowerPolicy
from repro.platform.hd7970 import HardwarePlatform
from repro.runtime.metrics import RunMetrics, metrics_from_launches
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
    """Executes applications on a platform under a policy, one launch at
    a time.

    The scalar reference loop. Production runs go through the batched
    session engine (:class:`~repro.runtime.session.BatchSessionRunner`),
    which is bitwise-identical to this loop in results, events and
    metrics; this class stays as the differential oracle the tests
    compare it with.

    Args:
        platform: the test bed to drive.
        telemetry: telemetry handle receiving per-launch events and the
            launch metrics (disabled null handle by default).
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

    def run(self, application: Application,
            policy: PowerPolicy) -> RunResult:
        """Run ``application`` end-to-end under a freshly reset ``policy``
        (each application run starts fresh, as in the paper's
        per-application measurements)."""
        policy.reset()
        tel = self._telemetry
        if tel.enabled:
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
            config = policy.config_for(context)
            result = self._platform.launch(spec, config,
                                           iteration=iteration)
            policy.observe(context, result)
            trace.append(LaunchRecord(
                iteration=iteration, kernel_name=kernel.name, result=result
            ))
            if tel.enabled:
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
        return finish_run(application, policy, trace)
