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
from typing import TYPE_CHECKING, Tuple

from repro.core.policy import LaunchContext, PowerPolicy
from repro.platform.hd7970 import HardwarePlatform
from repro.runtime.metrics import RunMetrics, metrics_from_launches
from repro.runtime.trace import LaunchRecord, RunTrace
from repro.telemetry.spans import ambient_telemetry
from repro.workloads.application import Application

if TYPE_CHECKING:
    from repro.core.harmonia import ControllerStats


@dataclass(frozen=True)
class RunResult:
    """Outcome of one application run under one policy.

    ``controller_stats`` pairs each kernel with the policy's counters at
    the end of the run; it is empty for policies without counters.
    """

    application: str
    policy: str
    trace: RunTrace
    metrics: RunMetrics
    controller_stats: Tuple[Tuple[str, ControllerStats], ...]


def finish_run(application: Application, policy: PowerPolicy,
               trace: RunTrace) -> RunResult:
    """Assemble a :class:`RunResult` from a completed launch trace.

    Shared by the scalar runner and the batched session engine
    (:mod:`repro.runtime.session`) so both produce identical results.
    Called before the policy runs again, so the counters are this run's.
    """
    launches = [record.result for record in trace.records]
    stats = getattr(policy, "stats", None)
    return RunResult(
        application=application.name,
        policy=policy.name,
        trace=trace,
        metrics=metrics_from_launches(launches),
        controller_stats=tuple(stats().items()) if stats else (),
    )


class ApplicationRunner:
    """Executes applications on a platform under a policy, one launch at
    a time.

    The scalar reference loop. Production runs go through the batched
    session engine (:class:`~repro.runtime.session.BatchSessionRunner`),
    which is bitwise-identical to this loop in results, events and
    metrics; this class stays as the differential oracle the tests
    compare it with.

    A run that starts inside the ambient handle's ``record_events``
    scope emits its ``KernelLaunch`` events and launch metrics there.

    Args:
        platform: the test bed to drive.
    """

    def __init__(self, platform: HardwarePlatform):
        self._platform = platform

    @property
    def platform(self) -> HardwarePlatform:
        """The test bed being driven."""
        return self._platform

    def run(self, application: Application,
            policy: PowerPolicy) -> RunResult:
        """Run ``application`` end-to-end under a freshly reset ``policy``
        (each application run starts fresh, as in the paper's
        per-application measurements)."""
        policy.reset()
        tel = ambient_telemetry()
        record = tel.records_events
        if record:
            from repro.telemetry.events import KernelLaunch
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
            if record:
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
