"""DAQ-based run measurement (the paper's Section 6 rig, end to end).

The paper's energies are not analytic: they are integrals of a 1 kHz
power-sample stream captured by an NI DAQ card while the application runs.
:class:`MeasuredRunner` reproduces that pipeline — it executes a run on
the session engine (:class:`~repro.runtime.session.BatchSessionRunner`)
and then derives the reported metrics *from the sampled trace*, complete
with the rig's artifacts: quantization of short kernels, sensor noise,
and the averaging across repeated runs the paper uses to suppress
run-to-run variance ("We run each application multiple times and
recorded the average").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.policy import PowerPolicy
from repro.errors import AnalysisError
from repro.power.daq import DaqCard, DaqTrace
from repro.runtime.metrics import RunMetrics
from repro.runtime.session import BatchSessionRunner
from repro.runtime.simulator import RunResult
from repro.workloads.application import Application


@dataclass(frozen=True)
class MeasuredRun:
    """One run plus its DAQ-measured view."""

    run: RunResult
    trace: DaqTrace

    @property
    def measured_energy(self) -> float:
        """Energy (J) integrated from the DAQ samples."""
        return self.trace.energy()

    @property
    def measured_average_power(self) -> float:
        """Mean power (W) over the DAQ samples."""
        return self.trace.average_power()

    @property
    def analytic_energy(self) -> float:
        """The simulator's exact energy, for error analysis."""
        return self.run.metrics.energy

    @property
    def measurement_error(self) -> float:
        """Relative error of the DAQ energy vs the analytic energy."""
        if self.analytic_energy <= 0:
            raise AnalysisError("run has no analytic energy")
        return self.measured_energy / self.analytic_energy - 1.0

    def measured_metrics(self) -> RunMetrics:
        """Run metrics with DAQ-measured energy/power substituted.

        Time comes from the run (the paper times execution on the host;
        only power goes through the DAQ).
        """
        time = self.run.metrics.time
        energy = self.measured_energy
        return RunMetrics(
            time=time,
            energy=energy,
            avg_power=energy / time if time > 0 else 0.0,
            avg_gpu_power=self.run.metrics.avg_gpu_power,
            avg_memory_power=self.run.metrics.avg_memory_power,
        )


class MeasuredRunner:
    """Executes runs and measures them through the simulated DAQ.

    Args:
        runner: the session engine executing each run.
        sampling_frequency: DAQ rate (the paper's rig: 1 kHz).
        noise_std: DAQ sensor noise (W).
        seed: RNG seed for the noise.
    """

    def __init__(self, runner: BatchSessionRunner,
                 sampling_frequency: float = 1000.0,
                 noise_std: float = 0.0, seed: int = 0):
        self._runner = runner
        self._sampling_frequency = sampling_frequency
        self._noise_std = noise_std
        self._seed = seed

    def measure(self, application: Application,
                policy: PowerPolicy, seed: Optional[int] = None) -> MeasuredRun:
        """Run once and sample the power trace."""
        run = self._runner.run(application, policy)
        card = DaqCard(
            sampling_frequency=self._sampling_frequency,
            noise_std=self._noise_std,
            seed=self._seed if seed is None else seed,
        )
        trace = card.sample_segments(run.trace.power_segments())
        return MeasuredRun(run=run, trace=trace)

    def measure_averaged(self, application: Application,
                         policy: PowerPolicy,
                         repeats: int = 3) -> Tuple[RunMetrics, Sequence[MeasuredRun]]:
        """The paper's protocol: repeat the run and average the metrics.

        Returns:
            (averaged metrics, the individual measured runs).

        Raises:
            AnalysisError: for a non-positive repeat count.
        """
        if repeats < 1:
            raise AnalysisError("repeats must be >= 1")
        runs = [
            self.measure(application, policy, seed=self._seed + i)
            for i in range(repeats)
        ]
        n = float(repeats)
        time = sum(r.run.metrics.time for r in runs) / n
        energy = sum(r.measured_energy for r in runs) / n
        gpu = sum(r.run.metrics.avg_gpu_power for r in runs) / n
        mem = sum(r.run.metrics.avg_memory_power for r in runs) / n
        metrics = RunMetrics(
            time=time,
            energy=energy,
            avg_power=energy / time if time > 0 else 0.0,
            avg_gpu_power=gpu,
            avg_memory_power=mem,
        )
        return metrics, runs
