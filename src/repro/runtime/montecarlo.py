"""Vectorized Monte Carlo evaluation across measurement-noise seeds.

The paper's headline numbers average repeated *hardware* measurements with
run-to-run variance (Section 6). Reproducing that rigor used to mean N
independent scalar harness runs — one noisy platform per seed, each
re-walking every launch through Python. The launch-keyed noise model
(:mod:`repro.platform.noise`) makes a far cheaper formulation exact:

1. run each application's policies **once**, as lockstep lanes on the
   deterministic platform, to record every policy's launch schedule —
   the ordered ``(spec, config, iteration)`` sequence with noise-free
   times and powers (served from the shared sweep cache's surfaces
   wherever the policy consults them);
2. for every trial seed ``s``, derive each ``(spec, iteration)`` stream
   of platform seed ``s`` once, a chunk keyed in one bulk call
   (:func:`repro.platform.noise.fill_memos`), and gather it at the grid
   index of every policy's launch (the schedule is policy-independent):
   one matrix of launch times per policy over ``(seed, launch)``;
3. reduce each seed's row to run metrics (time, energy, power, ED²) and
   report mean / standard deviation / 95% confidence bands.

**The Monte Carlo contract**: trials share one decision trace — the
policy's converged behaviour on the noise-free platform — and differ only
in measurement noise, which models the paper's methodology of measuring a
trained controller repeatedly. For non-adaptive policies (the baseline,
the oracle's cached optima) trial ``s`` is *bitwise per-launch identical*
to a full scalar harness run on a noisy platform seeded with ``s``, and a
policy's run does not depend on which other policies share its rollout.
Candidate and baseline trials are paired by seed, so improvement bands
cancel the shared noise realization the way paired hardware measurements
do.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.policy import PowerPolicy
from repro.errors import AnalysisError
from repro.platform import noise
from repro.platform.hd7970 import HardwarePlatform
from repro.runtime.session import BatchSessionRunner, SessionSpec
from repro.runtime.simulator import RunResult
from repro.workloads.application import Application

#: z-score of the two-sided 95% confidence interval.
_Z95 = 1.959963984540054


class MetricBand(NamedTuple):
    """Mean / spread / 95% confidence band of one metric over trials."""

    #: sample mean over trials
    mean: float
    #: sample standard deviation (ddof=1; 0.0 for a single trial)
    std: float
    #: lower edge of the 95% CI on the mean
    ci_low: float
    #: upper edge of the 95% CI on the mean
    ci_high: float
    #: number of trials
    n: int

    @property
    def half_width(self) -> float:
        """Half the CI width (the ± the report prints)."""
        return (self.ci_high - self.ci_low) / 2.0


def band(samples: np.ndarray) -> MetricBand:
    """The :class:`MetricBand` of a vector of per-trial samples."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise AnalysisError("no trials to band")
    mean = float(np.mean(samples))
    std = float(np.std(samples, ddof=1)) if samples.size > 1 else 0.0
    half = _Z95 * std / math.sqrt(samples.size)
    return MetricBand(mean=mean, std=std, ci_low=mean - half,
                      ci_high=mean + half, n=int(samples.size))


class MonteCarloRun(NamedTuple):
    """One (application, policy) pair's repeated-trial outcome.

    Per-trial sample vectors are kept (`*_samples`, indexed by seed
    position) so callers can form paired statistics across policies.
    """

    application: str
    policy: str
    noise_std_fraction: float
    seeds: Tuple[int, ...]
    time_samples: np.ndarray
    energy_samples: np.ndarray
    avg_power_samples: np.ndarray
    ed2_samples: np.ndarray

    @property
    def time(self) -> MetricBand:
        """Total run time (s) across trials."""
        return band(self.time_samples)

    @property
    def energy(self) -> MetricBand:
        """Total card energy (J) across trials."""
        return band(self.energy_samples)

    @property
    def avg_power(self) -> MetricBand:
        """Time-weighted average card power (W) across trials."""
        return band(self.avg_power_samples)

    @property
    def ed2(self) -> MetricBand:
        """ED² (J*s²) across trials."""
        return band(self.ed2_samples)

    @property
    def performance(self) -> MetricBand:
        """Performance (1 / total time) across trials."""
        return band(1.0 / self.time_samples)


class MonteCarloComparison(NamedTuple):
    """Candidate vs baseline, paired by trial seed."""

    application: str
    policy: str
    baseline: MonteCarloRun
    candidate: MonteCarloRun

    def _paired(self, attribute: str) -> Tuple[np.ndarray, np.ndarray]:
        base = getattr(self.baseline, attribute)
        cand = getattr(self.candidate, attribute)
        return base, cand

    @property
    def ed2_improvement(self) -> MetricBand:
        """Fractional ED² improvement over baseline (Figure 10's CI)."""
        base, cand = self._paired("ed2_samples")
        return band(1.0 - cand / base)

    @property
    def energy_improvement(self) -> MetricBand:
        """Fractional energy improvement over baseline (Figure 11's CI)."""
        base, cand = self._paired("energy_samples")
        return band(1.0 - cand / base)

    @property
    def power_saving(self) -> MetricBand:
        """Fractional average-power saving (Figure 12's CI)."""
        base, cand = self._paired("avg_power_samples")
        return band(1.0 - cand / base)

    @property
    def performance_delta(self) -> MetricBand:
        """Relative performance change (Figure 13's CI)."""
        base, cand = self._paired("time_samples")
        return band(base / cand - 1.0)


class MonteCarloEngine:
    """Repeated-trial rollouts, vectorized across noise seeds.

    Args:
        platform: the **deterministic** reference test bed (the engine
            owns the noise; a noisy platform would double-perturb).
        noise_std_fraction: run-to-run execution-time noise fraction of
            each simulated trial.
        seeds: trial platform seeds — an int N means ``range(N)``.

    Raises:
        AnalysisError: if the platform is noisy, the noise fraction is
            not positive and finite, or the seeds are not distinct
            non-negative integers (at least one).
    """

    def __init__(self, platform: HardwarePlatform,
                 noise_std_fraction: float,
                 seeds: "int | Sequence[int]" = 16):
        if not platform.is_deterministic:
            raise AnalysisError(
                "MonteCarloEngine needs a deterministic reference platform "
                f"(got noise_std_fraction={platform.noise_std_fraction}); "
                "the engine applies its own per-seed noise"
            )
        if not (noise_std_fraction > 0 and math.isfinite(noise_std_fraction)):
            raise AnalysisError("noise_std_fraction must be finite and > 0")
        if isinstance(seeds, int):
            seeds = range(seeds)
        try:
            seeds = tuple(map(operator.index, seeds))
        except TypeError:
            raise AnalysisError(
                f"trial seeds must be integers: {seeds!r}") from None
        if not seeds:
            raise AnalysisError("at least one trial seed is required")
        if min(seeds) < 0 or len(set(seeds)) != len(seeds):
            raise AnalysisError(
                f"trial seeds must be distinct and non-negative: {seeds}")
        self._platform = platform
        self._noise = noise_std_fraction
        self._seeds = seeds
        grid_size = len(platform.config_space)
        # One keyed noise model per trial seed, shared by every rollout
        # of this engine. A rollout reads each stream once, so a model's
        # memo only carries one fill chunk from the fill to its reads.
        self._models = tuple(
            noise.LaunchKeyedNoise(noise_std_fraction, seed, grid_size)
            for seed in seeds
        )

    @property
    def platform(self) -> HardwarePlatform:
        """The deterministic reference platform."""
        return self._platform

    @property
    def seeds(self) -> Tuple[int, ...]:
        """The trial seeds, in sample order."""
        return self._seeds

    def rollout(self, application: Application,
                policies: Sequence[PowerPolicy],
                references: Optional[Sequence[RunResult]] = None,
                ) -> Tuple[MonteCarloRun, ...]:
        """Evaluate all of an application's policies across all seeds.

        One deterministic reference run per policy records its launch
        schedule; each ``(seed, spec, iteration)`` stream is then derived
        and read once for all the policies, and every policy's noise
        matrix over ``(seed, launch)`` is reduced to per-seed run
        metrics — no per-seed re-execution of the policy loop.

        Under a traced run the whole rollout is one span (labelled by
        application and every policy), attached to whatever span was
        open on the calling thread — typically a pipeline node or the
        ``montecarlo`` command's root span. Its one ``montecarlo.noise``
        child covers the derivation and draw gather of every ``(seed,
        spec, iteration)`` stream the rollout reads, so noise shows up
        once per rollout rather than once per stream.

        Args:
            application: the workload to roll out.
            policies: the policies whose decision traces anchor all
                trials, one instance each.
            references: precomputed deterministic runs
                (:class:`~repro.runtime.simulator.RunResult`) of this
                application on the engine's platform, one per policy in
                order. ``None`` runs the policies here as lockstep lanes
                of one batched session engine call.

        Returns:
            One :class:`MonteCarloRun` per policy, in order.

        Raises:
            AnalysisError: if the references do not match the policies or
                the application's launch schedule.
        """
        from repro.telemetry.spans import ambient_telemetry
        policies = tuple(policies)
        telemetry = ambient_telemetry()
        with telemetry.span(
                "montecarlo.rollout", application=application.name,
                policies=",".join(policy.name for policy in policies)):
            return self._rollout(application, policies, references, telemetry)

    def _rollout(self, application: Application,
                 policies: Tuple[PowerPolicy, ...],
                 references, telemetry) -> Tuple[MonteCarloRun, ...]:
        if references is None:
            references = BatchSessionRunner(self._platform).run_sessions([
                SessionSpec(application=application, policy=policy)
                for policy in policies
            ])
        if len(references) != len(policies):
            raise AnalysisError(
                f"{len(references)} reference runs for "
                f"{len(policies)} policies")
        launches = list(application.launches())
        space = self._platform.config_space
        det_times, card_powers, grid_indices = [], [], []
        for reference in references:
            records = reference.trace.records
            if len(records) != len(launches):
                raise AnalysisError(
                    f"trace of {application.name!r} has {len(records)} "
                    f"launches; schedule expects {len(launches)}")
            det_times.append(np.array([r.result.time for r in records]))
            card_powers.append(
                np.array([r.result.power.card for r in records]))
            grid_indices.append(
                [space.index_of(r.result.config) for r in records])

        # Group launches sharing a (spec, iteration) noise stream; the
        # schedule, and so each group, is the same in every policy.
        groups: Dict[Tuple, List[int]] = {}
        for position, (iteration, _kernel, spec) in enumerate(launches):
            groups.setdefault((spec, iteration), []).append(position)

        # Derive each chunk's missing streams for every seed at once,
        # then read each back through the memo once and gather it at
        # every policy's grid index. A chunk fits one memo, so the fill
        # evicts nothing that the reads below still need.
        multipliers = np.empty((len(policies), len(self._seeds),
                                len(launches)))
        pairs = list(groups)
        with telemetry.span("montecarlo.noise",
                            streams=len(pairs) * len(self._models)):
            for start in range(0, len(pairs), noise.MEMO_SIZE):
                chunk = pairs[start:start + noise.MEMO_SIZE]
                noise.fill_memos(self._models, chunk)
                for spec, iteration in chunk:
                    draws = [model.multipliers_for(spec, iteration)[0]
                             for model in self._models]
                    for position in groups[spec, iteration]:
                        for matrix, indices in zip(multipliers,
                                                   grid_indices):
                            grid_index = indices[position]
                            matrix[:, position] = [
                                vector[grid_index] for vector in draws]

        runs = []
        for policy, det_time, card_power, matrix in zip(
                policies, det_times, card_powers, multipliers):
            times = det_time * matrix                 # (seed, launch)
            energies = card_power * times
            total_time = times.sum(axis=1)
            total_energy = energies.sum(axis=1)
            runs.append(MonteCarloRun(
                application=application.name,
                policy=policy.name,
                noise_std_fraction=self._noise,
                seeds=self._seeds,
                time_samples=total_time,
                energy_samples=total_energy,
                avg_power_samples=total_energy / total_time,
                ed2_samples=total_energy * total_time * total_time,
            ))
        return tuple(runs)

    def compare(self, application: Application,
                baseline: PowerPolicy,
                candidate: PowerPolicy) -> MonteCarloComparison:
        """Paired-seed comparison of one candidate against the baseline,
        both rolled out together."""
        base_run, cand_run = self.rollout(application, (baseline, candidate))
        return MonteCarloComparison(
            application=application.name,
            policy=cand_run.policy,
            baseline=base_run,
            candidate=cand_run,
        )


def geomean_band(bands_source: Sequence[MonteCarloComparison],
                 attribute: str) -> MetricBand:
    """Per-seed geometric mean of a ratio metric across applications.

    The geomean is taken within each trial (over applications), then
    banded over trials — matching how the paper averages applications
    within one measurement campaign. ``attribute`` names a
    :class:`MonteCarloComparison` property (e.g. ``"ed2_improvement"``).
    """
    if not bands_source:
        raise AnalysisError("no comparisons to aggregate")
    ratio_rows = []
    for comparison in bands_source:
        if attribute == "performance_delta":
            base = comparison.baseline.time_samples
            cand = comparison.candidate.time_samples
            ratio_rows.append(base / cand)          # 1 + delta
        else:
            samples = {
                "ed2_improvement": "ed2_samples",
                "energy_improvement": "energy_samples",
                "power_saving": "avg_power_samples",
            }
            try:
                field = samples[attribute]
            except KeyError:
                raise AnalysisError(
                    f"unknown comparison attribute {attribute!r}"
                ) from None
            base = getattr(comparison.baseline, field)
            cand = getattr(comparison.candidate, field)
            ratio_rows.append(cand / base)          # 1 - improvement
    ratios = np.vstack(ratio_rows)                  # (application, seed)
    if np.any(ratios <= 0):
        raise AnalysisError("geomean requires positive metric ratios")
    per_seed = np.exp(np.mean(np.log(ratios), axis=0))
    if attribute == "performance_delta":
        return band(per_seed - 1.0)
    return band(1.0 - per_seed)
