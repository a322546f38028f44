"""Shared experiment stack: platform, predictors, evaluation matrix.

Building the test bed is cheap, but training the Section 4 predictors and
running the four-policy evaluation matrix over all fourteen applications
is not free; every experiment that needs them shares one cached instance.

Everything is built on first use, and the model stack is imported there
too: a ``reproduce`` run whose reports all come from the result manifest
reads only :attr:`ExperimentContext.calibration` and
:attr:`ExperimentContext.applications`, and never loads the platform,
the policies or numpy.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.analysis.evaluation import EvaluationSummary
    from repro.core.baseline import BaselinePolicy
    from repro.core.harmonia import HarmoniaPolicy
    from repro.core.oracle import OraclePolicy
    from repro.core.variants import ComputeDvfsOnlyPolicy
    from repro.platform.calibration import PlatformCalibration
    from repro.platform.hd7970 import HardwarePlatform
    from repro.sensitivity.predictor import TrainingReport
    from repro.workloads.application import Application

#: The Figures 10-13 candidate policies, in presentation order. The
#: shared evaluation matrix runs them plus ``dvfs-only`` (Section 7.2).
#: Defined here, beside the matrix, because the ``evaluation`` pipeline
#: node folds them into its manifest key.
EVALUATION_POLICIES: Tuple[str, ...] = ("cg-only", "harmonia", "oracle")


class ExperimentContext:
    """Lazily-built shared stack for all paper experiments."""

    def __init__(self, platform: Optional[HardwarePlatform] = None,
                 jobs: int = 1):
        """
        Args:
            platform: the test bed; defaults to a deterministic HD7970,
                built the first time :attr:`platform` is read.
            jobs: thread fan-out for the expensive stages (training-set
                construction and the evaluation matrix). Results are
                independent of the job count; 1 keeps everything serial
                and 0 means "auto" (one worker per core).
        """
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 = auto), got {jobs}")
        from repro.runtime.parallel import resolve_jobs
        self._platform = platform
        self._jobs = resolve_jobs(jobs)
        self._applications: Optional[List[Application]] = None
        self._training: Optional[TrainingReport] = None
        self._summary: Optional[EvaluationSummary] = None
        # Pipeline nodes share one context across worker threads; the
        # lazy builds below must each happen exactly once. Reentrant:
        # the evaluation build reads the training property. The platform
        # has its own lock so that a node which only needs the test bed
        # waits for the platform build, never for training or the
        # evaluation matrix.
        self._build_lock = threading.RLock()
        self._platform_lock = threading.Lock()

    @property
    def jobs(self) -> int:
        """Thread fan-out used by the expensive stages."""
        return self._jobs

    @property
    def platform(self) -> HardwarePlatform:
        """The simulated HD7970 test bed (built on first read)."""
        platform = self._platform
        if platform is None:
            with self._platform_lock:
                if self._platform is None:
                    from repro.platform.hd7970 import make_hd7970_platform
                    self._platform = make_hd7970_platform()
                platform = self._platform
        return platform

    @property
    def calibration(self) -> PlatformCalibration:
        """The test bed's calibration; reading it builds no platform."""
        if self._platform is not None:
            return self._platform.calibration
        from repro.platform.calibration import default_calibration
        return default_calibration()

    @property
    def applications(self) -> List[Application]:
        """The paper's 14 applications (built once)."""
        with self._build_lock:
            if self._applications is None:
                from repro.workloads.registry import all_applications
                self._applications = all_applications()
            return self._applications

    def application(self, name: str) -> Application:
        """Look up one of the cached applications by name."""
        for app in self.applications:
            if app.name == name:
                return app
        raise KeyError(name)

    @property
    def training(self) -> TrainingReport:
        """The Section 4 predictor-training pipeline output (cached);
        read without the lock once built, like :attr:`platform`."""
        training = self._training
        if training is None:
            with self._build_lock:
                if self._training is None:
                    from repro.sensitivity.predictor import train_predictors
                    self._training = train_predictors(
                        self.platform, self.applications, jobs=self._jobs
                    )
                training = self._training
        return training

    # --- policies -----------------------------------------------------------

    def baseline_policy(self) -> BaselinePolicy:
        """A fresh PowerTune baseline policy."""
        from repro.core.baseline import BaselinePolicy
        return BaselinePolicy(self.platform.config_space)

    def harmonia_policy(self, telemetry=None) -> HarmoniaPolicy:
        """A fresh Harmonia (FG+CG) policy with trained predictors."""
        from repro.core.harmonia import HarmoniaPolicy
        training = self.training
        return HarmoniaPolicy(
            self.platform.config_space, training.compute, training.bandwidth,
            telemetry=telemetry,
        )

    def cg_only_policy(self, telemetry=None) -> HarmoniaPolicy:
        """A fresh CG-only policy."""
        from repro.core.variants import make_cg_only_policy
        training = self.training
        return make_cg_only_policy(
            self.platform.config_space, training.compute, training.bandwidth,
            telemetry=telemetry,
        )

    def dvfs_only_policy(self, telemetry=None) -> ComputeDvfsOnlyPolicy:
        """A fresh compute-DVFS-only policy (Section 7.2)."""
        from repro.core.variants import ComputeDvfsOnlyPolicy
        training = self.training
        return ComputeDvfsOnlyPolicy(
            self.platform.config_space, training.compute, training.bandwidth,
            telemetry=telemetry,
        )

    def oracle_policy(self) -> OraclePolicy:
        """A fresh exhaustive ED² oracle."""
        from repro.core.oracle import OraclePolicy
        return OraclePolicy(self.platform)

    # --- the Figures 10-13 matrix -----------------------------------------------------------

    @property
    def evaluation(self) -> EvaluationSummary:
        """Baseline vs CG vs Harmonia vs oracle vs DVFS-only, cached."""
        with self._build_lock:
            if self._summary is None:
                from repro.analysis.evaluation import EvaluationHarness
                harness = EvaluationHarness(self.platform,
                                            self.baseline_policy())
                factories = [self.cg_only_policy, self.harmonia_policy,
                             self.oracle_policy, self.dvfs_only_policy]
                if self._jobs > 1:
                    # Train before fanning out: the factories run on worker
                    # threads, which read the built report without the lock
                    # this thread holds.
                    _ = self.training
                    self._summary = harness.evaluate_parallel(
                        self.applications, self.baseline_policy, factories,
                        jobs=self._jobs,
                    )
                else:
                    self._summary = harness.evaluate(
                        self.applications,
                        [factory() for factory in factories],
                    )
            return self._summary


@lru_cache(maxsize=1)
def default_context() -> ExperimentContext:
    """The process-wide shared context (deterministic platform)."""
    return ExperimentContext()
