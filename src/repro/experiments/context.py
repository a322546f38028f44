"""Shared experiment stack: platform, predictors, evaluation matrix.

Building the test bed is cheap, but training the Section 4 predictors and
running the four-policy evaluation matrix over all fourteen applications
is not free; every experiment that needs them shares one cached instance.

Everything is built on first use, and the model stack is imported there
too: a ``reproduce`` run whose reports all come from the result manifest
reads nothing from its context, and never loads the platform, the
workloads, the policies or numpy.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.analysis.evaluation import EvaluationSummary
    from repro.core.baseline import BaselinePolicy
    from repro.core.harmonia import HarmoniaPolicy
    from repro.core.oracle import OraclePolicy
    from repro.core.variants import ComputeDvfsOnlyPolicy
    from repro.platform.hd7970 import HardwarePlatform
    from repro.sensitivity.predictor import TrainingReport
    from repro.workloads.application import Application


class ExperimentContext:
    """Lazily-built shared stack for all paper experiments."""

    def __init__(self, platform: Optional[HardwarePlatform] = None):
        """
        Args:
            platform: the test bed; defaults to a deterministic HD7970,
                built the first time :attr:`platform` is read.
        """
        self._platform = platform
        self._applications: Optional[List[Application]] = None
        self._training: Optional[TrainingReport] = None
        self._summary: Optional[EvaluationSummary] = None
        # One context may be read from several threads (tests, library
        # callers); the lazy builds below must each happen exactly once.
        # Reentrant: the evaluation build reads the training property.
        # The platform has its own lock so that a reader which only
        # needs the test bed waits for the platform build, never for
        # training or the evaluation matrix.
        self._build_lock = threading.RLock()
        self._platform_lock = threading.Lock()

    @property
    def platform(self) -> HardwarePlatform:
        """The simulated HD7970 test bed (built on first read, under a
        ``context.platform`` span that includes the model-stack import)."""
        platform = self._platform
        if platform is None:
            with self._platform_lock:
                if self._platform is None:
                    from repro.telemetry.spans import ambient_telemetry
                    with ambient_telemetry().span("context.platform"):
                        from repro.platform.hd7970 import (
                            make_hd7970_platform)
                        self._platform = make_hd7970_platform()
                platform = self._platform
        return platform

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
        """The Section 4 predictor-training pipeline output (cached,
        built under a ``context.training`` span); read without the lock
        once built, like :attr:`platform`."""
        training = self._training
        if training is None:
            with self._build_lock:
                if self._training is None:
                    from repro.telemetry.spans import ambient_telemetry
                    with ambient_telemetry().span("context.training"):
                        # The platform first, so that its span holds the
                        # model-stack import the predictor module needs.
                        platform = self.platform
                        from repro.sensitivity.predictor import (
                            train_predictors)
                        self._training = train_predictors(
                            platform, self.applications)
                training = self._training
        return training

    # --- policies -----------------------------------------------------------

    def baseline_policy(self) -> BaselinePolicy:
        """A fresh PowerTune baseline policy."""
        from repro.core.baseline import BaselinePolicy
        return BaselinePolicy(self.platform.config_space)

    def harmonia_policy(self) -> HarmoniaPolicy:
        """A fresh Harmonia (FG+CG) policy with trained predictors."""
        from repro.core.harmonia import HarmoniaPolicy
        training = self.training
        return HarmoniaPolicy(
            self.platform.config_space, training.compute, training.bandwidth,
        )

    def cg_only_policy(self) -> HarmoniaPolicy:
        """A fresh CG-only policy."""
        from repro.core.variants import make_cg_only_policy
        training = self.training
        return make_cg_only_policy(
            self.platform.config_space, training.compute, training.bandwidth,
        )

    def dvfs_only_policy(self) -> ComputeDvfsOnlyPolicy:
        """A fresh compute-DVFS-only policy (Section 7.2)."""
        from repro.core.variants import ComputeDvfsOnlyPolicy
        training = self.training
        return ComputeDvfsOnlyPolicy(
            self.platform.config_space, training.compute, training.bandwidth,
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
                self._summary = harness.evaluate(self.applications, [
                    self.cg_only_policy(), self.harmonia_policy(),
                    self.oracle_policy(), self.dvfs_only_policy(),
                ])
            return self._summary
