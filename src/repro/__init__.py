"""Harmonia: balancing compute and memory power in high-performance GPUs.

A full reproduction of Paul, Huang, Arora and Yalamanchili's ISCA 2015
paper, built around a calibrated analytical model of the paper's test bed
(an AMD Radeon HD7970 with GDDR5 memory) since the evaluation requires
hardware measurement.

Quick start::

    from repro import (
        make_hd7970_platform, all_applications, train_predictors,
        HarmoniaPolicy, BaselinePolicy, BatchSessionRunner,
    )

    platform = make_hd7970_platform()
    apps = all_applications()
    training = train_predictors(platform, apps)
    harmonia = HarmoniaPolicy(platform.config_space,
                              training.compute, training.bandwidth)
    runner = BatchSessionRunner(platform)
    result = runner.run(apps[0], harmonia)
    print(result.metrics.ed2, result.metrics.avg_power)

Layer map (bottom-up):

* ``repro.gpu`` / ``repro.memory`` -- the HD7970 machine description and
  GDDR5 subsystem,
* ``repro.perf`` / ``repro.power`` -- analytical performance and power
  models,
* ``repro.platform`` -- the test-bed facade (``run_kernel``),
* ``repro.workloads`` -- the paper's 14 applications / 25 kernels,
* ``repro.sensitivity`` -- Section 4's measurement/training/prediction,
* ``repro.core`` -- Harmonia, the PowerTune baseline, the oracle, variants,
* ``repro.runtime`` / ``repro.analysis`` -- execution, metrics, sweeps,
* ``repro.telemetry`` -- decision events, metrics registry, spans,
* ``repro.experiments`` -- one module per paper table/figure.

The names below resolve on first access (PEP 562), so importing the
package, or a lean entry point such as :mod:`repro.cli`, does not load
the model stack or numpy until something asks for it.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> defining module, imported when the name is first read.
_EXPORTS = {
    "EvaluationHarness": "repro.analysis.evaluation",
    "BaselinePolicy": "repro.core.baseline",
    "ControllerStats": "repro.core.harmonia",
    "HarmoniaPolicy": "repro.core.harmonia",
    "OraclePolicy": "repro.core.oracle",
    "ComputeDvfsOnlyPolicy": "repro.core.variants",
    "make_cg_only_policy": "repro.core.variants",
    "HD7970": "repro.gpu.architecture",
    "GpuArchitecture": "repro.gpu.architecture",
    "ConfigSpace": "repro.gpu.config",
    "HardwareConfig": "repro.gpu.config",
    "KernelSpec": "repro.perf.kernelspec",
    "PlatformCalibration": "repro.platform.calibration",
    "default_calibration": "repro.platform.calibration",
    "HardwarePlatform": "repro.platform.hd7970",
    "make_hd7970_platform": "repro.platform.hd7970",
    "RunMetrics": "repro.runtime.metrics",
    "ed": "repro.runtime.metrics",
    "ed2": "repro.runtime.metrics",
    "geomean": "repro.runtime.metrics",
    "BatchSessionRunner": "repro.runtime.session",
    "ApplicationRunner": "repro.runtime.simulator",
    "RunResult": "repro.runtime.simulator",
    "PAPER_BANDWIDTH_PREDICTOR": "repro.sensitivity.predictor",
    "PAPER_COMPUTE_PREDICTOR": "repro.sensitivity.predictor",
    "SensitivityPredictor": "repro.sensitivity.predictor",
    "train_predictors": "repro.sensitivity.predictor",
    "Telemetry": "repro.telemetry.handle",
    "NULL_TELEMETRY": "repro.telemetry.handle",
    "MetricsRegistry": "repro.telemetry.metrics",
    "Application": "repro.workloads.application",
    "all_applications": "repro.workloads.registry",
    "application_names": "repro.workloads.registry",
    "get_application": "repro.workloads.registry",
    "get_kernel": "repro.workloads.registry",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
