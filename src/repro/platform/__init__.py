"""The simulated HD7970 test bed.

:mod:`repro.platform.calibration` holds every tunable constant of the
substrate in one place, with the paper figure each constant is calibrated
against. :mod:`repro.platform.hd7970` exposes the facade the rest of the
library (controllers, sweeps, benchmarks) talks to:
``HardwarePlatform.run_kernel(spec, config) -> KernelRunResult``.
"""
