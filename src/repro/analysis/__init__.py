"""Analysis: design-space sweeps, balance points, evaluation, reporting.

* :mod:`repro.analysis.sweep` — the 450-configuration exhaustive
  exploration behind Figures 3-6,
* :mod:`repro.analysis.balance` — hardware balance-point detection,
* :mod:`repro.analysis.evaluation` — the Figures 10-13 policy-comparison
  harness (per-application improvements + the two geometric means),
* :mod:`repro.analysis.report` — ASCII table / CSV emitters used by the
  benchmarks.
"""
