"""Power-management policies: the paper's contribution and its comparators.

* :mod:`repro.core.policy` — the policy protocol and shared history state,
* :mod:`repro.core.baseline` — the shipping PowerTune baseline (boost),
* :mod:`repro.core.coarse` — the CG block (sensitivity-binned jumps),
* :mod:`repro.core.fine` — the FG block (utilization-gradient hill climb),
* :mod:`repro.core.harmonia` — Harmonia = monitoring + CG + FG
  (Algorithm 1),
* :mod:`repro.core.oracle` — the exhaustive ED² oracle,
* :mod:`repro.core.variants` — CG-only and compute-DVFS-only policies.
"""
