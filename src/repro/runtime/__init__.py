"""Runtime: executing applications under a power policy.

* :mod:`repro.runtime.metrics` — energy, ED, ED², geomean, normalization,
* :mod:`repro.runtime.trace` — per-launch traces and residency accounting,
* :mod:`repro.runtime.simulator` — the kernel-boundary execution loop that
  drives a policy exactly as Harmonia's system-software implementation is
  driven (Section 5.1).
"""
