"""Analytical performance model for GCN kernels.

* :mod:`repro.perf.kernelspec` — the microarchitectural description of one
  kernel launch (instruction mix, registers, divergence, locality, MLP),
* :mod:`repro.perf.model` — the execution-time model over the three
  hardware tunables,
* :mod:`repro.perf.counters` — synthesised CodeXL-style performance
  counters (Table 2 of the paper),
* :mod:`repro.perf.result` — the per-launch result container.
"""
