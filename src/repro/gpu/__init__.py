"""GPU hardware description for the AMD Radeon HD7970 (Southern Islands).

This subpackage models the *static* hardware facts Harmonia relies on:

* :mod:`repro.gpu.dvfs` — the GPU DVFS table (paper Table 1) and the
  voltage/frequency curve used for power scaling,
* :mod:`repro.gpu.architecture` — the GCN machine description (CUs, SIMDs,
  register files, caches, memory controllers),
* :mod:`repro.gpu.config` — the three hardware tunables and the ~450-point
  configuration space of Section 3.1,
* :mod:`repro.gpu.occupancy` — the kernel-occupancy calculator of
  Sections 2.2/3.5,
* :mod:`repro.gpu.clocks` — the L2-to-memory-controller clock-domain
  crossing model of Section 3.5.
"""
