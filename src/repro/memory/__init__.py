"""Off-chip GDDR5 memory subsystem model.

* :mod:`repro.memory.gddr5` — device/channel timing and latency,
* :mod:`repro.memory.controller` — controller efficiency and achievable
  bandwidth under memory-level-parallelism limits,
* :mod:`repro.memory.power` — the Section 2.4 power breakdown (background,
  activate/precharge, read-write, termination, PHY/PLL) and its dependence
  on bus frequency.
"""
