"""Power models for the GPU chip, the board, and the measurement path.

* :mod:`repro.power.gpu_power` — per-CU dynamic + leakage + uncore power
  with power gating of inactive CUs,
* :mod:`repro.power.board` — the Section 6 measurement decomposition:
  ``GPUCardPwr = GPUPwr + MemPwr + OtherPwr`` (Equation 4 rearranged),
* :mod:`repro.power.daq` — a simulated National Instruments DAQ sampling a
  power trace at 1 kHz, as the paper's measurement rig does.
"""
