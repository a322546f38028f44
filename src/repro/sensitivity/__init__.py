"""Sensitivity measurement, training, and prediction (Section 4).

* :mod:`repro.sensitivity.measurement` — measured sensitivities of
  execution time to each hardware tunable (Section 4.1's methodology),
* :mod:`repro.sensitivity.dataset` — training-set construction from
  counters averaged across configurations (Section 4.2),
* :mod:`repro.sensitivity.regression` — plain least-squares linear
  regression with correlation reporting (Section 4.3),
* :mod:`repro.sensitivity.predictor` — the online predictors, including
  the paper's published Table 3 coefficients,
* :mod:`repro.sensitivity.binning` — HIGH/MED/LOW binning at the paper's
  30% / 70% boundaries (Section 5.2).
"""
