"""Paper experiments: one module per table/figure of the evaluation.

Each module exposes a ``run(...)`` entry point returning a structured
result object plus a ``format_report(...)`` helper that renders the same
rows/series the paper reports. ``python -m repro reproduce`` runs them
as pipeline nodes, and the integration tests assert the *shape* of each
result (who wins, by roughly what factor, where crossovers fall).

:mod:`repro.experiments.context` builds and caches the shared stack
(platform, trained predictors, policy-evaluation matrix) so that the
twenty-odd experiments do not repeat the expensive steps.
"""
