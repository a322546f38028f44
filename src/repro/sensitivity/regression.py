"""Plain least-squares linear regression (Section 4.3).

The paper fits its sensitivity predictors with ordinary linear regression
over a small set of counters and reports correlation coefficients of 0.91
(compute) and 0.96 (bandwidth). We implement the same machinery with
``numpy.linalg.lstsq`` — no external ML dependencies — and report Pearson
correlation between predictions and measurements.
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson correlation coefficient between two equal-length vectors.

    Raises:
        AnalysisError: on mismatched lengths or fewer than two points.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape:
        raise AnalysisError("vectors must have the same length")
    if x.size < 2:
        raise AnalysisError("correlation needs at least two points")
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


class LinearModel(NamedTuple):
    """A fitted linear model ``y = intercept + sum(coef[f] * x[f])``.

    Attributes:
        feature_names: ordered names of the model's input features.
        intercept: the fitted intercept.
        coefficients: per-feature fitted weights, keyed by feature name.
        correlation: Pearson correlation of fit vs. training targets.
    """

    feature_names: Tuple[str, ...]
    intercept: float
    coefficients: Mapping[str, float]
    correlation: float

    def terms(self, vocabulary: Sequence[str]) -> Tuple[Tuple[int, float], ...]:
        """``(position in vocabulary, coefficient)`` per model feature, in
        :attr:`feature_names` order: the model over vectors laid out
        like ``vocabulary``.

        Raises:
            AnalysisError: if a model feature is not in ``vocabulary``.
        """
        vocabulary = tuple(vocabulary)
        terms = []
        for name in self.feature_names:
            if name not in vocabulary:
                raise AnalysisError(
                    f"model feature {name!r} is not one of {vocabulary}")
            terms.append((vocabulary.index(name), self.coefficients[name]))
        return tuple(terms)

    def evaluate(self, terms: Sequence[Tuple[int, float]],
                 vector: Sequence[float]) -> float:
        """``intercept + coefficient * vector[position]`` summed term by
        term, left to right, over :meth:`terms` of ``vector``'s layout."""
        total = self.intercept
        for position, coefficient in terms:
            total += coefficient * vector[position]
        return total

    def predict(self, features: Mapping[str, float]) -> float:
        """Evaluate the model on a feature mapping.

        Raises:
            AnalysisError: if a required feature is missing.
        """
        for name in self.feature_names:
            if name not in features:
                raise AnalysisError(f"missing feature {name!r}")
        return self.evaluate(self.terms(self.feature_names),
                             [features[name] for name in self.feature_names])

    def coefficient_rows(self) -> Tuple[Tuple[str, float], ...]:
        """(name, value) rows including the intercept — the Table 3 shape."""
        rows = [("Intercept", self.intercept)]
        rows.extend((name, self.coefficients[name]) for name in self.feature_names)
        return tuple(rows)


def fit_linear_model(
    rows: Sequence[Mapping[str, float]],
    targets: Sequence[float],
    feature_names: Sequence[str],
) -> LinearModel:
    """Fit a least-squares linear model over the named features.

    Args:
        rows: feature mappings, one per training point.
        targets: the measured sensitivities, one per training point.
        feature_names: which features to use (the Table 3 subsets).

    Raises:
        AnalysisError: on empty/mismatched data or missing features.
    """
    if not rows:
        raise AnalysisError("no training rows")
    if len(rows) != len(targets):
        raise AnalysisError("rows and targets must have the same length")
    if not feature_names:
        raise AnalysisError("no features selected")

    matrix = np.ones((len(rows), len(feature_names) + 1), dtype=float)
    for i, row in enumerate(rows):
        for j, name in enumerate(feature_names):
            if name not in row:
                raise AnalysisError(f"row {i} missing feature {name!r}")
            matrix[i, j + 1] = row[name]
    y = np.asarray(targets, dtype=float)

    solution, *_ = np.linalg.lstsq(matrix, y, rcond=None)
    intercept = float(solution[0])
    coefficients = {
        name: float(solution[j + 1]) for j, name in enumerate(feature_names)
    }
    predictions = matrix @ solution
    corr = pearson(predictions.tolist(), y.tolist())
    return LinearModel(
        feature_names=tuple(feature_names),
        intercept=intercept,
        coefficients=coefficients,
        correlation=corr,
    )
