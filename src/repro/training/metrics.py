"""Evaluation metrics and analysis tools.

The paper reports three headline metrics for every model and
microarchitecture (Tables 5, 6, 8): the Mean Absolute Percentage Error
(MAPE), the Spearman rank correlation and the Pearson linear correlation
between measured and predicted throughputs.  It additionally analyses the
models with prediction heatmaps (Figures 3 and 5) and relative-error
histograms (Figure 4).  All of those are implemented here on plain numpy
arrays, independent of any model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.nn.losses import ZERO_TARGET_THRESHOLD

__all__ = [
    "RegressionMetrics",
    "compute_metrics",
    "mape",
    "spearman_correlation",
    "pearson_correlation",
    "prediction_heatmap",
    "relative_error_histogram",
]


# Targets with |value| <= ZERO_TARGET_THRESHOLD (imported from the training
# losses so the exclusion sets stay in sync) are excluded from the
# relative-error metrics; a single zero target would otherwise contribute an
# ``|error| / epsilon`` term of order 1e9, poisoning the Table 5/6 MAPE
# columns.


def _validate(predicted: np.ndarray, actual: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    predicted = np.asarray(predicted, dtype=np.float64).reshape(-1)
    actual = np.asarray(actual, dtype=np.float64).reshape(-1)
    if predicted.shape != actual.shape:
        raise ValueError(
            f"prediction/label shape mismatch: {predicted.shape} vs {actual.shape}"
        )
    if predicted.size == 0:
        raise ValueError("cannot compute metrics on empty arrays")
    return predicted, actual


def mape(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Mean absolute percentage error over non-zero targets, as a fraction."""
    predicted, actual = _validate(predicted, actual)
    valid = np.abs(actual) > ZERO_TARGET_THRESHOLD
    if not np.any(valid):
        return 0.0
    errors = np.abs(actual[valid] - predicted[valid]) / np.abs(actual[valid])
    return float(np.mean(errors))


def spearman_correlation(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Spearman rank correlation between predictions and measurements.

    0.0 when either input is exactly constant (the correlation is undefined).
    """
    from scipy import stats  # only evaluation pays for scipy.stats

    predicted, actual = _validate(predicted, actual)
    if np.ptp(predicted) == 0 or np.ptp(actual) == 0:
        return 0.0
    result = stats.spearmanr(actual, predicted)
    value = float(result.statistic if hasattr(result, "statistic") else result[0])
    return 0.0 if np.isnan(value) else value


def pearson_correlation(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Pearson linear correlation between predictions and measurements.

    0.0 when either input is exactly constant (the correlation is undefined).
    """
    from scipy import stats

    predicted, actual = _validate(predicted, actual)
    if np.ptp(predicted) == 0 or np.ptp(actual) == 0:
        return 0.0
    result = stats.pearsonr(actual, predicted)
    value = float(result.statistic if hasattr(result, "statistic") else result[0])
    return 0.0 if np.isnan(value) else value


@dataclass(frozen=True)
class RegressionMetrics:
    """The metric triple reported in the paper's tables.

    Attributes:
        mape: Mean absolute percentage error (fraction).
        spearman: Spearman rank correlation.
        pearson: Pearson linear correlation.
        num_samples: Number of evaluated blocks.
    """

    mape: float
    spearman: float
    pearson: float
    num_samples: int

    def format_row(self) -> str:
        """Formats the metrics in the style used by Tables 5/6/8."""
        return (
            f"MAPE {self.mape * 100.0:5.2f}%  "
            f"Spearman {self.spearman:.4f} / Pearson {self.pearson:.4f}"
        )


def compute_metrics(predicted: np.ndarray, actual: np.ndarray) -> RegressionMetrics:
    """Computes MAPE, Spearman and Pearson in one call."""
    predicted, actual = _validate(predicted, actual)
    return RegressionMetrics(
        mape=mape(predicted, actual),
        spearman=spearman_correlation(predicted, actual),
        pearson=pearson_correlation(predicted, actual),
        num_samples=int(predicted.size),
    )


def prediction_heatmap(
    predicted: np.ndarray,
    actual: np.ndarray,
    max_cycles: float = 10.0,
    num_bins: int = 50,
    normalization: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2-D histogram of measured vs predicted throughput (Figures 3 and 5).

    The paper normalises throughputs "to a single run of each basic block"
    and plots values under 10 cycles; ``normalization`` divides both axes
    (use 100 when the inputs are per-100-iteration values) and
    ``max_cycles`` crops the plot range.

    Returns:
        ``(histogram, x_edges, y_edges)`` where ``histogram[i, j]`` counts
        blocks whose measured value falls in x-bin ``i`` and predicted value
        in y-bin ``j``.
    """
    predicted, actual = _validate(predicted, actual)
    measured_axis = actual / normalization
    predicted_axis = predicted / normalization
    mask = (measured_axis <= max_cycles) & (predicted_axis <= max_cycles)
    edges = np.linspace(0.0, max_cycles, num_bins + 1)
    histogram, x_edges, y_edges = np.histogram2d(
        measured_axis[mask], predicted_axis[mask], bins=(edges, edges)
    )
    return histogram, x_edges, y_edges


def relative_error_histogram(
    predicted: np.ndarray,
    actual: np.ndarray,
    limit: float = 1.5,
    num_bins: int = 60,
) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of signed relative errors (Figure 4).

    The relative error is ``(predicted - actual) / actual``; negative values
    are underestimates.  The paper plots the range [-1.5, 1.5].

    Returns:
        ``(counts, bin_edges)`` as produced by ``numpy.histogram``.
    """
    predicted, actual = _validate(predicted, actual)
    valid = np.abs(actual) > ZERO_TARGET_THRESHOLD
    relative_error = (predicted[valid] - actual[valid]) / np.abs(actual[valid])
    clipped = np.clip(relative_error, -limit, limit)
    return np.histogram(clipped, bins=num_bins, range=(-limit, limit))


def underestimation_fraction(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Fraction of blocks whose throughput is underestimated.

    Used to verify the paper's observation that Ithemal "has a tendency to
    underestimate" while GRANITE is balanced (Section 5.1).
    """
    predicted, actual = _validate(predicted, actual)
    return float(np.mean(predicted < actual))
