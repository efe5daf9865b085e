"""Tests for evaluation metrics (repro.training.metrics)."""

import numpy as np
import pytest

from repro.training.metrics import (
    compute_metrics,
    mape,
    pearson_correlation,
    prediction_heatmap,
    relative_error_histogram,
    spearman_correlation,
    underestimation_fraction,
)


class TestMape:
    def test_perfect_prediction(self):
        actual = np.array([100.0, 200.0, 300.0])
        assert mape(actual, actual) == pytest.approx(0.0)

    def test_known_value(self):
        assert mape(np.array([90.0, 110.0]), np.array([100.0, 100.0])) == pytest.approx(0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mape(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mape(np.zeros(0), np.zeros(0))

    def test_zero_targets_excluded(self):
        """A zero-throughput target must not poison the mean (Table 5/6)."""
        predicted = np.array([90.0, 123456.0, 110.0])
        actual = np.array([100.0, 0.0, 100.0])
        assert mape(predicted, actual) == pytest.approx(0.1)

    def test_all_zero_targets_finite(self):
        assert mape(np.array([5.0, -3.0]), np.zeros(2)) == 0.0

    def test_relative_error_histogram_ignores_zero_targets(self):
        counts, _ = relative_error_histogram(
            np.array([90.0, 1e9, 110.0]), np.array([100.0, 0.0, 100.0])
        )
        assert counts.sum() == 2


class TestCorrelations:
    def test_perfect_rank_correlation(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        predicted = np.array([10.0, 20.0, 30.0, 40.0])
        assert spearman_correlation(predicted, actual) == pytest.approx(1.0)

    def test_monotone_but_nonlinear_has_high_spearman_lower_pearson(self):
        actual = np.linspace(1.0, 10.0, 50)
        predicted = np.exp(actual)
        assert spearman_correlation(predicted, actual) == pytest.approx(1.0)
        assert pearson_correlation(predicted, actual) < 0.95

    def test_anticorrelation(self):
        actual = np.array([1.0, 2.0, 3.0])
        predicted = np.array([3.0, 2.0, 1.0])
        assert spearman_correlation(predicted, actual) == pytest.approx(-1.0)
        assert pearson_correlation(predicted, actual) == pytest.approx(-1.0)

    def test_constant_predictions_return_zero(self):
        actual = np.array([1.0, 2.0, 3.0])
        predicted = np.array([5.0, 5.0, 5.0])
        assert spearman_correlation(predicted, actual) == 0.0
        assert pearson_correlation(predicted, actual) == 0.0

    def test_near_constant_predictions_are_still_ranked(self):
        # Spread 3e-4 on values near 100: inside np.allclose's rtol, but not
        # constant, so both correlations are defined (and here perfect).
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        predicted = np.array([100.0, 100.0001, 100.0002, 100.0003])
        assert spearman_correlation(predicted, actual) == pytest.approx(1.0)
        assert pearson_correlation(predicted, actual) == pytest.approx(1.0)
        assert spearman_correlation(actual, predicted) == pytest.approx(1.0)

    def test_compute_metrics_bundle(self):
        actual = np.array([100.0, 200.0, 300.0, 400.0])
        predicted = actual * 1.1
        metrics = compute_metrics(predicted, actual)
        assert metrics.mape == pytest.approx(0.1)
        assert metrics.spearman == pytest.approx(1.0)
        assert metrics.pearson == pytest.approx(1.0)
        assert metrics.num_samples == 4
        assert "MAPE" in metrics.format_row()


class TestHeatmap:
    def test_diagonal_predictions_land_on_diagonal(self):
        actual = np.linspace(100.0, 900.0, 200)
        histogram, x_edges, y_edges = prediction_heatmap(
            actual, actual, max_cycles=10.0, num_bins=10, normalization=100.0
        )
        assert histogram.sum() == 200
        off_diagonal = histogram.copy()
        np.fill_diagonal(off_diagonal, 0.0)
        assert off_diagonal.sum() == 0

    def test_values_above_max_cycles_are_cropped(self):
        actual = np.array([500.0, 5000.0])
        predicted = np.array([500.0, 5000.0])
        histogram, _, _ = prediction_heatmap(
            predicted, actual, max_cycles=10.0, normalization=100.0
        )
        assert histogram.sum() == 1

    def test_bin_count(self):
        histogram, x_edges, y_edges = prediction_heatmap(
            np.array([1.0]), np.array([1.0]), num_bins=25
        )
        assert histogram.shape == (25, 25)
        assert len(x_edges) == 26


class TestErrorHistogram:
    def test_centered_for_unbiased_predictions(self, rng):
        actual = rng.uniform(100, 1000, size=2000)
        noise = rng.normal(0, 0.05, size=2000)
        predicted = actual * (1 + noise)
        counts, edges = relative_error_histogram(predicted, actual)
        centers = (edges[:-1] + edges[1:]) / 2
        mean_error = np.average(centers, weights=counts)
        assert abs(mean_error) < 0.02

    def test_underestimation_shifts_mass_left(self, rng):
        actual = rng.uniform(100, 1000, size=500)
        predicted = actual * 0.7
        counts, edges = relative_error_histogram(predicted, actual)
        centers = (edges[:-1] + edges[1:]) / 2
        assert np.average(centers, weights=counts) < -0.2

    def test_errors_are_clipped_to_limit(self):
        counts, edges = relative_error_histogram(
            np.array([1000.0]), np.array([10.0]), limit=1.5
        )
        assert counts.sum() == 1
        assert edges[0] == pytest.approx(-1.5)
        assert edges[-1] == pytest.approx(1.5)


class TestUnderestimation:
    def test_balanced_predictions(self):
        actual = np.array([100.0, 100.0])
        predicted = np.array([90.0, 110.0])
        assert underestimation_fraction(predicted, actual) == pytest.approx(0.5)

    def test_systematic_underestimation(self):
        actual = np.full(10, 100.0)
        predicted = np.full(10, 80.0)
        assert underestimation_fraction(predicted, actual) == pytest.approx(1.0)
