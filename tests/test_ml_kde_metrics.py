"""Tests for the KDE and the classification metrics."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.kde import GaussianKDE
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    f1_score,
    precision_score,
    recall_score,
    roc_auc_score,
)


class TestGaussianKDE:
    def test_density_integrates_to_about_one(self):
        rng = np.random.default_rng(0)
        kde = GaussianKDE(rng.normal(size=500))
        assert kde.integrate() == pytest.approx(1.0, abs=0.02)

    def test_mode_near_sample_mean_for_gaussian(self):
        rng = np.random.default_rng(1)
        kde = GaussianKDE(rng.normal(loc=5.0, scale=1.0, size=800))
        assert abs(kde.mode() - 5.0) < 0.5

    def test_wider_data_gives_wider_bandwidth(self):
        rng = np.random.default_rng(2)
        narrow = GaussianKDE(rng.normal(scale=0.5, size=300))
        wide = GaussianKDE(rng.normal(scale=5.0, size=300))
        assert wide.bandwidth > narrow.bandwidth

    def test_explicit_and_rule_bandwidths(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert GaussianKDE(data, bandwidth=0.7).bandwidth == pytest.approx(0.7)
        assert GaussianKDE(data, bandwidth="silverman").bandwidth < GaussianKDE(data, bandwidth="scott").bandwidth

    def test_invalid_inputs(self):
        with pytest.raises(ModelError):
            GaussianKDE([])
        with pytest.raises(ModelError):
            GaussianKDE([1.0, 2.0], bandwidth=-1.0)
        with pytest.raises(ModelError):
            GaussianKDE([1.0, 2.0], bandwidth="unknown")

    def test_constant_sample_does_not_crash(self):
        kde = GaussianKDE([3.0, 3.0, 3.0])
        xs, density = kde.curve(50)
        assert np.all(np.isfinite(density))


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_precision_recall_f1(self):
        y_true = [1, 1, 0, 0, 1]
        y_pred = [1, 0, 1, 0, 1]
        assert precision_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert recall_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert f1_score(y_true, y_pred) == pytest.approx(2 / 3)

    def test_zero_division_cases(self):
        assert precision_score([0, 0], [0, 0]) == 0.0
        assert recall_score([0, 0], [1, 1]) == 0.0
        assert f1_score([0, 0], [0, 0]) == 0.0

    def test_confusion_matrix(self):
        labels, matrix = confusion_matrix(["a", "b", "a"], ["a", "a", "a"])
        assert labels == ["a", "b"]
        assert matrix[0, 0] == 2 and matrix[1, 0] == 1

    def test_roc_auc_perfect_and_random(self):
        y = [0, 0, 1, 1]
        assert roc_auc_score(y, [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)
        assert roc_auc_score(y, [0.9, 0.8, 0.2, 0.1]) == pytest.approx(0.0)
        assert roc_auc_score(y, [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_roc_auc_requires_both_classes(self):
        with pytest.raises(ModelError):
            roc_auc_score([1, 1], [0.2, 0.4])

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            accuracy_score([1], [1, 0])

