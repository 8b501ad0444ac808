"""Tests for Naive Bayes and the text-classification pipeline."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml.naive_bayes import MultinomialNaiveBayes, TextClassifier

CLICKBAIT_TITLES = [
    "You won't believe this shocking trick",
    "Doctors hate this one weird secret",
    "The shocking truth they hide from you",
    "This insane hack will blow your mind",
    "You need to see what happens next",
    "Unbelievable secret revealed at last",
]
FACTUAL_TITLES = [
    "Study examines vaccine efficacy in adults",
    "Researchers publish climate emission data",
    "New analysis measures infection rates",
    "University reports genome sequencing results",
    "Agency releases quarterly health statistics",
    "Scientists observe distant galaxy formation",
]


class TestMultinomialNaiveBayes:
    def _fitted(self):
        X = np.array([[3, 0], [4, 1], [0, 3], [1, 4]], dtype=float)
        y = ["spam", "spam", "ham", "ham"]
        return MultinomialNaiveBayes().fit(X, y), X, y

    def test_predictions_recover_training_labels(self):
        model, X, y = self._fitted()
        assert model.predict(X) == y

    def test_probabilities_sum_to_one(self):
        model, X, _ = self._fitted()
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_negative_features_rejected(self):
        with pytest.raises(ModelError):
            MultinomialNaiveBayes().fit(np.array([[-1.0, 2.0]]), ["a"])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ModelError):
            MultinomialNaiveBayes().fit(np.ones((3, 2)), ["a", "b"])

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            MultinomialNaiveBayes().predict(np.ones((1, 2)))

    def test_invalid_alpha(self):
        with pytest.raises(ModelError):
            MultinomialNaiveBayes(alpha=0.0)


class TestTextClassifier:
    def test_separates_clickbait_from_factual_titles(self):
        model = TextClassifier(positive_class=1)
        labels = [1] * len(CLICKBAIT_TITLES) + [0] * len(FACTUAL_TITLES)
        model.fit(CLICKBAIT_TITLES + FACTUAL_TITLES, labels)
        predictions = model.predict(CLICKBAIT_TITLES + FACTUAL_TITLES)
        accuracy = sum(1 for p, t in zip(predictions, labels) if p == t) / len(labels)
        assert accuracy >= 0.8

    def test_predict_proba_returns_positive_class_probability(self):
        model = TextClassifier(positive_class=1)
        labels = [1] * len(CLICKBAIT_TITLES) + [0] * len(FACTUAL_TITLES)
        model.fit(CLICKBAIT_TITLES + FACTUAL_TITLES, labels)
        proba = model.predict_proba(["You won't believe this shocking secret trick"])
        assert 0.5 < proba[0] <= 1.0

    def test_unknown_positive_class_raises(self):
        model = TextClassifier(positive_class="missing")
        model.fit(["a b", "c d"], ["x", "y"])
        with pytest.raises(ModelError):
            model.predict_proba(["a b"])

