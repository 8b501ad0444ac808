"""Tests for stopwords, n-gram features and feature hashing."""

import numpy as np
import pytest

from repro.nlp.features import bag_of_words, hashed_features, ngram_strings, ngrams, vocabulary
from repro.nlp.stopwords import STOPWORDS, is_stopword, remove_stopwords


class TestStopwords:
    def test_common_words_are_stopwords(self):
        assert is_stopword("the")
        assert is_stopword("The")
        assert not is_stopword("pandemic")

    def test_remove_stopwords(self):
        assert remove_stopwords(["the", "virus", "is", "spreading"]) == ["virus", "spreading"]

    def test_stopword_set_is_reasonably_sized(self):
        assert len(STOPWORDS) > 100


class TestNgrams:
    def test_unigrams_and_bigrams(self):
        tokens = ["a", "b", "c"]
        assert ngrams(tokens, 1) == [("a",), ("b",), ("c",)]
        assert ngrams(tokens, 2) == [("a", "b"), ("b", "c")]
        assert ngram_strings(tokens, 2) == ["a b", "b c"]

    def test_n_larger_than_sequence(self):
        assert ngrams(["a"], 3) == []

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)


class TestBagOfWords:
    def test_counts_and_stopword_removal(self):
        counts = bag_of_words("The virus spreads and the virus mutates")
        assert counts["virus"] == 2
        assert "the" not in counts

    def test_ngram_range(self):
        counts = bag_of_words("coronavirus outbreak grows", ngram_range=(1, 2), drop_stopwords=False)
        assert counts["coronavirus outbreak"] == 1
        assert counts["coronavirus"] == 1

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            bag_of_words("text", ngram_range=(2, 1))

    def test_vocabulary_min_count(self):
        vocab = vocabulary(["virus virus outbreak", "virus response"], min_count=2)
        assert "virus" in vocab
        assert "outbreak" not in vocab


class TestHashedFeatures:
    def test_deterministic_and_normalised(self):
        a = hashed_features("coronavirus outbreak in the city", n_features=256)
        b = hashed_features("coronavirus outbreak in the city", n_features=256)
        assert np.allclose(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_empty_text_gives_zero_vector(self):
        assert np.linalg.norm(hashed_features("", n_features=64)) == 0.0

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            hashed_features("text", n_features=0)

    def test_similar_texts_are_closer_than_dissimilar(self):
        a = hashed_features("coronavirus outbreak pandemic quarantine")
        b = hashed_features("coronavirus pandemic lockdown quarantine")
        c = hashed_features("spacecraft telescope asteroid galaxy")
        # Unit vectors: the dot product is the cosine of their angle.
        assert float(a @ b) > float(a @ c)

