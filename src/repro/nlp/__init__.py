"""Natural-language-processing substrate.

Everything the indicator layer needs from "NLP libraries" in the original
SciLens deployment is implemented here from scratch: tokenisation, sentence
splitting, readability formulas, subjectivity scoring, click-bait detection
features and stance analysis of social-media posts.
"""

from .tokenize import tokenize, word_tokens, count_syllables
from .sentences import split_sentences
from .stopwords import STOPWORDS, is_stopword, remove_stopwords
from .readability import (
    ReadabilityReport,
    flesch_reading_ease,
    flesch_kincaid_grade,
    gunning_fog,
    smog_index,
    automated_readability_index,
    coleman_liau_index,
    readability_report,
)
from .subjectivity import SubjectivityScorer, subjectivity_score
from .clickbait import ClickbaitScorer, clickbait_score
from .stance import Stance, StanceClassifier, classify_stance
from .features import ngrams, bag_of_words, hashed_features

__all__ = [
    "tokenize",
    "word_tokens",
    "count_syllables",
    "split_sentences",
    "STOPWORDS",
    "is_stopword",
    "remove_stopwords",
    "ReadabilityReport",
    "flesch_reading_ease",
    "flesch_kincaid_grade",
    "gunning_fog",
    "smog_index",
    "automated_readability_index",
    "coleman_liau_index",
    "readability_report",
    "SubjectivityScorer",
    "subjectivity_score",
    "ClickbaitScorer",
    "clickbait_score",
    "Stance",
    "StanceClassifier",
    "classify_stance",
    "ngrams",
    "bag_of_words",
    "hashed_features",
]
