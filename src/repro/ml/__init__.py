"""Machine-learning substrate.

The SciLens platform "periodically trains Machine Learning models on top of
the Distributed Storage" and uses them to extract quality indicators and
topic segments.  This package provides the from-scratch building blocks:
vectorisers, classifiers, probabilistic hierarchical topic clustering, kernel
density estimation, evaluation metrics and a model registry.
"""

from .vectorize import CountVectorizer, TfidfVectorizer
from .naive_bayes import MultinomialNaiveBayes, TextClassifier
from .kde import GaussianKDE
from .clustering import TopicNode, HierarchicalTopicModel, TopicAssignment
from .metrics import roc_auc_score
from .registry import ModelRegistry, ModelRecord

__all__ = [
    "CountVectorizer",
    "TfidfVectorizer",
    "MultinomialNaiveBayes",
    "TextClassifier",
    "GaussianKDE",
    "TopicNode",
    "HierarchicalTopicModel",
    "TopicAssignment",
    "roc_auc_score",
    "ModelRegistry",
    "ModelRecord",
]
