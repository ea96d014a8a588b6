"""The method registry: one training entry point for every method id."""

import math
import random

import pytest

from taskinfer.core import MODES, Sample, build_corpus
from taskinfer.methods import METHODS, train_method


@pytest.mark.parametrize("method", METHODS)
def test_unknown_hyperparameters_are_rejected(method, two_family_corpus):
    with pytest.raises(ValueError, match=rf"unknown hyperparameters for {method}: \['bogus'\]"):
        train_method(method, two_family_corpus, hyper={"bogus": 1})


@pytest.mark.parametrize("method,name,value", [
    ("nb", "smoothing", math.nan),
    ("nb", "smoothing", math.inf),
    ("actr-r", "smoothing", math.nan),
    ("actr-r", "smoothing", math.inf),
    ("logreg", "learning_rate", math.nan),
    ("logreg", "learning_rate", math.inf),
    ("logreg", "l2", math.nan),
    ("logreg", "l2", math.inf),
    ("rf", "max_features", 0),
    ("rf", "max_features", -2),
    ("rf", "max_features", 2.5),
    ("rf", "n_trees", 2.5),
    ("rf", "n_trees", True),
    ("rf", "bootstrap", "no"),
    ("logreg", "epochs", 2.5),
    ("logreg", "epochs", True),
])
def test_bad_hyperparameters_are_rejected_by_name(method, name, value, two_family_corpus):
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {value!r}$"):
        train_method(method, two_family_corpus, hyper={name: value})


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
def test_labels_without_samples_are_rejected(method, mode):
    # The header names family G, but no record belongs to it; its task u is
    # performed by no sample either.
    corpus = build_corpus(
        [Sample(id="s1", attribs={"a"}, family="F"),
         Sample(id="s2", attribs={"b"}, family="F")],
        {"F": frozenset({"t"}), "G": frozenset({"u"})},
    )
    label = "family 'G'" if mode == "family" else "task 'u'"
    with pytest.raises(ValueError, match=f"{label} has no samples"):
        train_method(method, corpus, mode=mode)


@pytest.mark.parametrize("method", METHODS)
def test_tasks_sharing_a_column_get_equal_probabilities(method):
    # Every F sample performs both t and u, so in direct mode the two tasks
    # are one binary problem.  G names u in the header but has no samples,
    # which must not set u apart from t.
    rng = random.Random(4)
    pool = [f"a{i}" for i in range(8)]
    corpus = build_corpus(
        [Sample(id=f"s{i}", attribs=set(rng.sample(pool, 4)), family="FH"[i % 2])
         for i in range(24)],
        {"F": frozenset({"t", "u"}), "H": frozenset({"v"}), "G": frozenset({"u"})},
    )
    predict = train_method(method, corpus, mode="direct")
    for k in range(10):
        probs = predict(frozenset(rng.sample(pool, 3))).class_probs
        assert probs["t"] == probs["u"], k


@pytest.mark.parametrize("families", [{}, {"F": frozenset({"t"})}])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
def test_an_empty_corpus_is_rejected(method, mode, families):
    # What a corpus file holding only its header loads as.
    with pytest.raises(ValueError, match="^cannot train on an empty corpus$"):
        train_method(method, build_corpus([], families), mode=mode)
