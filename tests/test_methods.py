"""The method registry: one training entry point for every method id."""

import pytest

from taskinfer.core import MODES, Sample, build_corpus
from taskinfer.methods import METHODS, train_method


@pytest.mark.parametrize("method", METHODS)
def test_unknown_hyperparameters_are_rejected(method, two_family_corpus):
    with pytest.raises(ValueError, match=rf"unknown hyperparameters for {method}: \['bogus'\]"):
        train_method(method, two_family_corpus, hyper={"bogus": 1})


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
