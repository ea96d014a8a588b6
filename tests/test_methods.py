"""The method registry: one training entry point for every method id."""

import pytest

from taskinfer.methods import METHODS, train_method


@pytest.mark.parametrize("method", METHODS)
def test_unknown_hyperparameters_are_rejected(method, two_family_corpus):
    with pytest.raises(ValueError, match=rf"unknown hyperparameters for {method}: \['bogus'\]"):
        train_method(method, two_family_corpus, hyper={"bogus": 1})
