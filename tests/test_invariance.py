"""Metamorphic properties: what no method's predictions may depend on.

Each property trains every method on a random corpus and on a transformed
copy of it, and asks both for the same queries.  Renaming every attribute,
or every family and task, by a prefix keeps every name's sorted position, so
it must leave every method's predictions `float.hex`-identical, through
`train_method` and through `leave_out` alike.  Reordering the training rows
must leave the methods that read no row order (`actr-r`, `nb`, `dt`)
identical; `actr-ib` and `logreg` sum in row order and `rf` bootstraps by
row, so they are left out of that property.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskinfer.core import MODES, Sample, build_corpus
from taskinfer.methods import METHODS, leave_out, train_method

from oracles import held_out_row_sets, random_corpus, random_params

ROW_ORDER_FREE = ("actr-r", "nb", "dt")


def _outcome(pred, rename=lambda name: name) -> tuple:
    """A Prediction with its labels passed through `rename`, probabilities as
    `float.hex`."""
    family = None if pred.predicted_family is None else rename(pred.predicted_family)
    return ({rename(k): v.hex() for k, v in pred.class_probs.items()},
            frozenset(map(rename, pred.predicted_tasks)), family,
            pred.retained_chunks, pred.degenerate)


def _queries(corpus) -> list:
    """Every sample's attributes, and one query holding an unseen attribute."""
    queries = [s.attribs for s in corpus.samples]
    return queries + [queries[0] | {"unseen"}]


def _renamed(corpus, attribute=lambda a: a, label=lambda name: name):
    samples = [Sample(s.id, frozenset(map(attribute, s.attribs)), label(s.family))
               for s in corpus.samples]
    families = {label(f): frozenset(map(label, ts)) for f, ts in corpus.families.items()}
    return build_corpus(samples, families)


def _predictors(method, corpus, mode, params, row_sets):
    """`train_method`'s predictor, then `leave_out`'s for each row set."""
    held_out = leave_out(method, corpus, mode, params)
    return [train_method(method, corpus, mode, params)] + [held_out(r) for r in row_sets]


def _assert_renaming_invariant(method, mode, seed, random_params_too, attribute, label):
    rng = random.Random(seed)
    corpus = random_corpus(rng)
    params = random_params(rng) if random_params_too else None
    row_sets = held_out_row_sets(corpus, rng)
    renamed = _renamed(corpus, attribute, label)
    queries = _queries(corpus)
    for before, after in zip(_predictors(method, corpus, mode, params, row_sets),
                             _predictors(method, renamed, mode, params, row_sets)):
        for q in queries:
            assert _outcome(after(frozenset(map(attribute, q)))) == \
                _outcome(before(q), label)


def _prefixed(name):
    return "z" + name


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=3, deadline=None)
def test_renaming_attributes_changes_nothing(method, mode, seed, random_params_too):
    _assert_renaming_invariant(method, mode, seed, random_params_too,
                               attribute=_prefixed, label=lambda name: name)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=3, deadline=None)
def test_renaming_families_and_tasks_renames_only_the_labels(method, mode, seed,
                                                            random_params_too):
    _assert_renaming_invariant(method, mode, seed, random_params_too,
                               attribute=lambda a: a, label=_prefixed)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", ROW_ORDER_FREE)
@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=10, deadline=None)
def test_reordering_rows_changes_nothing(method, mode, seed, random_params_too):
    rng = random.Random(seed)
    corpus = random_corpus(rng)
    params = random_params(rng) if random_params_too else None
    samples = list(corpus.samples)
    rng.shuffle(samples)
    shuffled = build_corpus(samples, corpus.families)
    before = train_method(method, corpus, mode, params)
    after = train_method(method, shuffled, mode, params)
    for q in _queries(corpus):
        assert _outcome(after(q)) == _outcome(before(q))
