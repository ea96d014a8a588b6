"""Metamorphic properties: what no method's predictions may depend on.

Each property trains every method on a random corpus and on a transformed
copy of it, and asks both for the same queries.  Renaming every attribute,
or every family and task, by a prefix keeps every name's sorted position, so
it must leave every method's predictions `float.hex`-identical, through
`train_method` and through `leave_out` alike.  Reordering the training rows
must leave the methods that read no row order (`actr-r`, `nb`, `dt`)
identical; `actr-ib` and `logreg` sum in row order and `rf` bootstraps by
row, so they are left out of that property.  A fold (`Corpus.without`) must
predict exactly as the corpus built from its samples.

The tolerance properties bound what summation order may move.  Reversing
the attributes' sorted order reverses the column order every sum runs in:
`actr-ib`, `actr-r`, `nb` and `logreg` must stay within
ATTRIBUTE_ORDER_TOL (`dt` and `rf` are left out, since ties between splits
go to the smallest column).  Reordering the rows moves `actr-ib` and
`logreg` within ROW_ORDER_TOL.  Each tolerance is about ten times the
largest difference that a probe of these properties over 120 random corpora
(seeds 0-119, with and without random parameters) found: 8.9e-15 (`actr-r`,
family mode) and 7.8e-16 (`actr-ib`, direct mode).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskinfer.core import MODES, Sample, build_corpus
from taskinfer.methods import METHODS, leave_out, train_method

from oracles import held_out_row_sets, random_corpus, random_params

ROW_ORDER_FREE = ("actr-r", "nb", "dt")
ATTRIBUTE_ORDER_SUMMING = ("actr-ib", "actr-r", "nb", "logreg")
ROW_ORDER_SUMMING = ("actr-ib", "logreg")
ATTRIBUTE_ORDER_TOL = 1e-13
ROW_ORDER_TOL = 1e-14


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


def _assert_close(got, want, tol):
    """The same labels in the same order, each probability within `tol`, and
    the same retained chunk count and degeneracy.  The family and the task
    set follow from the probabilities through the one `LabelSpace.prediction`,
    where a near-tie may flip them, so they are not compared."""
    assert list(got.class_probs) == list(want.class_probs)
    assert max(abs(g - w) for g, w in zip(got.class_probs.values(),
                                          want.class_probs.values())) <= tol
    assert (got.retained_chunks, got.degenerate) == (want.retained_chunks, want.degenerate)


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


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", ATTRIBUTE_ORDER_SUMMING)
@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=3, deadline=None)
def test_reversing_the_attribute_order_moves_probabilities_within_tolerance(
        method, mode, seed, random_params_too):
    rng = random.Random(seed)
    corpus = random_corpus(rng)
    params = random_params(rng) if random_params_too else None
    row_sets = held_out_row_sets(corpus, rng)
    names = sorted(set().union(*(s.attribs for s in corpus.samples), {"unseen"}))
    rename = {a: f"r{len(names) - 1 - j:03d}" for j, a in enumerate(names)}.__getitem__
    reversed_ = _renamed(corpus, attribute=rename)
    for before, after in zip(_predictors(method, corpus, mode, params, row_sets),
                             _predictors(method, reversed_, mode, params, row_sets)):
        for q in _queries(corpus):
            _assert_close(after(frozenset(map(rename, q))), before(q), ATTRIBUTE_ORDER_TOL)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", ROW_ORDER_SUMMING)
@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=2, deadline=None)
def test_reordering_rows_moves_probabilities_within_tolerance(method, mode, seed,
                                                              random_params_too):
    rng = random.Random(seed)
    corpus = random_corpus(rng)
    params = random_params(rng) if random_params_too else None
    row_sets = held_out_row_sets(corpus, rng)
    order = list(range(corpus.size))
    rng.shuffle(order)
    shuffled = build_corpus([corpus.samples[i] for i in order], corpus.families)
    position = {i: k for k, i in enumerate(order)}
    moved = [[position[i] for i in rows] for rows in row_sets]
    for before, after in zip(_predictors(method, corpus, mode, params, row_sets),
                             _predictors(method, shuffled, mode, params, moved)):
        for q in _queries(corpus):
            _assert_close(after(q), before(q), ROW_ORDER_TOL)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=2, deadline=None)
def test_a_fold_predicts_as_the_corpus_built_from_its_samples(method, mode, seed,
                                                              random_params_too):
    rng = random.Random(seed)
    corpus = random_corpus(rng)
    params = random_params(rng) if random_params_too else None
    for rows in held_out_row_sets(corpus, rng):
        kept = [s for i, s in enumerate(corpus.samples) if i not in rows]
        built = build_corpus(kept, {f: corpus.families[f] for f in {s.family for s in kept}})
        before = train_method(method, built, mode, params)
        after = train_method(method, corpus.without(rows), mode, params)
        for q in _queries(corpus):
            assert _outcome(after(q)) == _outcome(before(q))
