"""The method registry: one training entry point for every method id."""

import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskinfer import actr, baselines, methods, synthgen
from taskinfer.actr import IbModel, rb_train
from taskinfer.baselines import dt_train, logreg_train, nb_train, rf_train
from taskinfer.core import (MODES, ActrParams, LinearModel, Sample, build_corpus, label_space,
                            query_cols)
from taskinfer.methods import METHODS, leave_out, predict, train_method

from conftest import make_corpus
from oracles import (dict_prediction, held_out_row_sets, random_corpus, random_params,
                     reference_held_out_predictions, reference_loocv_predictions)


# The trainer of each method that has hyperparameters of its own.
TRAINERS = {"actr-r": rb_train, "nb": nb_train, "rf": rf_train, "logreg": logreg_train}


@pytest.mark.parametrize("method,name,value", [
    ("nb", "smoothing", math.nan),
    ("nb", "smoothing", math.inf),
    ("nb", "smoothing", True),
    ("nb", "smoothing", "1"),
    ("actr-r", "smoothing", math.nan),
    ("actr-r", "smoothing", math.inf),
    ("actr-r", "smoothing", True),
    ("logreg", "learning_rate", math.nan),
    ("logreg", "learning_rate", math.inf),
    ("logreg", "learning_rate", True),
    ("logreg", "learning_rate", "0.1"),
    ("logreg", "l2", math.nan),
    ("logreg", "l2", math.inf),
    ("logreg", "l2", False),
    ("logreg", "l2", "0"),
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
        TRAINERS[method](two_family_corpus, **{name: value})


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
def test_labels_without_samples_are_rejected(method, mode):
    # The header names family G, but no record belongs to it; its task u is
    # performed by no sample either.  leave_out with no row held out trains
    # on the corpus itself, as train_method does, so it refuses G alike; a
    # held-out row trains on the corpus without it, which drops G.
    corpus = build_corpus(
        [Sample(id="s1", attribs={"a"}, family="F"),
         Sample(id="s2", attribs={"b"}, family="F")],
        {"F": frozenset({"t"}), "G": frozenset({"u"})},
    )
    label = "family 'G'" if mode == "family" else "task 'u'"
    with pytest.raises(ValueError, match=f"{label} has no samples") as refused:
        train_method(method, corpus, mode=mode)
    held_out = leave_out(method, corpus, mode)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        held_out(())
    pred = held_out([0])({"a", "b"})
    assert tuple(pred.class_probs) == (("F",) if mode == "family" else ("t",))


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


# Each method's trained model, small enough to grow quickly; the activation
# models read `params`.
MODELS = {
    "actr-ib": lambda corpus, mode, params=None: IbModel(corpus, params, mode),
    "actr-r": lambda corpus, mode, params=None: rb_train(corpus, params, mode=mode),
    "nb": lambda corpus, mode, params=None: nb_train(corpus, mode=mode),
    "dt": lambda corpus, mode, params=None: dt_train(corpus, mode=mode),
    "rf": lambda corpus, mode, params=None: rf_train(corpus, n_trees=4, mode=mode),
    "logreg": lambda corpus, mode, params=None: logreg_train(corpus, epochs=20, mode=mode),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
def test_models_score_one_probability_per_label_column(method, mode):
    # Each carrier's three tasks always occur together: 9 tasks in 3 columns.
    corpus, _ = synthgen.generate(synthgen.GenSpec(
        n_carriers=3, tasks_per_carrier=3, samples_per_family=6,
        carrier_attr_pool=12, payload_attrs_per_task=3, seed=2))
    assert sorted(MODELS) == sorted(METHODS)
    model = MODELS[method](corpus, mode)
    space = model.space
    assert len(space.labels) == (9 if mode == "direct" else 3)
    assert len(space.columns) == 3
    if isinstance(model, LinearModel):
        assert model.weight.shape == (3, len(model.col))
        assert model.bias.shape == (3,)
    for s in corpus.samples[::5]:
        probs, _ = model.scores(*query_cols(model.col, s.attribs))
        assert probs.shape == (3,)
        got = predict(model, s.attribs, 0.5).class_probs
        assert tuple(got) == space.labels
        assert list(got.values()) == probs[space.column_of].tolist()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=10, deadline=None)
def test_predictions_equal_the_dict_oracle(method, mode, seed, random_params_too):
    # The same column probabilities through `predict` and through the oracle:
    # the same floats in label order, the same tasks, family and retrieval
    # counts, and one frozenset for each distinct task set.
    rng = random.Random(seed)
    corpus = random_corpus(rng)
    params = random_params(rng) if random_params_too else ActrParams()
    model = MODELS[method](corpus, mode, params)
    queries = [s.attribs for s in corpus.samples]
    shared = {}
    for q in queries + [queries[0] | {"unseen"}, frozenset({"unseen"})]:
        got = predict(model, q, params.task_threshold)
        probs, retained = model.scores(*query_cols(model.col, q))
        want = dict_prediction(model.space, probs, params.task_threshold, retained)
        want_items = [(k, v.hex()) for k, v in want.class_probs.items()]
        for items in (dict(got.class_probs).items(), got.class_probs.items(),
                      zip(got.class_probs.keys(), got.class_probs.values())):
            assert [(k, v.hex()) for k, v in items] == want_items
        assert (got.predicted_tasks, got.predicted_family, got.retained_chunks,
                got.degenerate) == (want.predicted_tasks, want.predicted_family,
                                    want.retained_chunks, want.degenerate)
        assert shared.setdefault(got.predicted_tasks, got.predicted_tasks) \
            is got.predicted_tasks


@pytest.mark.parametrize("families", [{}, {"F": frozenset({"t"})}])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
def test_an_empty_corpus_is_rejected(method, mode, families):
    # What a corpus file holding only its header loads as.
    with pytest.raises(ValueError, match="^cannot train on an empty corpus$"):
        train_method(method, build_corpus([], families), mode=mode)


@pytest.mark.parametrize("method", METHODS)
def test_direct_mode_without_tasks_is_rejected(method):
    # The families perform no task, so direct mode has no label to score.
    corpus = build_corpus(
        [Sample(id="s1", attribs={"a"}, family="F"),
         Sample(id="s2", attribs={"b"}, family="F")],
        {"F": frozenset()},
    )
    with pytest.raises(ValueError, match="^direct mode needs a task, but the corpus's "
                                         "families perform none$"):
        train_method(method, corpus, mode="direct")
    assert train_method(method, corpus, mode="family")({"a"}).predicted_family == "F"


def _accepted(lo, hi, *points):
    """A field's accepted range [lo, hi]: its edges, the given points (its
    default) and any float between."""
    return st.one_of(st.sampled_from((lo, hi) + points), st.floats(lo, hi))


ACCEPTED_PARAMS = st.builds(
    ActrParams,
    beta=_accepted(-1e100, 1e100, 20.0),
    s=_accepted(1e-100, 1e100, 0.1),
    tau=_accepted(-1e100, 1e100, -10.0),
    mp=_accepted(0.0, 1e100, 20.0),
    w=_accepted(-1e100, 1e100, 16.0),
    task_threshold=_accepted(5e-324, 1.0, 0.5),
    partial_matching=st.sampled_from(("overlap", "deficit")),
)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
@given(st.integers(0, 2**32 - 1), ACCEPTED_PARAMS)
@settings(max_examples=25, deadline=None)
def test_every_accepted_parameter_set_predicts_finitely(method, mode, seed, params):
    # The model of the corpus, and of the corpus less one row (downdated by
    # the count models), for every sample and for queries of unseen
    # attributes.  An overflow would warn, which pytest turns into an error.
    rng = random.Random(seed)
    corpus = random_corpus(rng)
    queries = [s.attribs for s in corpus.samples]
    queries += [queries[0] | {"unseen"}, frozenset({"unseen"})]
    model = MODELS[method](corpus, mode, params)
    models = [model]
    if corpus.size > 1:
        models.append(model.without([0]) if (method, mode) in DOWNDATING
                      else MODELS[method](corpus.without([0]), mode, params))
    for m in models:
        for q in queries:
            probs = list(predict(m, q, params.task_threshold).class_probs.values())
            assert all(math.isfinite(p) for p in probs), (q, probs)
            if mode == "family":
                assert abs(math.fsum(probs) - 1.0) <= 1e-12, (q, probs)


# Every positive float, log-uniformly, with both ends and the default.
SMOOTHING = st.one_of(st.sampled_from((5e-324, sys.float_info.max, 1.0)),
                      st.floats(math.log(5e-324), 709.78).map(math.exp))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", ["nb", "actr-r"])
@given(st.integers(0, 2**32 - 1), SMOOTHING)
@settings(max_examples=60, deadline=None)
def test_every_smoothing_predicts_finitely_or_is_refused_by_name(method, mode, seed,
                                                                 smoothing):
    # The model of the corpus and of it less one row either refuses the
    # smoothing, naming it, or predicts finite probabilities.  A warning (a
    # rate rounded to 0 or 1, an overflowed sum) would be an error here.
    rng = random.Random(seed)
    corpus = random_corpus(rng)
    models = []
    try:
        models.append(TRAINERS[method](corpus, smoothing=smoothing, mode=mode))
        if corpus.size > 1:
            models.append(models[0].without([0]))
    except ValueError as e:
        assert str(e).startswith(f"smoothing {smoothing!r} gives a presence ")
        assert smoothing != 1.0
    for m in models:
        for q in [s.attribs for s in corpus.samples] + [frozenset({"a0", "unseen"})]:
            probs = list(predict(m, q, 0.5).class_probs.values())
            assert all(math.isfinite(p) for p in probs), (q, probs)


def test_smoothing_is_refused_only_where_the_model_fails(two_family_corpus):
    # Naive Bayes reads log(1 - p), so a rate rounded to 1 fails it; the rule
    # model reads only the ratio of two rates, which stays finite.
    for mode in MODES:
        with pytest.raises(ValueError, match=r"^smoothing 5e-324 gives a presence rate "
                                             r"outside \(0, 1\) for these counts$"):
            nb_train(two_family_corpus, smoothing=5e-324, mode=mode)
        with pytest.raises(ValueError, match=r"^smoothing 1e\+308 gives a presence ratio "
                                             r"outside \(0, inf\) for these counts$"):
            rb_train(two_family_corpus, smoothing=1e308, mode=mode)
        with pytest.raises(ValueError, match="^smoothing 1e-30 gives a presence rate "):
            nb_train(two_family_corpus, smoothing=1e-30, mode=mode)
        predict(rb_train(two_family_corpus, smoothing=1e-30, mode=mode), {"a"}, 0.5)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", METHODS)
def test_edge_case_queries(method, mode, two_family_corpus):
    predictor = train_method(method, two_family_corpus, mode=mode)
    with pytest.raises(ValueError, match="^query attribute set is empty$"):
        predictor(frozenset())
    # No attribute of the query was seen in training.
    pred = predictor(frozenset({"unseen1", "unseen2"}))
    labels = label_space(two_family_corpus, mode).labels
    assert tuple(pred.class_probs) == labels
    assert all(math.isfinite(p) for p in pred.class_probs.values())


def _assert_same_predictions(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert {k: v.hex() for k, v in g.class_probs.items()} == \
            {k: v.hex() for k, v in w.class_probs.items()}
        assert g.predicted_tasks == w.predicted_tasks
        assert g.predicted_family == w.predicted_family
        assert g.retained_chunks == w.retained_chunks
        assert g.degenerate == w.degenerate


def _held_out(corpus, method, mode, params=None):
    held_out = leave_out(method, corpus, mode, params)
    return [held_out([i])(s.attribs) for i, s in enumerate(corpus.samples)]


def _rows_held_out(corpus, method, mode, rows, params=None):
    predictor = leave_out(method, corpus, mode, params)(rows)
    return [predictor(corpus.samples[i].attribs) for i in rows]


DOWNDATING = [(m, mode) for m in ("actr-ib", "actr-r", "nb") for mode in MODES]
RETRAINING = [(m, mode) for m in ("dt", "rf", "logreg") for mode in MODES]


class TestLeaveOneOut:
    @pytest.mark.parametrize("method,mode", DOWNDATING)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_downdating_equals_retraining(self, method, mode, seed, random_params_too):
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        params = random_params(rng) if random_params_too else None
        if corpus.size < 2:
            return
        want = reference_loocv_predictions(corpus, method, mode, params)
        _assert_same_predictions(_held_out(corpus, method, mode, params), want)

    # Each corpus holds one case that changes the label space or vocabulary
    # of the fold that leaves out one of its samples.
    EDGE_CASES = {
        # s1 is F1's only sample: F1 and its task t1 disappear.
        "singleton family": (
            [("s1", {"a", "b"}, "F1"), ("s2", {"b", "c"}, "F2"), ("s3", {"c"}, "F2"),
             ("s4", {"a", "c"}, "F3")],
            {"F1": {"t1", "t2"}, "F2": {"t2"}, "F3": {"t3"}}),
        # x and y occur only in s1: without it they are unseen attributes.
        "attributes only the held-out sample has": (
            [("s1", {"a", "x", "y"}, "F1"), ("s2", {"a", "b"}, "F1"),
             ("s3", {"b", "c"}, "F2"), ("s4", {"c", "z"}, "F2")],
            {"F1": {"t1"}, "F2": {"t2"}}),
        # t1 is F1's and F3's, t2 F1's alone: without s3 (F3's only sample)
        # their columns hold the same samples and merge.
        "direct-mode columns that merge": (
            [("s1", {"a", "b"}, "F1"), ("s2", {"a"}, "F1"), ("s3", {"b", "c"}, "F3"),
             ("s4", {"c"}, "F2"), ("s5", {"c", "d"}, "F2")],
            {"F1": {"t1", "t2"}, "F2": {"t3"}, "F3": {"t1"}}),
        # Everyone performs t1, and without s4 everyone left performs t2:
        # its log odds are +inf and its probability 1.
        "a task every remaining sample performs": (
            [("s1", {"a", "b"}, "F1"), ("s2", {"a", "c"}, "F1"), ("s3", {"b"}, "F2"),
             ("s4", {"c", "d"}, "F3")],
            {"F1": {"t1", "t2"}, "F2": {"t1", "t2"}, "F3": {"t1"}}),
    }

    @pytest.mark.parametrize("method,mode", DOWNDATING + RETRAINING)
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases_equal_retraining(self, method, mode, case):
        rows, families = self.EDGE_CASES[case]
        corpus = make_corpus(rows, families)
        _assert_same_predictions(_held_out(corpus, method, mode),
                                 reference_loocv_predictions(corpus, method, mode))

    def test_edge_cases_are_what_they_say(self):
        def corpus(case):
            return make_corpus(*self.EDGE_CASES[case])
        singleton = label_space(corpus("singleton family"), "family").without([0])[0]
        assert singleton.labels == ("F2", "F3") and singleton.tasks == ("t2", "t3")
        merging = label_space(corpus("direct-mode columns that merge"), "direct")
        assert len(merging.columns) == 3
        assert merging.without([2])[0].column_of.tolist() == [0, 0, 1]
        nb = nb_train(corpus("a task every remaining sample performs"), mode="direct")
        assert "d" in nb.col and "d" not in nb.without([3]).col
        probs = predict(nb.without([3]), {"a"}, 0.5).class_probs
        assert probs["t1"] == probs["t2"] == 1.0
        ib = IbModel(corpus("attributes only the held-out sample has"))
        assert ib.without([0])._fan[[ib.col["x"], ib.col["y"]]].tolist() == [0, 0]

    def test_retraining_methods_do_not_downdate(self, monkeypatch, two_family_corpus):
        # They train nothing up front, then one model per row asked for, on
        # every other row.
        trained_on = []
        for name in ("dt_train", "rf_train", "logreg_train"):
            def spy(corpus, *args, _train=getattr(baselines, name), **kwargs):
                trained_on.append(corpus)
                return _train(corpus, *args, **kwargs)
            monkeypatch.setattr(baselines, name, spy)
        c = two_family_corpus
        for method in ("dt", "rf", "logreg"):
            trained_on.clear()
            held_out = leave_out(method, c)
            assert trained_on == []
            held_out([2])
            assert [s.samples for s in trained_on] == [c.samples[:2] + c.samples[3:]]
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            leave_out("bogus", c)

    def test_evaluate_corpus(self):
        # The benchmark's corpus shape (five 7-task carriers, 12 samples each).
        corpus, _ = synthgen.generate(synthgen.GenSpec(
            n_carriers=5, tasks_per_carrier=7, samples_per_family=12,
            overlap_target=0.4, seed=1))
        for method, mode in DOWNDATING:
            _assert_same_predictions(_held_out(corpus, method, mode),
                                     reference_loocv_predictions(corpus, method, mode))


class TestLeaveRowsOut:
    @pytest.mark.parametrize("method", ["actr-ib", "actr-r", "nb"])
    @pytest.mark.parametrize("mode", MODES)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_downdating_equals_retraining(self, method, mode, seed, random_params_too):
        # Random subsets, whole families, every performer of a task and all
        # rows but one.
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        params = random_params(rng) if random_params_too else None
        for rows in held_out_row_sets(corpus, rng):
            _assert_same_predictions(
                _rows_held_out(corpus, method, mode, rows, params),
                reference_held_out_predictions(corpus, method, mode, rows, params))

    # t1 is F1's and F3's, t2 F1's alone: without s3 and s4 (F3's samples)
    # their direct-mode columns hold the same samples and merge.
    MERGING = ([("s1", {"a", "b"}, "F1"), ("s2", {"a"}, "F1"), ("s3", {"b", "c"}, "F3"),
                ("s4", {"c", "x"}, "F3"), ("s5", {"c"}, "F2"), ("s6", {"c", "d"}, "F2")],
               {"F1": {"t1", "t2"}, "F2": {"t3"}, "F3": {"t1"}})

    @pytest.mark.parametrize("method", ["actr-ib", "actr-r", "nb"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("rows", [(2, 3), [2, 3], range(2, 4),
                                      np.array([2, 3], dtype=np.intp)],
                             ids=["tuple", "list", "range", "intp array"])
    def test_rows_are_any_sequence(self, method, mode, rows):
        corpus = make_corpus(*self.MERGING)
        _assert_same_predictions(
            _rows_held_out(corpus, method, mode, rows),
            reference_held_out_predictions(corpus, method, mode, [2, 3]))

    @pytest.mark.parametrize("mode", MODES)
    def test_no_rows_leave_the_model_as_trained(self, mode):
        corpus = make_corpus(*self.MERGING)
        for model in (IbModel(corpus, mode=mode), rb_train(corpus, mode=mode),
                      nb_train(corpus, mode=mode)):
            _assert_same_predictions([predict(model.without([]), s.attribs, 0.5)
                                      for s in corpus.samples],
                                     [predict(model, s.attribs, 0.5) for s in corpus.samples])

    @pytest.mark.parametrize("mode", MODES)
    def test_models_read_rows_in_their_own_numbering(self, mode):
        corpus = make_corpus(*self.MERGING)
        for model in (IbModel(corpus, mode=mode), rb_train(corpus, mode=mode),
                      nb_train(corpus, mode=mode)):
            with pytest.raises(ValueError, match=r"^row 6 is outside range\(6\)$"):
                model.without([6])
        with pytest.raises(ValueError, match=r"^row 5 is outside range\(5\)$"):
            IbModel(corpus, mode=mode).without([0]).without([5])

    def test_two_rows_merge_direct_mode_columns(self):
        space = label_space(make_corpus(*self.MERGING), "direct")
        assert space.column_of.tolist() == [0, 1, 2]
        merged, source = space.without((2, 3))
        assert merged.column_of.tolist() == [0, 0, 1]
        assert source.tolist() == [0, 2]

    @pytest.mark.parametrize("mode", MODES)
    def test_leaving_no_labeled_sample_is_rejected(self, mode):
        # Direct mode labels no sample of G, which performs no task.
        corpus = make_corpus([("f1", {"a"}, "F"), ("g1", {"b"}, "G"), ("g2", {"c"}, "G")],
                             {"F": {"t"}, "G": set()})
        space = label_space(corpus, mode)
        rows = [0, 1, 2] if mode == "family" else [0]
        with pytest.raises(ValueError, match="^no label keeps a sample"):
            space.without(rows)
        for model in (IbModel(corpus, mode=mode), nb_train(corpus, mode=mode)):
            with pytest.raises(ValueError, match="^no label keeps a sample"):
                model.without(rows)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("method", METHODS)
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_bad_rows_fail_before_any_training(self, method, mode, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        n = corpus.size
        trained = []
        with pytest.MonkeyPatch.context() as mp:
            # train_method and every trainer the registry looks up.
            for module, name in [(methods, "train_method"), (actr, "IbModel"),
                                 (actr, "rb_train"), (baselines, "nb_train"),
                                 (baselines, "dt_train"), (baselines, "rf_train"),
                                 (baselines, "logreg_train")]:
                def spy(*args, _train=getattr(module, name), _name=name, **kwargs):
                    trained.append(_name)
                    return _train(*args, **kwargs)
                mp.setattr(module, name, spy)
            held_out = leave_out(method, corpus, mode)
            for rows, message in [([-1], rf"^row -1 is outside range\({n}\)$"),
                                  ([n], rf"^row {n} is outside range\({n}\)$"),
                                  ([0, 0], "^row 0 is given twice$"),
                                  ([[0, 1]], r"^row \[0, 1\] is not an integer$"),
                                  ([0.5], r"^row 0\.5 is not an integer$"),
                                  ([1.9], r"^row 1\.9 is not an integer$"),
                                  ([True], "^row True is not an integer$"),
                                  (["1"], "^row '1' is not an integer$")]:
                with pytest.raises(ValueError, match=message):
                    held_out(rows)
            assert trained == []
            # Every form of a row set is read alike, and so is no row at all.
            k = rng.randrange(n)
            query = corpus.samples[0].attribs
            got = [held_out(rows)(query) for rows in (list(range(k)), tuple(range(k)),
                                                      range(k), np.arange(k, dtype=np.intp))]
            _assert_same_predictions(got, got[:1] * 4)
            held_out(())(query)
            assert trained

    @pytest.mark.parametrize("mode", MODES)
    def test_held_out_instance_models_share_the_index_links(self, mode):
        # A fold holds its own fans and kept rows, never a copy of the links.
        corpus = make_corpus(*self.MERGING)
        start, chunks = corpus.index.by_attribute
        model = IbModel(corpus, mode=mode)
        for held_out in (model.without([2, 3]), model.without([0]).without([4])):
            assert held_out._start is start and held_out._chunks is chunks
            assert held_out._sizes is model._sizes
        assert model.without([0]).without([4])._rows.tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("mode", MODES)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_chained_instance_model_without_equals_the_combined_call(
            self, mode, seed, random_params_too):
        # The second call numbers rows as the once held-out model does.
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        if corpus.size < 3:
            return
        model = IbModel(corpus, random_params(rng) if random_params_too else None, mode)
        first = rng.sample(range(corpus.size), rng.randint(1, corpus.size - 2))
        rest = [i for i in range(corpus.size) if i not in first]
        second = rng.sample(range(len(rest)), rng.randint(1, len(rest) - 1))
        chained = model.without(first).without(second)
        combined = model.without(first + [rest[j] for j in second])
        for s in corpus.samples:
            cols = query_cols(model.col, s.attribs)
            assert [a.hex() for a in chained.activations(*cols)] == \
                [a.hex() for a in combined.activations(*cols)]
            _assert_same_predictions([predict(chained, s.attribs, 0.5)],
                                     [predict(combined, s.attribs, 0.5)])
