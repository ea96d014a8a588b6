"""Baseline classifiers: naive Bayes, decision tree, forest, logistic regression.

Expected numbers are frozen from hand arithmetic over four-sample corpora
(worked in the comments) or recomputed by the brute-force enumeration oracle.
"""

import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (logreg_objective, random_corpus, reference_forest_depth,
                     reference_forest_probs, reference_grow_forests, reference_logreg,
                     reference_logreg_direct, reference_nb_posterior, reference_nb_task_probs)
from taskinfer import baselines, synthgen
from taskinfer.baselines import (
    TrainingError,
    dt_train,
    logreg_train,
    nb_train,
    rf_train,
)

from taskinfer.core import MODES, label_space
from taskinfer.methods import predict
from taskinfer.synthgen import GenSpec

from conftest import make_corpus


def _random_query(rng, corpus, max_attrs=4, novel_rate=0.3):
    vocab = sorted(corpus.fan)
    q = set(rng.sample(vocab, rng.randint(1, min(max_attrs, len(vocab)))))
    if rng.random() < novel_rate:
        q.add("novel")
    return q


class TestNaiveBayes:
    # Hand posterior for the four-sample corpus, smoothing 1, query {a}:
    #   p(.|F1): a 3/4, b 2/4, c 1/4      p(.|F2): a 1/4, b 2/4, c 3/4
    #   F1: 1/2 * 3/4 * (1-1/2) * (1-1/4) = 9/64
    #   F2: 1/2 * 1/4 * (1-1/2) * (1-3/4) = 1/64     ->  9/10 vs 1/10.

    def test_hand_worked_posterior(self, two_family_corpus):
        model = nb_train(two_family_corpus)
        pred = predict(model, {"a"}, 0.5)
        assert pred.class_probs["F1"] == pytest.approx(0.9, abs=1e-12)
        assert pred.class_probs["F2"] == pytest.approx(0.1, abs=1e-12)
        assert pred.predicted_family == "F1"
        assert pred.predicted_tasks == frozenset({"t1"})
        # The empty query's joint: 1/2 * (1-3/4) * (1-2/4) * (1-1/4) = 3/64 for
        # F1, and 1/2 * (1-1/4) * (1-2/4) * (1-3/4) = 3/64 for F2.  An unseen
        # attribute adds the smoothing floor 1 / (2 + 2).
        assert np.exp(model.bias) == pytest.approx([3 / 64, 3 / 64], abs=1e-15)
        assert np.exp(model.floor) == pytest.approx([0.25, 0.25], abs=1e-15)

    def test_conditional_probability_accessor(self, two_family_corpus):
        # In family mode an attribute's weight is its log odds ln(p / (1 - p))
        # given the family, so p is the weight's sigmoid; an unseen attribute
        # adds log p for the smoothing floor; and the bias is the log prior
        # plus the sum of ln(1 - p) = -ln(1 + e^weight) over the vocabulary.
        model = nb_train(two_family_corpus)
        f1 = model.space.labels.index("F1")
        cond = 1.0 / (1.0 + np.exp(-model.weight[f1]))
        assert cond[model.col["a"]] == pytest.approx(0.75)
        assert cond[model.col["b"]] == pytest.approx(0.5)
        assert cond[model.col["c"]] == pytest.approx(0.25)
        # Unseen attribute: the smoothing floor 1 / (2 + 2).
        assert math.exp(model.floor[f1]) == pytest.approx(0.25)
        priors = np.exp(model.bias + np.log1p(np.exp(model.weight)).sum(axis=1))
        assert priors == pytest.approx([0.5, 0.5])

    def test_indistinguishable_families_split_mass(self):
        c = make_corpus(
            [("s1", {"a"}, "F1"), ("s2", {"a"}, "F2")],
            {"F1": {"t1"}, "F2": {"t2"}},
        )
        pred = predict(nb_train(c), {"a"}, 0.5)
        assert pred.class_probs["F1"] == pytest.approx(0.5, abs=1e-15)
        assert pred.predicted_family == "F1"  # lexicographic tie-break

    def test_matches_enumeration_oracle(self):
        rng = random.Random(51)
        for _ in range(50):
            c = random_corpus(rng)
            sm = rng.choice((0.5, 1.0, 2.0))
            q = _random_query(rng, c)
            ref = reference_nb_posterior(c, sm, q)
            got = predict(nb_train(c, smoothing=sm), q, 0.5)
            for f, p in ref.items():
                assert got.class_probs[f] == pytest.approx(p, abs=1e-10)

    def test_direct_mode_hand_worked_sigmoid(self, two_family_corpus):
        # t1/t2 partition the corpus symmetrically; the t1-vs-rest log-odds
        # for query {a} is ln 9, so p(t1) = 9/10 exactly (mirror for t2).
        model = nb_train(two_family_corpus, mode="direct")
        pred = predict(model, {"a"}, 0.5)
        assert pred.class_probs["t1"] == pytest.approx(0.9, abs=1e-12)
        assert pred.class_probs["t2"] == pytest.approx(0.1, abs=1e-12)
        assert pred.predicted_family is None
        assert pred.predicted_tasks == frozenset({"t1"})

    def test_direct_mode_degenerate_priors_short_circuit(self):
        # Task t is in every sample (prior 1).  A task no sample performs
        # (prior 0) is rejected by label_space (see test_methods.py).
        from taskinfer.core import Sample, build_corpus

        c = build_corpus(
            [Sample(id="s1", attribs={"a"}, family="F"),
             Sample(id="s2", attribs={"b"}, family="G")],
            {"F": frozenset({"t", "v"}), "G": frozenset({"t"})},
        )
        pred = predict(nb_train(c, mode="direct"), {"b"}, 0.5)
        assert pred.class_probs["t"] == 1.0
        assert pred.predicted_tasks == frozenset({"t"})

    def test_direct_mode_matches_enumeration_oracle(self):
        rng = random.Random(52)
        for _ in range(50):
            c = random_corpus(rng)
            sm = rng.choice((0.5, 1.0, 2.0))
            q = _random_query(rng, c)
            ref = reference_nb_task_probs(c, sm, q)
            got = predict(nb_train(c, smoothing=sm, mode="direct"), q, 0.5)
            assert tuple(got.class_probs) == tuple(ref)
            for t, p in ref.items():
                assert got.class_probs[t] == pytest.approx(p, abs=1e-10)

    def test_direct_mode_saturates_without_overflow(self):
        # Every g attribute is 6 times likelier outside t than inside, so t's
        # log odds for the 800-attribute query are about -2870: exp overflows,
        # and the sigmoid must read that as exactly 0 (and u's as exactly 1).
        rows = [(f"f{i}", {"a", f"x{i}"}, "F") for i in range(5)]
        rows += [(f"g{i}", {f"g{k}" for k in range(800)}, "G") for i in range(5)]
        c = make_corpus(rows, {"F": {"t"}, "G": {"u"}})
        pred = predict(nb_train(c, mode="direct"), {f"g{k}" for k in range(800)}, 0.5)
        assert pred.class_probs == {"t": 0.0, "u": 1.0}
        assert pred.predicted_tasks == frozenset({"u"})

    def test_rejects_bad_smoothing_mode_and_empty_query(self, two_family_corpus):
        with pytest.raises(ValueError, match="smoothing must be positive"):
            nb_train(two_family_corpus, smoothing=0.0)
        with pytest.raises(ValueError, match="mode must be one of"):
            nb_train(two_family_corpus, mode="both")
        with pytest.raises(ValueError, match="query attribute set is empty"):
            predict(nb_train(two_family_corpus), set(), 0.5)


class TestDecisionTree:
    def test_conjunction_needs_two_nested_splits(self, and_corpus):
        model = dt_train(and_corpus)
        assert model._depth == 2
        assert predict(model, {"a", "b"}, 0.5).predicted_family == "F2"
        for q in ({"a"}, {"b"}, {"z"}):
            assert predict(model, q, 0.5).predicted_family == "F1"
        # Training accuracy 1 on all 24 rows.
        for s in and_corpus.samples:
            assert predict(model, s.attribs, 0.5).predicted_family == s.family

    def test_balanced_xor_is_invisible_to_greedy_gain(self, xor_corpus):
        # Every root split leaves both children at 50/50, so the tree stays
        # a single majority leaf rather than fitting the interaction.
        model = dt_train(xor_corpus)
        assert model._depth == 0
        pred = predict(model, {"a", "z"}, 0.5)
        assert pred.class_probs["F1"] == pytest.approx(0.5)
        assert pred.class_probs["F2"] == pytest.approx(0.5)

    def test_gain_ties_break_toward_smallest_attribute(self):
        # a, b, c all split this corpus perfectly; a is lexicographically first.
        c = make_corpus(
            [("s1", {"a", "b"}, "F1"), ("s2", {"a", "b"}, "F1"),
             ("s3", {"c"}, "F2"), ("s4", {"c"}, "F2")],
            {"F1": {"t1"}, "F2": {"t2"}},
        )
        model = dt_train(c)
        assert model._split[model._roots[0]] == model.col["a"]
        assert model._depth == 1

    def test_small_nodes_are_never_split(self):
        # 100 samples; a 4-sample tail (< 5%) stays a mixed leaf even though
        # attribute w would separate it perfectly.
        rows = [(f"u{i}", {"u"}, "F1") for i in range(48)]
        rows += [(f"v{i}", {"v", "w"}, "F2") for i in range(48)]
        rows += [("ta", {"x", "w"}, "F1"), ("tb", {"x", "w"}, "F1"),
                 ("tc", {"x"}, "F2"), ("td", {"x"}, "F2")]
        big = make_corpus(rows, {"F1": {"t1"}, "F2": {"t2"}})
        model = dt_train(big)
        assert model._depth == 2
        pred = predict(model, {"x", "w"}, 0.5)
        assert pred.class_probs == {"F1": 0.5, "F2": 0.5}
        # The same tail alone clears the 5% floor and is split immediately.
        small = make_corpus(
            [("ta", {"x", "w"}, "F1"), ("tb", {"x", "w"}, "F1"),
             ("tc", {"x"}, "F2"), ("td", {"x"}, "F2")],
            {"F1": {"t1"}, "F2": {"t2"}},
        )
        model_small = dt_train(small)
        assert model_small._depth == 1
        assert predict(model_small, {"x", "w"}, 0.5).class_probs["F1"] == 1.0

    def test_attributes_are_not_reused_along_a_path(self):
        rng = random.Random(52)
        for _ in range(10):
            c = random_corpus(rng)
            model = dt_train(c)

            def check(node, used):
                if model._present[node] == node:      # a leaf
                    return
                col = model._split[node]
                assert col not in used
                check(model._present[node], used | {col})
                check(model._absent[node], used | {col})

            for root in model._roots:
                check(root, set())

    def test_direct_mode_grows_one_tree_per_task(self, shared_task_corpus):
        model = dt_train(shared_task_corpus, mode="direct")
        assert model.space.labels == ("t1", "t2", "t3")
        assert len(model._roots) == 3
        pred = predict(model, {"a", "b"}, 0.5)
        assert pred.predicted_family is None
        assert set(pred.class_probs) == {"t1", "t2", "t3"}

    def test_rejects_bad_mode_and_empty_query(self, two_family_corpus):
        with pytest.raises(ValueError, match="mode must be one of"):
            dt_train(two_family_corpus, mode="both")
        with pytest.raises(ValueError, match="query attribute set is empty"):
            predict(dt_train(two_family_corpus), set(), 0.5)


class TestRandomForest:
    def test_single_full_tree_reproduces_the_plain_tree(self):
        rng = random.Random(53)
        for _ in range(10):
            c = random_corpus(rng)
            tree = dt_train(c)
            forest = rf_train(c, n_trees=1, bootstrap=False,
                              max_features=len(c.fan))
            for _ in range(5):
                q = _random_query(rng, c)
                assert predict(forest, q, 0.5).class_probs == \
                    predict(tree, q, 0.5).class_probs

    def test_same_seed_same_forest(self, and_corpus):
        a = rf_train(and_corpus, n_trees=20, seed=9)
        b = rf_train(and_corpus, n_trees=20, seed=9)
        for q in ({"a", "b"}, {"a"}, {"b"}, {"z"}, {"a", "z"}):
            assert predict(a, q, 0.5).class_probs == predict(b, q, 0.5).class_probs

    def test_family_distribution_normalizes(self):
        rng = random.Random(54)
        for _ in range(5):
            c = random_corpus(rng)
            model = rf_train(c, n_trees=15, seed=3)
            q = _random_query(rng, c)
            pred = predict(model, q, 0.5)
            assert sum(pred.class_probs.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in pred.class_probs.values())

    def test_learns_the_conjunction_the_single_tree_learns(self, and_corpus):
        model = rf_train(and_corpus, n_trees=50, seed=1)
        assert predict(model, {"a", "b"}, 0.5).predicted_family == "F2"
        assert predict(model, {"a"}, 0.5).predicted_family == "F1"

    def test_direct_mode_probabilities(self, shared_task_corpus):
        model = rf_train(shared_task_corpus, n_trees=10, seed=2, mode="direct")
        pred = predict(model, {"a", "b"}, 0.5)
        assert pred.predicted_family is None
        assert all(0.0 <= p <= 1.0 for p in pred.class_probs.values())

    def test_rejects_bad_tree_count(self, two_family_corpus):
        with pytest.raises(ValueError, match="n_trees must be >= 1"):
            rf_train(two_family_corpus, n_trees=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_a_seed_that_is_not_a_non_negative_int(self, two_family_corpus, seed):
        with pytest.raises(ValueError,
                           match=f"^seed must be a non-negative int, got {re.escape(repr(seed))}$"):
            rf_train(two_family_corpus, n_trees=2, seed=seed)


# The forest trainer's arguments for each tree case but `dt`.  A random
# corpus has at most 10 attributes, so max_features 12 makes every available
# attribute a candidate at every node without a draw.
_FOREST_CASES = {
    "rf": dict(n_trees=7),
    "rf-no-bootstrap": dict(n_trees=4, bootstrap=False),
    "rf-all-features": dict(n_trees=5, max_features=12),
    "rf-one-tree": dict(n_trees=1),
}
_TREE_CASES = ["dt", *_FOREST_CASES]


def _train(case, corpus, mode, seed=0):
    if case == "dt":
        return dt_train(corpus, mode=mode)
    return rf_train(corpus, seed=seed, mode=mode, **_FOREST_CASES[case])


def _reference_nodes(case, corpus, mode, seed=0) -> tuple:
    """The oracle's node arrays for the model `_train` gives."""
    vocab = len(corpus.index.vocab)
    if case == "dt":
        return reference_grow_forests(corpus, mode, 1, 0, False, vocab)
    kw = {"bootstrap": True, "max_features": math.ceil(math.sqrt(vocab)),
          **_FOREST_CASES[case]}
    return reference_grow_forests(corpus, mode, kw["n_trees"], seed, kw["bootstrap"],
                                  kw["max_features"])


class TestFlatForest:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", _TREE_CASES)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_walking_all_trees_at_once_matches_one_tree_at_a_time(self, case, mode, seed):
        rng = random.Random(seed)
        c = random_corpus(rng)
        model = _train(case, c, mode, seed)
        assert model._depth == reference_forest_depth(model)
        for _ in range(5):
            q = _random_query(rng, c)
            expected = reference_forest_probs(model, q)
            got = predict(model, q, 0.5).class_probs
            assert [p.hex() for p in got.values()] == [float(p).hex() for p in expected]
            assert tuple(got) == model.space.labels


def _assert_same_nodes(model, expected):
    roots, split, present, absent, dist, depth = expected
    for got, want in ((model._roots, roots), (model._split, split),
                      (model._present, present), (model._absent, absent)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert model._dist.shape == dist.shape
    assert [p.hex() for p in model._dist.ravel().tolist()] == \
        [p.hex() for p in dist.ravel().tolist()]
    assert model._depth == depth


def _triage_corpus(samples_per_family=12):
    """A corpus of the triage spec: 5 families, one direct-mode column each."""
    corpus, _ = synthgen.generate(GenSpec(n_carriers=5, tasks_per_carrier=7,
                                          samples_per_family=samples_per_family,
                                          overlap_target=0.4, seed=1))
    return corpus


class TestLockstepGrower:
    """The lockstep grower builds exactly the trees the recursive one did."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", _TREE_CASES)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_node_arrays_match_the_recursive_grower(self, case, mode, seed):
        corpus = random_corpus(random.Random(seed))
        _assert_same_nodes(_train(case, corpus, mode, seed),
                           _reference_nodes(case, corpus, mode, seed))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", _TREE_CASES)
    def test_single_class_roots_are_leaves(self, case, mode):
        rng = random.Random(7)
        corpus = make_corpus([(f"s{i}", set(rng.sample("abcdef", 3)), "F") for i in range(12)],
                             {"F": {"t1", "t2"}})
        model = _train(case, corpus, mode, seed=5)
        _assert_same_nodes(model, _reference_nodes(case, corpus, mode, seed=5))
        assert model._split.size == model._roots.size
        assert model._present.tolist() == list(range(model._roots.size))

    def test_nodes_with_fewer_attributes_than_max_features(self, monkeypatch):
        # Seven patterns over three attributes, one family each: with two
        # candidates per node, a depth-2 node has one attribute left, and the
        # batch that scores it pads it beside nodes with two.
        rows = [(f"s{p}{i}", {a for k, a in enumerate("abc") if p >> k & 1}, f"F{p}")
                for p in range(1, 8) for i in range(3)]
        corpus = make_corpus(rows, {f"F{p}": {f"t{p}"} for p in range(1, 8)})
        widths = []
        best_splits = baselines._best_splits

        def spy(x, rows, sizes, counts, cand, width):
            widths.append(set(width.tolist()))
            return best_splits(x, rows, sizes, counts, cand, width)

        monkeypatch.setattr(baselines, "_best_splits", spy)
        for mode in MODES:
            model = rf_train(corpus, n_trees=10, seed=3, mode=mode, max_features=2)
            _assert_same_nodes(model, reference_grow_forests(corpus, mode, 10, 3, True, 2))
        assert any(w == {1, 2} for w in widths)

    @pytest.mark.parametrize("mode", MODES)
    def test_triage_spec_corpus(self, mode):
        corpus = _triage_corpus()
        vocab = len(corpus.index.vocab)
        _assert_same_nodes(rf_train(corpus, mode=mode),
                           reference_grow_forests(corpus, mode, 100, 0, True,
                                                  math.ceil(math.sqrt(vocab))))
        _assert_same_nodes(dt_train(corpus, mode=mode),
                           reference_grow_forests(corpus, mode, 1, 0, False, vocab))

    @pytest.mark.parametrize("case", _TREE_CASES)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_forests_grown_in_several_groups_match_the_recursive_grower(self, case, seed):
        # _GROUP_ROWS is cut to two forests' root rows, and _BATCH_CELLS to
        # their gathered cells, so the direct-mode forests of three or more
        # columns grow in several groups, each scored in several batches.
        corpus = random_corpus(random.Random(seed), max_families=5, max_tasks=6)
        assume(len(label_space(corpus, "direct").columns) >= 3)
        n_trees = _FOREST_CASES[case]["n_trees"] if case != "dt" else 1
        groups = []
        grow = baselines._grow_forest

        def spy(x, y, *rest):
            groups.append(len(y))
            return grow(x, y, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baselines, "_GROUP_ROWS", 2 * n_trees * corpus.size)
            patch.setattr(baselines, "_BATCH_CELLS", 2 * n_trees * corpus.size)
            patch.setattr(baselines, "_grow_forest", spy)
            model = _train(case, corpus, "direct", seed)
        _assert_same_nodes(model, _reference_nodes(case, corpus, "direct", seed))
        assert len(groups) >= 2 and set(groups[:-1]) == {2 * n_trees}

    @pytest.mark.parametrize("samples_per_family,mode", [(12, "direct"), (60, "family")])
    def test_growing_stays_within_a_memory_bound(self, samples_per_family, mode):
        # Forests grow together while their stacked root rows stay within
        # _GROUP_ROWS, and each step is scored in batches of at most
        # _BATCH_CELLS gathered cells: the peaks are about 4.1 MB (60
        # samples, all five direct-mode forests in one group) and 2.9 MB
        # (300 samples, one family forest).  Unbatched, one forest at a
        # time, they were 2.1 and 8.4 MB.
        corpus = _triage_corpus(samples_per_family)
        corpus.index                                # built outside the measurement
        tracemalloc.start()
        try:
            rf_train(corpus, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


# Every positive float up to 1e308 log-uniformly, with the edges and the
# default: the ascent's step size, and its penalty (which may also be 0).
_LEARNING_RATE = st.one_of(st.sampled_from((5e-324, 1e308, 0.1)),
                           st.floats(math.log(5e-324), math.log(1e308)).map(math.exp))
_L2 = st.one_of(st.sampled_from((0.0, 5e-324, 1e308, 1e-3)),
                st.floats(math.log(5e-324), math.log(1e308)).map(math.exp))


class TestLogisticRegression:
    def test_objective_at_zero_weights_is_uniform_loglik(self):
        # 3 samples, 2 classes, no penalty: ll = -ln 2; grad_b = mean residual.
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        w = np.zeros((2, 2))
        b = np.zeros(2)
        obj, gw, gb = logreg_objective(w, b, x, y, l2=0.0)
        assert obj == pytest.approx(-math.log(2), abs=1e-12)
        assert gb == pytest.approx([1 / 3 - 0.5, 2 / 3 - 0.5], abs=1e-12)

    def test_penalty_subtracts_half_l2_norm(self):
        x = np.array([[1.0]])
        y = np.array([[1.0, 0.0]])
        w = np.array([[2.0], [0.0]])
        b = np.zeros(2)
        obj0, _, _ = logreg_objective(w, b, x, y, l2=0.0)
        obj1, gw1, _ = logreg_objective(w, b, x, y, l2=0.5)
        assert obj1 == pytest.approx(obj0 - 0.5 * 0.5 * 4.0, abs=1e-12)

    def test_analytic_gradient_matches_central_differences(self):
        rng = np.random.default_rng(55)
        x = rng.random((12, 5)) < 0.5
        y_idx = rng.integers(0, 3, size=12)
        y = (y_idx[:, None] == np.arange(3)).astype(float)
        xf = x.astype(float)
        h = 1e-6
        for _ in range(10):
            w = rng.normal(size=(3, 5))
            b = rng.normal(size=3)
            _, gw, gb = logreg_objective(w, b, xf, y, l2=0.01)
            for _ in range(5):
                i, j = rng.integers(0, 3), rng.integers(0, 5)
                wp, wm = w.copy(), w.copy()
                wp[i, j] += h
                wm[i, j] -= h
                op, _, _ = logreg_objective(wp, b, xf, y, l2=0.01)
                om, _, _ = logreg_objective(wm, b, xf, y, l2=0.01)
                num = (op - om) / (2 * h)
                assert gw[i, j] == pytest.approx(num, abs=1e-6, rel=1e-5)

    def test_separable_corpus_is_fit_perfectly(self, two_family_corpus):
        model = logreg_train(two_family_corpus)
        for s in two_family_corpus.samples:
            pred = predict(model, s.attribs, 0.5)
            assert pred.predicted_family == s.family
            assert sum(pred.class_probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert model.grad_norm < 0.05

    def test_direct_mode_mirrors_on_a_symmetric_partition(self, two_family_corpus):
        # t1/t2 partition the corpus and mirror each other, so their sigmoid
        # scores are complementary.
        model = logreg_train(two_family_corpus, mode="direct")
        pred = predict(model, {"a"}, 0.5)
        assert pred.class_probs["t1"] > 0.9
        assert pred.class_probs["t1"] + pred.class_probs["t2"] == pytest.approx(
            1.0, abs=1e-9
        )
        assert pred.predicted_tasks == frozenset({"t1"})

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_ascent_matches_a_fit_per_task(self, seed):
        c = random_corpus(random.Random(seed), max_families=5, max_tasks=6)
        model = logreg_train(c, mode="direct", epochs=40)
        weight, bias = reference_logreg_direct(c, 0.1, 1e-3, 40)
        per_task = model.space.column_of
        assert np.allclose(model.weight[per_task], weight, rtol=0, atol=1e-12)
        assert np.allclose(model.bias[per_task], bias, rtol=0, atol=1e-12)
        vocab = sorted(c.fan)
        for s in c.samples:
            pred = predict(model, s.attribs, 0.5)
            want = {}
            for t, wt, bt in zip(sorted(c.tasks), weight, bias):
                z = bt + sum(wt[j] for j, a in enumerate(vocab) if a in s.attribs)
                want[t] = 1.0 / (1.0 + math.exp(-z))
            assert list(pred.class_probs) == list(want)
            for t, p in want.items():
                assert pred.class_probs[t] == pytest.approx(p, rel=0, abs=1e-12)
            assert pred.predicted_tasks == {t for t, p in want.items() if p >= 0.5}

    def test_training_is_deterministic(self, two_family_corpus):
        a = logreg_train(two_family_corpus, epochs=50)
        b = logreg_train(two_family_corpus, epochs=50)
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", ["tall", "wide"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           learning_rate=st.floats(0.01, 0.3), l2=st.floats(0.0, 0.05),
           epochs=st.integers(1, 80))
    # Two equal rows of different families: the true gradient is 0, and the
    # Gram form's norm is 1.7e-15 of rounding in family mode.
    @example(seed=339, learning_rate=0.0698, l2=0.0, epochs=14)
    @settings(max_examples=20, deadline=None)
    def test_gram_ascent_matches_the_primal_oracle(self, mode, shape, seed, learning_rate,
                                                    l2, epochs):
        # More rows than attributes ("tall") or fewer ("wide").
        rng = random.Random(seed)
        if shape == "tall":
            corpus = random_corpus(rng, max_samples=30, max_attrs=4)
        else:
            corpus = random_corpus(rng, max_samples=6, max_attrs=30)
        rows, attrs = corpus.size, len(corpus.index.vocab)
        assume(rows > attrs if shape == "tall" else rows < attrs)
        model = logreg_train(corpus, learning_rate, l2, epochs, mode)
        want = reference_logreg(corpus, learning_rate, l2, epochs, mode)
        # Each gradient entry sums `rows` terms of at most 1 + l2 * |w| in
        # magnitude (|y - p| <= 1 and x is 0 or 1), so the two forms' rounding
        # can part it by about rows * eps times that, and the norm by
        # sqrt(entries) times more: a gradient that cancels to 0 has no
        # relative error to bound.
        entries = (want.weight.size + want.bias.size) * (2 if mode == "direct" else 1)
        rounding = (rows * np.finfo(float).eps * math.sqrt(entries)
                    * (1 + l2 * np.abs(want.weight).max()))
        assert model.grad_norm == pytest.approx(want.grad_norm, rel=1e-9, abs=rounding)
        for q in [s.attribs for s in corpus.samples] + [frozenset({"a0", "novel"})]:
            got = predict(model, q, 0.5).class_probs
            expected = predict(want, q, 0.5).class_probs
            assert list(got) == list(expected)
            assert max(abs(g - e) for g, e in zip(got.values(), expected.values())) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    def test_divergence_raises_a_training_error(self, two_family_corpus, mode):
        # The Gram ascent fails at the epoch the primal one does.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="non-finite objective at epoch") as got:
                logreg_train(two_family_corpus, learning_rate=1e12, mode=mode)
            with pytest.raises(TrainingError) as want:
                reference_logreg(two_family_corpus, 1e12, 1e-3, 500, mode)
        assert str(got.value) == str(want.value)

    def test_rejects_bad_hyperparameters(self, two_family_corpus):
        # Each is refused by name: a rate that is not positive and finite, an
        # l2 that is not non-negative and finite, an epochs that is not an
        # int of at least 1.
        for name, value in (("learning_rate", 0.0), ("learning_rate", -1e-300),
                            ("learning_rate", math.inf), ("learning_rate", math.nan),
                            ("l2", -1.0), ("l2", -5e-324), ("l2", math.inf), ("l2", math.nan),
                            ("epochs", 0), ("epochs", 2.0), ("epochs", True)):
            with pytest.raises(ValueError, match=f"^{name} "):
                logreg_train(two_family_corpus, **{name: value})

    @pytest.mark.parametrize("mode", MODES)
    @given(seed=st.integers(0, 2**32 - 1), learning_rate=_LEARNING_RATE, l2=_L2,
           epochs=st.integers(1, 30))
    @example(seed=0, learning_rate=1e300, l2=1e-3, epochs=30)      # fails at epoch 1
    @example(seed=0, learning_rate=0.1, l2=1e300, epochs=30)       # fails at epoch 2
    @example(seed=0, learning_rate=1e308, l2=0.0, epochs=1)        # the final weights fail
    @settings(max_examples=60, deadline=None)
    def test_every_accepted_hyperparameter_set_predicts_finitely_or_diverges_loudly(
            self, mode, seed, learning_rate, l2, epochs):
        # Training gives finite probabilities with no warning, or raises the
        # TrainingError that the primal oracle raises, at the same epoch.
        corpus = random_corpus(random.Random(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                model = logreg_train(corpus, learning_rate, l2, epochs, mode)
            except TrainingError as e:
                got = str(e)
            else:
                got = None
                for q in [s.attribs for s in corpus.samples] + [frozenset({"a0", "novel"})]:
                    probs = list(predict(model, q, 0.5).class_probs.values())
                    assert all(math.isfinite(p) for p in probs), (q, probs)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            try:
                reference_logreg(corpus, learning_rate, l2, epochs, mode)
            except TrainingError as e:
                want = str(e)
            else:
                want = None
        assert got == want
