"""Baseline classifiers: naive Bayes, decision tree, forest, logistic regression.

Expected numbers are frozen from hand arithmetic over four-sample corpora
(worked in the comments) or recomputed by the brute-force enumeration oracle.
"""

import math
import random

import numpy as np
import pytest

from oracles import random_corpus, reference_nb_posterior
from taskinfer.baselines import (
    TrainingError,
    dt_predict,
    dt_train,
    logreg_objective,
    logreg_predict,
    logreg_train,
    nb_predict,
    nb_train,
    rf_predict,
    rf_train,
)

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
        pred = nb_predict(model, {"a"})
        assert pred.class_probs["F1"] == pytest.approx(0.9, abs=1e-12)
        assert pred.class_probs["F2"] == pytest.approx(0.1, abs=1e-12)
        assert pred.predicted_family == "F1"
        assert pred.predicted_tasks == frozenset({"t1"})

    def test_conditional_probability_accessor(self, two_family_corpus):
        model = nb_train(two_family_corpus)
        assert model.cond_prob("a", "F1") == pytest.approx(0.75)
        assert model.cond_prob("b", "F1") == pytest.approx(0.5)
        assert model.cond_prob("c", "F1") == pytest.approx(0.25)
        # Unseen attribute: the smoothing floor 1 / (2 + 2).
        assert model.cond_prob("zz", "F1") == pytest.approx(0.25)
        assert model.priors == {"F1": 0.5, "F2": 0.5}

    def test_indistinguishable_families_split_mass(self):
        c = make_corpus(
            [("s1", {"a"}, "F1"), ("s2", {"a"}, "F2")],
            {"F1": {"t1"}, "F2": {"t2"}},
        )
        pred = nb_predict(nb_train(c), {"a"})
        assert pred.class_probs["F1"] == pytest.approx(0.5, abs=1e-15)
        assert pred.predicted_family == "F1"  # lexicographic tie-break

    def test_matches_enumeration_oracle(self):
        rng = random.Random(51)
        for _ in range(50):
            c = random_corpus(rng)
            sm = rng.choice((0.5, 1.0, 2.0))
            q = _random_query(rng, c)
            ref = reference_nb_posterior(c, sm, q)
            got = nb_predict(nb_train(c, smoothing=sm), q)
            for f, p in ref.items():
                assert got.class_probs[f] == pytest.approx(p, abs=1e-10)

    def test_direct_mode_hand_worked_sigmoid(self, two_family_corpus):
        # t1/t2 partition the corpus symmetrically; the t1-vs-rest log-odds
        # for query {a} is ln 9, so p(t1) = 9/10 exactly (mirror for t2).
        model = nb_train(two_family_corpus, mode="direct")
        pred = nb_predict(model, {"a"})
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
        pred = nb_predict(nb_train(c, mode="direct"), {"b"})
        assert pred.class_probs["t"] == 1.0
        assert pred.predicted_tasks == frozenset({"t"})

    def test_rejects_bad_smoothing_mode_and_empty_query(self, two_family_corpus):
        with pytest.raises(ValueError, match="smoothing must be positive"):
            nb_train(two_family_corpus, smoothing=0.0)
        with pytest.raises(ValueError, match="mode must be one of"):
            nb_train(two_family_corpus, mode="both")
        with pytest.raises(ValueError, match="query attribute set is empty"):
            nb_predict(nb_train(two_family_corpus), set())


class TestDecisionTree:
    def test_conjunction_needs_two_nested_splits(self, and_corpus):
        model = dt_train(and_corpus)
        assert model.depth() == 2
        assert dt_predict(model, {"a", "b"}).predicted_family == "F2"
        for q in ({"a"}, {"b"}, {"z"}):
            assert dt_predict(model, q).predicted_family == "F1"
        # Training accuracy 1 on all 24 rows.
        for s in and_corpus.samples:
            assert dt_predict(model, s.attribs).predicted_family == s.family

    def test_balanced_xor_is_invisible_to_greedy_gain(self, xor_corpus):
        # Every root split leaves both children at 50/50, so the tree stays
        # a single majority leaf rather than fitting the interaction.
        model = dt_train(xor_corpus)
        assert model.depth() == 0
        pred = dt_predict(model, {"a", "z"})
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
        root = model._roots[0]
        assert model.vocab[root.attr_col] == "a"
        assert model.depth() == 1

    def test_small_nodes_are_never_split(self):
        # 100 samples; a 4-sample tail (< 5%) stays a mixed leaf even though
        # attribute w would separate it perfectly.
        rows = [(f"u{i}", {"u"}, "F1") for i in range(48)]
        rows += [(f"v{i}", {"v", "w"}, "F2") for i in range(48)]
        rows += [("ta", {"x", "w"}, "F1"), ("tb", {"x", "w"}, "F1"),
                 ("tc", {"x"}, "F2"), ("td", {"x"}, "F2")]
        big = make_corpus(rows, {"F1": {"t1"}, "F2": {"t2"}})
        model = dt_train(big)
        assert model.depth() == 2
        pred = dt_predict(model, {"x", "w"})
        assert pred.class_probs == {"F1": 0.5, "F2": 0.5}
        # The same tail alone clears the 5% floor and is split immediately.
        small = make_corpus(
            [("ta", {"x", "w"}, "F1"), ("tb", {"x", "w"}, "F1"),
             ("tc", {"x"}, "F2"), ("td", {"x"}, "F2")],
            {"F1": {"t1"}, "F2": {"t2"}},
        )
        model_small = dt_train(small)
        assert model_small.depth() == 1
        assert dt_predict(model_small, {"x", "w"}).class_probs["F1"] == 1.0

    def test_attributes_are_not_reused_along_a_path(self):
        rng = random.Random(52)
        for _ in range(10):
            c = random_corpus(rng)
            model = dt_train(c)

            def check(node, used):
                if node.attr_col is None:
                    return
                assert node.attr_col not in used
                check(node.present, used | {node.attr_col})
                check(node.absent, used | {node.attr_col})

            for root in model._roots:
                check(root, set())

    def test_direct_mode_grows_one_tree_per_task(self, shared_task_corpus):
        model = dt_train(shared_task_corpus, mode="direct")
        assert model.labels == ("t1", "t2", "t3")
        assert len(model._roots) == 3
        pred = dt_predict(model, {"a", "b"})
        assert pred.predicted_family is None
        assert set(pred.class_probs) == {"t1", "t2", "t3"}

    def test_rejects_bad_mode_and_empty_query(self, two_family_corpus):
        with pytest.raises(ValueError, match="mode must be one of"):
            dt_train(two_family_corpus, mode="both")
        with pytest.raises(ValueError, match="query attribute set is empty"):
            dt_predict(dt_train(two_family_corpus), set())


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
                assert rf_predict(forest, q).class_probs == \
                    dt_predict(tree, q).class_probs

    def test_same_seed_same_forest(self, and_corpus):
        a = rf_train(and_corpus, n_trees=20, seed=9)
        b = rf_train(and_corpus, n_trees=20, seed=9)
        for q in ({"a", "b"}, {"a"}, {"b"}, {"z"}, {"a", "z"}):
            assert rf_predict(a, q).class_probs == rf_predict(b, q).class_probs

    def test_family_distribution_normalizes(self):
        rng = random.Random(54)
        for _ in range(5):
            c = random_corpus(rng)
            model = rf_train(c, n_trees=15, seed=3)
            q = _random_query(rng, c)
            pred = rf_predict(model, q)
            assert sum(pred.class_probs.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in pred.class_probs.values())

    def test_learns_the_conjunction_the_single_tree_learns(self, and_corpus):
        model = rf_train(and_corpus, n_trees=50, seed=1)
        assert rf_predict(model, {"a", "b"}).predicted_family == "F2"
        assert rf_predict(model, {"a"}).predicted_family == "F1"

    def test_direct_mode_probabilities(self, shared_task_corpus):
        model = rf_train(shared_task_corpus, n_trees=10, seed=2, mode="direct")
        pred = rf_predict(model, {"a", "b"})
        assert pred.predicted_family is None
        assert all(0.0 <= p <= 1.0 for p in pred.class_probs.values())

    def test_rejects_bad_tree_count(self, two_family_corpus):
        with pytest.raises(ValueError, match="n_trees must be >= 1"):
            rf_train(two_family_corpus, n_trees=0)


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
            pred = logreg_predict(model, s.attribs)
            assert pred.predicted_family == s.family
            assert sum(pred.class_probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert model.grad_norm < 0.05

    def test_direct_mode_mirrors_on_a_symmetric_partition(self, two_family_corpus):
        # t1/t2 partition the corpus and mirror each other, so their sigmoid
        # scores are complementary.
        model = logreg_train(two_family_corpus, mode="direct")
        pred = logreg_predict(model, {"a"})
        assert pred.class_probs["t1"] > 0.9
        assert pred.class_probs["t1"] + pred.class_probs["t2"] == pytest.approx(
            1.0, abs=1e-9
        )
        assert pred.predicted_tasks == frozenset({"t1"})

    def test_training_is_deterministic(self, two_family_corpus):
        a = logreg_train(two_family_corpus, epochs=50)
        b = logreg_train(two_family_corpus, epochs=50)
        assert np.array_equal(a._w, b._w) and np.array_equal(a._b, b._b)

    def test_divergence_raises_a_training_error(self, two_family_corpus):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="non-finite objective at epoch"):
                logreg_train(two_family_corpus, learning_rate=1e12)

    def test_rejects_bad_hyperparameters(self, two_family_corpus):
        for kwargs in ({"learning_rate": 0.0}, {"epochs": 0}, {"l2": -1.0}):
            with pytest.raises(ValueError):
                logreg_train(two_family_corpus, **kwargs)
