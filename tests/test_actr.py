"""Activation models: instance memory, retrieval distribution, rule tables.

Expected numbers in this module are frozen from hand arithmetic over tiny
corpora (worked in the comments where they appear), so a regression in the
scoring math cannot hide behind a matching reimplementation.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    random_corpus,
    random_params,
    reference_ib_probs,
    reference_ib_tasks,
    reference_rb_probs,
)
from taskinfer.actr import (
    IbModel,
    ib_activation,
    ib_predict,
    rb_predict,
    rb_train,
    retrieval_probs,
)
from taskinfer.core import ActrParams

from conftest import make_corpus

# Two chunks: {a,b} under F1 and {c} under F2; every attribute has fan 1.
TINY = [
    ("s1", {"a", "b"}, "F1"),
    ("s2", {"c"}, "F2"),
]
TINY_FAMS = {"F1": {"t1"}, "F2": {"t2"}}


@pytest.fixture
def tiny_corpus():
    return make_corpus(TINY, TINY_FAMS)


class TestIbActivation:
    # Hand values for corpus TINY (|M| = 2, every fan = 1), defaults
    # beta = 20, mp = 20, partial_matching = "overlap":
    #
    # chunk {a,b}, query {a,b}:
    #   S = (ln(2/1) + ln(2/1)) / 2 = ln 2          = 0.6931471805599453
    #   P = 20 * 2 / sqrt(2*2) = 20
    # chunk {c}, query {a,b}:
    #   S = (ln(1/2) + ln(1/2)) / 2 = -ln 2         = -0.6931471805599453
    #   P = 0
    # chunk {a,b}, query {a}:
    #   S = ln(2/1) / 1 = ln 2
    #   P = 20 * 1 / sqrt(1*2) = 20 / sqrt 2        = 14.142135623730951

    def test_full_match_terms(self, tiny_corpus):
        act = ib_activation(tiny_corpus, ActrParams(), {"a", "b"}, 0)
        assert act.base == 20.0
        assert act.spreading == pytest.approx(0.6931471805599453, abs=1e-15)
        assert act.partial_match == pytest.approx(20.0, abs=1e-15)
        assert act.total == pytest.approx(40.693147180559945, abs=1e-12)

    def test_full_mismatch_terms(self, tiny_corpus):
        act = ib_activation(tiny_corpus, ActrParams(), {"a", "b"}, 1)
        assert act.spreading == pytest.approx(-0.6931471805599453, abs=1e-15)
        assert act.partial_match == 0.0
        assert act.total == pytest.approx(19.306852819440055, abs=1e-12)

    def test_partial_overlap_terms(self, tiny_corpus):
        act = ib_activation(tiny_corpus, ActrParams(), {"a"}, 0)
        assert act.spreading == pytest.approx(0.6931471805599453, abs=1e-15)
        assert act.partial_match == pytest.approx(14.142135623730951, abs=1e-12)
        assert act.total == pytest.approx(34.835282804290896, abs=1e-12)

    def test_deficit_variant_shifts_partial_term_by_minus_mp(self, tiny_corpus):
        # deficit: P = 20 * (1/sqrt 2 - 1) = -5.857864376269049
        act = ib_activation(
            tiny_corpus, ActrParams(partial_matching="deficit"), {"a"}, 0
        )
        assert act.partial_match == pytest.approx(-5.857864376269049, abs=1e-12)
        assert act.total == pytest.approx(14.835282804290896, abs=1e-12)

    def test_fan_divides_spreading(self):
        # Attribute shared by 2 of 4 samples: hit term ln(4/2) = ln 2.
        c = make_corpus(
            [
                ("s1", {"a"}, "F1"),
                ("s2", {"a"}, "F1"),
                ("s3", {"b"}, "F2"),
                ("s4", {"c"}, "F2"),
            ],
            TINY_FAMS,
        )
        act = ib_activation(c, ActrParams(), {"a"}, 0)
        assert act.spreading == pytest.approx(math.log(2), abs=1e-15)

    def test_unseen_query_attribute_counts_as_miss(self, tiny_corpus):
        # query {a, zz}: hit ln 2 + miss ln(1/2), averaged -> 0.
        act = ib_activation(tiny_corpus, ActrParams(), {"a", "zz"}, 0)
        assert act.spreading == pytest.approx(0.0, abs=1e-15)
        # overlap = 1 / sqrt(2*2) = 0.5
        assert act.partial_match == pytest.approx(10.0, abs=1e-12)

    def test_rejects_empty_query_and_bad_index(self, tiny_corpus):
        with pytest.raises(ValueError, match="query attribute set is empty"):
            ib_activation(tiny_corpus, ActrParams(), set(), 0)
        with pytest.raises(IndexError):
            ib_activation(tiny_corpus, ActrParams(), {"a"}, 2)


class TestRetrievalProbs:
    def test_two_chunk_distribution_frozen_values(self):
        # activations [1, 0] at s = 1: [e/(e+1), 1/(e+1)].
        probs, degenerate = retrieval_probs([1.0, 0.0], ActrParams(s=1.0))
        assert probs[0] == pytest.approx(0.7310585786300049, abs=1e-15)
        assert probs[1] == pytest.approx(0.2689414213699951, abs=1e-15)
        assert not degenerate

    def test_threshold_excludes_low_chunks(self):
        probs, degenerate = retrieval_probs([1.0, 0.0], ActrParams(s=1.0, tau=0.5))
        assert probs == [1.0, 0.0]
        assert not degenerate

    def test_all_below_threshold_falls_back_to_every_chunk(self):
        probs, degenerate = retrieval_probs([1.0, 0.0], ActrParams(s=1.0, tau=50.0))
        assert degenerate
        assert probs[0] == pytest.approx(0.7310585786300049, abs=1e-15)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_extreme_activations_do_not_overflow(self):
        probs, _ = retrieval_probs([1e5, 0.0], ActrParams(s=0.1))
        assert probs == [1.0, 0.0]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no activations"):
            retrieval_probs([], ActrParams())

    @given(
        acts=st.lists(
            st.floats(min_value=-40, max_value=40, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        shift=st.floats(min_value=-25, max_value=25, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalized_and_shift_invariant(self, acts, shift):
        params = ActrParams(s=0.7)
        probs, _ = retrieval_probs(acts, params, apply_threshold=False)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert all(p >= 0.0 for p in probs)
        shifted, _ = retrieval_probs(
            [a + shift for a in acts], params, apply_threshold=False
        )
        for p, q in zip(probs, shifted):
            assert q == pytest.approx(p, abs=1e-9)


class TestIbModel:
    def test_two_chunk_worked_example(self, tiny_corpus):
        # Activation gap 40.69 vs 19.31 at s = 0.1 -> all mass on chunk 0.
        pred = ib_predict(tiny_corpus, ActrParams(), {"a", "b"})
        assert pred.class_probs["F1"] == pytest.approx(1.0, abs=1e-12)
        assert pred.class_probs["F2"] == pytest.approx(0.0, abs=1e-12)
        assert pred.predicted_family == "F1"
        assert pred.predicted_tasks == frozenset({"t1"})
        assert pred.retained_chunks == 2
        assert not pred.degenerate

    def test_threshold_between_chunks_retains_one(self, tiny_corpus):
        pred = ib_predict(tiny_corpus, ActrParams(tau=30.0), {"a", "b"})
        assert pred.retained_chunks == 1
        assert pred.class_probs == {"F1": 1.0, "F2": 0.0}

    def test_unreachable_threshold_flags_degenerate(self, tiny_corpus):
        pred = ib_predict(tiny_corpus, ActrParams(tau=100.0), {"a", "b"})
        assert pred.degenerate
        assert pred.retained_chunks == 0
        assert sum(pred.class_probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_activation_on_random_corpora(self):
        rng = random.Random(21)
        for _ in range(30):
            c = random_corpus(rng)
            params = random_params(rng)
            model = IbModel(c, params)
            vocab = sorted(c.fan)
            q = frozenset(rng.sample(vocab, rng.randint(1, min(4, len(vocab)))))
            vec = model.activations(q)
            for j in range(len(c)):
                assert vec[j] == pytest.approx(
                    ib_activation(c, params, q, j).total, abs=1e-10
                )

    def test_matches_reference_transcription(self):
        rng = random.Random(22)
        for _ in range(30):
            c = random_corpus(rng)
            params = random_params(rng)
            vocab = sorted(c.fan)
            q = set(rng.sample(vocab, rng.randint(1, min(4, len(vocab)))))
            if rng.random() < 0.3:
                q.add("novel")
            for mode in ("family", "direct"):
                ref, ref_degenerate = reference_ib_probs(c, params, q, mode)
                got = ib_predict(c, params, q, mode=mode)
                assert got.degenerate == ref_degenerate
                for label, p in ref.items():
                    assert got.class_probs[label] == pytest.approx(p, abs=1e-10)
            ref_tasks = reference_ib_tasks(c, params, q)
            assert ib_predict(c, params, q, mode="family").predicted_tasks == ref_tasks

    def test_sample_order_does_not_change_probabilities(self, shared_task_corpus):
        from taskinfer.core import Corpus

        params = ActrParams()
        fwd = ib_predict(shared_task_corpus, params, {"a", "b"})
        rev_corpus = Corpus(
            tuple(reversed(shared_task_corpus.samples)), shared_task_corpus.families
        )
        rev = ib_predict(rev_corpus, params, {"a", "b"})
        for f in fwd.class_probs:
            assert rev.class_probs[f] == pytest.approx(fwd.class_probs[f], abs=1e-12)
        assert rev.predicted_family == fwd.predicted_family
        assert rev.predicted_tasks == fwd.predicted_tasks

    def test_deficit_and_overlap_agree_when_threshold_inactive(self):
        # The deficit term is the overlap term shifted by -mp on every chunk,
        # so with tau too low to bind the retrieval distribution is identical.
        rng = random.Random(23)
        for _ in range(20):
            c = random_corpus(rng)
            vocab = sorted(c.fan)
            q = frozenset(rng.sample(vocab, rng.randint(1, min(4, len(vocab)))))
            kw = dict(beta=2.0, s=0.8, tau=-1e9, mp=3.0)
            p_over = ib_predict(c, ActrParams(partial_matching="overlap", **kw), q)
            p_def = ib_predict(c, ActrParams(partial_matching="deficit", **kw), q)
            for f in p_over.class_probs:
                assert p_def.class_probs[f] == pytest.approx(
                    p_over.class_probs[f], abs=1e-10
                )

    def test_direct_mode_reports_per_task_mass(self, shared_task_corpus):
        pred = ib_predict(shared_task_corpus, ActrParams(), {"a", "b"}, mode="direct")
        assert pred.predicted_family is None
        assert set(pred.class_probs) == {"t1", "t2", "t3"}
        # Task masses need not sum to 1: families carry several tasks each.
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in pred.class_probs.values())

    def test_rejects_empty_corpus_empty_query_bad_mode(self, tiny_corpus):
        from taskinfer.core import Corpus

        with pytest.raises(ValueError, match="empty corpus"):
            IbModel(Corpus((), {}), ActrParams())
        with pytest.raises(ValueError, match="query attribute set is empty"):
            IbModel(tiny_corpus, ActrParams()).predict(set())
        with pytest.raises(ValueError, match="mode must be one of"):
            IbModel(tiny_corpus, ActrParams(), mode="both")


class TestRuleTable:
    # Hand counts for the four-sample corpus (two per family):
    #   a: 2 in F1, 0 in F2      b: 1 in F1, 1 in F2      c: 0 in F1, 2 in F2
    # With smoothing 1: p(a|F1) = (2+1)/(2+2) = 3/4, p(a|~F1) = (0+1)/(2+2) = 1/4.

    def test_smoothed_rule_values(self, two_family_corpus):
        rules = rb_train(two_family_corpus)
        f1, f2 = rules.space.labels.index("F1"), rules.space.labels.index("F2")
        a, b = rules.col["a"], rules.col["b"]
        assert rules.given[f1, a] == pytest.approx(0.75)
        assert rules.not_given[f1, a] == pytest.approx(0.25)
        assert rules.given[f2, a] == pytest.approx(0.25)
        assert rules.not_given[f2, a] == pytest.approx(0.75)
        assert rules.given[f1, b] == pytest.approx(0.5)
        assert rules.given[f2, b] == pytest.approx(0.5)
        assert rules.priors == {"F1": 0.5, "F2": 0.5}

    def test_rules_converge_to_empirical_rates_as_smoothing_vanishes(
        self, two_family_corpus
    ):
        rules = rb_train(two_family_corpus, smoothing=1e-9)
        f1, a = rules.space.labels.index("F1"), rules.col["a"]
        assert rules.given[f1, a] == pytest.approx(1.0, abs=1e-8)
        assert rules.not_given[f1, a] == pytest.approx(0.0, abs=1e-8)

    def test_discriminative_attribute_worked_example(self, two_family_corpus):
        # w = 1, s = 1, query {a}:
        #   assoc(F1) = ln(3/4 / 1/4) = ln 3, assoc(F2) = -ln 3
        #   A_F1 - A_F2 = 2 ln 3 = ln 9  ->  p(F1) = 9/10 exactly.
        rules = rb_train(two_family_corpus)
        pred = rb_predict(rules, ActrParams(w=1.0, s=1.0), {"a"})
        assert pred.class_probs["F1"] == pytest.approx(0.9, abs=1e-12)
        assert pred.class_probs["F2"] == pytest.approx(0.1, abs=1e-12)
        assert pred.predicted_family == "F1"
        assert pred.predicted_tasks == frozenset({"t1"})

    def test_balanced_attribute_splits_mass_evenly(self, two_family_corpus):
        # b appears once per family: associations cancel exactly.
        rules = rb_train(two_family_corpus)
        pred = rb_predict(rules, ActrParams(w=1.0, s=1.0), {"b"})
        assert pred.class_probs["F1"] == pytest.approx(0.5, abs=1e-15)
        assert pred.class_probs["F2"] == pytest.approx(0.5, abs=1e-15)

    def test_unknown_attributes_dilute_but_do_not_score(self, two_family_corpus):
        # Query {a, zz}: assoc halves (divided by full query size) ->
        # gap ln 3 -> p(F1) = 3/4 exactly.
        rules = rb_train(two_family_corpus)
        pred = rb_predict(rules, ActrParams(w=1.0, s=1.0), {"a", "zz"})
        assert pred.class_probs["F1"] == pytest.approx(0.75, abs=1e-12)

    def test_fully_unknown_query_ties_on_priors(self, two_family_corpus):
        rules = rb_train(two_family_corpus)
        pred = rb_predict(rules, ActrParams(w=1.0, s=1.0), {"zz", "yy"})
        assert pred.class_probs["F1"] == pytest.approx(0.5, abs=1e-15)
        assert pred.predicted_family == "F1"  # lexicographic tie-break

    def test_default_temperature_saturates_the_same_example(self, two_family_corpus):
        rules = rb_train(two_family_corpus)
        pred = rb_predict(rules, ActrParams(), {"a"})
        assert pred.class_probs["F1"] == pytest.approx(1.0, abs=1e-12)

    def test_direct_mode_thresholds_each_task(self, two_family_corpus):
        rules = rb_train(two_family_corpus, mode="direct")
        assert rules.priors == {"t1": 0.5, "t2": 0.5}
        pred = rb_predict(rules, ActrParams(w=1.0, s=0.1), {"a"})
        assert pred.predicted_family is None
        assert pred.class_probs["t1"] > 0.99
        assert pred.class_probs["t2"] < 0.01
        assert pred.predicted_tasks == frozenset({"t1"})

    def test_direct_mode_antisymmetry(self, two_family_corpus):
        # t1 and t2 partition this corpus, so their scores mirror exactly.
        rules = rb_train(two_family_corpus, mode="direct")
        pred = rb_predict(rules, ActrParams(w=1.0, s=1.0), {"a"})
        assert pred.class_probs["t1"] + pred.class_probs["t2"] == pytest.approx(
            1.0, abs=1e-12
        )

    def test_universal_task_short_circuits_to_its_prior(self):
        c = make_corpus(
            [("s1", {"a"}, "F"), ("s2", {"b"}, "F")],
            {"F": {"t"}},
        )
        rules = rb_train(c, mode="direct")
        pred = rb_predict(rules, ActrParams(), {"a"})
        assert pred.class_probs["t"] == 1.0
        assert pred.predicted_tasks == frozenset({"t"})

    def test_probabilities_stay_in_open_interval_on_random_corpora(self):
        rng = random.Random(31)
        for _ in range(30):
            c = random_corpus(rng)
            params = random_params(rng)
            vocab = sorted(c.fan)
            q = frozenset(rng.sample(vocab, rng.randint(1, min(4, len(vocab)))))
            for mode in ("family", "direct"):
                rules = rb_train(c, mode=mode)
                pred = rb_predict(rules, params, q)
                assert all(0.0 <= p <= 1.0 for p in pred.class_probs.values())
                if mode == "family":
                    assert sum(pred.class_probs.values()) == pytest.approx(
                        1.0, abs=1e-9
                    )

    def test_matches_reference_transcription(self):
        rng = random.Random(33)
        for _ in range(30):
            c = random_corpus(rng)
            params = random_params(rng)
            smoothing = rng.uniform(0.1, 2.0)
            vocab = sorted(c.fan)
            q = set(rng.sample(vocab, rng.randint(1, min(4, len(vocab)))))
            if rng.random() < 0.3:
                q.add("novel")
            for mode in ("family", "direct"):
                ref = reference_rb_probs(c, params, q, mode, smoothing)
                got = rb_predict(rb_train(c, smoothing=smoothing, mode=mode), params, q)
                assert got.class_probs.keys() == ref.keys()
                for label, p in ref.items():
                    assert got.class_probs[label] == pytest.approx(p, abs=1e-12)

    def test_rejects_empty_family_bad_smoothing_bad_mode(self, two_family_corpus):
        from taskinfer.core import build_corpus, Sample

        ghost = build_corpus(
            [Sample(id="s1", attribs={"a"}, family="F")],
            {"F": frozenset({"t"}), "G": frozenset({"u"})},
        )
        with pytest.raises(ValueError, match="family 'G' has no samples"):
            rb_train(ghost)
        with pytest.raises(ValueError, match="smoothing must be positive"):
            rb_train(two_family_corpus, smoothing=0.0)
        with pytest.raises(ValueError, match="mode must be one of"):
            rb_train(two_family_corpus, mode="both")
        rules = rb_train(two_family_corpus)
        with pytest.raises(ValueError, match="query attribute set is empty"):
            rb_predict(rules, ActrParams(), set())
