"""Evaluation harness: metrics, protocols, pairing, significance, reports.

The paired-t reference numbers are frozen from an independent computation
(statistic by hand: d = [1..5] gives mean 3, variance 2.5, t = 3/sqrt(0.5);
p via the regularized incomplete beta in arbitrary precision).
"""

import csv
import dataclasses
import hashlib
import io
import json
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taskinfer import actr, baselines, evaluation, methods, synthgen
from taskinfer.core import (ActrParams, CountModel, Sample, attribute_matrix, build_corpus,
                            query_cols)
from taskinfer.evaluation import (
    PROTOCOLS,
    TrialReport,
    combine,
    format_table,
    leave_one_family_out,
    loocv,
    metrics_table,
    paired_ttest,
    report_to_dict,
    save_reports,
    score_sample,
    split_trials,
    stratified_split,
)

from conftest import make_corpus
from oracles import random_corpus, random_params, reference_split_trials, reference_t_p_value

task_sets = st.sets(st.sampled_from([f"t{i}" for i in range(8)]), max_size=8)


class TestScoreSample:
    def test_two_of_three_overlap(self):
        sc = score_sample({"t1", "t2", "t3"}, {"t2", "t3", "t4"})
        assert sc.precision == pytest.approx(2 / 3)
        assert sc.recall == pytest.approx(2 / 3)
        assert sc.f1 == pytest.approx(2 / 3)

    def test_perfect_and_disjoint(self):
        assert score_sample({"t1"}, {"t1"}) == score_sample({"t1"}, {"t1"})
        sc = score_sample({"t1"}, {"t1"})
        assert (sc.precision, sc.recall, sc.f1) == (1.0, 1.0, 1.0)
        sc = score_sample({"t9"}, {"t1"})
        assert (sc.precision, sc.recall, sc.f1) == (0.0, 0.0, 0.0)

    def test_subset_prediction(self):
        sc = score_sample({"t1"}, {"t1", "t2"})
        assert sc.precision == 1.0
        assert sc.recall == 0.5
        assert sc.f1 == pytest.approx(2 / 3)

    def test_empty_prediction_scores_zero(self):
        sc = score_sample(set(), {"t1"})
        assert (sc.precision, sc.recall, sc.f1) == (0.0, 0.0, 0.0)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="truth task set is empty"):
            score_sample({"t1"}, set())

    @given(predicted=task_sets, truth=task_sets)
    @settings(max_examples=300, deadline=None)
    def test_metric_identities(self, predicted, truth):
        if not truth:
            return
        sc = score_sample(predicted, truth)
        assert 0.0 <= sc.precision <= 1.0
        assert 0.0 <= sc.recall <= 1.0
        assert 0.0 <= sc.f1 <= 1.0
        hit = len(frozenset(predicted) & frozenset(truth))
        if predicted:
            assert sc.precision == pytest.approx(hit / len(predicted))
        assert sc.recall == pytest.approx(hit / len(truth))
        if sc.precision + sc.recall > 0:
            assert sc.f1 == pytest.approx(
                2 * sc.precision * sc.recall / (sc.precision + sc.recall)
            )
        else:
            assert sc.f1 == 0.0
        if predicted == truth:
            assert sc.f1 == 1.0
        if hit == 0:
            assert sc.f1 == 0.0


class TestStratifiedSplit:
    def test_split_counts_and_partition(self):
        rows = [(f"a{i}", {f"x{i}"}, "F1") for i in range(10)]
        rows += [(f"b{i}", {f"y{i}"}, "F2") for i in range(4)]
        c = make_corpus(rows, {"F1": {"t1"}, "F2": {"t2"}})
        train, test = stratified_split(c, 0.6, random.Random(0))
        # round(0.6*10) = 6 and round(0.6*4) = 2 -> 8 train, 6 test.
        assert len(train) == 8 and len(test) == 6
        assert sorted(train + test) == list(range(14))
        fam_train = [c.samples[i].family for i in train]
        assert fam_train.count("F1") == 6 and fam_train.count("F2") == 2

    def test_extreme_fractions_are_clamped_per_family(self):
        rows = [("a1", {"x"}, "F1"), ("a2", {"y"}, "F1")]
        c = make_corpus(rows, {"F1": {"t1"}})
        train, test = stratified_split(c, 0.9, random.Random(0))
        assert len(train) == 1 and len(test) == 1
        train, test = stratified_split(c, 0.05, random.Random(0))
        assert len(train) == 1 and len(test) == 1

    def test_rejects_singleton_families_and_bad_fractions(self, two_family_corpus):
        c = make_corpus([("a", {"x"}, "F1"), ("b", {"y"}, "F1"),
                         ("c", {"z"}, "F2")],
                        {"F1": {"t1"}, "F2": {"t2"}})
        with pytest.raises(ValueError, match="at least 2 per family"):
            stratified_split(c, 0.6, random.Random(0))
        for frac in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="train_frac"):
                stratified_split(two_family_corpus, frac, random.Random(0))


class TestLoocv:
    def test_holds_out_each_sample_once(self, shared_task_corpus):
        report = loocv(shared_task_corpus, "nb")
        assert report.protocol == "loocv"
        assert report.n_tested == shared_task_corpus.size
        assert [s.sample_id for s in report.scores] == \
            [s.id for s in shared_task_corpus.samples]
        assert all(s.family_correct is not None for s in report.scores)
        assert all(0.0 <= s.f1 <= 1.0 for s in report.scores)

    def test_scores_are_deterministic(self, shared_task_corpus):
        a = loocv(shared_task_corpus, "actr-ib", params=ActrParams())
        b = loocv(shared_task_corpus, "actr-ib", params=ActrParams())
        assert a.scores == b.scores  # timings may differ, scores never

    def test_tolerates_singleton_families(self):
        # Holding out the only sample of F1 trains a model that cannot name
        # F1; the protocol records the miss instead of crashing.
        c = make_corpus(
            [("s1", {"a"}, "F1"), ("s2", {"b"}, "F2"), ("s3", {"b", "c"}, "F2")],
            {"F1": {"t1"}, "F2": {"t2"}},
        )
        report = loocv(c, "nb")
        assert report.n_tested == 3
        assert report.scores[0].family_correct is False

    def test_too_small_corpus_rejected(self):
        c = make_corpus([("s1", {"a"}, "F1")], {"F1": {"t1"}})
        with pytest.raises(ValueError, match="at least 2 samples"):
            loocv(c, "nb")

    # The header names a family, ghost, that no record carries.
    GHOST = ([(f"{f}{k}", {"a", f"{f}{k}"}, f) for f in ("F1", "F2") for k in range(2)],
             {"F1": {"t1"}, "F2": {"t2"}, "ghost": {"z"}})

    @pytest.mark.parametrize("mode,message", [("family", "family 'ghost' has no samples"),
                                              ("direct", "task 'z' has no samples")])
    def test_label_without_samples_is_rejected_before_training(self, monkeypatch, mode,
                                                               message):
        c = make_corpus(*self.GHOST)
        with pytest.raises(ValueError) as trained:
            methods.train_method("nb", c, mode)
        assert str(trained.value) == message

        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting the empty label")
        monkeypatch.setattr(evaluation, "leave_out", no_training)
        monkeypatch.setattr(evaluation, "train_method", no_training)
        with pytest.raises(ValueError) as held_out:
            loocv(c, "nb", mode)
        assert str(held_out.value) == message

    def test_direct_mode_accepts_a_ghost_whose_tasks_others_perform(self):
        rows, families = self.GHOST
        c = make_corpus(rows, {**families, "ghost": {"t1", "t2"}})
        methods.train_method("nb", c, "direct")
        assert loocv(c, "nb", "direct").n_tested == 4


class TestSplitTrials:
    def test_aggregate_nests_per_trial_reports(self, shared_task_corpus):
        report = split_trials(shared_task_corpus, "nb", train_frac=0.5, n_trials=3)
        assert report.label == "aggregate"
        assert [t.label for t in report.trials] == ["trial0", "trial1", "trial2"]
        assert report.n_tested == sum(t.n_tested for t in report.trials)
        assert report.scores == tuple(s for t in report.trials for s in t.scores)

    def test_folds_are_method_independent(self, shared_task_corpus):
        a = split_trials(shared_task_corpus, "nb", train_frac=0.5, n_trials=4, seed=3)
        b = split_trials(shared_task_corpus, "actr-ib", train_frac=0.5, n_trials=4,
                         seed=3)
        ids_a = [s.sample_id for s in a.scores]
        ids_b = [s.sample_id for s in b.scores]
        assert ids_a == ids_b  # aligned pairs for significance testing

    def test_different_seeds_draw_different_folds(self, shared_task_corpus):
        a = split_trials(shared_task_corpus, "nb", train_frac=0.5, n_trials=6, seed=0)
        b = split_trials(shared_task_corpus, "nb", train_frac=0.5, n_trials=6, seed=1)
        assert [s.sample_id for s in a.scores] != [s.sample_id for s in b.scores]

    def test_rejects_bad_trial_count(self, shared_task_corpus):
        with pytest.raises(ValueError, match="n_trials"):
            split_trials(shared_task_corpus, "nb", n_trials=0)

    @pytest.mark.parametrize("n_trials", [2.0, 2.5, "2", True, None])
    def test_rejects_a_trial_count_that_is_not_an_int_by_name(self, shared_task_corpus,
                                                               n_trials):
        with pytest.raises(ValueError, match=f"^n_trials must be an int, got {n_trials!r}$"):
            split_trials(shared_task_corpus, "nb", n_trials=n_trials)

    def test_the_first_trials_folds_do_not_depend_on_the_trial_count(self,
                                                                     shared_task_corpus):
        # Each trial draws its seed as it starts, so a longer run only adds trials.
        folds = [[[s.sample_id for s in t.scores] for t in
                  split_trials(shared_task_corpus, "nb", train_frac=0.5, n_trials=n,
                               seed=4).trials] for n in (1, 2, 5)]
        assert folds[2][:2] == folds[1] and folds[1][:1] == folds[0]
        assert len(set(map(tuple, folds[2]))) > 1

    @given(seed=st.integers(0, 2**32 - 1),
           method=st.sampled_from(("actr-ib", "actr-r", "nb", "rf")),
           mode=st.sampled_from(("family", "direct")), n_trials=st.integers(1, 3),
           train_frac=st.sampled_from((0.3, 0.5, 0.7)))
    @settings(max_examples=30, deadline=None)
    def test_reports_equal_retraining_each_trial(self, seed, method, mode, n_trials,
                                                 train_frac):
        # A trial holds its test rows out through methods.leave_out: the count
        # models downdate one model of the whole corpus, and rf still reads the
        # trial's seed.  tau lies midway across the first sample's activations,
        # so it binds some chunks.
        rng = random.Random(seed)
        c = random_corpus(rng)
        assume(all(len(c.members(f)) >= 2 for f in c.families))
        params = random_params(rng)
        model = actr.IbModel(c, params, mode)
        acts = model.activations(*query_cols(model.col, c.samples[0].attribs))
        params = dataclasses.replace(params, tau=float(acts.min() + acts.max()) / 2)
        args = (c, method, mode, params, train_frac, n_trials, seed)
        assert report_to_dict(split_trials(*args)) == \
            report_to_dict(reference_split_trials(*args))


class TestLeaveOneFamilyOut:
    def test_family_accuracy_is_not_applicable(self, shared_task_corpus):
        reports = leave_one_family_out(shared_task_corpus, "nb")
        assert [r.label for r in reports] == ["F1", "F2", "F3"]
        for r in reports:
            assert r.protocol == "lofo"
            assert r.family_accuracy is None
            assert all(s.family_correct is None for s in r.scores)

    def test_disjoint_tasks_cannot_transfer(self, two_family_corpus):
        # Families' task sets are disjoint, so recall on a held-out family
        # is structurally zero no matter the model.
        for r in leave_one_family_out(two_family_corpus, "nb"):
            assert r.mean_recall == 0.0

    def test_shared_tasks_can_transfer(self, shared_task_corpus):
        # F1 = {t1, t2}: t2 is still trainable from F2, so recall can reach
        # 0.5 but never 1.0 (t1 is unseen in training).
        reports = {r.label: r for r in
                   leave_one_family_out(shared_task_corpus, "actr-ib")}
        assert reports["F1"].mean_recall <= 0.5 + 1e-12

    def test_needs_two_families(self):
        c = make_corpus([("s1", {"a"}, "F1"), ("s2", {"b"}, "F1")],
                        {"F1": {"t1"}})
        with pytest.raises(ValueError, match="at least 2 families"):
            leave_one_family_out(c, "nb")

    def test_family_without_samples_is_rejected_before_training(self, monkeypatch):
        c = make_corpus([("s1", {"a"}, "F1"), ("s2", {"b"}, "F2")],
                        {"F1": {"t1"}, "F2": {"t2"}, "ghost": {"t1"}})

        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting the empty family")
        monkeypatch.setattr(evaluation, "leave_out", no_training)
        with pytest.raises(ValueError, match="family 'ghost' has no samples"):
            leave_one_family_out(c, "nb")

    @pytest.mark.parametrize("method", ["actr-ib", "actr-r", "nb"])
    def test_count_models_train_once_on_the_whole_corpus(self, monkeypatch, method,
                                                         shared_task_corpus):
        trained_on = []

        def spy(fn):
            def run(corpus, *args, **kwargs):
                trained_on.append(corpus)
                return fn(corpus, *args, **kwargs)
            return run

        def no_training(*args, **kwargs):
            raise AssertionError("trained a fold")
        monkeypatch.setattr(methods, "train_method", no_training)
        monkeypatch.setattr(actr, "IbModel", spy(actr.IbModel))
        monkeypatch.setattr(actr, "rb_train", spy(actr.rb_train))
        monkeypatch.setattr(baselines, "nb_train", spy(baselines.nb_train))
        for mode in ("family", "direct"):
            trained_on.clear()
            reports = leave_one_family_out(shared_task_corpus, method, mode)
            assert len(reports) == 3
            assert [c.samples for c in trained_on] == [shared_task_corpus.samples]


class TestTasklessFamily:
    # G and H have samples but perform no task; A performs none and has no
    # sample, so it is no one's truth.
    CORPUS = ([(f"{f.lower()}{k}", {"a", f"x{k}"}, f) for f in "FGH" for k in range(2)],
              {"A": set(), "F": {"t"}, "G": set(), "H": set()})

    @pytest.mark.parametrize("mode", ["family", "direct"])
    @pytest.mark.parametrize("protocol", [
        lambda c, mode: loocv(c, "nb", mode),
        lambda c, mode: split_trials(c, "nb", mode, n_trials=2),
        lambda c, mode: leave_one_family_out(c, "nb", mode),
    ], ids=PROTOCOLS)
    def test_is_rejected_before_training(self, monkeypatch, protocol, mode):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting the taskless family")
        monkeypatch.setattr(evaluation, "train_method", no_training)
        monkeypatch.setattr(evaluation, "leave_out", no_training)
        with pytest.raises(ValueError, match="^family 'G' performs no task"):
            protocol(make_corpus(*self.CORPUS), mode)


class TestFailingPrediction:
    @pytest.mark.parametrize("protocol,where", [
        (lambda c: loocv(c, "nb"), "loocv"),
        (lambda c: split_trials(c, "nb", n_trials=2), "split trial0"),
        (lambda c: leave_one_family_out(c, "nb"), "lofo F1"),
    ], ids=PROTOCOLS)
    def test_names_the_protocol_the_fold_and_the_sample(self, monkeypatch, two_family_corpus,
                                                        protocol, where):
        asked = []

        def predictor(query):
            asked.append(query)
            raise ValueError("no score")
        monkeypatch.setattr(evaluation, "train_method", lambda *args, **kwargs: predictor)
        monkeypatch.setattr(evaluation, "leave_out", lambda *args, **kwargs: lambda _: predictor)
        with pytest.raises(ValueError) as exc:
            protocol(two_family_corpus)
        [held] = [s for s in two_family_corpus.samples if s.attribs == asked[0]]
        assert str(exc.value) == f"{where}: sample {held.id!r}: no score"
        assert str(exc.value.__cause__) == "no score"


class TestTimings:
    """Building a row's predictor is timed as training, calling it as
    prediction.  The clock advances only by the work the models do: 1000 per
    training, 100 per downdate and 1 per prediction."""

    @pytest.fixture(autouse=True)
    def clock(self, monkeypatch):
        now = [0]
        monkeypatch.setattr(evaluation, "time", SimpleNamespace(perf_counter=lambda: now[0]))

        def costing(fn, cost):
            def run(*args, **kwargs):
                now[0] += cost
                return fn(*args, **kwargs)
            return run
        for name in ("nb_train", "dt_train"):
            monkeypatch.setattr(baselines, name, costing(getattr(baselines, name), 1000))
        monkeypatch.setattr(CountModel, "without", costing(CountModel.without, 100))
        monkeypatch.setattr(methods, "predict", costing(methods.predict, 1))

    def test_downdating_is_training(self, shared_task_corpus):
        r = loocv(shared_task_corpus, "nb")
        assert (r.train_time, r.predict_time) == (1000 + 100 * 6, 6)

    def test_retraining_equals_the_sum_over_its_folds(self, shared_task_corpus):
        c = shared_task_corpus
        r = loocv(c, "dt")
        folds = [evaluation._scored(c, [[i]], methods.leave_out("dt", c), "dt", "family",
                                    0, "loocv", "")
                 for i in range(c.size)]
        assert (r.train_time, r.predict_time) == (1000 * 6, 6)
        assert r.train_time == sum(f.train_time for f in folds)
        assert r.predict_time == sum(f.predict_time for f in folds)

    def test_lofo_trains_once_and_downdates_per_fold(self, shared_task_corpus):
        # The first fold trains the whole-corpus model; every fold downdates it.
        reports = leave_one_family_out(shared_task_corpus, "nb")
        sizes = [len(shared_task_corpus.members(r.label)) for r in reports]
        assert [(r.train_time, r.predict_time) for r in reports] == \
            [(1000 + 100, sizes[0])] + [(100, n) for n in sizes[1:]]

    def test_a_split_trains_and_downdates_once_per_trial(self, shared_task_corpus):
        r = split_trials(shared_task_corpus, "nb", n_trials=2, train_frac=0.5)
        assert [(t.train_time, t.predict_time) for t in r.trials] == [(1000 + 100, 3)] * 2


class TestFoldCorpus:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_training_corpus_equals_the_validated_one(self, seed):
        # Every fold trains on the parent's rows without re-validating them;
        # its corpus must be the one build_corpus makes of the same rows.
        # Every protocol runs dt, which methods.leave_out retrains per fold (the
        # count models downdate).
        c = random_corpus(random.Random(seed))
        trained_on = []

        def spy(train):
            def run(corpus, *args, **kwargs):
                trained_on.append(corpus)
                return train(corpus, *args, **kwargs)
            return run
        with mock.patch.object(baselines, "dt_train", spy(baselines.dt_train)):
            if c.size >= 2:
                loocv(c, "dt")
            if all(len(c.members(f)) >= 2 for f in c.families):
                split_trials(c, "dt", n_trials=2, train_frac=0.5, seed=seed)
            if len(c.families) >= 2:
                leave_one_family_out(c, "dt")
        for sub in trained_on:
            ref = build_corpus(sub.samples, sub.families)
            assert sub == ref and sub.samples == ref.samples
            assert set(sub.families) == {s.family for s in sub.samples}
            vocab, col, x = attribute_matrix(sub)
            ref_vocab, ref_col, ref_x = attribute_matrix(ref)
            assert vocab == ref_vocab and col == ref_col
            assert np.array_equal(x.dense(bool), ref_x.dense(bool))


# sha256 of the save_reports file holding [loocv, split_trials(n_trials=2),
# *leave_one_family_out] on the corpus below.  Pins fold membership, order and
# scores: a change to any of them has to update these digests on purpose.
_FROZEN_PROTOCOL_SHA256 = {
    ("nb", "family"): "4d77a65befd6d899df1e45edfb6c68f354e1663fdf708267ad372ced5b31ea06",
    ("nb", "direct"): "9bdac1ab250739abd46924dea9c95f2017e34103e73108fa18524dfb77a5792b",
    ("actr-ib", "family"): "dfb1c0397f2cdd40954178fb9f347bef10fa7cf77e33c6719f4750d6d682d090",
    ("actr-ib", "direct"): "188e636f060af4e13ccb41b4ce3d13b5f2ecd7b499eb2ec92ea992415e505091",
    ("actr-r", "family"): "194b5e76220b1ea17b65a9213ea976d1073801825f9700bda9bf705e54ba4cc7",
    ("actr-r", "direct"): "ec20c4115c107d2d88c8a6f8ef29089d5191f0efb0d2398b7df1d30f5ff4eec8",
    ("dt", "family"): "c875f91a482995b51d177c6560f449e47f5776229a90591f7aad178a39c0a2c5",
    ("dt", "direct"): "74bf62850d83ab18aac36bf6a49f968ea96b7e80d69252c5b36a501e9a36b552",
    ("rf", "family"): "201e7e628a9ec1aa95652b71ed5a66358537b556926a8636f4fbb70bece6ad25",
    ("rf", "direct"): "3291b916978ea69485cfb171bdc0db9e65dfc2df3599da53bc1a6a7eb5a889eb",
    ("logreg", "family"): "f8b5349f70c859f0b28bce732b7b28deaee305528b1842b2baef89f3fb37cc8b",
    ("logreg", "direct"): "811e94e41599091b7cca393c3274daf7ed143d8d782dc24f269f019876ec3db1",
}


class TestFrozenProtocols:
    @staticmethod
    def _corpus():
        # Three encrypted synthgen families relabeled so each pair shares a
        # task: lofo can then transfer, and scores are neither all 0 nor all 1.
        spec = synthgen.GenSpec(n_carriers=3, tasks_per_carrier=2,
                                samples_per_family=5, carrier_attr_pool=12,
                                payload_attrs_per_task=3, overlap_target=0.3,
                                seed=7)
        corpus, _ = synthgen.generate(spec)
        corpus = synthgen.encrypt_variant(corpus, 0.5, seed=7)
        families = {"c0": {"x", "y"}, "c1": {"y", "z"}, "c2": {"z", "x"}}
        return build_corpus([Sample(s.id, s.attribs, s.family) for s in corpus],
                            families)

    @pytest.mark.parametrize("method,mode", sorted(_FROZEN_PROTOCOL_SHA256))
    def test_report_files_match_frozen_digests(self, tmp_path, method, mode):
        corpus = self._corpus()
        reports = [loocv(corpus, method, mode),
                   split_trials(corpus, method, mode, n_trials=2),
                   *leave_one_family_out(corpus, method, mode)]
        path = tmp_path / "reports.jsonl"
        save_reports(reports, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == _FROZEN_PROTOCOL_SHA256[(method, mode)]


class TestCombine:
    def test_concatenates_scores_and_sums_times(self, shared_task_corpus):
        r1 = loocv(shared_task_corpus, "nb")
        r2 = loocv(shared_task_corpus, "nb", seed=1)
        agg = combine([r1, r2], label="both")
        assert agg.n_tested == r1.n_tested + r2.n_tested
        assert agg.label == "both"
        assert agg.trials == (r1, r2)
        assert agg.train_time == pytest.approx(r1.train_time + r2.train_time)

    def test_rejects_mixed_and_empty_runs(self, shared_task_corpus):
        r1 = loocv(shared_task_corpus, "nb")
        r2 = loocv(shared_task_corpus, "actr-ib")
        with pytest.raises(ValueError, match="different runs"):
            combine([r1, r2])
        with pytest.raises(ValueError, match="nothing to combine"):
            combine([])


class TestPairedTtest:
    def test_hand_worked_example(self):
        # b - a = [1, 2, 3, 4, 5]: t = 3 / sqrt(2.5 / 5), dof = 4; the
        # two-sided p was recomputed independently via the incomplete beta.
        res = paired_ttest([2, 4, 6, 8, 10], [1, 2, 3, 4, 5])
        assert res.statistic == pytest.approx(4.242640687119285, abs=1e-12)
        assert res.dof == 4
        assert res.p_value == pytest.approx(0.013235599563682695, abs=1e-12)

    def test_sign_flips_with_order(self):
        res = paired_ttest([1, 2, 3, 4, 5], [2, 4, 6, 8, 10])
        assert res.statistic == pytest.approx(-4.242640687119285, abs=1e-12)
        assert res.p_value == pytest.approx(0.013235599563682695, abs=1e-12)

    def test_noise_is_insignificant(self):
        rng = random.Random(0)
        a = [rng.random() for _ in range(40)]
        b = [x + rng.gauss(0, 0.05) for x in a]
        res = paired_ttest(a, b)
        assert res.dof == 39
        assert res.p_value > 0.001

    @given(pairs=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                          min_size=2, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_p_value_is_scipy_stats_t_sf(self, pairs):
        a, b = zip(*pairs)
        try:
            res = paired_ttest(a, b)
        except ValueError:      # zero-variance differences
            assume(False)
        assert res.p_value.hex() == reference_t_p_value(res.statistic, res.dof).hex()

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="differ in length"):
            paired_ttest([1, 2], [1])
        with pytest.raises(ValueError, match="at least 2 pairs"):
            paired_ttest([1], [2])
        with pytest.raises(ValueError, match="zero-variance"):
            paired_ttest([1, 2, 3], [0, 1, 2])


class TestReports:
    def test_round_trip_preserves_summary_fields(self, tmp_path, shared_task_corpus):
        report = split_trials(shared_task_corpus, "nb", train_frac=0.5, n_trials=2)
        path = tmp_path / "report.jsonl"
        save_reports([report], path)
        (line,) = path.read_text(encoding="utf-8").splitlines()
        obj = json.loads(line)
        assert obj["method"] == "nb"
        assert obj["protocol"] == "split"
        assert obj["mean_f1"] == pytest.approx(report.mean_f1)
        assert obj["n_tested"] == report.n_tested
        assert len(obj["trials"]) == 2
        assert "train_time" not in obj
        ids = [s["id"] for s in obj["scores"]]
        assert ids == [s.sample_id for s in report.scores]

    def test_report_files_are_byte_identical_across_runs(
        self, tmp_path, shared_task_corpus
    ):
        p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        save_reports([split_trials(shared_task_corpus, "nb", n_trials=2,
                                   train_frac=0.5)], p1)
        save_reports([split_trials(shared_task_corpus, "nb", n_trials=2,
                                   train_frac=0.5)], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_metrics_table_layout(self, shared_task_corpus):
        reports = leave_one_family_out(shared_task_corpus, "nb")
        table = metrics_table(reports)
        lines = table.splitlines()
        assert lines[0] == "method,mode,protocol,label,metric,value"
        assert len(lines) == 1 + 4 * len(reports)
        # lofo family accuracy is None -> empty value field.
        fam_rows = [l for l in lines if ",family_accuracy," in l]
        assert all(row.endswith(",") for row in fam_rows)

    def test_metrics_table_quotes_labels_with_commas_and_quotes(self):
        families = {"zeus,v2": {"t1"}, 'say "hi"': {"t2"}, "plain": {"t1", "t2"}}
        corpus = make_corpus(
            [("s1", {"a", "b"}, "zeus,v2"), ("s2", {"a", "c"}, "zeus,v2"),
             ("s3", {"d", "e"}, 'say "hi"'), ("s4", {"d", "f"}, 'say "hi"'),
             ("s5", {"a", "d"}, "plain"), ("s6", {"b", "e"}, "plain")],
            families,
        )
        reports = leave_one_family_out(corpus, "nb")
        rows = list(csv.reader(io.StringIO(metrics_table(reports))))
        assert all(len(row) == 6 for row in rows)
        assert {row[3] for row in rows[1:]} == set(families)

    def test_format_table_mentions_every_report(self, shared_task_corpus):
        reports = leave_one_family_out(shared_task_corpus, "nb")
        text = format_table(reports)
        for r in reports:
            assert r.label in text
        assert "n/a" in text  # family accuracy not applicable

    def test_empty_report_properties(self):
        r = TrialReport(method="nb", protocol="loocv", mode="family", seed=0,
                        scores=(), train_time=0.0, predict_time=0.0)
        assert r.mean_f1 == 0.0
        assert r.family_accuracy is None
        assert r.n_tested == 0

    def test_protocol_listing(self):
        assert PROTOCOLS == ("loocv", "split", "lofo")
