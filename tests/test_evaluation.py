"""Evaluation harness: metrics, protocols, pairing, significance, reports.

The paired-t reference numbers are frozen from an independent computation
(statistic by hand: d = [1..5] gives mean 3, variance 2.5, t = 3/sqrt(0.5);
p via the regularized incomplete beta in arbitrary precision).
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskinfer import synthgen
from taskinfer.core import ActrParams, Sample, build_corpus
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
        assert report.n_tested == len(shared_task_corpus)
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


# sha256 of the save_reports file holding [loocv, split_trials(n_trials=2),
# *leave_one_family_out] on the corpus below.  Pins fold membership, order and
# scores: a change to any of them has to update these digests on purpose.
_FROZEN_PROTOCOL_SHA256 = {
    ("nb", "family"): "4d77a65befd6d899df1e45edfb6c68f354e1663fdf708267ad372ced5b31ea06",
    ("nb", "direct"): "9bdac1ab250739abd46924dea9c95f2017e34103e73108fa18524dfb77a5792b",
    ("actr-ib", "family"): "dfb1c0397f2cdd40954178fb9f347bef10fa7cf77e33c6719f4750d6d682d090",
    ("actr-ib", "direct"): "188e636f060af4e13ccb41b4ce3d13b5f2ecd7b499eb2ec92ea992415e505091",
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

    def test_timing_opt_in_adds_the_nondeterministic_fields(
        self, tmp_path, shared_task_corpus
    ):
        report = loocv(shared_task_corpus, "nb")
        path = tmp_path / "timed.jsonl"
        save_reports([report], path, include_timing=True)
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert "train_time" in obj and "predict_time" in obj

    def test_metrics_table_layout(self, shared_task_corpus):
        reports = leave_one_family_out(shared_task_corpus, "nb")
        table = metrics_table(reports)
        lines = table.splitlines()
        assert lines[0] == "method,mode,protocol,label,metric,value"
        assert len(lines) == 1 + 4 * len(reports)
        # lofo family accuracy is None -> empty value field.
        fam_rows = [l for l in lines if ",family_accuracy," in l]
        assert all(row.endswith(",") for row in fam_rows)

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
