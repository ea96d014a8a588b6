"""Domain types, corpus construction, the task-derivation path, file format."""

import copy
import json
import math
import pickle
import random
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dict_prediction, held_out_row_sets, random_corpus, reference_index,
                     reference_prediction, reference_presence_counts, reference_task_groups,
                     scipy_by_attribute, scipy_matrix, scipy_presence_counts)
from taskinfer import core
from taskinfer.actr import IbModel
from taskinfer.core import (
    MODES,
    ActrParams,
    Corpus,
    CorpusError,
    CorpusFormatError,
    Sample,
    attribute_matrix,
    build_corpus,
    canonical_json,
    label_space,
    load_corpus,
    read_corpus_records,
    save_corpus,
    write_corpus_records,
)

from conftest import corpus_content, make_corpus


class TestSample:
    def test_coerces_attribute_iterables_to_frozensets(self):
        s = Sample(id="x", attribs=["b", "a", "a"], family="F", tasks=["t"])
        assert s.attribs == frozenset({"a", "b"})
        assert s.tasks == frozenset({"t"})

    def test_unlabeled_sample_keeps_none_labels(self):
        s = Sample(id="x", attribs={"a"})
        assert s.family is None and s.tasks is None

    def test_samples_hash_by_value(self):
        a = Sample(id="x", attribs={"a", "b"}, family="F", tasks={"t"})
        b = Sample(id="x", attribs=["b", "a"], family="F", tasks=("t",))
        assert a == b
        assert len({a, b}) == 1


class TestActrParams:
    def test_defaults(self):
        p = ActrParams()
        assert (p.beta, p.s, p.tau, p.mp, p.w) == (20.0, 0.1, -10.0, 20.0, 16.0)
        assert p.task_threshold == 0.5
        assert p.partial_matching == "overlap"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s": 0.0},
            {"s": -1.0},
            {"mp": -0.5},
            {"task_threshold": 0.0},
            {"task_threshold": 1.5},
            {"partial_matching": "cosine"},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ActrParams(**kwargs)

    @pytest.mark.parametrize("field", ["beta", "s", "tau", "mp", "w"])
    def test_fields_are_bounded_by_magnitude(self, field):
        ActrParams(**{field: 1e100})
        for value in (math.nextafter(1e100, math.inf), 1e308):
            with pytest.raises(ValueError,
                               match=f"^{field} must be at most 1e100 in magnitude, got "):
                ActrParams(**{field: value})
        if field not in ("s", "mp"):
            ActrParams(**{field: -1e100})
            with pytest.raises(ValueError, match=f"^{field} must be at most 1e100"):
                ActrParams(**{field: -1e308})

    def test_temperature_is_at_least_1e_minus_100(self):
        ActrParams(s=1e-100)
        for value in (math.nextafter(1e-100, 0.0), 1e-308, 0.0, -1.0):
            with pytest.raises(ValueError,
                               match=f"^temperature s must be at least 1e-100, got {value}$"):
                ActrParams(s=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", None, True])
    @pytest.mark.parametrize("field", ["beta", "s", "tau", "mp", "w", "task_threshold"])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            ActrParams(**{field: value})


class TestBuildCorpus:
    def test_fills_tasks_from_family_map(self, two_family_corpus):
        for s in two_family_corpus.samples:
            assert s.tasks == two_family_corpus.families[s.family]

    def test_rejects_duplicate_ids(self):
        rows = [("s1", {"a"}, "F"), ("s1", {"b"}, "F")]
        with pytest.raises(CorpusError, match="duplicate sample id 's1'"):
            make_corpus(rows, {"F": {"t"}})

    def test_rejects_unlabeled_sample(self):
        with pytest.raises(CorpusError, match="unlabeled"):
            build_corpus([Sample(id="s1", attribs={"a"})], {"F": frozenset({"t"})})

    def test_rejects_unknown_family(self):
        with pytest.raises(CorpusError, match="absent from the family map"):
            make_corpus([("s1", {"a"}, "G")], {"F": {"t"}})

    def test_rejects_empty_attribute_set(self):
        with pytest.raises(CorpusError, match="empty attribute set"):
            make_corpus([("s1", set(), "F")], {"F": {"t"}})

    def test_rejects_task_set_contradicting_family_map(self):
        s = Sample(id="s1", attribs={"a"}, family="F", tasks={"wrong"})
        with pytest.raises(CorpusError, match="declares tasks"):
            build_corpus([s], {"F": frozenset({"t"})})


class TestCorpusIndexes:
    def test_fan_matches_brute_force_recount(self):
        rng = random.Random(7)
        for _ in range(25):
            c = random_corpus(rng)
            recount = {}
            for s in c.samples:
                for a in s.attribs:
                    recount[a] = recount.get(a, 0) + 1
            assert c.fan == recount

    def test_members_partition_the_corpus(self):
        rng = random.Random(8)
        c = random_corpus(rng)
        seen = []
        for f in c.families:
            for i in c.members(f):
                assert c.samples[i].family == f
                seen.append(i)
        assert sorted(seen) == list(range(c.size))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_index_matches_per_sample_reference(self, seed):
        c = random_corpus(random.Random(seed))
        vocab, row_attrs, fan, members = reference_index(c)
        ix = c.index
        assert c.index is ix                    # built once, then kept
        assert ix.vocab == vocab
        assert ix.col == {a: j for j, a in enumerate(vocab)}
        assert ix.size == len(c.samples) and ix.offsets.size == len(c.samples) + 1
        assert ix.offsets.dtype == ix.columns.dtype == np.int32
        assert not any(a.flags.writeable for a in (ix.offsets, ix.columns))
        assert ix.offsets[0] == 0 and ix.columns.size == sum(len(a) for a in row_attrs)
        assert ix.nbytes == ix.offsets.nbytes + ix.columns.nbytes
        links = [ix.columns[ix.offsets[i]:ix.offsets[i + 1]].tolist() for i in range(ix.size)]
        assert [len(set(row)) for row in links] == [len(row) for row in links]
        assert [{vocab[j] for j in row} for row in links] == row_attrs
        assert c.fan == fan
        assert {f: list(rows) for f, rows in ix.members.items()} == members
        for f in c.families:
            assert list(c.members(f)) == members[f]

    def test_members_of_absent_family_is_empty(self, two_family_corpus):
        assert two_family_corpus.members("nope") == ()

    def test_tasks_property_is_union_of_family_tasks(self, shared_task_corpus):
        assert shared_task_corpus.tasks == frozenset({"t1", "t2", "t3"})

    def test_corpora_compare_and_hash_by_identity(self, two_family_corpus):
        c = two_family_corpus
        same = Corpus(c.samples, c.families)
        assert c == c and same != c and {c: 1}[c] == 1
        other = Corpus(c.samples, {"F1": frozenset({"t1"}), "F2": frozenset({"t9"})})
        assert corpus_content(same) == corpus_content(c) != corpus_content(other)

    def test_repr_counts_samples_families_and_attributes(self, two_family_corpus):
        assert repr(two_family_corpus) == "Corpus(4 samples, 2 families, 3 attributes)"


class TestWithout:
    def test_no_row_of_a_full_corpus_is_the_corpus_itself(self, shared_task_corpus):
        c = shared_task_corpus
        assert c.without(()) is c
        assert c.without(np.array([], dtype=np.intp)) is c
        assert c.without(np.asarray(())) is c       # float64, but holds no row

    def test_families_without_a_sample_left_leave(self, shared_task_corpus):
        c = shared_task_corpus
        assert c.without([2, 3, 5]).families == {"F1": frozenset({"t1", "t2"}),
                                                 "F3": frozenset({"t3"})}
        # No row leaves, but a family of the header has no sample at all.
        ghost = Corpus(c.samples, {**c.families, "ghost": frozenset({"t9"})})
        whole = ghost.without(())
        assert whole is not ghost and whole.families == c.families
        assert whole.samples == c.samples

    @pytest.mark.parametrize("rows,message", [
        ([-1], r"^row -1 is outside range\(6\)$"),
        ([6], r"^row 6 is outside range\(6\)$"),
        ([2**70], rf"^row {2**70} is outside range\(6\)$"),
        ([4, 1, 4], "^row 4 is given twice$"),
        ([[0, 1]], r"^row \[0, 1\] is not an integer$"),
        (np.array([[0, 1]]), r"^row array\(\[0, 1\]\) is not an integer$"),
        ([0.5], r"^row 0\.5 is not an integer$"),
        ([1, False], "^row False is not an integer$"),
        (3, "^rows must be a sequence of integers, got 3$"),
        (np.array(3), r"^rows must be a sequence of integers, got array\(3\)$"),
        (iter([0]), "^rows must be a sequence of integers, got <list_iterator"),
    ])
    def test_bad_rows_are_rejected_by_name(self, shared_task_corpus, rows, message):
        with pytest.raises(ValueError, match=message):
            shared_task_corpus.without(rows)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_equals_the_corpus_of_the_other_samples_and_their_families(self, seed):
        rng = random.Random(seed)
        c = random_corpus(rng)
        rows = rng.sample(range(c.size), rng.randint(0, c.size - 1))
        rest = [s for i, s in enumerate(c.samples) if i not in rows]
        present = {s.family for s in rest}
        want = Corpus(rest, {f: t for f, t in c.families.items() if f in present})
        assert corpus_content(c.without(rows)) == corpus_content(want)
        assert c.without(rows).samples == want.samples


class TestAttributeMatrix:
    def test_matrix_encodes_exact_membership(self):
        rng = random.Random(9)
        for _ in range(10):
            c = random_corpus(rng)
            vocab, col, x = attribute_matrix(c)
            assert x is c.index                 # the index itself, not a copy
            assert vocab == sorted(c.fan)
            x = x.dense(bool)
            assert x.shape == (c.size, len(vocab))
            assert x.dtype == bool
            for i, s in enumerate(c.samples):
                present = {vocab[j] for j in range(len(vocab)) if x[i, j]}
                assert present == set(s.attribs)
            assert all(col[a] == j for j, a in enumerate(vocab))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(MODES))
    @settings(max_examples=200, deadline=None)
    def test_by_attribute_view_is_scipys_csc(self, seed, mode):
        c = random_corpus(random.Random(seed))
        start, rows = c.index.by_attribute
        indptr, indices = scipy_by_attribute(c)
        assert np.array_equal(start, indptr) and np.array_equal(rows, indices)
        assert rows.dtype == np.intp
        assert not (start.flags.writeable or rows.flags.writeable)
        # Built once: the instance model reads the one view in either mode.
        model = IbModel(c, mode=mode)
        assert model._start is start and model._chunks is rows

    @given(st.integers(0, 2**32 - 1), st.sampled_from([bool, np.float32, float]))
    @settings(max_examples=100, deadline=None)
    def test_dense_is_scipys_toarray(self, seed, dtype):
        c = random_corpus(random.Random(seed))
        x = c.index.dense(dtype)
        ref = scipy_matrix(c).astype(dtype).toarray()
        assert x.dtype == ref.dtype and x.flags.c_contiguous and x.flags.writeable
        assert np.array_equal(x, ref)
        # A permutation of the rows is written in place, as gathering them is.
        order = np.random.default_rng(seed).permutation(c.size)
        for rows in (order, order.tolist()):
            x = c.index.dense(dtype, rows)
            assert x.dtype == ref.dtype and x.flags.c_contiguous
            assert np.array_equal(x, ref[order])


def _space(families, mode="family"):
    """Label space of a corpus holding one sample per family."""
    rows = [(f"s{i}", {"a"}, f) for i, f in enumerate(sorted(families))]
    return label_space(make_corpus(rows, families), mode)


class TestDeriveTasks:
    def test_sums_mass_across_labels(self):
        space = _space({"F1": {"t1"}, "F2": {"t1", "t2"}, "F3": {"t2"}})
        probs = [0.3, 0.3, 0.4]
        assert space.prediction(probs, 0.5).predicted_tasks == frozenset({"t1", "t2"})
        assert space.prediction(probs, 0.7).predicted_tasks == frozenset({"t2"})
        assert space.prediction(probs, 0.71).predicted_tasks == frozenset()

    def test_threshold_is_inclusive(self):
        space = _space({"F": {"t"}})
        assert space.prediction([0.5], 0.5).predicted_tasks == frozenset({"t"})


class TestMakePrediction:
    def test_family_mode_breaks_probability_ties_lexicographically(self):
        space = _space({"a": {"t1"}, "b": {"t2"}})
        p = space.prediction([0.5, 0.5], 0.5, retained_chunks=3)
        assert p.predicted_family == "a"
        assert p.predicted_tasks == frozenset({"t1", "t2"})
        assert p.retained_chunks == 3 and not p.degenerate

    def test_direct_mode_thresholds_each_task_independently(self):
        space = _space({"F1": {"t1"}, "F2": {"t2"}}, mode="direct")
        p = space.prediction([0.9, 0.49], 0.5, retained_chunks=0)
        assert p.predicted_family is None
        assert p.predicted_tasks == frozenset({"t1"})
        assert p.class_probs == {"t1": 0.9, "t2": 0.49}
        assert p.degenerate

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            label_space(make_corpus([("s", {"a"}, "F")], {"F": {"t"}}), "both")

    @pytest.mark.parametrize("mode", ["family", "direct"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_probabilities(self, mode, bad):
        space = _space({"F1": {"t1"}, "F2": {"t2"}}, mode)
        with pytest.raises(ValueError, match=f"'{space.labels[1]}' is .*not a finite"):
            space.prediction([0.5, bad], 0.5)

    def test_gives_each_label_its_columns_probability(self):
        # t and u are both performed by F alone: one column, two labels.
        space = _space({"F": {"t", "u"}, "G": {"v"}}, "direct")
        p = space.prediction([0.75, 0.25], 0.5)
        assert p.class_probs == {"t": 0.75, "u": 0.75, "v": 0.25}
        assert p.predicted_tasks == frozenset({"t", "u"})
        with pytest.raises(ValueError, match="^3 probabilities for 2 columns$"):
            space.prediction([0.75, 0.75, 0.25], 0.5)

    def test_mass_on_the_threshold_from_several_labels(self):
        # s: 0.25 + 0.25 lands exactly on 0.5; x: 0.25 stays below it.
        space = _space({"f0": {"s", "x"}, "f1": {"s"}, "f2": {"y"}})
        p = space.prediction([0.25, 0.25, 0.5], 0.5)
        assert p.predicted_tasks == frozenset({"s", "y"})
        assert p.predicted_family == "f2"

    def test_matches_the_reference_derivation(self):
        rng = random.Random(5)
        grid = (0.0, 0.125, 0.25, 0.5, 1 / 3)   # ties and exact threshold sums
        shared = {f"f{i}": {"t0", f"t{i + 1}"} for i in range(4)}
        corpora = [random_corpus(rng) for _ in range(150)]
        corpora.append(make_corpus([(f"s{i}", {"a"}, f) for i, f in enumerate(shared)],
                                   shared))
        for c in corpora:
            for mode in ("family", "direct"):
                space = label_space(c, mode)
                for _ in range(4):
                    probs = [rng.choice(grid) if rng.random() < 0.7 else rng.random()
                             for _ in space.columns]
                    thr = rng.choice((0.25, 0.5, rng.uniform(0.05, 1.0)))
                    retained = rng.randint(0, 5)
                    got = space.prediction(probs, thr, retained)
                    per_label = np.array(probs)[space.column_of]
                    want = reference_prediction(
                        c, mode, dict(zip(space.labels, per_label.tolist())), thr,
                        retained, retained == 0)
                    assert got == want


class TestClassProbs:
    # t and u share F's column; v is G's.
    FAMILIES = {"F": {"t", "u"}, "G": {"v"}}
    WANT = {"t": 0.75, "u": 0.75, "v": 0.25}

    def _probs(self):
        return _space(self.FAMILIES, "direct").prediction([0.75, 0.25], 0.5).class_probs

    def test_reads_like_the_dict_in_label_order(self):
        probs = self._probs()
        assert len(probs) == 3 and list(probs) == ["t", "u", "v"]
        assert "u" in probs and "F" not in probs and "F" not in probs.keys()
        assert probs["v"] == 0.25 and type(probs["v"]) is float
        assert probs.get("v") == 0.25 and probs.get("F") is None and probs.get("F", 1) == 1
        with pytest.raises(KeyError):
            probs["F"]
        assert list(probs.keys()) == list(self.WANT)
        assert list(probs.values()) == list(self.WANT.values())
        assert list(probs.items()) == list(self.WANT.items())
        assert probs.keys() == self.WANT.keys() and probs.items() == self.WANT.items()
        assert ("t", 0.75) in probs.items() and 0.25 in probs.values()
        assert all(type(v) is float for v in probs.values())

    def test_compares_and_shows_as_the_dict(self):
        probs = self._probs()
        assert probs == self.WANT and self.WANT == probs
        assert not probs != self.WANT and not self.WANT != probs
        for other in ({"t": 0.75, "u": 0.75}, {**self.WANT, "v": 0.5}, {**self.WANT, "w": 0.0}):
            assert probs != other and other != probs
        assert probs != [("t", 0.75)] and probs == self._probs()
        assert repr(probs) == repr(self.WANT)

    def test_copies_and_pickles_to_an_equal_view(self):
        probs = self._probs()
        for twin in (copy.copy(probs), copy.deepcopy(probs),
                     pickle.loads(pickle.dumps(probs))):
            assert type(twin) is type(probs) and twin == probs
            assert list(twin.items()) == list(probs.items())
            with pytest.raises(TypeError):
                twin["t"] = 0.0

    def test_cannot_be_written(self):
        probs = self._probs()
        with pytest.raises(TypeError):
            probs["t"] = 0.0
        with pytest.raises(TypeError):
            del probs["t"]
        with pytest.raises(AttributeError):
            probs.update(t=0.0)
        with pytest.raises(AttributeError):
            probs.extra = 1
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps(probs)
        assert json.loads(json.dumps(dict(probs))) == self.WANT
        assert probs == self.WANT

    def test_sets_past_the_table_are_built_fresh(self, monkeypatch):
        monkeypatch.setattr(core, "TASK_SETS_KEPT", 2)
        space = _space({f"F{i}": {f"t{i}"} for i in range(4)}, "direct")
        rng = random.Random(3)
        got = []
        for _ in range(40):
            probs = [rng.choice((0.0, 1.0)) for _ in space.columns]
            pred = space.prediction(probs, 0.5)
            want = dict_prediction(space, probs, 0.5)
            assert pred == want and list(pred.class_probs.items()) == \
                list(want.class_probs.items())
            got.append(pred.predicted_tasks)
        assert len(space.task_sets) == 2
        kept = set(map(id, space.task_sets.values()))
        fresh = [ts for ts in got if id(ts) not in kept]
        assert len(set(got)) > 2 and len(fresh) > len(set(fresh))


class TestLabelColumns:
    def test_direct_groups_match_a_per_sample_scan(self):
        rng = random.Random(8)
        for _ in range(200):
            c = random_corpus(rng, max_families=6, max_tasks=8)
            space = label_space(c, "direct")
            want = reference_task_groups(c)
            assert space.labels == tuple(want)
            assert [space.columns[k].tolist() for k in space.column_of] == \
                list(want.values())
            # Columns are the distinct groups, numbered by their first label.
            assert len({g.tobytes() for g in space.columns}) == len(space.columns)
            assert list(dict.fromkeys(space.column_of.tolist())) == \
                list(range(len(space.columns)))
            # member[j, c] is 1 exactly when sample j is in column c.
            assert space.member.tolist() == [
                [float(j in g.tolist()) for g in space.columns] for j in range(c.size)]

    def test_family_columns_are_the_families(self, shared_task_corpus):
        space = label_space(shared_task_corpus, "family")
        assert space.column_of.tolist() == [0, 1, 2]
        assert [g.tolist() for g in space.columns] == [[0, 1], [2, 3], [4, 5]]
        assert space.member.tolist() == [[1.0, 0.0, 0.0]] * 2 + [[0.0, 1.0, 0.0]] * 2 \
            + [[0.0, 0.0, 1.0]] * 2
        assert space.member.sum(axis=1).tolist() == [1.0] * 6

    def test_tasks_of_one_family_share_a_column(self):
        # G names u in the header but has no samples; it must not split u from t.
        c = make_corpus([("s1", {"a"}, "F"), ("s2", {"b"}, "H"), ("s3", {"c"}, "F")],
                        {"F": {"t", "u"}, "G": {"u"}, "H": {"v"}})
        space = label_space(c, "direct")
        assert space.labels == ("t", "u", "v")
        assert space.column_of.tolist() == [0, 0, 1]
        assert [g.tolist() for g in space.columns] == [[0, 2], [1]]

    @given(st.integers(0, 2**32 - 1), st.sampled_from(MODES))
    @settings(max_examples=100, deadline=None)
    def test_without_is_the_label_space_of_the_other_samples(self, seed, mode):
        # Every single row, and the row sets of `held_out_row_sets`.
        rng = random.Random(seed)
        c = random_corpus(rng)
        space = label_space(c, mode)
        for rows in [[i] for i in range(c.size)] + held_out_row_sets(c, rng):
            rest = [s for j, s in enumerate(c.samples) if j not in rows]
            if not rest:
                continue
            present = {s.family for s in rest}
            want = label_space(Corpus(rest, {f: t for f, t in c.families.items()
                                             if f in present}), mode)
            got, source = space.without(rows)
            assert (got.mode, got.labels, got.size, got.tasks) == \
                (want.mode, want.labels, want.size, want.tasks)
            assert [g.tolist() for g in got.columns] == \
                [g.tolist() for g in want.columns]
            assert got.column_of.tolist() == want.column_of.tolist()
            if mode == "family":
                assert np.array_equal(got.incidence, want.incidence)
                assert got.incidence.flags.c_contiguous
            else:
                assert got.incidence is None
            # Each fold column is its source column less the rows, the
            # samples above a row moving down one per row below them.
            for g, k in zip(got.columns, source):
                kept = [j for j in space.columns[k].tolist() if j not in rows]
                assert g.tolist() == [j - sum(r < j for r in rows) for j in kept]

    @given(st.integers(0, 2**32 - 1), st.sampled_from(MODES))
    @settings(max_examples=200, deadline=None)
    def test_presence_counts_match_the_dense_gather(self, seed, mode):
        c = random_corpus(random.Random(seed))
        space = label_space(c, mode)
        present, total = space.presence_counts(attribute_matrix(c)[2])
        assert present.flags.c_contiguous       # the fits sum its rows in column order
        for ref_present, ref_total in (reference_presence_counts(c, space),
                                       scipy_presence_counts(c, space)):
            assert present.dtype == ref_present.dtype and total.dtype == ref_total.dtype
            assert np.array_equal(present, ref_present)
            assert np.array_equal(total, ref_total)

    def test_smoothed_presence_rates(self, two_family_corpus):
        # The rates naive Bayes and the rule model both read.  Hand counts for
        # the four-sample corpus (two per family):
        #   a: 2 in F1, 0 in F2      b: 1 in F1, 1 in F2      c: 0 in F1, 2 in F2
        # With smoothing 1: p(a|F1) = (2+1)/(2+2) = 3/4, p(a|~F1) = (0+1)/(2+2) = 1/4.
        space = label_space(two_family_corpus, "family")
        _, col, x = attribute_matrix(two_family_corpus)
        f1, f2 = space.labels.index("F1"), space.labels.index("F2")
        a, b, c = col["a"], col["b"], col["c"]
        present, total = space.presence_counts(x)
        assert present[:, [a, b, c]].tolist() == [[2, 1, 0], [0, 1, 2]]
        assert total[[a, b, c]].tolist() == [2, 2, 2]
        given, not_given = space.presence_rates(present, total, 1.0)
        assert given[f1, a] == pytest.approx(0.75)
        assert not_given[f1, a] == pytest.approx(0.25)
        assert given[f2, a] == pytest.approx(0.25)
        assert not_given[f2, a] == pytest.approx(0.75)
        assert given[f1, b] == pytest.approx(0.5)
        assert given[f2, b] == pytest.approx(0.5)
        assert given[f1, c] == pytest.approx(0.25)
        # As smoothing vanishes the rates converge to the empirical ones.
        given, not_given = space.presence_rates(present, total, 1e-9)
        assert given[f1, a] == pytest.approx(1.0, abs=1e-8)
        assert not_given[f1, a] == pytest.approx(0.0, abs=1e-8)


class TestCorpusFiles:
    def test_round_trip_preserves_corpus(self, tmp_path):
        rng = random.Random(11)
        for k in range(10):
            c = random_corpus(rng)
            path = tmp_path / f"c{k}.jsonl"
            save_corpus(c, path)
            assert corpus_content(load_corpus(path)) == corpus_content(c)

    def test_serialization_is_byte_deterministic(self, tmp_path, shared_task_corpus):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(shared_task_corpus, p1)
        reordered = Corpus(
            tuple(reversed(shared_task_corpus.samples)), shared_task_corpus.families
        )
        # Same sample order must give identical bytes; order itself is preserved.
        save_corpus(shared_task_corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert corpus_content(load_corpus(p1)) == corpus_content(reordered)

    def test_reader_tolerates_unlabeled_records(self, tmp_path):
        path = tmp_path / "u.jsonl"
        write_corpus_records(
            path,
            [Sample(id="s1", attribs={"b", "a"})],
            {},
        )
        families, samples = read_corpus_records(path)
        assert families == {}
        assert samples == [Sample(id="s1", attribs={"a", "b"})]

    def test_reader_holds_one_object_per_distinct_string(self, tmp_path):
        # Equal attribute and task strings, in two records or two files, are
        # one object.
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            write_corpus_records(path, [
                Sample("s1", {"usesDLL:kernel32.dll", "proAct"}, "F", {"beacon"}),
                Sample("s2", {"usesDLL:kernel32.dll"}, "F", {"beacon"})],
                {"F": {"beacon"}})
        read = [read_corpus_records(path) for path in paths]
        dlls = [a for _, samples in read for s in samples for a in s.attribs
                if a.startswith("usesDLL:")]
        tasks = [t for families, samples in read
                 for t in chain(families["F"], *(s.tasks for s in samples))]
        assert len(dlls) == 4 and all(a is dlls[0] for a in dlls)
        assert len(tasks) == 6 and all(t is tasks[0] for t in tasks)

    def test_load_rejects_unlabeled_records(self, tmp_path):
        path = tmp_path / "u.jsonl"
        write_corpus_records(path, [Sample(id="s1", attribs={"a"})], {})
        with pytest.raises(CorpusError, match="unlabeled"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "lines, lineno, fragment",
        [
            ([], 1, "empty corpus file"),
            (["not json"], 1, "invalid JSON"),
            (['{"families":{"F":' + "9" * 5000 + "}}"], 1, "unreadable JSON"),
            (['{"families":{}}', "[" * 100_000 + "]" * 100_000], 2,
             "unreadable JSON"),
            (["[1,2]"], 1, "expected a JSON object"),
            (['{"nope":1}'], 1, '"families" object'),
            (['{"families":{"F":"t"}}'], 1, "list of task ids"),
            (['{"families":{}}', '{"id":"s"}'], 2, "missing keys"),
            (['{"families":{}}',
              '{"id":"","family":null,"tasks":null,"attributes":["a"]}'],
             2, "non-empty string"),
            (['{"families":{}}',
              '{"id":"s","family":null,"tasks":null,"attributes":[]}'],
             2, "non-empty list of attribute strings"),
            (['{"families":{}}',
              '{"id":"s","family":7,"tasks":null,"attributes":["a"]}'],
             2, "family must be a string or null"),
            (['{"families":{}}',
              '{"id":"s","family":null,"tasks":"t","attributes":["a"]}'],
             2, "tasks must be a list or null"),
            (['{"families":{}}',
              '{"id":"s","family":null,"tasks":null,"attributes":["a"]}',
              '{"id":"s","family":null,"tasks":null,"attributes":["b"]}'],
             3, "duplicate sample id"),
            (['{"families":{"F":["t",5]}}'], 1, "list of task ids"),
            *((['{"families":{}}',
                '{"id":"s","family":null,"tasks":null,"attributes":%s}' % attrs],
               2, "non-empty list of attribute strings")
              # A bare string is refused, not read as its characters.
              for attrs in ('"ab"', '["a",5]', '[["a"]]', '{"a":1}')),
            (['{"families":{}}',
              '{"id":"s","family":null,"tasks":["t",["u"]],"attributes":["a"]}'],
             2, "tasks must be a list or null"),
        ],
    )
    def test_format_errors_name_the_line(self, tmp_path, lines, lineno, fragment):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=fragment) as exc:
            read_corpus_records(path)
        assert exc.value.line == lineno and exc.value.path == path
        assert str(exc.value).startswith(f"{path}: line {lineno}: ")


    @pytest.mark.parametrize("valid_lines", [1, 2000])
    def test_non_utf8_bytes_name_the_line(self, tmp_path, valid_lines):
        # 2000 records put the bad byte past the decoder's first buffer.
        record = b'{"attributes":["a"],"family":null,"id":"s%d","tasks":null}\n'
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"families":{}}\n'
                         + b"".join(record % k for k in range(valid_lines - 1))
                         + b'{"attributes":["\xe9t\xe9"],"family":null,"id":"x",'
                           b'"tasks":null}\n')
        with pytest.raises(CorpusFormatError, match="not UTF-8 text") as exc:
            read_corpus_records(path)
        assert exc.value.line == valid_lines + 1
        assert str(exc.value).startswith(f"{path}: line {valid_lines + 1}: ")

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
    def test_every_line_end_reads_alike(self, tmp_path, end):
        lines = [b'{"families":{"F":["t"]}}',
                 b'{"attributes":["a","b"],"family":"F","id":"s1","tasks":["t"]}',
                 b'{"attributes":["c"],"family":null,"id":"s2","tasks":null}',
                 b'{"attributes":["d"],"family":"F","id":"s3","tasks":null}']
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"".join(line + end for line in lines))
        assert read_corpus_records(path) == (
            {"F": frozenset({"t"})},
            [Sample("s1", {"a", "b"}, "F", {"t"}), Sample("s2", {"c"}), Sample("s3", {"d"}, "F")])
        for bad, reason in [
            (b'{"attributes":["\xff"],"family":null,"id":"x","tasks":null}',
             "not UTF-8 text (invalid start byte)"),
            (b'{"id":"x"} \xc3', "not UTF-8 text (invalid continuation byte)"),
            (b'{"id": ', "invalid JSON (Expecting value)"),
        ]:
            path.write_bytes(b"".join(line + end for line in [*lines[:3], bad]))
            with pytest.raises(CorpusFormatError) as exc:
                read_corpus_records(path)
            assert exc.value.line == 4
            assert str(exc.value) == f"{path}: line 4: {reason}"

    def test_the_first_bad_line_is_the_one_named(self, tmp_path):
        # Invalid JSON on line 2 comes before a bad byte on line 3.
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"families":{}}\n{"id": \n"\xff"\n')
        with pytest.raises(CorpusFormatError, match="line 2: invalid JSON") as exc:
            read_corpus_records(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("record, message", [
        ('{"attributes":["a"],"family":null,"id":"q","tasks":null}',
         "sample 'q' is unlabeled (family is None)"),
        ('{"attributes":["a"],"family":"G","id":"q","tasks":null}',
         "sample 'q' has family 'G' absent from the family map"),
        ('{"attributes":["a"],"family":"F","id":"q","tasks":["u"]}',
         "sample 'q' declares tasks ['u'] but family 'F' maps to ['t']"),
    ], ids=["unlabeled", "unknown-family", "other-tasks"])
    def test_label_errors_name_the_file_and_the_line(self, tmp_path, record, message):
        path = tmp_path / "c.jsonl"
        path.write_text('{"families":{"F":["t"]}}\n'
                        '{"attributes":["a"],"family":"F","id":"p","tasks":null}\n'
                        + record + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert (exc.value.line, exc.value.path) == (3, path)
        assert str(exc.value) == f"{path}: line 3: {message}"
        # In memory, the same error names the sample's position instead.
        families, samples = read_corpus_records(path)
        with pytest.raises(CorpusError) as exc:
            build_corpus(samples, families)
        assert str(exc.value) == message and exc.value.row == 1


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self):
        assert canonical_json({"b": 1, "a": [2, 1]}) == '{"a":[2,1],"b":1}'

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_floats(self, bad):
        with pytest.raises(ValueError):
            canonical_json({"p": bad})

    @given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_key_order_never_changes_output(self, d):
        shuffled = dict(reversed(list(d.items())))
        assert canonical_json(d) == canonical_json(shuffled)
