"""Domain types, corpus construction, the task-derivation path, file format."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_corpus
from taskinfer.core import (
    ActrParams,
    Corpus,
    CorpusError,
    CorpusFormatError,
    Sample,
    attribute_matrix,
    build_corpus,
    canonical_json,
    derive_tasks,
    load_corpus,
    make_prediction,
    read_corpus_records,
    save_corpus,
    write_corpus_records,
)

from conftest import make_corpus


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["beta", "s", "tau", "mp", "w", "task_threshold"])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
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
        assert sorted(seen) == list(range(len(c)))

    def test_members_of_absent_family_is_empty(self, two_family_corpus):
        assert two_family_corpus.members("nope") == ()

    def test_tasks_property_is_union_of_family_tasks(self, shared_task_corpus):
        assert shared_task_corpus.tasks == frozenset({"t1", "t2", "t3"})

    def test_equality_ignores_sample_order(self, two_family_corpus):
        reordered = Corpus(
            tuple(reversed(two_family_corpus.samples)), two_family_corpus.families
        )
        assert reordered == two_family_corpus

    def test_equality_detects_family_map_changes(self, two_family_corpus):
        other = Corpus(
            two_family_corpus.samples,
            {"F1": frozenset({"t1"}), "F2": frozenset({"t9"})},
        )
        assert other != two_family_corpus


class TestAttributeMatrix:
    def test_matrix_encodes_exact_membership(self):
        rng = random.Random(9)
        for _ in range(10):
            c = random_corpus(rng)
            vocab, col, x = attribute_matrix(c)
            assert vocab == sorted(c.fan)
            assert x.shape == (len(c), len(vocab))
            assert x.dtype == bool
            for i, s in enumerate(c.samples):
                present = {vocab[j] for j in range(len(vocab)) if x[i, j]}
                assert present == set(s.attribs)
            assert all(col[a] == j for j, a in enumerate(vocab))


class TestDeriveTasks:
    def test_sums_mass_across_labels(self):
        probs = {"F1": 0.3, "F2": 0.3, "F3": 0.4}
        label_tasks = {"F1": {"t1"}, "F2": {"t1", "t2"}, "F3": {"t2"}}
        assert derive_tasks(probs, label_tasks, 0.5) == frozenset({"t1", "t2"})
        assert derive_tasks(probs, label_tasks, 0.7) == frozenset({"t2"})
        assert derive_tasks(probs, label_tasks, 0.71) == frozenset()

    def test_threshold_is_inclusive(self):
        assert derive_tasks({"F": 0.5}, {"F": {"t"}}, 0.5) == frozenset({"t"})


class TestMakePrediction:
    def test_family_mode_breaks_probability_ties_lexicographically(self):
        p = make_prediction(
            {"b": 0.5, "a": 0.5},
            {"a": frozenset({"t1"}), "b": frozenset({"t2"})},
            mode="family",
            task_threshold=0.5,
            retained_chunks=3,
        )
        assert p.predicted_family == "a"
        assert p.predicted_tasks == frozenset({"t1", "t2"})
        assert p.retained_chunks == 3 and not p.degenerate

    def test_direct_mode_thresholds_each_task_independently(self):
        p = make_prediction(
            {"t1": 0.9, "t2": 0.49},
            None,
            mode="direct",
            task_threshold=0.5,
            retained_chunks=0,
            degenerate=True,
        )
        assert p.predicted_family is None
        assert p.predicted_tasks == frozenset({"t1"})
        assert p.degenerate

    def test_family_mode_requires_label_map(self):
        with pytest.raises(ValueError, match="family mode requires"):
            make_prediction({"F": 1.0}, None, mode="family",
                            task_threshold=0.5, retained_chunks=1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            make_prediction({"F": 1.0}, {"F": frozenset()}, mode="both",
                            task_threshold=0.5, retained_chunks=1)


class TestCorpusFiles:
    def test_round_trip_preserves_corpus(self, tmp_path):
        rng = random.Random(11)
        for k in range(10):
            c = random_corpus(rng)
            path = tmp_path / f"c{k}.jsonl"
            save_corpus(c, path)
            assert load_corpus(path) == c

    def test_serialization_is_byte_deterministic(self, tmp_path, shared_task_corpus):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(shared_task_corpus, p1)
        reordered = Corpus(
            tuple(reversed(shared_task_corpus.samples)), shared_task_corpus.families
        )
        # Same sample order must give identical bytes; order itself is preserved.
        save_corpus(shared_task_corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert load_corpus(p1) == reordered

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
        ],
    )
    def test_format_errors_name_the_line(self, tmp_path, lines, lineno, fragment):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=fragment) as exc:
            read_corpus_records(path)
        assert exc.value.line == lineno
        assert f"line {lineno}:" in str(exc.value)


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self):
        assert canonical_json({"b": 1, "a": [2, 1]}) == '{"a":[2,1],"b":1}'

    @given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_key_order_never_changes_output(self, d):
        shuffled = dict(reversed(list(d.items())))
        assert canonical_json(d) == canonical_json(shuffled)
