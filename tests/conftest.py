"""Shared fixtures and small corpus factories for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from taskinfer.core import Corpus, Sample, build_corpus


def corpus_content(c: Corpus) -> tuple:
    """What a corpus holds, whatever its sample order: (sample set, family
    map).  Corpora themselves compare by identity."""
    return set(c.samples), c.families


def make_corpus(rows, families) -> Corpus:
    """rows: iterable of (id, attrs, family). families: {name: tasks}."""
    samples = [
        Sample(id=i, attribs=frozenset(attrs), family=fam)
        for i, attrs, fam in rows
    ]
    fam_map = {f: frozenset(ts) for f, ts in families.items()}
    return build_corpus(samples, fam_map)


@pytest.fixture
def two_family_corpus() -> Corpus:
    """Four samples, two families, one discriminative attribute each side."""
    return make_corpus(
        [
            ("s1", {"a", "b"}, "F1"),
            ("s2", {"a"}, "F1"),
            ("s3", {"b", "c"}, "F2"),
            ("s4", {"c"}, "F2"),
        ],
        {"F1": {"t1"}, "F2": {"t2"}},
    )


@pytest.fixture
def shared_task_corpus() -> Corpus:
    """Three families with overlapping task sets for threshold tests."""
    return make_corpus(
        [
            ("s1", {"a", "b"}, "F1"),
            ("s2", {"a", "c"}, "F1"),
            ("s3", {"b", "d"}, "F2"),
            ("s4", {"d", "e"}, "F2"),
            ("s5", {"e", "f"}, "F3"),
            ("s6", {"f", "a"}, "F3"),
        ],
        {"F1": {"t1", "t2"}, "F2": {"t2", "t3"}, "F3": {"t3"}},
    )


@pytest.fixture
def xor_corpus() -> Corpus:
    """Balanced XOR labels over a/b plus a constant padding attribute z.

    Every single-attribute split leaves both children at 50/50, so a greedy
    information-gain tree sees zero gain everywhere at the root.
    """
    rows = []
    patterns = [
        ({"a", "z"}, "F1"),
        ({"b", "z"}, "F1"),
        ({"a", "b", "z"}, "F2"),
        ({"z"}, "F2"),
    ]
    for rep in range(6):
        for k, (attrs, fam) in enumerate(patterns):
            rows.append((f"x{rep}.{k}", attrs, fam))
    return make_corpus(rows, {"F1": {"t1"}, "F2": {"t2"}})


@pytest.fixture
def and_corpus() -> Corpus:
    """F2 iff both a and b are present: needs two nested splits, not one."""
    rows = []
    patterns = [
        ({"a", "b"}, "F2"),
        ({"a"}, "F1"),
        ({"b"}, "F1"),
        ({"z"}, "F1"),
    ]
    for rep in range(6):
        for k, (attrs, fam) in enumerate(patterns):
            rows.append((f"n{rep}.{k}", attrs, fam))
    return make_corpus(rows, {"F1": {"t1"}, "F2": {"t2"}})
