"""Domain types, the indexed corpus, and the line-oriented corpus file format.

A sample is one observed binary: an immutable set of namespaced attribute
tokens ("usesDLL:kernel32.dll", "regAct:hklm\\software\\...", "proAct"),
optionally labeled with the malware family it belongs to and the task set
that family performs.  Attribute tokens are opaque to every model; only set
membership matters.

A corpus is an immutable collection of fully labeled samples together with
the family -> task-set map.  Its attribute index (vocabulary, columns, the
sample -> attribute links as plain CSR arrays, each family's rows; the fan
and the attribute -> sample view are read from it) is built on first use and
kept, so every model of the corpus, and every fold downdated from one,
shares it without a copy: a held-out instance model adds only the rows it
still holds and their fans, a held-out count model only its counts.  Only
the trees and logistic regression densify it.

Rows leave one way.  `renumbering` reads every held-out row set: it checks
that the rows are distinct integer rows of the object they leave (else
ValueError naming one) and numbers the rows that stay, in order.
`Corpus.without` gives the corpus less the rows, with only the families
that still have a sample (the corpus itself when none leaves), and
`LabelSpace.without` and the models' `without` read their rows the same way.

Models score in one of two modes: "family" (one label per family, whose
tasks follow) or "direct" (one label per task).  `label_space` alone checks
the mode and enumerates its labels (each carried by some sample), their
tasks and their columns (the distinct sample sets), and rejects an empty
corpus and a direct mode without tasks; `LabelSpace.without` derives,
through the same numbering, the label space of the corpus less a set of rows.
Models score label columns; `LabelSpace.prediction` alone maps them to
labels (the family, and each task's summed label mass thresholded).

`LinearModel` is the one scorer of the models that are linear in the query's
attributes (naive Bayes, the rule model, logistic regression): a bias per
label column, a weight per label column and attribute, a floor per unseen
attribute, and optionally the mean over the query instead of the sum, scaled
by w, then a softmax over families or a sigmoid per task at temperature s.
Like every model it keeps the scoring contract that `methods.predict` reads
(`space`, `col`, `scores(cols, n_unseen)`; `query_cols` gives the columns).
A `CountModel` is a LinearModel fitted from presence counts (naive Bayes,
the rule model); `without(rows)` refits it from the counts less those rows',
so holding samples out never recounts a corpus.  Each fit checks, through
`check_smoothed`, that its `smoothing` gives it rates it can take the log
of, and refuses the smoothing by name otherwise.

Corpus files are UTF-8 text, one JSON object per line.  The first line is a
header carrying the family map:

    {"families": {"zeus": ["beacon", "keylog"], ...}}

and every following line is one sample record:

    {"attributes": [...], "family": "zeus", "id": "a3f...", "tasks": [...]}

``family`` and ``tasks`` may be null for unlabeled records (as produced by
report ingestion); ``load_corpus`` rejects those, naming the file and the
line, ``read_corpus_records`` tolerates them.  All objects are written with
sorted keys and sorted value arrays so identical inputs serialize
byte-identically; `write_json_lines` is the one writer of this and every
other JSON-lines file the program writes (LF line ends), and its mirror
`read_json_lines` the one reader (LF, CRLF or CR line ends), in one pass.
`json_object` is the one JSON decoder, of those lines and of the report and
config documents `ingest` reads, and says in one wording why a text holds no
JSON object.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

FamilyId = str
TaskId = str

MODES = ("family", "direct")
# The distinct predicted task sets a label space keeps, each as one shared
# frozenset.  A direct-mode model can see up to 2**len(tasks) of them, so the
# table stops growing here and any further set is built fresh.
TASK_SETS_KEPT = 1024


class CorpusError(ValueError):
    """A sample or corpus violates the labeling/shape contract; `row` is the
    position of the offending sample among the samples given, when one is."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class CorpusFormatError(CorpusError):
    """A line of a JSON-lines file is wrong: it could not be read, or the
    record on it breaks the corpus format or the labeling contract.  Carries
    the 1-based line number and the file, which the message names first:
    "b.jsonl: line 2: ..."."""

    def __init__(self, message: str, line: int | None = None, path=None):
        where = "" if line is None else f"line {line}: "
        super().__init__(where + message if path is None else f"{path}: {where}{message}")
        self.line, self.path = line, path


@dataclass(frozen=True)
class Sample:
    """One observed binary: an attribute set plus optional labels."""

    id: str
    attribs: frozenset
    family: FamilyId | None = None
    tasks: frozenset | None = None

    def __post_init__(self):
        object.__setattr__(self, "attribs", frozenset(self.attribs))
        if self.tasks is not None:
            object.__setattr__(self, "tasks", frozenset(self.tasks))


def check_finite(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is a finite real number
    (a bool is not one)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_count(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is an int (a bool is not
    one) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def check_smoothed(smoothing: float, values: np.ndarray, high: float, what: str) -> None:
    """Raise ValueError naming `smoothing` unless every one of `values`, the
    `what`s its smoothed counts give, lies strictly between 0 and `high`: a
    smoothing too small for the counts rounds a rate to 0 or 1, and one too
    large overflows their sums."""
    if not ((values > 0) & (values < high)).all():
        raise ValueError(f"smoothing {smoothing!r} gives a {what} outside (0, {high:g}) "
                         "for these counts")


@dataclass(frozen=True)
class ActrParams:
    """Retrieval parameters shared by the activation models.

    beta    constant base-level activation added to every memory chunk
    s       softmax temperature (deterministic; no sampled noise)
    tau     activation threshold below which chunks are not retrieved
    mp      partial-matching scale on the attribute-overlap term
    w       attribute association weight used by the rule-based model
    task_threshold   minimum summed probability mass to predict a task
    partial_matching "overlap" scores shared attributes as a nonnegative
                     bonus; "deficit" scores the complement as a penalty in
                     [-mp, 0] (same ordering, shifted by -mp)

    beta, s, tau, mp and w are at most 1e100 in magnitude and s is at least
    1e-100, so a score, and a score difference over s, stays far inside the
    float range: no activation, score or softmax step overflows, and every
    prediction is finite.
    """

    beta: float = 20.0
    s: float = 0.1
    tau: float = -10.0
    mp: float = 20.0
    w: float = 16.0
    task_threshold: float = 0.5
    partial_matching: str = "overlap"

    def __post_init__(self):
        for name in ("beta", "s", "tau", "mp", "w", "task_threshold"):
            check_finite(name, getattr(self, name))
        for name in ("beta", "s", "tau", "mp", "w"):
            if abs(value := getattr(self, name)) > 1e100:
                raise ValueError(f"{name} must be at most 1e100 in magnitude, got {value}")
        if self.s < 1e-100:
            raise ValueError(f"temperature s must be at least 1e-100, got {self.s}")
        if self.mp < 0:
            raise ValueError(f"mismatch scale mp must be nonnegative, got {self.mp}")
        if not 0.0 < self.task_threshold <= 1.0:
            raise ValueError(
                f"task_threshold must be in (0, 1], got {self.task_threshold}"
            )
        if self.partial_matching not in ("overlap", "deficit"):
            raise ValueError(
                f"partial_matching must be 'overlap' or 'deficit', "
                f"got {self.partial_matching!r}"
            )


@dataclass(frozen=True)
class Prediction:
    """Outcome of one query against a trained model.

    class_probs holds the model's distribution over its labels: families in
    family mode (sums to 1 when any chunk was retained), one independent
    probability per task in direct mode; it is a read-only `ClassProbs`
    mapping in label order.  predicted_tasks is derived from class_probs by
    the shared thresholding op, and equal sets from one label space are one
    frozenset; predicted_family is None in direct mode.  degenerate marks
    retrieval fallback (no chunk reached tau).
    """

    class_probs: Mapping[str, float]
    predicted_tasks: frozenset
    predicted_family: FamilyId | None
    retained_chunks: int
    degenerate: bool = False


class ClassProbs(Mapping):
    """A prediction's probability of each label, as a read-only mapping in
    label order: the labels' float array (made read-only) and the label
    space's label -> position dict, shared by all its predictions.  Values
    are Python floats; it compares equal to the dict of the same items, and
    `dict(...)` gives that dict (to change or to write as JSON)."""

    __slots__ = ("_probs", "_position")

    def __init__(self, probs: np.ndarray, position: dict):
        probs.flags.writeable = False
        self._probs, self._position = probs, position

    def __getitem__(self, label) -> float:
        return float(self._probs[self._position[label]])

    def __iter__(self) -> Iterator:
        return iter(self._position)

    def __len__(self) -> int:
        return len(self._position)

    def items(self) -> ItemsView:
        return _ProbItems(self)

    def values(self) -> ValuesView:
        return _ProbValues(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _ProbItems(ItemsView):
    """A ClassProbs' items, read from one `tolist()` of its array."""

    __slots__ = ()

    def __iter__(self) -> Iterator:
        return zip(self._mapping._position, self._mapping._probs.tolist())


class _ProbValues(ValuesView):
    """A ClassProbs' values, read from one `tolist()` of its array."""

    __slots__ = ()

    def __iter__(self) -> Iterator:
        return iter(self._mapping._probs.tolist())


@dataclass(frozen=True, eq=False)
class AttributeIndex:
    """The one indexing of a corpus's attributes: row i is corpus.samples[i].

    The (row, column) links are CSR arrays, read-only int32 since every model
    shares them: row i holds columns[offsets[i]:offsets[i + 1]], in its
    attribute set's order.  The by-attribute view and the dense matrix are
    derived from them.
    """

    vocab: list                 # sorted attributes; column j is vocab[j]
    col: dict                   # attribute -> column
    offsets: np.ndarray         # (samples + 1,) where each row's links start
    columns: np.ndarray         # the column of every link, row after row
    members: dict               # family -> its rows, ascending

    @property
    def size(self) -> int:
        """The row (sample) count."""
        return self.offsets.size - 1

    @property
    def nbytes(self) -> int:
        """Bytes held by the link arrays."""
        return self.offsets.nbytes + self.columns.nbytes

    def _link_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.size), np.diff(self.offsets))

    @cached_property
    def by_attribute(self) -> tuple:
        """(start, rows): the rows holding vocab[j] are rows[start[j]:start[j + 1]],
        ascending (the links in CSC form; rows intp, read-only).  Built on
        first use and kept, so every model of the corpus reads one copy.  A
        row holds a column once, so the keys column * size + row are distinct
        and one sort orders the links by column, then by row."""
        fan = np.bincount(self.columns, minlength=len(self.vocab))
        keys = np.sort(self.columns * np.int64(self.size) + self._link_rows())
        rows = keys - np.repeat(np.arange(fan.size) * self.size, fan)
        start = np.concatenate(([0], np.cumsum(fan)))
        for a in (start, rows):
            a.flags.writeable = False
        return start, rows

    def dense(self, dtype, order=None) -> np.ndarray:
        """The (samples x vocab) presence matrix as a new dense array of
        `dtype`: 1 where a row holds a column, else 0.  Its row i is index
        row order[i], for a permutation `order` of the rows (default: row i),
        written there directly, so no second copy is made."""
        rows = self._link_rows()
        if order is not None:
            at = np.empty(self.size, dtype=np.intp)
            at[order] = np.arange(self.size)
            rows = at[rows]
        x = np.zeros((self.size, len(self.vocab)), dtype=dtype)
        x.reshape(-1)[rows * len(self.vocab) + self.columns] = 1
        return x

    def links(self, rows: Sequence[int]) -> tuple:
        """(row, column) of every attribute the given rows hold, row after row."""
        rows = np.asarray(rows, dtype=np.intp)
        held = [self.columns[self.offsets[r]:self.offsets[r + 1]] for r in rows.tolist()]
        return np.repeat(rows, [c.size for c in held]), np.concatenate([self.columns[:0], *held])


def renumbering(size: int, rows: Sequence[int]) -> np.ndarray:
    """The index of each of `size` rows once the distinct `rows` leave, the
    rest keeping their order: -1 for a row that leaves.  Every held-out row
    set is read here: rows that are not a sequence (callers read them more
    than once, so an iterator or a set is refused), a row that is not an
    integer (a bool, a float, a string or a nested row set is not), outside
    range(size), or given twice, raises ValueError naming it."""
    if not (isinstance(rows, Sequence) or isinstance(rows, np.ndarray) and rows.ndim):
        raise ValueError(f"rows must be a sequence of integers, got {rows!r}")
    for row in rows:
        if isinstance(row, bool) or not isinstance(row, numbers.Integral):
            raise ValueError(f"row {row!r} is not an integer")
        if not 0 <= row < size:
            raise ValueError(f"row {row} is outside range({size})")
    rows = np.asarray(rows, dtype=np.intp)      # a tuple is no multi-axis index
    kept = np.ones(size, dtype=bool)
    kept[rows] = False
    if np.count_nonzero(kept) + rows.size != size:
        raise ValueError(f"row {np.flatnonzero(np.bincount(rows) > 1)[0]} is given twice")
    return np.where(kept, np.cumsum(kept) - 1, -1)


class Corpus:
    """Immutable labeled sample collection with a lazily built attribute index.

    Equality is order-insensitive: two corpora are equal when they hold the
    same sample set and the same family map.
    """

    def __init__(self, samples: Sequence[Sample], families: Mapping[FamilyId, frozenset]):
        self._samples = tuple(samples)
        self._families = {f: frozenset(ts) for f, ts in families.items()}

    @cached_property
    def index(self) -> AttributeIndex:
        """Built on first use and kept: the samples never change."""
        vocab = sorted(frozenset().union(*(s.attribs for s in self._samples)))
        col = {a: j for j, a in enumerate(vocab)}
        offsets = np.cumsum([0] + [len(s.attribs) for s in self._samples], dtype=np.int32)
        columns = np.fromiter(
            map(col.__getitem__, chain.from_iterable(s.attribs for s in self._samples)),
            dtype=np.int32, count=offsets[-1])
        for a in (offsets, columns):
            a.flags.writeable = False
        members: dict[FamilyId, list] = {}
        for i, s in enumerate(self._samples):
            members.setdefault(s.family, []).append(i)
        return AttributeIndex(vocab, col, offsets, columns,
                              {f: tuple(ix) for f, ix in members.items()})

    @property
    def samples(self) -> tuple:
        return self._samples

    @property
    def families(self) -> dict:
        return self._families

    @property
    def fan(self) -> dict:
        """Per-attribute sample counts over the whole corpus."""
        return dict(zip(self.index.vocab, np.bincount(self.index.columns).tolist()))

    @property
    def size(self) -> int:
        return len(self._samples)

    @property
    def tasks(self) -> frozenset:
        """Union of all family task sets."""
        out = frozenset()
        for ts in self._families.values():
            out |= ts
        return out

    def members(self, family: FamilyId) -> tuple:
        """Indices of the samples labeled with `family`."""
        return self.index.members.get(family, ())

    def without(self, rows: Sequence[int]) -> Corpus:
        """The corpus less the distinct `rows` (read by `renumbering`), the
        other samples keeping their order and only the families that still
        have a sample; this corpus itself, index and all, when no row leaves
        and every family has a sample."""
        samples = tuple(compress(self._samples, (renumbering(self.size, rows) >= 0).tolist()))
        present = {s.family for s in samples}
        if len(samples) == self.size and present == self._families.keys():
            return self
        return Corpus(samples, {f: t for f, t in self._families.items() if f in present})

    def __iter__(self) -> Iterator[Sample]:
        return iter(self._samples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            set(self._samples) == set(other._samples)
            and self._families == other._families
        )

    def __repr__(self) -> str:
        return (
            f"Corpus({len(self._samples)} samples, "
            f"{len(self._families)} families, {len(self.index.vocab)} attributes)"
        )


def build_corpus(samples: Iterable[Sample], families: Mapping[FamilyId, Iterable[TaskId]]) -> Corpus:
    """Validate labels and construct a corpus from unchecked samples.

    Every sample must carry a family present in `families` and a non-empty
    attribute set; sample task sets are filled in from the family map and
    must match it when already present.  Duplicate sample ids are rejected.
    Each CorpusError carries the offending sample's position as `row`.
    """
    fam_tasks = {f: frozenset(ts) for f, ts in families.items()}
    seen = set()
    out = []
    for row, s in enumerate(samples):
        if s.id in seen:
            raise CorpusError(f"duplicate sample id {s.id!r}", row)
        seen.add(s.id)
        if s.family is None:
            raise CorpusError(f"sample {s.id!r} is unlabeled (family is None)", row)
        if s.family not in fam_tasks:
            raise CorpusError(
                f"sample {s.id!r} has family {s.family!r} absent from the family map", row
            )
        if not s.attribs:
            raise CorpusError(f"sample {s.id!r} has an empty attribute set", row)
        expected = fam_tasks[s.family]
        if s.tasks is None:
            s = Sample(s.id, s.attribs, s.family, expected)
        elif s.tasks != expected:
            raise CorpusError(
                f"sample {s.id!r} declares tasks {sorted(s.tasks)} but family "
                f"{s.family!r} maps to {sorted(expected)}", row
            )
        out.append(s)
    return Corpus(out, fam_tasks)


def attribute_matrix(corpus: Corpus) -> tuple:
    """Sorted attribute vocabulary, column index, and `corpus.index` itself,
    whose read-only link arrays hold the boolean presence matrix (not a
    copy).  Shared by every model that works against a design matrix.
    """
    ix = corpus.index
    return ix.vocab, ix.col, ix


def query_cols(col: Mapping[str, int], query) -> tuple:
    """(sorted columns of the known attributes, count of unseen ones) for a
    non-empty query; `col` maps each training attribute to its column."""
    query = frozenset(query)
    if not query:
        raise ValueError("query attribute set is empty")
    cols = np.array([c for c in map(col.get, query) if c is not None], dtype=int)
    cols.sort()
    return cols, len(query) - cols.size


def softmax(z: np.ndarray, s: float = 1.0, axis: int = -1) -> np.ndarray:
    """exp(z / s) normalized along `axis`, shifted by the maximum for
    stability: a fresh array, every step after the shift in place."""
    w = z - np.maximum.reduce(z, axis=axis, keepdims=True)
    w /= s
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=axis, keepdims=True)
    return w


@dataclass(frozen=True, eq=False)
class LabelSpace:
    """The labels a model scores over a corpus, in one mode, and the tasks
    those labels predict.

    family  one label per family, whose column holds its members;
            incidence[i, k] is 1 when labels[i] performs tasks[k]
    direct  one label per task, whose column holds the samples performing
            it; tasks equals labels and incidence is None

    columns are the distinct sample groups, as sorted sample-index arrays in
    the order of their first label, and labels[i] owns columns[column_of[i]]:
    tasks a family performs together share one column, so models fit and
    score each column once and `prediction` reads it for all of them.  size
    is the corpus's sample count.  Labels and tasks are sorted.
    """

    mode: str
    labels: tuple
    columns: tuple
    column_of: np.ndarray
    size: int
    tasks: tuple
    incidence: np.ndarray | None

    @cached_property
    def member(self) -> np.ndarray:
        """The (samples x columns) float matrix with member[j, c] = 1.0 when
        sample j is in columns[c], else 0.0 (in family mode each row holds
        one 1.0): the targets the trees and logistic regression fit, and the
        instance model's map from chunk mass to columns.  Built on first
        use, so the models that never read it do not keep it."""
        member = np.zeros((self.size, len(self.columns)))
        for c, g in enumerate(self.columns):
            member[g, c] = 1.0
        return member

    @cached_property
    def position(self) -> dict:
        """label -> its position in labels, the key of every `ClassProbs`."""
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def task_sets(self) -> dict:
        """Predicted task sets by their threshold mask's bytes, so equal sets
        are one frozenset; `prediction` adds up to TASK_SETS_KEPT of them."""
        return {}

    @property
    def sizes(self) -> np.ndarray:
        """The sample count of each column."""
        return np.array([c.size for c in self.columns])

    def presence_counts(self, index: AttributeIndex) -> tuple:
        """Presence counts over the links of this space's corpus `index`:
        (present, total), where present[c, a] counts the samples of
        columns[c] holding attribute a (whole floats, as the rates read them;
        C order, so a fit sums a row in column order) and total[a] all the
        samples holding it.  A sample's tasks are its family's, so every
        column is a union of families: the links are counted per (family,
        attribute) in one bincount, and each column sums its families'."""
        v = len(index.vocab)
        family = np.empty(index.size, dtype=np.intp)
        for f, rows in enumerate(index.members.values()):
            family[list(rows)] = f
        counts = np.bincount(np.repeat(family * v, np.diff(index.offsets)) + index.columns,
                             minlength=len(index.members) * v).reshape(-1, v)
        first = [rows[0] for rows in index.members.values()]
        return self.member[first].T @ counts, np.bincount(index.columns, minlength=v)

    def presence_rates(self, present: np.ndarray, total: np.ndarray,
                       smoothing: float) -> tuple:
        """Smoothed (columns x vocab) presence rates from `presence_counts`.

            p(a|c)  = (count(a, c) + sm) / (|c| + 2 sm)
            p(a|~c) = (count(a) - count(a, c) + sm) / (|M| - |c| + 2 sm)

        Returns (p(a|c), p(a|~c)).
        """
        check_finite("smoothing", smoothing)
        if smoothing <= 0:
            raise ValueError(f"smoothing must be positive and finite, got {smoothing}")
        sm = smoothing
        sizes = self.sizes
        given = (present + sm) / (sizes[:, None] + 2 * sm)
        not_given = (total - present + sm) / ((self.size - sizes)[:, None] + 2 * sm)
        return given, not_given

    def without(self, rows) -> tuple:
        """(the label space of the corpus without the distinct `rows`, read by
        `renumbering` in this space's sample numbering, the column of this
        space each of its columns comes from).

        The remaining samples are renumbered in order; a label none of them
        carries goes, and so does, in family mode, a task no remaining label
        performs; columns that differed only by the rows merge, in first-label
        order.  The result is numbered by the code that numbers `label_space`,
        so it equals the label space of the remaining samples.  Leaving no
        labeled sample (no sample, or in direct mode none performing a task)
        raises ValueError, as training on the remaining samples does, and so
        does a row `renumbering` rejects.
        """
        number = renumbering(self.size, rows)
        reduced = [g[g >= 0] for g in (number[c] for c in self.columns)]
        keep = [k for k, c in enumerate(self.column_of.tolist()) if reduced[c].size]
        labels = tuple(self.labels[k] for k in keep)
        if not labels:
            raise ValueError("no label keeps a sample once these rows leave")
        tasks, incidence = self.tasks, self.incidence
        if len(labels) < len(self.labels):
            tasks = labels
            if self.mode == "family":
                performed = self.incidence[keep].any(axis=0)
                tasks = tuple(compress(self.tasks, performed))
                incidence = np.ascontiguousarray(self.incidence[np.ix_(keep, performed)])
        space = _numbered(self.mode, labels, reduced, self.column_of[keep].tolist(),
                          self.size - len(rows), tasks, incidence)
        first = np.unique(space.column_of, return_index=True)[1]
        return space, self.column_of[keep][first]

    def prediction(self, probs, task_threshold: float,
                   retained_chunks: int | None = None) -> Prediction:
        """Prediction from one probability per column, given to its labels.

        A task's mass is the summed probability of the labels performing it
        (direct mode: its own probability), added in label order; the tasks
        whose mass reaches task_threshold are predicted.  In family mode the
        family is the first most probable label.  retained_chunks defaults to
        the label count, for models in which every label competes; the
        prediction is degenerate when it is 0 (no chunk reached tau).  A
        non-finite probability raises ValueError naming its label, and one
        probability too many or too few raises it too.  class_probs reads the
        labels' probabilities as a `ClassProbs`; the task set is looked up by
        its threshold mask in `task_sets`.
        """
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (len(self.columns),):
            raise ValueError(f"{probs.size} probabilities for {len(self.columns)} columns")
        probs = probs[self.column_of]
        if not np.logical_and.reduce(np.isfinite(probs)):
            i = int(np.flatnonzero(~np.isfinite(probs))[0])
            kind = "family" if self.mode == "family" else "task"
            raise ValueError(f"probability of {kind} {self.labels[i]!r} "
                             f"is {probs[i]}, not a finite number")
        family, mass = None, probs
        if self.mode == "family":
            family = self.labels[probs.argmax()]
            mass = np.add.reduce(probs[:, None] * self.incidence, axis=0)
        mask = mass >= task_threshold
        key, sets = mask.tobytes(), self.task_sets
        tasks = sets.get(key)
        if tasks is None:
            tasks = frozenset(compress(self.tasks, mask))
            if len(sets) < TASK_SETS_KEPT:
                sets[key] = tasks
        return Prediction(
            class_probs=ClassProbs(probs, self.position),
            predicted_tasks=tasks,
            predicted_family=family,
            retained_chunks=len(self.labels) if retained_chunks is None else retained_chunks,
            degenerate=retained_chunks == 0,
        )


def label_space(corpus: Corpus, mode: str) -> LabelSpace:
    """The family or direct-task label space of a corpus; an empty corpus, a
    direct mode with no task to label, or a label no sample carries (named)
    raises ValueError."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if corpus.size == 0:
        raise ValueError("cannot train on an empty corpus")
    tasks = tuple(sorted(corpus.tasks))
    if mode == "direct" and not tasks:
        raise ValueError("direct mode needs a task, but the corpus's families perform none")
    members = {f: np.array(corpus.members(f), dtype=int) for f in corpus.families}
    if mode == "family":
        labels = tuple(sorted(corpus.families))
        groups = [members[f] for f in labels]
        incidence = np.array([[t in corpus.families[f] for t in tasks] for f in labels],
                             dtype=float)
    else:
        labels = tasks
        performers = {t: [] for t in tasks}
        for f, ts in corpus.families.items():
            for t in ts:
                performers[t].append(members[f])
        groups = [np.sort(np.concatenate(performers[t])) for t in labels]
        incidence = None
    return _numbered(mode, labels, groups, range(len(labels)), corpus.size, tasks,
                     incidence)


def _numbered(mode: str, labels: tuple, groups: list, group_of: Sequence[int],
              size: int, tasks: tuple, incidence: np.ndarray | None) -> LabelSpace:
    """The label space in which labels[i] holds the samples groups[group_of[i]]:
    each distinct group is one column, numbered in first-label order, and a
    group that several labels hold is keyed once.  A label with no samples
    raises ValueError naming it."""
    kind = "family" if mode == "family" else "task"
    number: dict = {}           # a column's sample indices, as bytes -> its index
    column_at: dict = {}        # group index -> its column
    columns, column_of = [], []
    for label, k in zip(labels, group_of):
        if k not in column_at:
            if not groups[k].size:
                raise ValueError(f"{kind} {label!r} has no samples")
            c = column_at[k] = number.setdefault(groups[k].tobytes(), len(columns))
            if c == len(columns):
                columns.append(groups[k])
        column_of.append(column_at[k])
    return LabelSpace(mode, labels, tuple(columns), np.array(column_of, dtype=int),
                      size, tasks, incidence)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """A model that scores each label column linearly in the query's attributes.

    For a query with known columns K and n_unseen attributes outside `col`,

        z = bias + w * (weight[:, K].sum(1) / n) + n_unseen * floor

    where n is the query size when `mean` is set and 1 otherwise; family mode
    softmaxes z at temperature s, and direct mode gives each task the sigmoid
    of z / s (a task scoring +inf gets exactly 1).  Naive Bayes and logistic
    regression set w and s to 1.0, which leaves z and its softmax exact.
    """

    space: LabelSpace
    col: Mapping[str, int]
    bias: np.ndarray                # (C,): the score of a query with no attributes
    weight: np.ndarray              # (C, d): the score a present attribute adds
    floor: np.ndarray | float       # the score an unseen attribute adds
    mean: bool                      # divide the weight sum by the query size
    w: float                        # the scale of the weight sum
    s: float                        # the temperature

    def scores(self, cols: np.ndarray, n_unseen: int) -> tuple:
        """(column probabilities, None: every label competes) of a query."""
        # The gather is F-ordered, so the sum adds the attributes one after
        # another in column order; a C-ordered one (`take`) sums pairwise.
        z = np.add.reduce(self.weight[:, cols], axis=1)
        if self.mean:
            z /= cols.size + n_unseen
        z *= self.w
        z += self.bias
        z += n_unseen * self.floor
        if self.space.mode == "family":
            return softmax(z, self.s), None
        with np.errstate(over="ignore"):
            z /= -self.s
            np.exp(z, out=z)
        z += 1.0
        return np.divide(1.0, z, out=z), None


@dataclass(frozen=True, eq=False)
class CountModel(LinearModel):
    """A linear model fitted from the presence counts of its training corpus
    (naive Bayes, the rule model): `fit(space, present, total, smoothing)`
    gives its (bias, weight, floor) per label column.  Leaving samples out
    downdates the counts instead of recounting the rest of the corpus, so
    the model keeps the corpus's attribute index (not its samples)."""

    index: AttributeIndex
    smoothing: float
    fit: Callable

    @classmethod
    def train(cls, corpus: Corpus, mode: str, smoothing: float, fit: Callable,
              mean: bool, w: float, s: float) -> "CountModel":
        space = label_space(corpus, mode)
        _, col, index = attribute_matrix(corpus)
        return cls(space, col, *fit(space, *space.presence_counts(index), smoothing),
                   mean, w, s, index, smoothing, fit)

    @cached_property
    def counts(self) -> tuple:
        """(present, total) of `LabelSpace.presence_counts`, recounted on first
        use: only leaving samples out reads them."""
        return self.space.presence_counts(self.index)

    def without(self, rows) -> LinearModel:
        """The model fitted on every sample of its corpus but the distinct
        `rows`, as training on them gives it: the rows' attributes are
        subtracted from the counts of the columns holding them and from the
        totals, and an attribute only they held leaves the vocabulary, so a
        query's copy of it is unseen."""
        space, source = self.space.without(rows)
        present, total = self.counts
        row, attr = self.index.links(rows)
        link, c = np.nonzero(self.space.member[row][:, source])
        present = present[source]
        np.subtract.at(present, (c, attr[link]), 1)
        total = total - np.bincount(attr, minlength=total.size)
        col = self.col
        if not total.all():
            kept = total > 0
            present, total = np.ascontiguousarray(present[:, kept]), total[kept]
            col = dict(zip(compress(self.col, kept.tolist()), range(total.size)))
        return LinearModel(space, col, *self.fit(space, present, total, self.smoothing),
                           self.mean, self.w, self.s)


def canonical_json(obj) -> str:
    """One-line canonical JSON: sorted keys, no whitespace; NaN and infinities
    raise ValueError, since they are not JSON."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _sample_record(s: Sample) -> dict:
    return {
        "id": s.id,
        "family": s.family,
        "tasks": sorted(s.tasks) if s.tasks is not None else None,
        "attributes": sorted(s.attribs),
    }


def write_json_lines(path, objects: Iterable) -> None:
    """The one writer of the program's JSON-lines files (corpora, reports,
    predictions, generation reports): UTF-8, LF line ends, one
    `canonical_json` object per line, so equal objects give equal bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objects:
            fh.write(canonical_json(obj) + "\n")


def write_corpus_records(path, samples: Iterable[Sample],
                         families: Mapping[FamilyId, Iterable[TaskId]]) -> None:
    """Write header + sample records; tolerates unlabeled samples."""
    header = {"families": {f: sorted(ts) for f, ts in families.items()}}
    write_json_lines(path, chain([header], map(_sample_record, samples)))


def save_corpus(corpus: Corpus, path) -> None:
    write_corpus_records(path, corpus.samples, corpus.families)


def json_object(data) -> dict:
    """The object that one JSON document holds: the one `json.loads` of the
    program, and its one error mapping.  `data` is UTF-8 bytes or str.

    Raises ValueError saying why there is no object: "not UTF-8 text (…)",
    "invalid JSON (…)", "unreadable JSON (…)" (JSON that json.loads cannot
    build: an integer past the digit limit, nesting past the recursion
    limit) or "expected a JSON object".
    """
    try:
        obj = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as e:
        raise ValueError(f"not UTF-8 text ({e.reason})") from e
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON ({e.msg})") from e
    except (ValueError, RecursionError) as e:
        raise ValueError(f"unreadable JSON ({e})") from e
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    return obj


def read_json_lines(path) -> Iterator[tuple]:
    """The one reader of JSON-lines files, the mirror of `write_json_lines`:
    yields (line, object) for each line, numbered from 1.

    One pass through the text-mode reader, so lines end in LF, CRLF or CR.
    It carries bytes that are not UTF-8 as surrogate escapes; a line that is
    not ASCII goes back to its bytes, so that `json_object` decodes it
    strictly.  A line that `json_object` rejects raises CorpusFormatError
    naming the file and the line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for n, line in enumerate(fh, start=1):
            try:
                obj = json_object(line if line.isascii()
                                  else line.encode("utf-8", "surrogateescape"))
            except ValueError as e:
                raise CorpusFormatError(str(e), n, path) from e
            yield n, obj


def _interned(value) -> frozenset | None:
    """The set of a JSON list's strings, each interned, or None when `value`
    is not a list of strings (`sys.intern` raises TypeError on any other
    element)."""
    if not isinstance(value, list):
        return None
    try:
        return frozenset(map(sys.intern, value))
    except TypeError:
        return None


def read_corpus_records(path) -> tuple:
    """Parse a corpus file into (families, samples) without label validation.

    Attribute and task strings are interned (`sys.intern`): the process holds
    one object per distinct string, however many records and files repeat
    it, and the index's column lookups hit by identity.  Unlabeled records
    (family/tasks null) pass through; a line that `read_json_lines` cannot
    read, or whose object breaks the format, raises CorpusFormatError naming
    the file and the 1-based line.
    """
    lines = read_json_lines(path)
    _, header = next(lines, (None, None))
    if header is None:
        raise CorpusFormatError("empty corpus file", 1, path)
    fams = header.get("families")
    if not isinstance(fams, dict):
        raise CorpusFormatError('header must carry a "families" object', 1, path)
    families = {}
    for f, ts in fams.items():
        families[f] = _interned(ts)
        if families[f] is None:
            raise CorpusFormatError(f"family {f!r} must map to a list of task ids", 1, path)
    samples: list[Sample] = []
    seen: set[str] = set()
    for n, obj in lines:
        missing = [k for k in ("id", "family", "tasks", "attributes") if k not in obj]
        if missing:
            raise CorpusFormatError(f"record missing keys {missing}", n, path)
        sid, family, tasks, attrs = obj["id"], obj["family"], obj["tasks"], obj["attributes"]
        if not isinstance(sid, str) or not sid:
            raise CorpusFormatError("record id must be a non-empty string", n, path)
        if sid in seen:
            raise CorpusFormatError(f"duplicate sample id {sid!r}", n, path)
        seen.add(sid)
        attribs = _interned(attrs)
        if not attribs:
            raise CorpusFormatError(
                f"sample {sid!r} needs a non-empty list of attribute strings", n, path)
        if family is not None and not isinstance(family, str):
            raise CorpusFormatError(f"sample {sid!r} family must be a string or null", n, path)
        if tasks is not None:
            tasks = _interned(tasks)
            if tasks is None:
                raise CorpusFormatError(f"sample {sid!r} tasks must be a list or null", n, path)
        samples.append(Sample(sid, attribs, family, tasks))
    return families, samples


def load_corpus(path) -> Corpus:
    """Parse and validate a fully labeled corpus file.  A label error names
    the file and the line of its record (sample i is on line i + 2)."""
    families, samples = read_corpus_records(path)
    try:
        return build_corpus(samples, families)
    except CorpusError as e:
        raise CorpusFormatError(str(e), e.row + 2, path) from e
