"""Domain types, the indexed corpus, and the line-oriented corpus file format.

A sample is one observed binary: an immutable set of namespaced attribute
tokens ("usesDLL:kernel32.dll", "regAct:hklm\\software\\...", "proAct"),
optionally labeled with the malware family it belongs to and the task set
that family performs.  Attribute tokens are opaque to every model; only set
membership matters.

A corpus is an immutable collection of fully labeled samples together with
the family -> task-set map and a fan index (for each attribute, the number
of samples containing it).  The fan index is what the activation models read
at prediction time, so it is computed once at construction.

Models score in one of two modes: "family" (one label per family, whose
tasks follow) or "direct" (one label per task).  `label_space` alone checks
the mode and enumerates its labels; its LabelSpace turns label probabilities
into Predictions through `make_prediction`, the one task-derivation path.

Corpus files are UTF-8 text, one JSON object per line (LF terminated).  The
first line is a header carrying the family map:

    {"families": {"zeus": ["beacon", "keylog"], ...}}

and every following line is one sample record:

    {"attributes": [...], "family": "zeus", "id": "a3f...", "tasks": [...]}

``family`` and ``tasks`` may be null for unlabeled records (as produced by
report ingestion); ``load_corpus`` rejects those, ``read_corpus_records``
tolerates them.  All objects are written with sorted keys and sorted value
arrays so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

AttributeId = str
FamilyId = str
TaskId = str
AttributeSet = frozenset

MODES = ("family", "direct")


class CorpusError(ValueError):
    """A sample or corpus violates the labeling/shape contract."""


class CorpusFormatError(CorpusError):
    """A corpus file line could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


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
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.s <= 0:
            raise ValueError(f"temperature s must be positive, got {self.s}")
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
    probability per task in direct mode.  predicted_tasks is derived from
    class_probs by the shared thresholding op; predicted_family is None in
    direct mode.  degenerate marks retrieval fallback (no chunk reached tau).
    """

    class_probs: Mapping[str, float]
    predicted_tasks: frozenset
    predicted_family: FamilyId | None
    retained_chunks: int
    degenerate: bool = False


class Corpus:
    """Immutable labeled sample collection with a fan index.

    Equality is order-insensitive: two corpora are equal when they hold the
    same sample set and the same family map.
    """

    def __init__(self, samples: Sequence[Sample], families: Mapping[FamilyId, frozenset]):
        self._samples = tuple(samples)
        self._families = {f: frozenset(ts) for f, ts in families.items()}
        fan = Counter()
        members: dict[FamilyId, list] = {}
        for i, s in enumerate(self._samples):
            fan.update(s.attribs)
            members.setdefault(s.family, []).append(i)
        self._fan = dict(fan)
        self._members = {f: tuple(ix) for f, ix in members.items()}

    @property
    def samples(self) -> tuple:
        return self._samples

    @property
    def families(self) -> dict:
        return self._families

    @property
    def fan(self) -> dict:
        """Per-attribute sample counts over the whole corpus."""
        return self._fan

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
        return self._members.get(family, ())

    def __len__(self) -> int:
        return len(self._samples)

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
            f"{len(self._families)} families, {len(self._fan)} attributes)"
        )


def build_corpus(samples: Iterable[Sample], families: Mapping[FamilyId, Iterable[TaskId]]) -> Corpus:
    """Validate labels and construct an indexed corpus.

    Every sample must carry a family present in `families` and a non-empty
    attribute set; sample task sets are filled in from the family map and
    must match it when already present.  Duplicate sample ids are rejected.
    """
    fam_tasks = {f: frozenset(ts) for f, ts in families.items()}
    seen = set()
    out = []
    for s in samples:
        if s.id in seen:
            raise CorpusError(f"duplicate sample id {s.id!r}")
        seen.add(s.id)
        if s.family is None:
            raise CorpusError(f"sample {s.id!r} is unlabeled (family is None)")
        if s.family not in fam_tasks:
            raise CorpusError(
                f"sample {s.id!r} has family {s.family!r} absent from the family map"
            )
        if not s.attribs:
            raise CorpusError(f"sample {s.id!r} has an empty attribute set")
        expected = fam_tasks[s.family]
        if s.tasks is None:
            s = Sample(s.id, s.attribs, s.family, expected)
        elif s.tasks != expected:
            raise CorpusError(
                f"sample {s.id!r} declares tasks {sorted(s.tasks)} but family "
                f"{s.family!r} maps to {sorted(expected)}"
            )
        out.append(s)
    return Corpus(out, fam_tasks)


def attribute_matrix(corpus: Corpus) -> tuple:
    """Sorted attribute vocabulary, column index, and boolean presence matrix.

    Row i corresponds to corpus.samples[i]; column j to vocab[j].  Shared by
    every model that works against a design matrix.
    """
    vocab = sorted(corpus.fan)
    col = {a: j for j, a in enumerate(vocab)}
    x = np.zeros((corpus.size, len(vocab)), dtype=bool)
    for i, s in enumerate(corpus.samples):
        for a in s.attribs:
            x[i, col[a]] = True
    return vocab, col, x


def query_cols(col: Mapping[str, int], query) -> tuple:
    """(sorted columns of the known attributes, count of unseen ones) for a
    non-empty query; `col` maps each training attribute to its column."""
    query = frozenset(query)
    if not query:
        raise ValueError("query attribute set is empty")
    cols = sorted(col[a] for a in query if a in col)
    return np.array(cols, dtype=int), len(query) - len(cols)


def derive_tasks(class_probs: Mapping[str, float], label_tasks: Mapping[str, Iterable[TaskId]],
                 threshold: float) -> frozenset:
    """Tasks whose summed label probability mass reaches the threshold.

    In family mode each family contributes its probability to every task it
    performs; in direct mode the label map is the identity and this reduces
    to thresholding each task's own probability.
    """
    mass: dict[str, float] = {}
    for label, p in class_probs.items():
        for t in label_tasks[label]:
            mass[t] = mass.get(t, 0.0) + p
    return frozenset(t for t, m in mass.items() if m >= threshold)


def make_prediction(class_probs: Mapping[str, float],
                    label_tasks: Mapping[str, frozenset] | None,
                    *, mode: str, task_threshold: float,
                    retained_chunks: int, degenerate: bool = False) -> Prediction:
    """Assemble a Prediction from label probabilities.

    The single task-derivation path for all models: family mode needs the
    family -> tasks map, direct mode passes label_tasks=None and each label
    is its own task.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    family = None
    if mode == "family":
        if label_tasks is None:
            raise ValueError("family mode requires the family -> tasks map")
        best = -math.inf
        for label in sorted(class_probs):
            if class_probs[label] > best:
                best = class_probs[label]
                family = label
    else:
        label_tasks = {t: frozenset((t,)) for t in class_probs}
    tasks = derive_tasks(class_probs, label_tasks, task_threshold)
    return Prediction(
        class_probs=dict(class_probs),
        predicted_tasks=tasks,
        predicted_family=family,
        retained_chunks=retained_chunks,
        degenerate=degenerate,
    )


@dataclass(frozen=True, eq=False)
class LabelSpace:
    """The labels a model scores over a corpus, in one mode.

    family  one label per family; groups[i] holds the members of labels[i]
            and label_tasks maps each family to the tasks it performs
    direct  one label per task; groups[i] holds the samples performing
            labels[i] and label_tasks is None (each label is its own task)

    Labels are sorted; groups are sorted sample-index arrays.
    """

    mode: str
    labels: tuple
    groups: tuple
    label_tasks: Mapping[str, frozenset] | None

    def presence_rates(self, x: np.ndarray, smoothing: float) -> tuple:
        """Smoothed (labels x vocab) presence rates over the design matrix x.

            p(a|l)  = (count(a, l) + sm) / (|l| + 2 sm)
            p(a|~l) = (count(a) - count(a, l) + sm) / (|M| - |l| + 2 sm)

        Returns (p(a|l), p(a|~l)).
        """
        if smoothing <= 0:
            raise ValueError(f"smoothing must be positive, got {smoothing}")
        sm = smoothing
        sizes = np.array([g.size for g in self.groups], dtype=float)
        present = np.stack([x[g].sum(axis=0) for g in self.groups]).astype(float)
        given = (present + sm) / (sizes[:, None] + 2 * sm)
        not_given = ((x.sum(axis=0)[None, :] - present + sm)
                     / ((x.shape[0] - sizes)[:, None] + 2 * sm))
        return given, not_given

    def prediction(self, probs, task_threshold: float,
                   retained_chunks: int | None = None,
                   degenerate: bool = False) -> Prediction:
        """Prediction from probabilities aligned with `labels`; retained_chunks
        defaults to the label count, for models in which every label competes."""
        return make_prediction(
            {label: float(p) for label, p in zip(self.labels, probs)},
            self.label_tasks,
            mode=self.mode,
            task_threshold=task_threshold,
            retained_chunks=len(self.labels) if retained_chunks is None else retained_chunks,
            degenerate=degenerate,
        )


def label_space(corpus: Corpus, mode: str) -> LabelSpace:
    """The family or direct-task label space of a corpus."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "family":
        labels = sorted(corpus.families)
        groups = [corpus.members(f) for f in labels]
        label_tasks = dict(corpus.families)
    else:
        labels = sorted(corpus.tasks)
        groups = [[i for i, s in enumerate(corpus.samples) if t in s.tasks]
                  for t in labels]
        label_tasks = None
    return LabelSpace(mode, tuple(labels),
                      tuple(np.array(g, dtype=int) for g in groups), label_tasks)


def canonical_json(obj) -> str:
    """One-line canonical JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sample_record(s: Sample) -> dict:
    return {
        "id": s.id,
        "family": s.family,
        "tasks": sorted(s.tasks) if s.tasks is not None else None,
        "attributes": sorted(s.attribs),
    }


def write_corpus_records(path, samples: Iterable[Sample],
                         families: Mapping[FamilyId, Iterable[TaskId]]) -> None:
    """Write header + sample records; tolerates unlabeled samples."""
    header = {"families": {f: sorted(ts) for f, ts in families.items()}}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(header) + "\n")
        for s in samples:
            fh.write(canonical_json(_sample_record(s)) + "\n")


def save_corpus(corpus: Corpus, path) -> None:
    write_corpus_records(path, corpus.samples, corpus.families)


def read_corpus_records(path) -> tuple:
    """Parse a corpus file into (families, samples) without label validation.

    Unlabeled records (family/tasks null) pass through; structural problems
    raise CorpusFormatError naming the 1-based line.
    """
    families: dict[str, frozenset] = {}
    samples: list[Sample] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CorpusFormatError("empty corpus file", 1)
    for n, raw in enumerate(lines, start=1):
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise CorpusFormatError(f"invalid JSON ({e.msg})", n) from e
        if not isinstance(obj, dict):
            raise CorpusFormatError("expected a JSON object", n)
        if n == 1:
            fams = obj.get("families")
            if not isinstance(fams, dict):
                raise CorpusFormatError('header must carry a "families" object', 1)
            for f, ts in fams.items():
                if not isinstance(ts, list) or not all(isinstance(t, str) for t in ts):
                    raise CorpusFormatError(
                        f"family {f!r} must map to a list of task ids", 1
                    )
                families[f] = frozenset(ts)
            continue
        missing = [k for k in ("id", "family", "tasks", "attributes") if k not in obj]
        if missing:
            raise CorpusFormatError(f"record missing keys {missing}", n)
        sid = obj["id"]
        if not isinstance(sid, str) or not sid:
            raise CorpusFormatError("record id must be a non-empty string", n)
        if sid in seen:
            raise CorpusFormatError(f"duplicate sample id {sid!r}", n)
        seen.add(sid)
        attrs = obj["attributes"]
        if (not isinstance(attrs, list) or not attrs
                or not all(isinstance(a, str) for a in attrs)):
            raise CorpusFormatError(
                f"sample {sid!r} needs a non-empty list of attribute strings", n
            )
        family = obj["family"]
        if family is not None and not isinstance(family, str):
            raise CorpusFormatError(f"sample {sid!r} family must be a string or null", n)
        tasks = obj["tasks"]
        if tasks is not None and (
                not isinstance(tasks, list) or not all(isinstance(t, str) for t in tasks)):
            raise CorpusFormatError(f"sample {sid!r} tasks must be a list or null", n)
        samples.append(Sample(
            id=sid,
            attribs=frozenset(attrs),
            family=family,
            tasks=frozenset(tasks) if tasks is not None else None,
        ))
    return families, samples


def load_corpus(path) -> Corpus:
    """Parse and validate a fully labeled corpus file."""
    families, samples = read_corpus_records(path)
    return build_corpus(samples, families)
