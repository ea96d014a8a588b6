"""Evaluation harness: per-sample metrics, protocols, significance, reports.

Task predictions are scored per sample with set precision/recall/F1 (an
empty prediction against a non-empty truth scores 0 across the board, and a
prediction with no correct task scores F1 0).  Family accuracy is tracked
alongside in family mode and reported as not-applicable (None) when the
protocol makes it meaningless (leave-one-family-out) or the mode never
predicts a family (direct).

Three protocols: leave-one-out cross-validation over samples, repeated
stratified train/test splits, and leave-one-family-out; each picks its folds
and one fold runner trains and scores them.  Splits stratify per family and
draw their randomness positionally from a master seed stream, so two methods
evaluated with the same seed see byte-for-byte identical folds and their
per-sample scores align for paired significance testing.

Reports serialize as one canonical JSON object per line, like the corpus
format.  Wall-clock timings are kept out of the file by default (they are
the one nondeterministic field; the stdout table shows them), so identical
invocations produce byte-identical report files.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from scipy import stats as _scipy_stats

from .core import ActrParams, Corpus, build_corpus, canonical_json
from .methods import train_method

PROTOCOLS = ("loocv", "split", "lofo")


@dataclass(frozen=True)
class SampleScore:
    """Set-overlap scores of one prediction against one truth."""

    precision: float
    recall: float
    f1: float
    family_correct: bool | None = None
    sample_id: str = ""


def score_sample(predicted, truth) -> SampleScore:
    """Precision/recall/F1 of a predicted task set against the true one."""
    predicted = frozenset(predicted)
    truth = frozenset(truth)
    if not truth:
        raise ValueError("truth task set is empty; nothing to score against")
    hit = len(predicted & truth)
    precision = hit / len(predicted) if predicted else 0.0
    recall = hit / len(truth)
    f1 = 0.0
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return SampleScore(precision=precision, recall=recall, f1=f1)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class TrialReport:
    """Scores and timings for one evaluation run (or an aggregate of runs)."""

    method: str
    protocol: str
    mode: str
    seed: int
    scores: tuple
    train_time: float
    predict_time: float
    label: str = ""
    trials: tuple = ()

    @property
    def n_tested(self) -> int:
        return len(self.scores)

    @property
    def mean_precision(self) -> float:
        return _mean([s.precision for s in self.scores])

    @property
    def mean_recall(self) -> float:
        return _mean([s.recall for s in self.scores])

    @property
    def mean_f1(self) -> float:
        return _mean([s.f1 for s in self.scores])

    @property
    def family_accuracy(self) -> float | None:
        """Fraction of correctly named families; None where not applicable."""
        flags = [s.family_correct for s in self.scores if s.family_correct is not None]
        if not flags:
            return None
        return sum(flags) / len(flags)

    def f1_values(self) -> list:
        """Per-sample F1 in tested order, for paired comparisons."""
        return [s.f1 for s in self.scores]


def _fold(corpus: Corpus, train_ix: Sequence[int], test_ix: Sequence[int],
          method: str, mode: str, params: ActrParams | None, seed: int,
          train_seed: int, protocol: str, label: str = "") -> TrialReport:
    """Train on the rows train_ix, keeping as labels only the families present
    there, and score the rows test_ix in order.  Family accuracy is tracked
    in family mode, except under lofo, where the held-out family is no label."""
    train = [corpus.samples[i] for i in train_ix]
    present = {s.family for s in train}
    sub = build_corpus(train, {f: t for f, t in corpus.families.items() if f in present})
    t0 = time.perf_counter()
    predictor = train_method(method, sub, mode=mode, params=params, seed=train_seed)
    train_time = time.perf_counter() - t0
    track_family = mode == "family" and protocol != "lofo"
    scores = []
    predict_time = 0.0
    for i in test_ix:
        held = corpus.samples[i]
        t0 = time.perf_counter()
        pred = predictor(held.attribs)
        predict_time += time.perf_counter() - t0
        sc = score_sample(pred.predicted_tasks, held.tasks)
        fam = pred.predicted_family == held.family if track_family else None
        scores.append(replace(sc, family_correct=fam, sample_id=held.id))
    return TrialReport(method=method, protocol=protocol, mode=mode, seed=seed,
                       scores=tuple(scores), train_time=train_time,
                       predict_time=predict_time, label=label)


def loocv(corpus: Corpus, method: str, mode: str = "family",
          params: ActrParams | None = None, seed: int = 0) -> TrialReport:
    """Leave-one-out: train on all but one sample, predict it, rotate."""
    if corpus.size < 2:
        raise ValueError("leave-one-out needs at least 2 samples")
    n = corpus.size
    folds = [_fold(corpus, [*range(i), *range(i + 1, n)], [i], method, mode,
                   params, seed, seed, "loocv")
             for i in range(n)]
    return replace(combine(folds, label=""), trials=())


def stratified_split(corpus: Corpus, train_frac: float,
                     rng: random.Random) -> tuple:
    """Per-family shuffle into (train indices, test indices).

    Train counts are round(train_frac * |family|), clamped so both sides of
    every family stay non-empty; families with fewer than 2 samples are
    rejected.
    """
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must be in (0, 1), got {train_frac}")
    train: list = []
    test: list = []
    for f in sorted(corpus.families):
        members = list(corpus.members(f))
        if len(members) < 2:
            raise ValueError(
                f"family {f!r} has {len(members)} sample(s); "
                "stratified splitting needs at least 2 per family"
            )
        rng.shuffle(members)
        n_train = round(train_frac * len(members))
        n_train = max(1, min(len(members) - 1, n_train))
        train.extend(members[:n_train])
        test.extend(members[n_train:])
    return sorted(train), sorted(test)


def combine(reports: Sequence[TrialReport], label: str = "aggregate") -> TrialReport:
    """Concatenate per-trial scores into one aggregate report."""
    if not reports:
        raise ValueError("nothing to combine")
    first = reports[0]
    for r in reports[1:]:
        if (r.method, r.mode, r.protocol) != (first.method, first.mode, first.protocol):
            raise ValueError("cannot combine reports from different runs")
    scores = tuple(s for r in reports for s in r.scores)
    return TrialReport(
        method=first.method, protocol=first.protocol, mode=first.mode,
        seed=first.seed, scores=scores,
        train_time=sum(r.train_time for r in reports),
        predict_time=sum(r.predict_time for r in reports),
        label=label, trials=tuple(reports),
    )


def split_trials(corpus: Corpus, method: str, mode: str = "family",
                 params: ActrParams | None = None, train_frac: float = 0.6,
                 n_trials: int = 10, seed: int = 0) -> TrialReport:
    """Repeated stratified splits; returns the aggregate with trials nested.

    Trial seeds are drawn positionally from a master stream seeded by `seed`,
    before any training happens, so fold membership depends only on
    (corpus, train_frac, seed, trial index) and never on the method.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    master = random.Random(seed)
    trial_seeds = [master.getrandbits(63) for _ in range(n_trials)]
    reports = []
    for t, tseed in enumerate(trial_seeds):
        train_ix, test_ix = stratified_split(corpus, train_frac, random.Random(tseed))
        reports.append(_fold(corpus, train_ix, test_ix, method, mode, params,
                             seed, tseed, "split", f"trial{t}"))
    return combine(reports)


def leave_one_family_out(corpus: Corpus, method: str, mode: str = "family",
                         params: ActrParams | None = None,
                         seed: int = 0) -> list:
    """Hold out each family in turn; train on the rest, test on the holdout.

    The held-out family's identity is never available to the model, so
    family accuracy is not applicable (family_correct stays None); what the
    protocol measures is task transfer through shared tasks.
    """
    if len(corpus.families) < 2:
        raise ValueError("leave-one-family-out needs at least 2 families")
    reports = []
    for f in sorted(corpus.families):
        held = set(corpus.members(f))
        train_ix = [i for i in range(corpus.size) if i not in held]
        reports.append(_fold(corpus, train_ix, sorted(held), method, mode, params,
                             seed, seed, "lofo", f))
    return reports


@dataclass(frozen=True)
class PairedTest:
    """Two-sided paired t-test over aligned per-sample values."""

    statistic: float
    dof: int
    p_value: float


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> PairedTest:
    """Paired two-sided t-test on aligned score lists.

    The statistic, pairing, and dof are computed here; only the Student-t
    survival function is delegated (scipy).  Zero-variance differences have
    no defined statistic and are rejected.
    """
    if len(a) != len(b):
        raise ValueError(f"score lists differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("paired test needs at least 2 pairs")
    diffs = [x - y for x, y in zip(a, b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        raise ValueError("zero-variance differences; t statistic undefined")
    t = mean / math.sqrt(var / n)
    dof = n - 1
    p = 2.0 * float(_scipy_stats.t.sf(abs(t), dof))
    return PairedTest(statistic=t, dof=dof, p_value=p)


# ------------------------------------------------------------------- reports

def _score_dict(s: SampleScore) -> dict:
    return {
        "id": s.sample_id,
        "precision": s.precision,
        "recall": s.recall,
        "f1": s.f1,
        "family_correct": s.family_correct,
    }


def report_to_dict(report: TrialReport, include_timing: bool = False) -> dict:
    out = {
        "method": report.method,
        "protocol": report.protocol,
        "mode": report.mode,
        "seed": report.seed,
        "label": report.label,
        "n_tested": report.n_tested,
        "mean_precision": report.mean_precision,
        "mean_recall": report.mean_recall,
        "mean_f1": report.mean_f1,
        "family_accuracy": report.family_accuracy,
    }
    if include_timing:
        out["train_time"] = report.train_time
        out["predict_time"] = report.predict_time
    out["scores"] = [_score_dict(s) for s in report.scores]
    if report.trials:
        out["trials"] = [report_to_dict(t, include_timing) for t in report.trials]
    return out


def save_reports(reports: Iterable[TrialReport], path,
                 include_timing: bool = False) -> None:
    """One canonical JSON object per report line (trials nested inside)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in reports:
            fh.write(canonical_json(report_to_dict(r, include_timing)) + "\n")


_METRICS = ("mean_precision", "mean_recall", "mean_f1", "family_accuracy")


def metrics_table(reports: Sequence[TrialReport]) -> str:
    """Plot-ready CSV: one row per report x metric."""
    lines = ["method,mode,protocol,label,metric,value"]
    for r in reports:
        for metric in _METRICS:
            v = getattr(r, metric)
            value = "" if v is None else f"{v:.6f}"
            lines.append(f"{r.method},{r.mode},{r.protocol},{r.label},{metric},{value}")
    return "\n".join(lines) + "\n"


def format_table(reports: Sequence[TrialReport]) -> str:
    """Human-readable summary table with wall-clock timings."""
    header = (
        f"{'method':<10} {'mode':<7} {'protocol':<9} {'label':<12} "
        f"{'n':>5} {'prec':>7} {'recall':>7} {'f1':>7} {'fam_acc':>8} "
        f"{'train_s':>8} {'pred_s':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in reports:
        fam = "n/a" if r.family_accuracy is None else f"{r.family_accuracy:.4f}"
        lines.append(
            f"{r.method:<10} {r.mode:<7} {r.protocol:<9} {r.label:<12} "
            f"{r.n_tested:>5} {r.mean_precision:>7.4f} {r.mean_recall:>7.4f} "
            f"{r.mean_f1:>7.4f} {fam:>8} "
            f"{r.train_time:>8.3f} {r.predict_time:>8.3f}"
        )
    return "\n".join(lines)
