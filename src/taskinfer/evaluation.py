"""Evaluation harness: per-sample metrics, protocols, significance, reports.

Task predictions are scored per sample with set precision/recall/F1 (an
empty prediction against a non-empty truth scores 0 across the board, and a
prediction with no correct task scores F1 0).  Family accuracy is tracked
alongside in family mode and reported as not-applicable (None) when the
protocol makes it meaningless (leave-one-family-out) or the mode never
predicts a family (direct).

Three protocols: leave-one-out cross-validation over samples, repeated
stratified train/test splits, and leave-one-family-out.  One loop scores
them, timing the build of each fold's predictor as training and its calls as
prediction.  Every protocol takes each fold's predictor from
`methods.leave_out`, which holds the fold's rows out of one model of the
whole corpus (or retrains without them); a split asks for it through
`methods.train_method`, with the trial's seed and test rows.  A family whose
samples perform no task is rejected before any training.
Splits stratify per family and draw their randomness positionally from a
master seed stream, so two methods evaluated with the same seed see
byte-for-byte identical folds and their per-sample scores align for paired
significance testing.

Reports serialize as one canonical JSON object per line, like the corpus
format.  Wall-clock timings are kept out of the file (they are the one
nondeterministic field; the stdout table shows them), so identical
invocations produce byte-identical report files.
"""

from __future__ import annotations

import csv
import io
import math
import random
import time
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .core import ActrParams, Corpus, check_count, label_space, write_json_lines
from .methods import leave_out, train_method

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


def _check_tasks(corpus: Corpus) -> None:
    """Reject, before any training, the first family (in sorted order) whose
    samples perform no task: they have no truth to score against."""
    for f in sorted(corpus.families):
        if corpus.members(f) and not corpus.families[f]:
            raise ValueError(f"family {f!r} performs no task, so its samples have "
                             "no truth to score against")


def _scored(corpus: Corpus, folds: Iterable[Sequence[int]], held_out, method: str,
            mode: str, seed: int, protocol: str, label: str) -> TrialReport:
    """Score each fold's rows, in order, by held_out(fold), timing its build
    as training and its calls as prediction.  Family accuracy is tracked in
    family mode, except under lofo, where the held-out family is no label.  A
    prediction's ValueError is raised again naming the protocol, the label
    and the sample."""
    track_family = mode == "family" and protocol != "lofo"
    where = f"{protocol} {label}".rstrip()      # "loocv", "split trial0", "lofo c1"
    scores = []
    train_time = predict_time = 0.0
    for fold in folds:
        t0 = time.perf_counter()
        predictor = held_out(fold)
        train_time += time.perf_counter() - t0
        for i in fold:
            held = corpus.samples[i]
            t0 = time.perf_counter()
            try:
                pred = predictor(held.attribs)
            except ValueError as e:
                raise ValueError(f"{where}: sample {held.id!r}: {e}") from e
            predict_time += time.perf_counter() - t0
            sc = score_sample(pred.predicted_tasks, held.tasks)
            fam = pred.predicted_family == held.family if track_family else None
            scores.append(replace(sc, family_correct=fam, sample_id=held.id))
    return TrialReport(method=method, protocol=protocol, mode=mode, seed=seed,
                       scores=tuple(scores), train_time=train_time,
                       predict_time=predict_time, label=label)


def loocv(corpus: Corpus, method: str, mode: str = "family",
          params: ActrParams | None = None, seed: int = 0) -> TrialReport:
    """Leave-one-out: predict every sample by the method trained on all the
    others, each row's predictor coming from `methods.leave_out`.  A label
    that training on the whole corpus rejects (one with no samples) is
    rejected before any fold trains."""
    if corpus.size < 2:
        raise ValueError("leave-one-out needs at least 2 samples")
    _check_tasks(corpus)
    label_space(corpus, mode)
    return _scored(corpus, [[i] for i in range(corpus.size)],
                   leave_out(method, corpus, mode, params, seed), method, mode, seed,
                   "loocv", "")


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

    Each trial draws its seed from a master stream seeded by `seed` as it
    starts, before it trains, so fold membership depends only on (corpus,
    train_frac, seed, trial index), never on the method or on n_trials.  Its
    predictor is `train_method`'s with that seed and its test rows held out.
    """
    check_count("n_trials", n_trials)
    _check_tasks(corpus)
    master = random.Random(seed)
    reports = []
    for t in range(n_trials):
        tseed = master.getrandbits(63)
        _, test_ix = stratified_split(corpus, train_frac, random.Random(tseed))
        fit = lambda rows: train_method(method, corpus, mode, params, tseed, rows)
        reports.append(_scored(corpus, [test_ix], fit, method, mode, seed, "split", f"trial{t}"))
    return combine(reports)


def leave_one_family_out(corpus: Corpus, method: str, mode: str = "family",
                         params: ActrParams | None = None,
                         seed: int = 0) -> list:
    """Hold out each family in turn; train on the rest, test on the holdout.
    Each fold's predictor comes from `methods.leave_out`.

    The held-out family's identity is never available to the model, so
    family accuracy is not applicable (family_correct stays None); what the
    protocol measures is task transfer through shared tasks.  A family with
    no samples, which would make an empty fold, is rejected before training.
    """
    if len(corpus.families) < 2:
        raise ValueError("leave-one-family-out needs at least 2 families")
    _check_tasks(corpus)
    for f in sorted(corpus.families):
        if not corpus.members(f):
            raise ValueError(f"family {f!r} has no samples to hold out")
    held_out = leave_out(method, corpus, mode, params, seed)
    return [_scored(corpus, [corpus.members(f)], held_out, method, mode, seed, "lofo", f)
            for f in sorted(corpus.families)]


@dataclass(frozen=True)
class PairedTest:
    """Two-sided paired t-test over aligned per-sample values."""

    statistic: float
    dof: int
    p_value: float


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> PairedTest:
    """Paired two-sided t-test on aligned score lists.

    The statistic, pairing, and dof are computed here; only the Student-t
    survival function is delegated, to ``scipy.special.stdtr`` (the CDF,
    read at -|t|), imported here so that no other command loads it.
    Zero-variance differences have no defined statistic and are rejected.
    """
    from scipy.special import stdtr

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
    p = 2.0 * float(stdtr(dof, -abs(t)))
    return PairedTest(statistic=t, dof=dof, p_value=p)


# ------------------------------------------------------------------- reports

_METRICS = ("mean_precision", "mean_recall", "mean_f1", "family_accuracy")


def _score_dict(s: SampleScore) -> dict:
    return {
        "id": s.sample_id,
        "precision": s.precision,
        "recall": s.recall,
        "f1": s.f1,
        "family_correct": s.family_correct,
    }


def report_to_dict(report: TrialReport) -> dict:
    out = {
        "method": report.method,
        "protocol": report.protocol,
        "mode": report.mode,
        "seed": report.seed,
        "label": report.label,
        "n_tested": report.n_tested,
        **{metric: getattr(report, metric) for metric in _METRICS},
    }
    out["scores"] = [_score_dict(s) for s in report.scores]
    if report.trials:
        out["trials"] = [report_to_dict(t) for t in report.trials]
    return out


def save_reports(reports: Iterable[TrialReport], path) -> None:
    """One canonical JSON object per report line (trials nested inside)."""
    write_json_lines(path, map(report_to_dict, reports))


def metrics_table(reports: Sequence[TrialReport]) -> str:
    """Plot-ready CSV: one row per report x metric."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("method", "mode", "protocol", "label", "metric", "value"))
    for r in reports:
        for metric in _METRICS:
            v = getattr(r, metric)
            writer.writerow((r.method, r.mode, r.protocol, r.label, metric,
                             "" if v is None else f"{v:.6f}"))
    return out.getvalue()


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
