"""The benchmark's three workloads: triage, evaluate and sandbox.

Each workload is run as a closed loop by one client in one thread: every call
into taskinfer starts after the previous one returned.  A workload has three
steps:

  prepare(workdir, seed)  builds the seeded input files (not timed);
  setup(inputs)           what a user waits for before the first answer;
  run(state, ops)         one pass of the measured job; returns a PassResult.

`pass_s` and `setup_s` are roughly the seconds one pass and one set-up took
at the seed commit on a 2-core x86 VM.  They fix how many of each a run of
a given length makes (run.schedule), so that the count never depends on the
speed of the program under test.

Only the public functions the CLI itself calls are used, and always through
their module (`core.load_corpus`, not a copied reference), so the traced run
sees every call.  Output checks run outside the timed regions; each failed
check counts its operation as failed in `Ops`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from taskinfer import cli, core, evaluation, methods, synthgen
from taskinfer.core import Sample, canonical_json
from taskinfer.synthgen import GenSpec

import sandbox_reports

# The six predictors a user trains to label fresh samples.
PREDICTORS = tuple((m, mode) for m in ("actr-ib", "actr-r", "nb")
                   for mode in ("family", "direct"))
MODES = ("family", "direct")


@dataclass
class Ops:
    """Operation outcomes: one report ingested, predictor call or protocol fold.

    A loud failure (an unexpected exception, an unreadable output file) only
    counts as failed.  A wrong answer returned without an error also clears
    `correct`.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    wrong: Counter = field(default_factory=Counter)

    def done(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1, wrong: bool = False) -> None:
        self.attempted += n
        self.failed += n
        self.reasons[reason] += n
        if wrong:
            self.wrong[reason] += n


@dataclass
class PassResult:
    """One pass: seconds per stage, predictor call latencies, F1 and output digest."""

    stages: dict
    latencies: list = field(default_factory=list)
    f1: list = field(default_factory=list)
    digest: str = ""
    reports: int = 0


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode() + b"\0" + Path(p).read_bytes() + b"\0")
    return h.hexdigest()


def prediction_line(sample_id: str, pred) -> str:
    """One line in the format `taskinfer predict --out` writes."""
    return canonical_json({
        "id": sample_id,
        "family": pred.predicted_family,
        "tasks": sorted(pred.predicted_tasks),
        "degenerate": pred.degenerate,
        "class_probs": {k: round(v, 12) for k, v in pred.class_probs.items()},
    })


def prediction_fault(pred, mode: str) -> str | None:
    probs = list(pred.class_probs.values())
    if not all(math.isfinite(p) for p in probs):
        return "non-finite probability"
    if mode == "family" and abs(math.fsum(probs) - 1.0) > 1e-9:
        return "family distribution does not sum to 1"
    return None


def input_properties(train, queries, unseen_share=None) -> dict:
    """Exact workload properties a later gain may depend on."""
    fan = Counter(a for s in train for a in s.attribs)
    tasks = sorted({t for s in train for t in s.tasks})
    columns = {tuple(i for i, s in enumerate(train) if t in s.tasks) for t in tasks}
    nnz = sum(len(s.attribs) for s in train)
    if unseen_share is None:
        occurrences = [a in fan for q in queries for a in q.attribs]
        unseen_share = occurrences.count(False) / len(occurrences)
    return {
        "n_train": len(train),
        "n_queries": len(queries),
        "vocab": len(fan),
        "density": nnz / (len(train) * len(fan)),
        "tasks": len(tasks),
        "task_columns": len(columns),
        "unseen_attr_share": unseen_share,
    }


def train_predictors(corpus) -> list:
    return [((m, mode), methods.train_method(m, corpus, mode=mode))
            for m, mode in PREDICTORS]


def query_stream(queries, predictors, truth_of, ops: Ops):
    """Send every query to every predictor; returns (seconds, latencies, f1, lines)."""
    latencies = []
    results = []
    start = perf_counter()
    for q in queries:
        for key, predictor in predictors:
            t0 = perf_counter()
            try:
                pred = predictor(q.attribs)
            except Exception as e:  # noqa: BLE001 - a crash costs one operation
                pred = e
            latencies.append(perf_counter() - t0)
            results.append((q, key, pred))
    seconds = perf_counter() - start
    f1 = []
    lines = []
    for q, (m, mode), pred in results:
        if isinstance(pred, Exception):
            ops.fail(f"{m} {mode} raised {type(pred).__name__}")
            continue
        fault = prediction_fault(pred, mode)
        if fault:
            ops.fail(fault, wrong=True)
            continue
        ops.done()
        f1.append(evaluation.score_sample(pred.predicted_tasks, truth_of(q)).f1)
        lines.append(f"{m} {mode} {prediction_line(q.id, pred)}")
    return seconds, latencies, f1, lines


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def sub_seed(seed: int, salt: str) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}:{salt}".encode()).digest()[:4], "big")


# ------------------------------------------------------------------ triage

class Triage:
    """An analyst labels fresh samples one at a time against a trained corpus."""

    name = "triage"
    pass_s, setup_s = 2.2, 0.19

    def __init__(self, samples_per_family: int):
        self.samples_per_family = samples_per_family

    def _spec(self, seed: int) -> GenSpec:
        return GenSpec(n_carriers=5, tasks_per_carrier=7,
                       samples_per_family=self.samples_per_family,
                       overlap_target=0.4, seed=seed)

    def prepare(self, workdir: Path, seed: int) -> dict:
        train, _ = synthgen.generate(self._spec(seed))
        query_seed = sub_seed(seed, "queries")
        fresh, _ = synthgen.generate(self._spec(query_seed))
        queries = synthgen.encrypt_variant(fresh, seed=query_seed)
        train_path, query_path = workdir / "train.jsonl", workdir / "queries.jsonl"
        core.save_corpus(train, train_path)
        core.save_corpus(queries, query_path)
        return {
            "train": train_path,
            "queries": query_path,
            "input_sha256": sha256_files([train_path, query_path]),
            "properties": input_properties(train.samples, queries.samples),
        }

    def setup(self, inputs: dict) -> dict:
        corpus = core.load_corpus(inputs["train"])
        predictors = train_predictors(corpus)
        _, queries = core.read_corpus_records(inputs["queries"])
        return {"predictors": predictors, "queries": queries}

    def run(self, state: dict, ops: Ops) -> PassResult:
        seconds, latencies, f1, lines = query_stream(
            state["queries"], state["predictors"], lambda q: q.tasks, ops)
        return PassResult(stages={"query_s": seconds}, latencies=latencies, f1=f1,
                          digest=digest(lines))


# ---------------------------------------------------------------- evaluate

class Evaluate:
    """A researcher runs `compare`: loocv and split over all methods and modes."""

    name = "evaluate"
    pass_s, setup_s = 11.0, 0.002
    loocv_methods = ("actr-ib", "actr-r", "nb")

    def __init__(self, samples_per_family: int, n_trials: int):
        self.samples_per_family = samples_per_family
        self.n_trials = n_trials

    def prepare(self, workdir: Path, seed: int) -> dict:
        corpus, _ = synthgen.generate(GenSpec(
            n_carriers=5, tasks_per_carrier=7,
            samples_per_family=self.samples_per_family,
            overlap_target=0.4, seed=seed))
        path = workdir / "corpus.jsonl"
        core.save_corpus(corpus, path)
        fan = corpus.fan
        occurrences = [fan[a] == 1 for s in corpus for a in s.attribs]
        return {
            "corpus": path,
            "split_seed": sub_seed(seed, "split"),
            "input_sha256": sha256_files([path]),
            # Under leave-one-out an attribute is unseen when only the
            # held-out sample has it.
            "properties": input_properties(
                corpus.samples, corpus.samples,
                unseen_share=occurrences.count(True) / len(occurrences)),
        }

    def setup(self, inputs: dict) -> dict:
        return {"corpus": core.load_corpus(inputs["corpus"]),
                "split_seed": inputs["split_seed"]}

    def run(self, state: dict, ops: Ops) -> PassResult:
        corpus = state["corpus"]
        reports = []
        loocv = []
        t0 = perf_counter()
        for m in self.loocv_methods:
            for mode in MODES:
                try:
                    loocv.append(evaluation.loocv(corpus, m, mode=mode))
                except Exception as e:  # noqa: BLE001 - a crash fails its folds
                    ops.fail(f"loocv {m} {mode} raised {type(e).__name__}", corpus.size)
        t1 = perf_counter()
        split = {mode: {} for mode in MODES}
        for m in methods.METHODS:
            for mode in MODES:
                try:
                    split[mode][m] = evaluation.split_trials(
                        corpus, m, mode=mode, train_frac=0.6,
                        n_trials=self.n_trials, seed=state["split_seed"])
                except Exception as e:  # noqa: BLE001 - a crash fails its folds
                    ops.fail(f"split {m} {mode} raised {type(e).__name__}", self.n_trials)
        tests = []
        for mode in MODES:
            names = list(split[mode])
            for i, m1 in enumerate(names):
                for m2 in names[i + 1:]:
                    try:
                        res = evaluation.paired_ttest(split[mode][m1].f1_values(),
                                                      split[mode][m2].f1_values())
                        tests.append((mode, m1, m2, res.statistic, res.p_value))
                    except ValueError as e:  # compare reports these as n/a
                        tests.append((mode, m1, m2, str(e)))
        t2 = perf_counter()

        for r in loocv:
            self._check(r, corpus.size, ops, corpus.size)
            reports.append(r)
        for mode in MODES:
            ids = None
            for r in split[mode].values():
                order = [s.sample_id for s in r.scores]
                ids = ids or order
                # Folds depend only on the seed, never on the method.
                self._check(r, len(ids), ops, self.n_trials, same_folds=order == ids)
                reports.append(r)
        lines = [canonical_json(evaluation.report_to_dict(r)) for r in reports]
        lines += [canonical_json(t) for t in tests]
        return PassResult(
            stages={"loocv_s": t1 - t0, "split_s": t2 - t1},
            f1=[s.f1 for r in reports for s in r.scores],
            digest=digest(lines))

    @staticmethod
    def _check(report, expected, ops: Ops, folds: int, same_folds: bool = True):
        if report.n_tested != expected or not same_folds:
            ops.fail(f"{report.protocol} {report.method} scored the wrong samples",
                     folds, wrong=True)
        elif not all(0.0 <= s.f1 <= 1.0 for s in report.scores):
            ops.fail(f"{report.protocol} {report.method} F1 outside [0, 1]",
                     folds, wrong=True)
        else:
            ops.done(folds)


# ----------------------------------------------------------------- sandbox

def ingest_call(paths, out: Path):
    """Run `taskinfer ingest`; returns (exit code or exception, seconds)."""
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            outcome = cli.main(["ingest", *paths, "--out", str(out)])
    except Exception as e:  # noqa: BLE001 - a crash costs this call's reports
        outcome = e
    return outcome, perf_counter() - start


def read_back(out: Path):
    """Records of an ingest output, or the exception reading it raised."""
    try:
        return core.read_corpus_records(out)[1]
    except Exception as e:  # noqa: BLE001 - unreadable output fails its reports
        return e


class Sandbox:
    """An analyst ingests sandbox reports, labels 70% and predicts the rest."""

    name = "sandbox"
    pass_s, setup_s = 3.5, 0.55
    train_share = 0.7

    def __init__(self, n_reports: int, batch_size: int):
        self.n_reports = n_reports
        self.batch_size = batch_size

    def prepare(self, workdir: Path, seed: int) -> dict:
        reports = sandbox_reports.write_reports(
            workdir / "reports", seed, self.n_reports, self.batch_size)
        rng = random.Random(sub_seed(seed, "labels"))
        train_ids = set()
        for family in sorted(reports.families):
            members = sorted(s for s, f in reports.truth.items() if f == family)
            rng.shuffle(members)
            train_ids.update(members[:round(self.train_share * len(members))])
        out = workdir / "ingested.jsonl"
        records = []
        for batch in reports.batches:
            outcome, _ = ingest_call([p for p, _ in batch], out)
            if isinstance(outcome, Exception):
                raise outcome
            records.extend(core.read_corpus_records(out)[1])
        inputs = {
            "reports": reports,
            "train_ids": train_ids,
            "labeled": workdir / "labeled.jsonl",
            "out": out,
        }
        train, queries = self._label(inputs, records)
        inputs["labeled_bytes"] = inputs["labeled"].read_bytes()
        all_paths = [p for b in reports.batches for p, _ in b]
        all_paths += [p for _, paths, _ in reports.malformed for p in paths]
        inputs["input_sha256"] = sha256_files(sorted(all_paths))
        inputs["properties"] = input_properties(train, queries)
        return inputs

    def _label(self, inputs: dict, records) -> tuple:
        """Write the labeled 70% as a corpus file; returns (train, queries)."""
        reports = inputs["reports"]
        train, queries = [], []
        for s in records:
            if s.id in inputs["train_ids"]:
                family = reports.truth[s.id]
                train.append(Sample(s.id, s.attribs, family, reports.families[family]))
            else:
                queries.append(s)
        core.write_corpus_records(inputs["labeled"], train, reports.families)
        return train, queries

    def setup(self, inputs: dict) -> dict:
        corpus = core.load_corpus(inputs["labeled"])
        return {"corpus": corpus, "predictors": train_predictors(corpus),
                "inputs": inputs}

    def run(self, state: dict, ops: Ops) -> PassResult:
        inputs = state["inputs"]
        reports = inputs["reports"]
        out = inputs["out"]
        ingest_s = readback_s = 0.0
        records = []
        n_reports = 0
        for batch in reports.batches:
            outcome, seconds = ingest_call([p for p, _ in batch], out)
            ingest_s += seconds
            n_reports += len(batch)
            t0 = perf_counter()
            got = None if isinstance(outcome, Exception) else read_back(out)
            readback_s += perf_counter() - t0
            records.extend(self._check_batch(batch, outcome, got, ops))
        for shape, paths, sha in reports.malformed:
            outcome, seconds = ingest_call(paths, out)
            ingest_s += seconds
            n_reports += len(paths)
            t0 = perf_counter()
            got = None if isinstance(outcome, Exception) else read_back(out)
            readback_s += perf_counter() - t0
            self._check_malformed(shape, paths, sha, outcome, got, ops)

        t0 = perf_counter()
        train, queries = self._label(inputs, records)
        label_s = perf_counter() - t0
        if inputs["labeled"].read_bytes() != inputs["labeled_bytes"]:
            ops.wrong["ingest output differs from the first ingest"] += 1

        query_s, latencies, f1, lines = query_stream(
            queries, state["predictors"],
            lambda q: reports.families[reports.truth[q.id]], ops)

        t0 = perf_counter()
        try:
            lofo = evaluation.leave_one_family_out(state["corpus"], "actr-ib",
                                                   mode="family")
        except Exception as e:  # noqa: BLE001 - a crash fails every fold
            lofo = []
            ops.fail(f"lofo raised {type(e).__name__}", len(reports.families))
        lofo_s = perf_counter() - t0
        for r in lofo:
            ops.done()
            f1.extend(s.f1 for s in r.scores)
            lines.append(canonical_json(evaluation.report_to_dict(r)))
        return PassResult(
            stages={"ingest_s": ingest_s, "readback_s": readback_s,
                    "label_s": label_s, "query_s": query_s, "lofo_s": lofo_s},
            latencies=latencies,
            f1=f1, digest=digest(lines), reports=n_reports)

    @staticmethod
    def _check_batch(batch, outcome, got, ops: Ops) -> list:
        """Count each valid report of a batch; returns its records read back.

        Only records of the batch's own reports, each found exactly once, are
        returned, so that every later lookup in the generator's truth holds.
        """
        if isinstance(outcome, Exception):
            ops.fail(f"ingest raised {type(outcome).__name__}", len(batch))
            return []
        if isinstance(got, Exception):
            ops.fail("ingest output unreadable", len(batch))
            return []
        found = Counter(s.id for s in got)
        for _, sha in batch:
            if found[sha] != 1:
                ops.fail("valid report missing from ingest output", wrong=True)
            else:
                ops.done()
        expected = {sha for _, sha in batch}
        for sample_id in found.keys() - expected:
            ops.fail("unknown record in ingest output", wrong=True)
        return [s for s in got if s.id in expected and found[s.id] == 1]

    @staticmethod
    def _check_malformed(shape, paths, sha, outcome, got, ops: Ops) -> None:
        n = len(paths)
        if isinstance(outcome, Exception):
            ops.fail(f"{shape}: ingest raised {type(outcome).__name__}", n)
        elif isinstance(got, Exception):
            ops.fail(f"{shape}: ingest output unreadable", n)
        elif sandbox_reports.MALFORMED[shape] == "once":
            if [s.id for s in got].count(sha) == 1:
                ops.done(n)
            else:
                ops.fail(f"{shape}: resubmitted sample not written once", n, wrong=True)
        elif got or outcome != 1:
            ops.fail(f"{shape}: malformed report not rejected", n, wrong=True)
        else:
            ops.done(n)


def build(name: str, size: str = "full"):
    """The workload `name` at its benchmark size, or tiny for the smoke test."""
    tiny = size == "tiny"
    if name == "triage":
        return Triage(samples_per_family=10 if tiny else 200)
    if name == "evaluate":
        return Evaluate(samples_per_family=10 if tiny else 12,
                        n_trials=2 if tiny else 3)
    if name == "sandbox":
        return Sandbox(n_reports=96 if tiny else 1000,
                       batch_size=24 if tiny else 100)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("triage", "evaluate", "sandbox")
