"""Command-line interface: ingest, gen, predict, eval, compare.

Every command is deterministic given its flags and seed; files are written
in canonical JSON so identical invocations are byte-identical.  Wall-clock
timings appear only on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import evaluation, ingest, synthgen
from .core import (
    MODES,
    ActrParams,
    CorpusError,
    canonical_json,
    load_corpus,
    read_corpus_records,
    save_corpus,
    write_corpus_records,
)
from .methods import METHODS, train_method

_PARAM_FLAGS = (
    ("--beta", "beta", float),
    ("--noise", "s", float),
    ("--tau", "tau", float),
    ("--mp", "mp", float),
    ("--w", "w", float),
    ("--task-threshold", "task_threshold", float),
    ("--partial-matching", "partial_matching", str),
)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model parameters")
    defaults = ActrParams()
    for flag, attr, typ in _PARAM_FLAGS:
        group.add_argument(flag, dest=f"param_{attr}", type=typ, default=None,
                           metavar=attr.upper(),
                           help=f"override {attr} (default {getattr(defaults, attr)})")


def _params_from_args(args: argparse.Namespace) -> ActrParams:
    overrides = {}
    for _, attr, _ in _PARAM_FLAGS:
        v = getattr(args, f"param_{attr}", None)
        if v is not None:
            overrides[attr] = v
    return ActrParams(**overrides)


def _add_eval_flags(parser: argparse.ArgumentParser, with_protocol: bool) -> None:
    parser.add_argument("--corpus", required=True, help="training corpus file")
    parser.add_argument("--mode", choices=MODES, default="family",
                        help="classify via families or tasks directly")
    parser.add_argument("--seed", type=int, default=0)
    if with_protocol:
        parser.add_argument("--protocol", choices=evaluation.PROTOCOLS,
                            default="split")
        parser.add_argument("--train-frac", type=float, default=0.6,
                            help="train fraction for the split protocol")
        parser.add_argument("--trials", type=int, default=10,
                            help="trial count for the split protocol")
    _add_param_flags(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskinfer",
        description="Infer malware tasks from sandbox behavior attributes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="flatten sandbox reports into a corpus file")
    p.add_argument("reports", nargs="+", help="sandbox report JSON files")
    p.add_argument("--report-config", default=None,
                   help="extraction config JSON (kind toggles, normalization)")
    p.add_argument("--out", required=True, help="corpus file to write")

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--regime", choices=("carriers", "single-task"),
                   default="carriers")
    p.add_argument("--carriers", type=int, default=None,
                   help="carrier count (carriers regime; default 5)")
    p.add_argument("--tasks-per-carrier", type=int, default=None,
                   help="tasks per carrier, or family count in single-task "
                        "(defaults 7 / 17)")
    p.add_argument("--samples-per-family", type=int, default=None,
                   help="samples per family (defaults 200 / 100)")
    p.add_argument("--carrier-pool", type=int, default=100,
                   help="carrier attribute pool size")
    p.add_argument("--payload-attrs", type=int, default=5,
                   help="payload attributes per task")
    p.add_argument("--overlap", type=float, default=0.6,
                   help="target within-family pairwise overlap")
    p.add_argument("--encrypted", action="store_true",
                   help="apply payload encryption after generation")
    p.add_argument("--encrypt-fraction", type=float,
                   default=synthgen.DEFAULT_ENCRYPT_FRACTION,
                   help="payload replacement probability when --encrypted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="corpus file to write")

    p = sub.add_parser("predict", help="train on a corpus and label new samples")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--in", dest="records", required=True,
                   help="corpus-format file of samples to label (labels optional)")
    p.add_argument("--out", default=None, help="write predictions as JSON lines")
    _add_eval_flags(p, with_protocol=False)

    p = sub.add_parser("eval", help="evaluate one method under a protocol")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--out", default=None,
                   help="report file (JSON lines); also writes <out>.csv")
    _add_eval_flags(p, with_protocol=True)

    p = sub.add_parser("compare", help="evaluate methods on identical folds "
                                       "and test pairwise significance")
    p.add_argument("--method", action="append", choices=METHODS, required=True,
                   help="repeat for each method (at least two)")
    p.add_argument("--out", default=None,
                   help="report file (JSON lines); also writes <out>.csv")
    _add_eval_flags(p, with_protocol=True)
    return parser


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = None
    if args.report_config:
        config = ingest.load_extraction_config(args.report_config)
    samples = {}
    failures = 0
    for name in args.reports:
        try:
            with open(name, "rb") as fh:
                data = fh.read()
            sample = ingest.parse_report(data, config, location=name)
            if sample.id in samples:  # a corpus file holds each id once
                raise ingest.ReportError(
                    f"sample id {sample.id!r} repeats an earlier report; "
                    f"kept the first", name)
            samples[sample.id] = sample
        except (OSError, ingest.ReportError) as e:
            failures += 1
            print(f"error: {e}", file=sys.stderr)
    write_corpus_records(args.out, samples.values(), {})
    print(f"ingested {len(samples)} of {len(args.reports)} report(s) "
          f"into {args.out} ({failures} failed)")
    return 1 if failures else 0


def _cmd_gen(args: argparse.Namespace) -> int:
    single = args.regime == "single-task"
    spec = synthgen.GenSpec(
        n_carriers=(1 if single else (args.carriers if args.carriers is not None else 5)),
        tasks_per_carrier=(args.tasks_per_carrier if args.tasks_per_carrier is not None
                           else (17 if single else 7)),
        samples_per_family=(args.samples_per_family if args.samples_per_family is not None
                            else (100 if single else 200)),
        carrier_attr_pool=args.carrier_pool,
        payload_attrs_per_task=args.payload_attrs,
        overlap_target=args.overlap,
        encrypted=False,
        seed=args.seed,
    )
    if single:
        if args.carriers not in (None, 1):
            raise synthgen.GenerationError("single-task regime uses one carrier")
        corpus = synthgen.generate_single_task(spec)
        within, cross = synthgen.measure_overlap(corpus)
        report = synthgen.GenReport(
            overlap_target=spec.overlap_target,
            within_family_overlap=within,
            cross_family_overlap=cross,
            family_sizes={f: len(corpus.members(f)) for f in corpus.families},
        )
    else:
        corpus, report = synthgen.generate(spec)
    if args.encrypted:
        corpus = synthgen.encrypt_variant(corpus, args.encrypt_fraction,
                                          seed=args.seed)
    save_corpus(corpus, args.out)
    sidecar = args.out + ".gen.json"
    with open(sidecar, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(report.to_dict()) + "\n")
    print(f"wrote {corpus.size} samples / {len(corpus.families)} families "
          f"to {args.out}")
    print(f"realized overlap: within {report.within_family_overlap:.4f}, "
          f"cross {report.cross_family_overlap:.4f} (report: {sidecar})")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    params = _params_from_args(args)
    predictor = train_method(args.method, corpus, mode=args.mode,
                             params=params, seed=args.seed)
    _, records = read_corpus_records(args.records)
    lines = []
    for s in records:
        if not s.attribs:
            continue
        pred = predictor(s.attribs)
        lines.append(canonical_json({
            "id": s.id,
            "family": pred.predicted_family,
            "tasks": sorted(pred.predicted_tasks),
            "degenerate": pred.degenerate,
            "class_probs": {k: round(v, 12) for k, v in pred.class_probs.items()},
        }))
        shown = ", ".join(sorted(pred.predicted_tasks)) or "-"
        fam = pred.predicted_family or "-"
        print(f"{s.id}  family={fam}  tasks=[{shown}]")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"wrote {len(lines)} prediction(s) to {args.out}")
    return 0


def _run_protocol(corpus, method, args, params):
    if args.protocol == "loocv":
        return [evaluation.loocv(corpus, method, mode=args.mode,
                                 params=params, seed=args.seed)]
    if args.protocol == "split":
        agg = evaluation.split_trials(corpus, method, mode=args.mode,
                                      params=params, train_frac=args.train_frac,
                                      n_trials=args.trials, seed=args.seed)
        return [agg]
    return evaluation.leave_one_family_out(corpus, method, mode=args.mode,
                                           params=params, seed=args.seed)


def _write_reports(reports, out_path) -> None:
    evaluation.save_reports(reports, out_path)
    csv_path = str(out_path) + ".csv"
    flat = []
    for r in reports:
        flat.append(r)
        flat.extend(r.trials)
    Path(csv_path).write_text(evaluation.metrics_table(flat), encoding="utf-8")
    print(f"report: {out_path}  table: {csv_path}")


def _cmd_eval(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    params = _params_from_args(args)
    reports = _run_protocol(corpus, args.method, args, params)
    print(evaluation.format_table(reports))
    if args.out:
        _write_reports(reports, args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    methods = list(dict.fromkeys(args.method))
    if len(methods) < 2:
        print("error: compare needs at least two distinct --method values",
              file=sys.stderr)
        return 2
    corpus = load_corpus(args.corpus)
    params = _params_from_args(args)
    all_reports = []
    by_method = {}
    for m in methods:
        reports = _run_protocol(corpus, m, args, params)
        by_method[m] = evaluation.combine(reports, label="overall") \
            if len(reports) > 1 else reports[0]
        all_reports.extend(reports)
    print(evaluation.format_table([by_method[m] for m in methods]))
    print()
    print("paired t-tests on per-sample F1 (two-sided):")
    for i, m1 in enumerate(methods):
        for m2 in methods[i + 1:]:
            a = by_method[m1].f1_values()
            b = by_method[m2].f1_values()
            try:
                res = evaluation.paired_ttest(a, b)
                verdict = (f"t={res.statistic:+.4f} dof={res.dof} "
                           f"p={res.p_value:.6f}")
            except ValueError as e:
                verdict = f"n/a ({e})"
            print(f"  {m1} vs {m2}: {verdict}")
    if args.out:
        _write_reports(all_reports, args.out)
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "gen": _cmd_gen,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Normal when piped into head & co.  Point stdout at devnull so the
        # interpreter's final flush doesn't raise a second time.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:
            pass
        return 1
    except (CorpusError, synthgen.GenerationError, ingest.ReportError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
