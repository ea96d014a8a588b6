"""Command-line interface: ingest, gen, predict, eval, compare.

Every command is deterministic given its flags and seed; files are written
in canonical JSON so identical invocations are byte-identical.  Wall-clock
timings appear only on stdout.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import evaluation, ingest, synthgen
from .core import (
    MODES,
    ActrParams,
    CorpusError,
    load_corpus,
    read_corpus_records,
    save_corpus,
    write_corpus_records,
    write_json_lines,
)
from .methods import METHODS, train_method


def _param_flag(name: str) -> str:
    return "--noise" if name == "s" else "--" + name.replace("_", "-")


# argparse reads a separate word such as `-1e3` as an option, not a value (it
# takes only `-5` and `-.5` as negative numbers), so `main` joins a negative
# number in exponent form to the float model flag before it, as `--tau=-1e3`.
_FLOAT_FLAGS = frozenset(_param_flag(f.name) for f in fields(ActrParams)
                         if isinstance(f.default, float))
_NEGATIVE_EXPONENT_FORM = re.compile(r"-(?:\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def _joined_floats(argv) -> list:
    out = []
    for word in argv:
        if out and out[-1] in _FLOAT_FLAGS and _NEGATIVE_EXPONENT_FORM.fullmatch(word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model parameters")
    for f in fields(ActrParams):
        flag = _param_flag(f.name)
        group.add_argument(flag, dest=f"param_{f.name}",
                           type=type(f.default), default=None, metavar=f.name.upper(),
                           help=f"override {f.name} (default {f.default})")


def _params_from_args(args: argparse.Namespace) -> ActrParams:
    return ActrParams(**{f.name: v for f in fields(ActrParams)
                         if (v := getattr(args, f"param_{f.name}")) is not None})


# gen flag -> the GenSpec field it sets; a flag left unset keeps the value of
# its regime's spec in _GEN_SPECS, and is parsed as that value's type.
_GEN_FLAGS = (
    ("--carriers", "n_carriers", "carrier count; single-task takes only 1"),
    ("--tasks-per-carrier", "tasks_per_carrier",
     "tasks per carrier, or family count in single-task"),
    ("--samples-per-family", "samples_per_family", "samples per family"),
    ("--carrier-pool", "carrier_attr_pool", "carrier attribute pool size"),
    ("--payload-attrs", "payload_attrs_per_task", "payload attributes per task"),
    ("--overlap", "overlap_target", "target within-family pairwise overlap"),
)
_GEN_SPECS = {"carriers": synthgen.GenSpec(), "single-task": synthgen.SINGLE_TASK_SPEC}


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
    p.add_argument("--regime", choices=tuple(_GEN_SPECS), default="carriers")
    for flag, field, text in _GEN_FLAGS:
        carriers, single = (getattr(spec, field) for spec in _GEN_SPECS.values())
        shown = (f"defaults: carriers {carriers}, single-task {single}"
                 if carriers != single else f"default {carriers}")
        p.add_argument(flag, dest=field, type=type(carriers), default=None,
                       help=f"{text} ({shown})", metavar=flag[2:].upper().replace("-", "_"))
    p.add_argument("--encrypted", action="store_true",
                   help="apply payload encryption after generation")
    p.add_argument("--encrypt-fraction", type=float, default=None,
                   help="payload replacement probability; needs --encrypted "
                        f"(default {synthgen.DEFAULT_ENCRYPT_FRACTION})")
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
    config = (ingest.load_extraction_config(args.report_config) if args.report_config
              else ingest.ExtractionConfig())      # built once, not once per report
    table = {}      # each distinct entry of this call's reports normalized once
    samples = {}
    failures = 0
    for name in args.reports:
        try:
            with open(name, "rb") as fh:
                data = fh.read()
            sample = ingest.parse_report(data, config, location=name, table=table)
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
    if args.encrypt_fraction is not None and not args.encrypted:
        raise ValueError("--encrypt-fraction is read only with --encrypted")
    overrides = {field: getattr(args, field) for _, field, _ in _GEN_FLAGS
                 if getattr(args, field) is not None}
    spec = replace(_GEN_SPECS[args.regime], seed=args.seed, **overrides)
    generate = (synthgen.generate_single_task if args.regime == "single-task"
                else synthgen.generate)
    corpus, report = generate(spec)
    if args.encrypted:
        fraction = (args.encrypt_fraction if args.encrypt_fraction is not None
                    else synthgen.DEFAULT_ENCRYPT_FRACTION)
        corpus = synthgen.encrypt_variant(corpus, fraction, seed=args.seed)
    save_corpus(corpus, args.out)
    sidecar = args.out + ".gen.json"
    write_json_lines(sidecar, [asdict(report)])
    print(f"wrote {corpus.size} samples / {len(corpus.families)} families "
          f"to {args.out}")
    print(f"realized overlap: within {report.within_family_overlap:.4f}, "
          f"cross {report.cross_family_overlap:.4f} (report: {sidecar})")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    _, records = read_corpus_records(args.records)     # a bad --in costs no training
    params = _params_from_args(args)
    predictor = train_method(args.method, corpus, mode=args.mode,
                             params=params, seed=args.seed)
    out = []
    for line, s in enumerate(records, start=2):     # line 1 is the header
        try:
            pred = predictor(s.attribs)
        except ValueError as e:
            raise ValueError(f"{args.records}: line {line}: sample {s.id!r}: {e}") from e
        out.append({
            "id": s.id,
            "family": pred.predicted_family,
            "tasks": sorted(pred.predicted_tasks),
            "degenerate": pred.degenerate,
            "class_probs": {k: round(v, 12) for k, v in pred.class_probs.items()},
        })
        shown = ", ".join(sorted(pred.predicted_tasks)) or "-"
        fam = pred.predicted_family or "-"
        print(f"{s.id}  family={fam}  tasks=[{shown}]")
    if args.out:        # written only once every record is built: a failure leaves no file
        write_json_lines(args.out, out)
        print(f"wrote {len(out)} prediction(s) to {args.out}")
    return 0


def _run_protocol(corpus, method, args, params):
    common = dict(mode=args.mode, params=params, seed=args.seed)
    if args.protocol == "loocv":
        return [evaluation.loocv(corpus, method, **common)]
    if args.protocol == "split":
        return [evaluation.split_trials(corpus, method, train_frac=args.train_frac,
                                        n_trials=args.trials, **common)]
    return evaluation.leave_one_family_out(corpus, method, **common)


def _write_reports(reports, out_path) -> None:
    evaluation.save_reports(reports, out_path)
    csv_path = str(out_path) + ".csv"
    flat = [r for report in reports for r in (report, *report.trials)]
    Path(csv_path).write_text(evaluation.metrics_table(flat), encoding="utf-8", newline="\n")
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
    args = parser.parse_args(_joined_floats(sys.argv[1:] if argv is None else argv))
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
