"""Command-line interface: subcommands, exit codes, files, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import taskinfer
from taskinfer import cli, synthgen
from taskinfer.cli import main
from taskinfer.core import (ActrParams, Sample, canonical_json, load_corpus, read_corpus_records,
                            write_corpus_records)
from taskinfer.evaluation import paired_ttest
from taskinfer.synthgen import OVERLAP_TOLERANCE, SINGLE_TASK_SPEC, GenReport, GenSpec

from oracles import reference_t_p_value

GEN_SMALL = ["--carriers", "2", "--tasks-per-carrier", "2",
             "--samples-per-family", "12", "--carrier-pool", "30",
             "--payload-attrs", "3", "--overlap", "0.5", "--seed", "1"]


def run_gen(tmp_path, name="corpus.jsonl", extra=(), argv=GEN_SMALL):
    out = str(tmp_path / name)
    rc = main(["gen", *argv, *extra, "--out", out])
    assert rc == 0
    return out


GOOD_REPORT = {
    "target": {"file": {"sha256": "aa11"}},
    "behavior": {
        "summary": {"dll_loaded": ["KERNEL32.dll"],
                    "file_created": ["C:\\Users\\Bob\\x.exe"]},
        "processes": [{"pid": 1}],
    },
}


class TestGen:
    def test_writes_corpus_and_sidecar(self, tmp_path, capsys):
        out = run_gen(tmp_path)
        corpus = load_corpus(out)
        assert len(corpus) == 2 * 12
        assert sorted(corpus.families) == ["c0", "c1"]
        sidecar = json.loads((tmp_path / "corpus.jsonl.gen.json").read_text())
        assert set(sidecar) == {f.name for f in fields(GenReport)}
        assert abs(sidecar["within_family_overlap"] - 0.5) <= 0.05
        stdout = capsys.readouterr().out
        assert "wrote 24 samples / 2 families" in stdout
        assert "realized overlap" in stdout

    def test_same_seed_same_bytes(self, tmp_path):
        a = run_gen(tmp_path, "a.jsonl")
        b = run_gen(tmp_path, "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert (tmp_path / "a.jsonl.gen.json").read_bytes() == \
            (tmp_path / "b.jsonl.gen.json").read_bytes()

    def test_single_task_regime(self, tmp_path):
        out = str(tmp_path / "single.jsonl")
        rc = main(["gen", "--regime", "single-task", "--tasks-per-carrier", "4",
                   "--samples-per-family", "10", "--carrier-pool", "60",
                   "--payload-attrs", "8", "--overlap", "0.6", "--seed", "2",
                   "--out", out])
        assert rc == 0
        corpus = load_corpus(out)
        assert sorted(corpus.families) == ["f00", "f01", "f02", "f03"]
        assert all(len(ts) == 1 for ts in corpus.families.values())

    def test_encrypted_flag_obfuscates_payload(self, tmp_path):
        out = run_gen(tmp_path, "enc.jsonl",
                      extra=["--encrypted", "--encrypt-fraction", "1.0"])
        corpus = load_corpus(out)
        tokens = {a for s in corpus.samples for a in s.attribs}
        assert any(t.startswith("enc:") for t in tokens)
        assert not any(t.startswith("payload:") for t in tokens)
        # The sidecar measures the corpus before encryption.
        sidecar = json.loads((tmp_path / "enc.jsonl.gen.json").read_text())
        assert abs(sidecar["within_family_overlap"] - 0.5) <= OVERLAP_TOLERANCE

    def test_encrypt_fraction_without_encrypted_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        rc = main(["gen", *GEN_SMALL, "--encrypt-fraction", "2.0", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--encrypt-fraction" in err and "--encrypted" in err
        assert list(tmp_path.iterdir()) == []

    def test_one_sample_per_family_exits_1(self, tmp_path, capsys):
        rc = main(["gen", "--samples-per-family", "1", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 1
        assert "samples_per_family must be >= 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_infeasible_target_exits_1(self, tmp_path, capsys):
        rc = main(["gen", "--overlap", "0.001", "--out",
                   str(tmp_path / "x.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_rejects_multiple_carriers_in_single_task_regime(self, tmp_path, capsys):
        rc = main(["gen", "--regime", "single-task", "--carriers", "3",
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 1
        assert "single-task regime" in capsys.readouterr().err

    @pytest.mark.parametrize("regime,spec", [("carriers", GenSpec()),
                                             ("single-task", SINGLE_TASK_SPEC)])
    def test_unset_flags_keep_the_regimes_spec(self, tmp_path, monkeypatch, regime, spec):
        seen = []

        def stop(given):
            seen.append(given)
            raise synthgen.GenerationError("stopped")
        monkeypatch.setattr(synthgen, "generate", stop)
        monkeypatch.setattr(synthgen, "generate_single_task", stop)
        out = str(tmp_path / "x.jsonl")
        assert main(["gen", "--regime", regime, "--out", out]) == 1
        assert main(["gen", "--regime", regime, "--overlap", "0.5",
                     "--samples-per-family", "3", "--seed", "4", "--out", out]) == 1
        assert seen == [spec, replace(spec, overlap_target=0.5, samples_per_family=3,
                                      seed=4)]

    def test_help_states_both_regimes_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")        # one line per flag
        with pytest.raises(SystemExit):
            main(["gen", "--help"])
        shown = capsys.readouterr().out
        carriers, single = GenSpec(), SINGLE_TASK_SPEC
        for field in ("n_carriers", "tasks_per_carrier", "samples_per_family"):
            assert (f"defaults: carriers {getattr(carriers, field)}, "
                    f"single-task {getattr(single, field)})") in shown
        assert f"(default {carriers.overlap_target})" in shown


class TestIngest:
    def test_good_reports_build_an_unlabeled_corpus(self, tmp_path, capsys):
        r1 = tmp_path / "r1.json"
        r1.write_text(json.dumps(GOOD_REPORT))
        r2 = tmp_path / "r2.json"
        second = dict(GOOD_REPORT, target={"file": {"sha256": "bb22"}})
        r2.write_text(json.dumps(second))
        out = tmp_path / "ingested.jsonl"
        rc = main(["ingest", str(r1), str(r2), "--out", str(out)])
        assert rc == 0
        families, samples = read_corpus_records(out)
        assert families == {}
        assert [s.id for s in samples] == ["aa11", "bb22"]
        assert all(s.family is None for s in samples)
        assert "ingested 2 of 2" in capsys.readouterr().out

    def test_failures_are_reported_and_exit_nonzero(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(GOOD_REPORT))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        out = tmp_path / "ingested.jsonl"
        rc = main(["ingest", str(good), str(bad), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "bad.json" in captured.err
        assert "ingested 1 of 2" in captured.out
        _, samples = read_corpus_records(out)
        assert len(samples) == 1

    def test_repeated_sample_id_keeps_the_first_report(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        first.write_text(json.dumps(GOOD_REPORT))
        again = tmp_path / "again.json"
        resubmitted = dict(GOOD_REPORT, behavior={"summary": {"dll_loaded": ["z.dll"]}})
        again.write_text(json.dumps(resubmitted))
        out = tmp_path / "ingested.jsonl"
        rc = main(["ingest", str(first), str(again), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "again.json" in captured.err and "aa11" in captured.err
        assert "ingested 1 of 2" in captured.out
        _, samples = read_corpus_records(out)
        assert [s.id for s in samples] == ["aa11"]
        assert "usesDLL:z.dll" not in samples[0].attribs

    def test_malformed_entries_cost_only_their_own_tokens(self, tmp_path, capsys):
        # The token table keys only entries that are non-blank strings, so an
        # unhashable entry never reaches it.
        report = tmp_path / "r.json"
        report.write_text(json.dumps({
            "target": {"file": {"sha256": "aa11"}},
            "behavior": {"summary": {"file_created": [
                ["C:\\nested.exe"], {"o": 1}, 5, "", "  ", "C:\\x.exe"]}},
        }))
        out = tmp_path / "ingested.jsonl"
        assert main(["ingest", str(report), "--out", str(out)]) == 0
        assert "(0 failed)" in capsys.readouterr().out
        _, [sample] = read_corpus_records(out)
        assert sample.attribs == frozenset({"fileAct:c:\\x.exe"})

    @pytest.mark.parametrize("config_obj", [{}, {"max_attributes": 2}],
                             ids=["default", "cap-2"])
    def test_one_call_gives_the_records_of_one_call_per_report(self, tmp_path,
                                                               config_obj):
        # The reports share raw entries, and entries that normalize alike, so
        # the second report reads tokens the first one put in the table; one
        # raw entry of the first is read by two kinds.
        first = {
            "target": {"file": {"sha256": "aa11"}},
            "behavior": {"summary": {
                "dll_loaded": ["KERNEL32.dll", "C:\\Windows\\ws2_32.dll"],
                "regkey_opened": ["HKEY_CURRENT_USER\\Software\\Zed"],
                "file_created": ["C:\\Users\\Bob\\x.exe", "C:\\Temp\\tmp3F2A.tmp"],
                "file_opened": ["C:\\Windows\\ws2_32.dll"]},
                "processes": [{"pid": 1}]},
        }
        second = {
            "target": {"file": {"sha256": "bb22"}},
            "behavior": {"summary": {
                "dll_loaded": ["kernel32.DLL", "advapi32.dll"],
                "regkey_written": ["HKEY_CURRENT_USER\\Software\\Zed"],
                "file_created": ["C:\\Users\\Alice\\x.exe", "C:\\Temp\\tmp3F2A.tmp",
                                 "C:\\Temp\\a.txt"]}},
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_obj))
        paths = []
        for name, doc in (("a.json", first), ("b.json", second)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(doc))

        def ingested(*reports) -> list:
            out = tmp_path / "out.jsonl"
            assert main(["ingest", *map(str, reports), "--report-config", str(config),
                         "--out", str(out)]) == 0
            return out.read_text(encoding="utf-8").splitlines()[1:]

        together = ingested(*paths)
        assert together == ingested(paths[0]) + ingested(paths[1])
        tokens = [json.loads(line)["attributes"] for line in together]
        if "max_attributes" in config_obj:
            # Each report keeps its own two smallest tokens.
            assert tokens == [
                ["fileAct:c:\\temp\\tmp<r>.tmp", "fileAct:c:\\users\\<user>\\x.exe"],
                ["fileAct:c:\\temp\\a.txt", "fileAct:c:\\temp\\tmp<r>.tmp"]]
        else:
            assert tokens[0] == [
                "fileAct:c:\\temp\\tmp<r>.tmp", "fileAct:c:\\users\\<user>\\x.exe",
                "fileAct:c:\\windows\\ws2_32.dll", "proAct", "regAct:hkcu\\software\\zed",
                "usesDLL:kernel32.dll", "usesDLL:ws2_32.dll"]

    def test_report_config_is_honored(self, tmp_path):
        report = tmp_path / "r.json"
        report.write_text(json.dumps(GOOD_REPORT))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"usesDLL": False, "proAct": False}))
        out = tmp_path / "ingested.jsonl"
        rc = main(["ingest", str(report), "--report-config", str(config),
                   "--out", str(out)])
        assert rc == 0
        _, samples = read_corpus_records(out)
        assert samples[0].attribs == frozenset(
            {"fileAct:c:\\users\\<user>\\x.exe"}
        )

    @pytest.mark.parametrize("config_obj", [
        {"max_attributes": "5"},
        {"max_attributes": 2.5},
        {"usesDLL": "false"},
    ], ids=["string-cap", "float-cap", "string-toggle"])
    def test_mistyped_report_config_exits_1(self, tmp_path, capsys, config_obj):
        report = tmp_path / "r.json"
        report.write_text(json.dumps(GOOD_REPORT))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_obj))
        rc = main(["ingest", str(report), "--report-config", str(config),
                   "--out", str(tmp_path / "ingested.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        (key,) = config_obj
        assert err.startswith("error:") and key in err
        assert f"error: {config}: " in err

    def test_deeply_nested_report_config_exits_1(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text(json.dumps(GOOD_REPORT))
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        rc = main(["ingest", str(report), "--report-config", str(config),
                   "--out", str(tmp_path / "ingested.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: unreadable JSON (maximum recursion")
        assert err.count("\n") == 1


class TestPredict:
    def test_labels_unseen_records(self, tmp_path, capsys):
        corpus_path = run_gen(tmp_path)
        capsys.readouterr()
        out = tmp_path / "preds.jsonl"
        rc = main(["predict", "--method", "actr-ib", "--corpus", corpus_path,
                   "--in", corpus_path, "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").splitlines()
        corpus = load_corpus(corpus_path)
        assert len(lines) == len(corpus)
        first = json.loads(lines[0])
        assert set(first) == {"id", "family", "tasks", "degenerate", "class_probs"}
        assert first["family"] in corpus.families
        assert f"{first['id']}  family={first['family']}" in stdout

    def test_prediction_files_are_deterministic(self, tmp_path):
        corpus_path = run_gen(tmp_path)
        p1, p2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        base = ["predict", "--method", "rf", "--corpus", corpus_path,
                "--in", corpus_path, "--seed", "5"]
        assert main(base + ["--out", str(p1)]) == 0
        assert main(base + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_parameter_overrides_change_the_outcome(self, tmp_path):
        corpus_path = run_gen(tmp_path)
        p1, p2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        base = ["predict", "--method", "actr-ib", "--corpus", corpus_path,
                "--in", corpus_path]
        assert main(base + ["--out", str(p1)]) == 0
        assert main(base + ["--noise", "5.0", "--mp", "0.5",
                            "--out", str(p2)]) == 0
        assert p1.read_bytes() != p2.read_bytes()

    def test_non_finite_probabilities_exit_1_without_output(self, tmp_path):
        # Activations overflow to inf and the retrieval softmax yields NaN.
        # A child process keeps numpy's overflow warning out of this run.
        corpus_path = run_gen(tmp_path)
        out = tmp_path / "preds.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "taskinfer", "predict", "--method", "actr-ib",
             "--beta", "1e308", "--mp", "1e308", "--corpus", corpus_path,
             "--in", corpus_path, "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        first = read_corpus_records(corpus_path)[1][0].id
        assert (f"error: {corpus_path}: line 2: sample {first!r}: probability of family"
                in proc.stderr)
        assert not out.exists()

    def test_a_failing_query_is_named_by_its_file_line_and_id(self, tmp_path):
        # With w at 1e308 the rule model's family scores overflow to NaN for
        # any query holding a training attribute; a query of unseen attributes
        # alone scores finitely, so the first record passes and the second
        # fails.  A child process keeps numpy's warnings out of this run.
        corpus_path = run_gen(tmp_path)
        known = load_corpus(corpus_path).samples[0].attribs
        queries = tmp_path / "queries.jsonl"
        write_corpus_records(queries, [Sample("fine", {"never-seen"}),
                                       Sample("q2", known)], {})
        out = tmp_path / "preds.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "taskinfer", "predict", "--method", "actr-r",
             "--w", "1e308", "--corpus", corpus_path, "--in", str(queries),
             "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            f"error: {queries}: line 3: sample 'q2': probability of family 'c0' is nan, "
            "not a finite number")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["predict"], ["eval", "--protocol", "loocv"]])
    def test_negative_rf_seed_exits_1_naming_the_seed(self, tmp_path, capsys, command):
        corpus_path = run_gen(tmp_path)
        capsys.readouterr()
        rc = main([*command, "--method", "rf", "--seed", "-1", "--corpus", corpus_path,
                   *(["--in", corpus_path] if command == ["predict"] else [])])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative int, got -1\n"

    def test_missing_corpus_exits_1(self, tmp_path, capsys):
        rc = main(["predict", "--method", "nb",
                   "--corpus", str(tmp_path / "nope.jsonl"),
                   "--in", str(tmp_path / "nope.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_records_exit_1_naming_the_line(self, tmp_path, capsys):
        corpus_path = run_gen(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"families":{}}\n{"attributes":["a\xff"],"family":null,'
                        b'"id":"q","tasks":null}\n')
        capsys.readouterr()
        rc = main(["predict", "--method", "nb", "--corpus", corpus_path,
                   "--in", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: line 2: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("line,message", [
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ('{"id": ' + "9" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    ], ids=["too-deep", "too-many-digits"])
    @pytest.mark.parametrize("flag", ["--in", "--corpus"])
    def test_json_that_cannot_be_built_exits_1_naming_the_line(self, tmp_path, capsys,
                                                                 flag, line, message):
        corpus_path = run_gen(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"families":{}}\n' + line + "\n", encoding="utf-8")
        files = {"--corpus": corpus_path, "--in": corpus_path, flag: str(bad)}
        capsys.readouterr()
        rc = main(["predict", "--method", "nb", *(a for kv in files.items() for a in kv)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 2: unreadable JSON ({message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--in", "--corpus"])
    def test_a_format_error_names_the_file_it_is_in(self, tmp_path, capsys, flag):
        corpus_path = run_gen(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"families":{}}\n{"id": \n', encoding="utf-8")
        files = {"--corpus": corpus_path, "--in": corpus_path, flag: str(bad)}
        capsys.readouterr()
        rc = main(["predict", "--method", "nb", *(a for kv in files.items() for a in kv)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: line 2: invalid JSON (Expecting value)\n"

    @pytest.mark.parametrize("record,message", [
        ('{"attributes":["a"],"family":null,"id":"q","tasks":null}',
         "sample 'q' is unlabeled (family is None)"),
        ('{"attributes":["a"],"family":"G","id":"q","tasks":null}',
         "sample 'q' has family 'G' absent from the family map"),
    ], ids=["unlabeled", "unknown-family"])
    @pytest.mark.parametrize("command", [["predict"], ["eval"]])
    def test_a_label_error_names_the_file_and_the_line(self, tmp_path, capsys,
                                                       command, record, message):
        bad = tmp_path / "unl.jsonl"
        bad.write_text('{"families":{"F":["t"]}}\n' + record + "\n", encoding="utf-8")
        rc = main([*command, "--method", "nb", "--corpus", str(bad),
                   *(["--in", str(bad)] if command == ["predict"] else [])])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: line 2: {message}\n"

    def test_a_bad_in_file_is_reported_before_training(self, tmp_path, capsys, monkeypatch):
        def train(*args, **kwargs):
            raise AssertionError("trained before reading --in")

        monkeypatch.setattr(cli, "train_method", train)
        corpus_path = run_gen(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"families":{}}\n{"id": \n', encoding="utf-8")
        capsys.readouterr()
        rc = main(["predict", "--method", "nb", "--corpus", corpus_path, "--in", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: line 2: invalid JSON (Expecting value)\n"
        # A bad --corpus is still the first error reported.
        bad_corpus = tmp_path / "bad-corpus.jsonl"
        bad_corpus.write_text("[]\n", encoding="utf-8")
        rc = main(["predict", "--method", "nb", "--corpus", str(bad_corpus), "--in", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {bad_corpus}: line 1: expected a JSON object\n"

    def test_header_only_corpus_exits_1(self, tmp_path, capsys):
        corpus_path = tmp_path / "empty.jsonl"
        corpus_path.write_text('{"families":{}}\n', encoding="utf-8")
        rc = main(["predict", "--method", "nb", "--corpus", str(corpus_path),
                   "--in", run_gen(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: cannot train on an empty corpus\n"

    def test_direct_mode_without_tasks_exits_1(self, tmp_path, capsys):
        corpus_path = tmp_path / "taskless.jsonl"
        corpus_path.write_text(
            '{"families":{"F":[]}}\n'
            '{"attributes":["a"],"family":"F","id":"s1","tasks":[]}\n', encoding="utf-8")
        rc = main(["predict", "--method", "rf", "--mode", "direct",
                   "--corpus", str(corpus_path), "--in", run_gen(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: direct mode needs a task, but the corpus's families perform none\n")

    def test_closed_stdout_pipe_is_silent(self, tmp_path, capsys, monkeypatch):
        # `taskinfer predict ... | head` closes stdout early; that must not
        # produce an error message, only a quiet nonzero exit.
        corpus_path = run_gen(tmp_path)
        capsys.readouterr()

        class ClosedPipe:
            def write(self, _):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                raise io.UnsupportedOperation("fileno")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        rc = main(["predict", "--method", "actr-ib", "--corpus", corpus_path,
                   "--in", corpus_path])
        monkeypatch.undo()
        assert rc == 1
        assert "Broken pipe" not in capsys.readouterr().err


_IMPORT_PROBE = """
import json, sys
import taskinfer, taskinfer.cli
from taskinfer.core import Corpus, Sample

SCIPY = ("scipy.stats", "scipy.special", "scipy.sparse")
loaded = {"cli": [m for m in SCIPY if m in sys.modules]}
Corpus([Sample(id="s", attribs=frozenset("a"), family="F")], {"F": frozenset("t")}).index
loaded["index"] = [m for m in SCIPY if m in sys.modules]
taskinfer.paired_ttest([1.0, 2.0, 4.0], [1.0, 1.5, 2.0])
loaded["ttest"] = [m for m in SCIPY if m in sys.modules]
print(json.dumps(loaded))
"""

_TRAIN_PROBE = """
import json, sys
from taskinfer import core, methods, synthgen

corpus, _ = synthgen.generate(synthgen.GenSpec(samples_per_family=6, seed=1))
for method in methods.METHODS:
    for mode in core.MODES:
        methods.train_method(method, corpus, mode)(corpus.samples[0].attribs)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _probe(code: str):
    """The JSON a fresh interpreter prints running `code` against this
    package: this one has loaded whatever the other tests ran."""
    package_root = str(Path(taskinfer.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root,
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestImports:
    def test_each_scipy_module_loads_only_where_it_runs(self):
        assert _probe(_IMPORT_PROBE) == {"cli": [], "index": [], "ttest": ["scipy.special"]}

    def test_training_every_method_in_both_modes_loads_no_scipy(self):
        assert _probe(_TRAIN_PROBE) == []


# sha256 of `predict --mode direct --out` on encrypted queries.  The carriers
# corpus has 4 tasks in 2 distinct sample columns; in the single-task corpus
# every task has its own column, so rf's forests and seeds are one per task.
_FROZEN_DIRECT_SHA256 = {
    ("actr-r", "carriers"):
        "1cd5cf7340f83b82bdbcefc5a928b8afffb863b670e42bc9fb7df21ab24b2fcb",
    ("dt", "carriers"):
        "84de47ef36fcfe5b96268b2500b56684f8a69917834999aca0cc8aac71facdfd",
    ("logreg", "carriers"):
        "5f0e2b1931bc26f0cc53ab49b6aea22097590052e44fb370497987899fad9a07",
    ("nb", "carriers"):
        "d19b4e76c6420e10c70c2081f25efa88ac429c93d400a54d96394d2f62ca8980",
    ("rf", "single-task"):
        "24caf6e0a824d458b652218a2acb6a59d00645127ea42580a9dc4983fa305716",
}

SINGLE_TASK_SMALL = ["--regime", "single-task", "--tasks-per-carrier", "4",
                     "--samples-per-family", "10", "--carrier-pool", "60",
                     "--payload-attrs", "8", "--overlap", "0.6", "--seed", "2"]


class TestFrozenDirectPredictions:
    @pytest.mark.parametrize("method,regime", sorted(_FROZEN_DIRECT_SHA256))
    def test_prediction_files_match_frozen_digests(self, tmp_path, method, regime):
        spec = GEN_SMALL if regime == "carriers" else SINGLE_TASK_SMALL
        corpus, queries, out = (str(tmp_path / name) for name in
                                ("corpus.jsonl", "queries.jsonl", "preds.jsonl"))
        assert main(["gen", *spec, "--out", corpus]) == 0
        assert main(["gen", *spec, "--encrypted", "--seed", "9", "--out", queries]) == 0
        assert main(["predict", "--method", method, "--mode", "direct", "--seed", "3",
                     "--corpus", corpus, "--in", queries, "--out", out]) == 0
        digest = hashlib.sha256((tmp_path / "preds.jsonl").read_bytes()).hexdigest()
        assert digest == _FROZEN_DIRECT_SHA256[(method, regime)]


# sha256 of `predict --out` for the tree models on encrypted queries against
# the carriers corpus, in the modes the digests above leave out.
_FROZEN_TREE_SHA256 = {
    ("dt", "family"):
        "3f88f5c24c36e9131ca5a01c8b51cc852545591a6ad0dbe4be8f67b6bcf30605",
    ("rf", "family"):
        "05309b12a9b07243245afcff73db86cb9839503573322577170cdd351be6b817",
    ("rf", "direct"):
        "45edd64961cf7d843012b14aac98fc047fcdc4ec8cc868605423def6ed94623f",
}


class TestFrozenTreePredictions:
    @pytest.mark.parametrize("method,mode", sorted(_FROZEN_TREE_SHA256))
    def test_prediction_files_match_frozen_digests(self, tmp_path, method, mode):
        corpus, queries, out = (str(tmp_path / name) for name in
                                ("corpus.jsonl", "queries.jsonl", "preds.jsonl"))
        assert main(["gen", *GEN_SMALL, "--out", corpus]) == 0
        assert main(["gen", *GEN_SMALL, "--encrypted", "--seed", "9", "--out", queries]) == 0
        assert main(["predict", "--method", method, "--mode", mode, "--seed", "3",
                     "--corpus", corpus, "--in", queries, "--out", out]) == 0
        digest = hashlib.sha256((tmp_path / "preds.jsonl").read_bytes()).hexdigest()
        assert digest == _FROZEN_TREE_SHA256[(method, mode)]


class TestEval:
    def test_loocv_writes_report_and_csv(self, tmp_path, capsys):
        corpus_path = run_gen(tmp_path)
        out = tmp_path / "report.jsonl"
        rc = main(["eval", "--method", "nb", "--corpus", corpus_path,
                   "--protocol", "loocv", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "method" in stdout and "nb" in stdout
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert obj["protocol"] == "loocv"
        assert obj["n_tested"] == 24
        csv = (tmp_path / "report.jsonl.csv").read_text(encoding="utf-8")
        assert csv.splitlines()[0] == "method,mode,protocol,label,metric,value"

    def test_report_files_are_byte_identical_across_runs(self, tmp_path):
        corpus_path = run_gen(tmp_path)
        r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        base = ["eval", "--method", "actr-ib", "--corpus", corpus_path,
                "--protocol", "split", "--trials", "2", "--train-frac", "0.5",
                "--seed", "3"]
        assert main(base + ["--out", str(r1)]) == 0
        assert main(base + ["--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_lofo_reports_one_line_per_family(self, tmp_path):
        corpus_path = run_gen(tmp_path)
        out = tmp_path / "lofo.jsonl"
        rc = main(["eval", "--method", "nb", "--corpus", corpus_path,
                   "--protocol", "lofo", "--out", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert {json.loads(l)["label"] for l in lines} == {"c0", "c1"}
        assert all(json.loads(l)["family_accuracy"] is None for l in lines)

    @staticmethod
    def ghost_corpus(tmp_path, tasks):
        """A gen corpus whose header also names a family, ghost, that
        performs `tasks` and that no record carries."""
        run_gen(tmp_path)
        lines = (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["families"]["ghost"] = tasks
        corpus_path = tmp_path / "ghost.jsonl"
        corpus_path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n",
                               encoding="utf-8")
        return corpus_path

    def test_lofo_family_without_samples_exits_1_without_report(self, tmp_path, capsys):
        corpus_path = self.ghost_corpus(tmp_path, ["t0"])
        out = tmp_path / "lofo.jsonl"
        rc = main(["eval", "--method", "nb", "--corpus", str(corpus_path),
                   "--protocol", "lofo", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: family 'ghost' has no samples to hold out\n")
        assert not out.exists()
        assert not (tmp_path / "lofo.jsonl.csv").exists()

    @pytest.mark.parametrize("mode,message", [("family", "family 'ghost' has no samples"),
                                              ("direct", "task 'z' has no samples")])
    def test_loocv_label_without_samples_exits_1_without_report(self, tmp_path, capsys,
                                                                mode, message):
        corpus_path = self.ghost_corpus(tmp_path, ["z"])
        out = tmp_path / "loocv.jsonl"
        rc = main(["eval", "--method", "nb", "--corpus", str(corpus_path), "--mode", mode,
                   "--protocol", "loocv", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("protocol", ["loocv", "split", "lofo"])
    def test_family_without_tasks_exits_1_naming_it(self, tmp_path, capsys, protocol):
        corpus_path = tmp_path / "taskless.jsonl"
        corpus_path.write_text(
            '{"families":{"F":["t"],"G":[]}}\n'
            + "".join(f'{{"attributes":["a","{k}"],"family":"{f}","id":"{f}{k}",'
                      f'"tasks":{json.dumps(sorted(tasks))}}}\n'
                      for f, tasks in (("F", ["t"]), ("G", [])) for k in "xy"),
            encoding="utf-8")
        out = tmp_path / "report.jsonl"
        rc = main(["eval", "--method", "nb", "--corpus", str(corpus_path),
                   "--protocol", protocol, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: family 'G' performs no task, so its samples have no truth "
            "to score against\n")
        assert not out.exists()

    def test_direct_mode_and_overrides_parse(self, tmp_path):
        corpus_path = run_gen(tmp_path)
        rc = main(["eval", "--method", "actr-r", "--corpus", corpus_path,
                   "--protocol", "split", "--trials", "2", "--train-frac", "0.5",
                   "--mode", "direct", "--noise", "0.25", "--tau", "-5",
                   "--w", "8", "--task-threshold", "0.4",
                   "--partial-matching", "deficit"])
        assert rc == 0


class TestModelParameterFlags:
    """Every ActrParams field is a flag named after it; only s is --noise."""

    FLAGS = ["--noise" if f.name == "s" else "--" + f.name.replace("_", "-")
             for f in fields(ActrParams)]

    @pytest.mark.parametrize("command", ["predict", "eval", "compare"])
    def test_help_lists_one_flag_per_field_in_field_order(self, command, capsys,
                                                          monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main([command, "--help"])
        group = capsys.readouterr().out.split("model parameters:\n")[1].split("\n\n")[0]
        # argparse moves the help of a long flag to the next line: one entry
        # per flag, whatever the wrapping.
        entries = [("--" + entry).split() for entry in group.split("  --")[1:]]
        assert entries == [
            [flag, f.name.upper(), "override", f.name, "(default", f"{f.default})"]
            for flag, f in zip(self.FLAGS, fields(ActrParams))]

    def test_each_flag_sets_its_own_field(self):
        values = {"beta": 15.0, "s": 0.25, "tau": -5.0, "mp": 10.0, "w": 8.0,
                  "task_threshold": 0.4, "partial_matching": "deficit"}
        assert set(values) == {f.name for f in fields(ActrParams)}
        base = ["predict", "--method", "nb", "--corpus", "c", "--in", "r"]
        parser = cli._build_parser()
        for flag, name in zip(self.FLAGS, values):
            args = parser.parse_args([*base, flag, str(values[name])])
            assert cli._params_from_args(args) == replace(ActrParams(), **{name: values[name]})


class TestCompare:
    def test_pairwise_significance_output(self, tmp_path, capsys):
        corpus_path = run_gen(tmp_path)
        out = tmp_path / "cmp.jsonl"
        rc = main(["compare", "--method", "actr-ib", "--method", "nb",
                   "--corpus", corpus_path, "--protocol", "split",
                   "--trials", "3", "--train-frac", "0.5", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "paired t-tests on per-sample F1" in stdout
        assert "actr-ib vs nb:" in stdout
        assert ("t=" in stdout) or ("n/a" in stdout)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert {json.loads(l)["method"] for l in lines} == {"actr-ib", "nb"}

    def test_t_test_line_of_two_methods_that_differ_per_sample(self, tmp_path, capsys):
        # On this encrypted corpus nb and dt differ on many test samples, so
        # the pair takes the verdict branch, not n/a.
        corpus_path = run_gen(tmp_path, extra=["--encrypted", "--encrypt-fraction", "0.8"],
                              argv=["--samples-per-family", "8", "--seed", "4"])
        out = tmp_path / "cmp.jsonl"
        capsys.readouterr()
        assert main(["compare", "--method", "nb", "--method", "dt", "--corpus", corpus_path,
                     "--protocol", "split", "--trials", "3", "--out", str(out)]) == 0
        verdict = capsys.readouterr().out.split("\n  nb vs dt: ")[1].split("\n")[0]
        f1 = {r["method"]: [s["f1"] for s in r["scores"]]
              for r in map(json.loads, out.read_text(encoding="utf-8").splitlines())}
        res = paired_ttest(f1["nb"], f1["dt"])
        assert verdict == f"t={res.statistic:+.4f} dof={res.dof} p={res.p_value:.6f}"
        assert verdict == "t=+5.1686 dof=44 p=0.000006"
        assert res.p_value.hex() == reference_t_p_value(res.statistic, res.dof).hex()

    def test_identical_methods_are_deduplicated(self, tmp_path, capsys):
        corpus_path = run_gen(tmp_path)
        rc = main(["compare", "--method", "nb", "--method", "nb",
                   "--corpus", corpus_path])
        assert rc == 2
        assert "at least two distinct" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation_smoke(self, tmp_path):
        out = tmp_path / "smoke.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "taskinfer", "gen", *GEN_SMALL,
             "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert "wrote 24 samples" in proc.stdout

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def _assert_canonical_json_lines(path):
    data = path.read_bytes()
    assert b"\r" not in data and (data == b"" or data.endswith(b"\n"))
    for line in data.decode("utf-8").split("\n")[:-1]:
        assert line == canonical_json(json.loads(line))


class TestWrittenFiles:
    def test_every_json_lines_file_is_canonical_with_lf_ends(self, tmp_path):
        corpus = run_gen(tmp_path)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(GOOD_REPORT), encoding="utf-8")
        assert main(["ingest", str(report), "--out", str(tmp_path / "ingested.jsonl")]) == 0
        assert main(["predict", "--method", "nb", "--corpus", corpus,
                     "--in", corpus, "--out", str(tmp_path / "preds.jsonl")]) == 0
        assert main(["eval", "--method", "nb", "--corpus", corpus, "--protocol", "split",
                     "--trials", "2", "--out", str(tmp_path / "eval.jsonl")]) == 0
        for name in ("corpus.jsonl", "corpus.jsonl.gen.json", "ingested.jsonl",
                     "preds.jsonl", "eval.jsonl"):
            assert (tmp_path / name).stat().st_size > 0
            _assert_canonical_json_lines(tmp_path / name)

    def test_header_only_input_writes_an_empty_prediction_file(self, tmp_path):
        corpus = run_gen(tmp_path)
        header = tmp_path / "header.jsonl"
        header.write_text(open(corpus, encoding="utf-8").readline(), encoding="utf-8")
        out = tmp_path / "preds.jsonl"
        assert main(["predict", "--method", "nb", "--corpus", corpus,
                     "--in", str(header), "--out", str(out)]) == 0
        assert out.read_bytes() == b""
