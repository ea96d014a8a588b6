"""Command-line interface: subcommands, exit codes, files, determinism."""

import io
import json
import subprocess
import sys

import pytest

from taskinfer.cli import main
from taskinfer.core import load_corpus, read_corpus_records

GEN_SMALL = ["--carriers", "2", "--tasks-per-carrier", "2",
             "--samples-per-family", "12", "--carrier-pool", "30",
             "--payload-attrs", "3", "--overlap", "0.5", "--seed", "1"]


def run_gen(tmp_path, name="corpus.jsonl", extra=()):
    out = str(tmp_path / name)
    rc = main(["gen", *GEN_SMALL, *extra, "--out", out])
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

    def test_missing_corpus_exits_1(self, tmp_path, capsys):
        rc = main(["predict", "--method", "nb",
                   "--corpus", str(tmp_path / "nope.jsonl"),
                   "--in", str(tmp_path / "nope.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

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

    def test_direct_mode_and_overrides_parse(self, tmp_path):
        corpus_path = run_gen(tmp_path)
        rc = main(["eval", "--method", "actr-r", "--corpus", corpus_path,
                   "--protocol", "split", "--trials", "2", "--train-frac", "0.5",
                   "--mode", "direct", "--noise", "0.25", "--tau", "-5",
                   "--w", "8", "--task-threshold", "0.4",
                   "--partial-matching", "deficit"])
        assert rc == 0


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
