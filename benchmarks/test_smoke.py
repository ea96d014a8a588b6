"""Smoke test: every workload runs at a tiny size and reports every metric.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import sandbox_reports  # noqa: E402
import workloads  # noqa: E402
from taskinfer.core import Sample  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# End-to-end metrics in each workload's results file.
END_TO_END = {
    "triage": {"setup_s", "job_s", "queries_per_s", "query_p50_us",
               "query_p99_us", "mean_f1", "peak_rss_mb", "failure_rate"},
    "evaluate": {"setup_s", "job_s", "loocv_s", "split_s", "mean_f1",
                 "peak_rss_mb", "failure_rate"},
    "sandbox": {"setup_s", "job_s", "queries_per_s", "query_p50_us",
                "query_p99_us", "lofo_s", "reports_per_s", "mean_f1",
                "peak_rss_mb", "failure_rate"},
}

# Per-layer metrics that are measured (non-zero) only on some workloads.
MODELS = [f"{p}.{mode}" for p in ("baselines.dt", "baselines.rf", "baselines.logreg")
          for mode in ("family", "direct")]
ONLY_ON = {
    "triage": ["synthgen.generate.s", "synthgen.measure_overlap.s"],
    "evaluate": ["synthgen.generate.s", "synthgen.measure_overlap.s",
                 *(f"{m}.train_s" for m in MODELS), *(f"{m}.query_us" for m in MODELS),
                 *(f"evaluation.{p}.{w}" for p in ("loocv", "split")
                   for w in ("train_s", "predict_s", "self_s"))],
    "sandbox": ["core.write_corpus_records.s", "cli.ingest.s", "ingest.parse_report.us",
                "ingest.tokens_per_report", "ingest.rejected",
                *(f"evaluation.lofo.{w}" for w in ("train_s", "predict_s", "self_s"))],
}

# Malformed shapes the seed commit's ingester does not reject cleanly.
KNOWN_DEFECTS = ("summary_not_object", "file_not_object", "sha256_not_string",
                 "resubmission")


@pytest.mark.parametrize("workload", ["triage", "evaluate", "sandbox"])
def test_workload_reports_every_metric(workload, tmp_path):
    summary, record = run.measure(workload, seed=3, seconds=0.1, trace=False,
                                  size="tiny", results_dir=tmp_path)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert summary["metrics"][metric["name"]]["value"] > 0
    assert END_TO_END[workload] <= set(record["metrics"])
    assert summary["correct"] and summary["attempted"] > 0
    if workload == "sandbox":
        assert all(reason.startswith(KNOWN_DEFECTS) for reason in record["failures"])
    else:
        assert summary["failed"] == 0
    assert (tmp_path / f"BENCH_{workload}.json").is_file()

    summary, record = run.measure(workload, seed=3, seconds=0.1, trace=True,
                                  size="tiny", results_dir=tmp_path)
    assert set(summary["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert summary["metrics"][metric["name"]]["value"] is not None
    per_layer = record["per_layer"]
    for name in ONLY_ON[workload]:
        assert per_layer[name]["value"], name
    assert per_layer["core.attribute_matrix.bytes"]["value"] > 0
    assert record["overhead"]["job_s"]["untraced"] > 0
    assert (tmp_path / f"BENCH_{workload}.trace.json").is_file()


def test_generator_is_seeded(tmp_path):
    a = sandbox_reports.write_reports(tmp_path / "a", 5, 24, 12)
    b = sandbox_reports.write_reports(tmp_path / "b", 5, 24, 12)
    assert a.truth == b.truth and a.families == b.families
    for (pa, _), (pb, _) in zip(a.batches[0], b.batches[0]):
        assert Path(pa).read_bytes() == Path(pb).read_bytes()
    columns = {frozenset(f for f, ts in a.families.items() if t in ts)
               for t in {t for ts in a.families.values() for t in ts}}
    assert len(columns) == sandbox_reports.N_TASKS



def test_batch_check_drops_unknown_and_duplicate_records():
    batch = (("a.json", "a"), ("b.json", "b"), ("c.json", "c"))
    got = [Sample(i, {"x"}) for i in ("a", "b", "b", "z")]
    ops = workloads.Ops()
    kept = workloads.Sandbox._check_batch(batch, 0, got, ops)
    assert [s.id for s in kept] == ["a"]
    assert ops.attempted == 4 and ops.failed == 3
    assert ops.wrong == {"valid report missing from ingest output": 2,
                         "unknown record in ingest output": 1}
