"""Benchmark entry point.

    python3 benchmarks/run.py --workload triage --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; taskinfer is imported from its
`src/`.  The workload's inputs are prepared from the seed in a child
process, then the workload is set up and run for a fixed number of passes
(see `schedule`).  setup_s and job_s are the medians of the set-up and pass
times, peak_rss_mb the peak resident memory of set-up and the first pass.

--trace 0 reports the end-to-end metrics.  --trace 1 is a separate run that
wraps taskinfer's public functions in spans (see tracing.py); it sets up
once per pass, and the per-layer metrics are per-round (set-up plus pass)
means.

Both write `benchmarks/results/BENCH_<workload>[.trace].json` with every
metric, the environment, input and output digests and the failure reasons.
The last line of stdout is the JSON summary
{"correct", "attempted", "failed", "metrics"} with the metrics that
BENCHMARK.json names.  WORKLOADS.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "work"
# Share of a run's nominal time spent on set-up; set-up runs before every
# pass, so it samples the same stretch of time as the passes.
SETUP_SHARE = 0.1
TAIL_SAMPLES = 10   # a reported tail percentile has at least this many samples beyond it


def timing(values) -> dict:
    """Median plus the highest percentile with TAIL_SAMPLES samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "min": values[0], "n": n,
           "tail_pct": None, "tail": None}
    for pct in (99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= TAIL_SAMPLES:
            out["tail_pct"] = pct
            out["tail"] = percentile(values, pct)
            break
    return out


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            # Never take the commit of a repository that merely encloses the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def schedule(workload, seconds: float, trace: bool) -> tuple:
    """(passes, set-ups before each pass) of a run of `seconds`.

    Both counts follow from the workload's nominal pass and set-up times,
    never from the program's speed, so every commit takes its medians over
    the same number of samples.  A faster commit finishes sooner.
    """
    passes = math.ceil(seconds / workload.pass_s)
    if trace:
        return passes, 1
    setups = SETUP_SHARE * seconds / workload.setup_s
    return passes, max(1, round(setups / passes))


def prepare(workload, workdir: Path, seed: int, trace: bool) -> tuple:
    """Build the inputs; returns them and, when traced, the span table."""
    import tracing
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    inputs = workload.prepare(workdir, seed)
    return inputs, tracer.summarize() if tracer else None


def in_child(fn, *args):
    """fn(*args) in a forked child, so its memory never counts towards ours."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        return pool.submit(fn, *args).result()


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            results_dir: Path = RESULTS) -> tuple:
    """Run one workload and write its results file.

    Returns (the stdout summary, the full record written to the file).
    """
    import tracing
    import workloads

    workload = workloads.build(name, size)
    n_passes, setups_per_pass = schedule(workload, seconds, trace)
    ops = workloads.Ops()
    tracer = tracing.Tracer() if trace else None
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    setups, passes = [], []
    try:
        start = perf_counter()
        inputs, prepared = in_child(prepare, workload, workdir, seed, trace)
        prepare_s = perf_counter() - start
        if tracer:
            tracer.install()
        for i in range(n_passes):
            for _ in range(setups_per_pass):
                state = None  # a user holds one set-up state at a time
                t0 = perf_counter()
                state = workload.setup(inputs)
                setups.append(perf_counter() - t0)
            passes.append(workload.run(state, ops))
            if i == 0:
                peak_mb = peak_rss_mb()
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    first = passes[0]
    for p in passes[1:]:
        if p.digest != first.digest:
            ops.wrong["outputs differ between passes"] += 1
    metrics = workload_metrics(name, setups, passes, ops, peak_mb)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(seed),
        "inputs": {"sha256": inputs["input_sha256"], **inputs["properties"]},
        "outputs": {"sha256": first.digest},
        "prepare_s": prepare_s,
        "passes": len(passes),
        "setups": len(setups),
        "metrics": metrics,
        "correct": not ops.wrong,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": dict(sorted(ops.reasons.items())),
        "wrong": dict(sorted(ops.wrong.items())),
    }
    if trace:
        record["per_layer"] = tracing.per_layer(tracer, len(passes), inputs["properties"],
                                                prepared)
        record["spans"] = tracing.span_table(tracer, len(passes))
        record["overhead"] = overhead(results_dir / f"BENCH_{name}.json", seed, metrics)
        path = results_dir / f"BENCH_{name}.trace.json"
    else:
        path = results_dir / f"BENCH_{name}.json"
    # The last stdout line carries the metrics BENCHMARK.json names.
    source = record["per_layer"] if trace else metrics
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_metrics = {m["name"]: {"value": source[m["name"]]["value"],
                               "unit": source[m["name"]]["unit"]}
                   for m in listed["per_layer" if trace else "end_to_end"]}
    results_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return {"correct": record["correct"], "attempted": ops.attempted,
            "failed": ops.failed, "metrics": out_metrics}, record


def workload_metrics(name: str, setups, passes, ops, peak_mb: float) -> dict:
    """Every end-to-end metric that applies to the workload, with its unit."""
    def m(value, unit, **extra):
        return {"value": value, "unit": unit, **extra}

    jobs = [sum(p.stages.values()) for p in passes]
    out = {
        "setup_s": m(statistics.median(setups), "s", timing=timing(setups)),
        "job_s": m(statistics.median(jobs), "s", timing=timing(jobs), passes=jobs),
        "mean_f1": m(statistics.fmean(passes[0].f1) if passes[0].f1 else 0.0, "1"),
        "peak_rss_mb": m(peak_mb, "MB"),
        "failure_rate": m(ops.failed / ops.attempted, "1"),
    }
    for stage in passes[0].stages:
        out[stage] = m(statistics.median(p.stages[stage] for p in passes), "s")
    lat = [x for p in passes for x in p.latencies]
    if lat:
        t = timing(lat)
        out["queries_per_s"] = m(len(lat) / sum(p.stages["query_s"] for p in passes), "1/s")
        out["query_p50_us"] = m(t["median"] * 1e6, "us", n=t["n"])
        out["query_p99_us"] = m(percentile(sorted(lat), 99.0) * 1e6, "us", n=t["n"])
        out["query_tail_us"] = m(t["tail"] * 1e6, "us", pct=t["tail_pct"], n=t["n"])
    if name == "sandbox":
        out["reports_per_s"] = m(
            statistics.median(p.reports / p.stages["ingest_s"] for p in passes), "1/s")
    return out


def overhead(untraced_path: Path, seed: int, traced: dict) -> dict | None:
    """Traced minus untraced end-to-end numbers, when an untraced result exists."""
    try:
        untraced = json.loads(untraced_path.read_text())
    except (OSError, ValueError):
        return None
    if untraced.get("seed") != seed:
        return None
    out = {}
    for k in ("setup_s", "job_s"):
        base = untraced["metrics"][k]["value"]
        out[k] = {"traced": traced[k]["value"], "untraced": base,
                  "share": traced[k]["value"] / base - 1.0}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "taskinfer" / "__init__.py").is_file():
        print(f"error: no taskinfer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One thread: numpy's BLAS would otherwise use the machine's other cores,
    # and the workloads are defined as single-threaded.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    summary, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload} seed={args.seed} passes={record['passes']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")
    for reason, n in record["failures"].items():
        print(f"  failed {n}: {reason}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
