"""End-to-end acceptance checks.

Ten numbered guarantees covering benchmark quality, numerical agreement
with independent oracles, distribution and metric invariants, training
cost asymmetry, gradient correctness, and the sandbox-report golden file.
Each test prints one summary line with its measured values (visible under
``pytest -s`` or in captured output), and every assertion states its
tolerance inline.
"""

from __future__ import annotations

import json
import math
import random
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from taskinfer.actr import IbModel
from taskinfer.baselines import dt_train, logreg_train, nb_train, rf_train
from taskinfer.core import ActrParams, Sample, build_corpus, canonical_json, label_space
from taskinfer.evaluation import score_sample, split_trials
from taskinfer.ingest import parse_report
from taskinfer.methods import predict, train_method
from taskinfer.synthgen import (
    DEFAULT_ENCRYPT_FRACTION,
    GenSpec,
    encrypt_variant,
    generate,
    generate_single_task,
)

from oracles import (
    logreg_objective,
    random_corpus,
    random_params,
    reference_ib_probs,
    reference_nb_posterior,
    retrieval_probs,
)

DATA = Path(__file__).parent / "data"


def _note(num: int, name: str, detail: str) -> None:
    print(f"[check {num:02d}] {name}: {detail}")


def test_01_high_overlap_split_benchmark():
    """Well-separated families: instance model and random forest both ace
    repeated 60/40 stratified splits, inside a generous wall-clock budget."""
    t0 = time.perf_counter()
    corpus, _ = generate(GenSpec(samples_per_family=200, overlap_target=0.6, seed=7))
    f1 = {}
    for method in ("actr-ib", "rf"):
        rep = split_trials(corpus, method, train_frac=0.6, n_trials=10, seed=7)
        f1[method] = rep.mean_f1
    elapsed = time.perf_counter() - t0
    _note(1, "high-overlap split benchmark",
          f"actr-ib f1={f1['actr-ib']:.4f} rf f1={f1['rf']:.4f} "
          f"elapsed={elapsed:.1f}s (floor 0.98, budget 120s)")
    assert f1["actr-ib"] >= 0.98  # measured 1.0000 at seed 7
    assert f1["rf"] >= 0.98       # measured 1.0000 at seed 7
    assert elapsed < 120.0        # measured ~1.5s


def test_02_low_overlap_benchmark_instance_model_competitive():
    """Sparse families (low within-family attribute overlap): the instance
    model stays accurate and within 0.02 mean F1 of the best baseline."""
    t0 = time.perf_counter()
    corpus, _ = generate(GenSpec(samples_per_family=200, overlap_target=0.2, seed=7))
    f1 = {}
    for method in ("actr-ib", "nb", "dt", "logreg"):
        rep = split_trials(corpus, method, train_frac=0.6, n_trials=10, seed=7)
        f1[method] = rep.mean_f1
    elapsed = time.perf_counter() - t0
    best_baseline = max(f1[m] for m in ("nb", "dt", "logreg"))
    _note(2, "low-overlap benchmark",
          f"actr-ib f1={f1['actr-ib']:.4f} best baseline f1={best_baseline:.4f} "
          f"elapsed={elapsed:.1f}s (floor 0.95, margin 0.02, budget 120s)")
    assert f1["actr-ib"] >= 0.95                   # measured 1.0000 at seed 7
    assert f1["actr-ib"] >= best_baseline - 0.02   # measured equal at seed 7
    assert elapsed < 120.0                         # measured ~4.2s


def test_03_encrypted_payload_degrades_but_survives():
    """Hiding payload tokens from held-out samples costs accuracy without
    collapsing it: shared-carrier corpora keep the instance model above
    0.85 mean F1 on the encrypted variant, below its clean-variant score.

    Train and test corpora come from different generator seeds, so nothing
    is retrieved by identity; only attribute structure carries the signal.
    """
    base = dict(n_carriers=1, tasks_per_carrier=17, samples_per_family=100,
                payload_attrs_per_task=12, overlap_target=0.6)
    train, _ = generate_single_task(GenSpec(**base, seed=31))
    held_out, _ = generate_single_task(GenSpec(**base, seed=32))
    encrypted = encrypt_variant(held_out, DEFAULT_ENCRYPT_FRACTION, seed=33)
    predictor = train_method("actr-ib", train)
    mean_f1 = {}
    for name, corpus in (("clean", held_out), ("encrypted", encrypted)):
        f1s = [score_sample(predictor(s.attribs).predicted_tasks, s.tasks).f1
               for s in corpus.samples]
        mean_f1[name] = sum(f1s) / len(f1s)
    _note(3, "encrypted payload degradation",
          f"clean f1={mean_f1['clean']:.4f} encrypted f1={mean_f1['encrypted']:.4f} "
          f"on {held_out.size} held-out samples (floor 0.85, gap >= 0.05)")
    assert mean_f1["clean"] >= 0.99                            # measured 1.0000
    assert mean_f1["encrypted"] >= 0.85                        # measured 0.9029
    assert mean_f1["encrypted"] <= mean_f1["clean"] - 0.05     # real degradation


def test_04_family_and_direct_task_mass_agree():
    """Summing family-mode probability mass over each family's task set
    reproduces direct per-task mode exactly: both group the same chunk
    distribution, so the numbers must match to float accumulation order."""
    rng = random.Random(44)
    worst = 0.0
    for _ in range(50):
        corpus = random_corpus(rng, max_samples=30)
        params = random_params(rng)
        query = set(rng.choice(corpus.samples).attribs)
        if rng.random() < 0.3:
            query.add("novel-token")
        fam = predict(IbModel(corpus, params, mode="family"), query, params.task_threshold)
        direct = predict(IbModel(corpus, params, mode="direct"), query, params.task_threshold)
        assert fam.degenerate == direct.degenerate
        mass = {t: 0.0 for t in corpus.tasks}
        for f, p in fam.class_probs.items():
            for t in corpus.families[f]:
                mass[t] += p
        assert set(mass) == set(direct.class_probs)
        for t, m in mass.items():
            worst = max(worst, abs(m - direct.class_probs[t]))
            assert direct.class_probs[t] == pytest.approx(m, abs=1e-12)
        # Identical mass implies identical thresholded task sets, except
        # when a mass sits numerically on the threshold itself.
        margin = min(abs(m - params.task_threshold) for m in mass.values())
        if margin > 1e-9:
            assert fam.predicted_tasks == direct.predicted_tasks
    _note(4, "family vs direct task mass",
          f"50 random corpora, max |mass delta|={worst:.2e} (tolerance 1e-12)")


def test_05_models_match_arbitrary_precision_oracles():
    """Production scoring agrees with the plain-loop, arbitrary-precision
    re-implementations in tests/oracles.py: activation softmax in both
    modes, and the Bernoulli Bayes posterior, to 1e-9 absolute."""
    rng = random.Random(55)
    worst_ib = 0.0
    worst_nb = 0.0
    for _ in range(100):
        corpus = random_corpus(rng)
        params = random_params(rng)
        query = set(rng.choice(corpus.samples).attribs)
        if rng.random() < 0.3:
            query.add(f"novel{rng.randint(0, 5)}")
        for mode in ("family", "direct"):
            pred = predict(IbModel(corpus, params, mode), query, params.task_threshold)
            ref, ref_degenerate = reference_ib_probs(corpus, params, query, mode)
            assert pred.degenerate == ref_degenerate
            assert set(pred.class_probs) == set(ref)
            for label, p in ref.items():
                worst_ib = max(worst_ib, abs(pred.class_probs[label] - p))
                assert pred.class_probs[label] == pytest.approx(p, abs=1e-9)
        smoothing = rng.choice([0.5, 1.0, 2.0])
        model = nb_train(corpus, smoothing=smoothing)
        pred = predict(model, query, 0.5)
        ref_posterior = reference_nb_posterior(corpus, smoothing, query)
        for label, p in ref_posterior.items():
            worst_nb = max(worst_nb, abs(pred.class_probs[label] - p))
            assert pred.class_probs[label] == pytest.approx(p, abs=1e-9)
    _note(5, "oracle agreement",
          f"100 random corpora: max activation delta={worst_ib:.2e}, "
          f"max posterior delta={worst_nb:.2e} (tolerance 1e-9)")


def test_06_retrieval_distribution_properties():
    """10,000 seeded random activation vectors: the retrieval distribution
    normalizes, stays nonnegative, zeroes excluded chunks, flags the
    all-below-threshold fallback, and ignores constant activation shifts."""
    rng = random.Random(66)
    n_cases = 10_000
    n_degenerate = 0
    for _ in range(n_cases):
        n = rng.randint(1, 40)
        acts = [rng.uniform(-30.0, 30.0) for _ in range(n)]
        params = ActrParams(s=rng.uniform(0.05, 3.0), tau=rng.uniform(-35.0, 35.0))
        probs, degenerate = retrieval_probs(acts, params)
        assert degenerate == all(a < params.tau for a in acts)
        n_degenerate += degenerate
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert all(p >= 0.0 for p in probs)
        if not degenerate:
            assert all(p == 0.0 for a, p in zip(acts, probs) if a < params.tau)
        shift = rng.uniform(-50.0, 50.0)
        base, _ = retrieval_probs(acts, params, apply_threshold=False)
        moved, _ = retrieval_probs([a + shift for a in acts], params,
                                   apply_threshold=False)
        for p, q in zip(base, moved):
            assert q == pytest.approx(p, abs=1e-9)
    _note(6, "retrieval distribution properties",
          f"{n_cases} cases, {n_degenerate} degenerate fallbacks exercised "
          f"(normalization/shift tolerance 1e-9)")
    assert n_degenerate > 100  # the fallback branch was genuinely covered


def test_07_task_metric_identities():
    """10,000 seeded random prediction/truth pairs: precision, recall, and
    F1 hit their set-count definitions, the Dice form of F1, and the
    swap symmetry, all to 1e-12."""
    rng = random.Random(77)
    pool = [f"t{i}" for i in range(10)]
    n_cases = 10_000
    for _ in range(n_cases):
        truth = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        predicted = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
        sc = score_sample(predicted, truth)
        hit = len(predicted & truth)
        assert 0.0 <= sc.precision <= 1.0
        assert 0.0 <= sc.recall <= 1.0
        assert 0.0 <= sc.f1 <= 1.0
        assert sc.recall == pytest.approx(hit / len(truth), abs=1e-12)
        if not predicted:
            assert sc.precision == 0.0 and sc.f1 == 0.0
        else:
            assert sc.precision == pytest.approx(hit / len(predicted), abs=1e-12)
            # Dice form: an algebraically distinct route to the same value.
            assert sc.f1 == pytest.approx(
                2 * hit / (len(predicted) + len(truth)), abs=1e-12)
            swapped = score_sample(truth, predicted)
            assert swapped.f1 == pytest.approx(sc.f1, abs=1e-12)
            assert swapped.precision == pytest.approx(sc.recall, abs=1e-12)
            assert swapped.recall == pytest.approx(sc.precision, abs=1e-12)
        if predicted == truth:
            assert sc.f1 == 1.0
        if predicted and not (predicted & truth):
            assert sc.f1 == 0.0
    _note(7, "task metric identities",
          f"{n_cases} cases, set-count/Dice/swap identities (tolerance 1e-12)")


def test_08_per_task_training_costs_more_than_per_family():
    """Direct mode fits one binary model per distinct task column where
    family mode fits one multiclass model, so parametric trainers pay for
    every column; the instance model just stores memory and trains in
    near-zero time.  The generated samples are re-labeled so that each of
    15 tasks is performed by its own run of 1-3 neighbouring families: 15
    task columns against 5 families."""
    base, _ = generate(GenSpec(samples_per_family=40, seed=8))
    fams = sorted(base.families)
    runs = [{fams[(i + j) % len(fams)] for j in range(k)}
            for k in (1, 2, 3) for i in range(len(fams))]
    corpus = build_corpus(
        [Sample(s.id, s.attribs, s.family) for s in base.samples],
        {f: {f"task{n}" for n, run in enumerate(runs) if f in run} for f in fams})
    assert len(label_space(corpus, "direct").columns) == 15

    def train_time(train, mode):
        best = math.inf
        for _ in range(3):  # min over repeats to shed scheduler noise
            t0 = time.perf_counter()
            train(corpus, mode=mode)
            best = min(best, time.perf_counter() - t0)
        return best

    ratios = []
    for method, train in (("dt", dt_train), ("rf", partial(rf_train, n_trees=25)),
                          ("logreg", partial(logreg_train, epochs=120))):
        fam = train_time(train, "family")
        direct = train_time(train, "direct")
        ratios.append(f"{method}={direct / fam:.1f}x")
        # measured dt 1.8x-5.0x, rf 6.1x-13x here; logreg 3.3x-4.7x over 6 runs
        # since one ascent fits all 15 columns
        assert direct > fam
    ib_family = train_time(IbModel, "family")
    ib_direct = train_time(IbModel, "direct")
    _note(8, "training cost asymmetry",
          f"direct/family ratios {' '.join(ratios)}; instance build "
          f"family={ib_family * 1e3:.1f}ms direct={ib_direct * 1e3:.1f}ms")
    assert ib_family < 0.5 and ib_direct < 0.5  # measured ~2ms each


def test_09_logreg_gradient_matches_finite_difference():
    """Analytic gradients of the penalized log-likelihood agree with
    central finite differences at 10 random weight points (rel 1e-5)."""
    rng = np.random.default_rng(99)
    n, d, c = 12, 6, 3
    x = (rng.random((n, d)) < 0.5).astype(float)
    y = np.zeros((n, c))
    y[np.arange(n), rng.integers(0, c, n)] = 1.0
    l2 = 0.01
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        w = rng.normal(0.0, 1.0, (c, d))
        b = rng.normal(0.0, 1.0, c)
        _, grad_w, grad_b = logreg_objective(w, b, x, y, l2)
        for _ in range(5):
            i = int(rng.integers(0, c))
            j = int(rng.integers(0, d))
            wp = w.copy()
            wp[i, j] += h
            wm = w.copy()
            wm[i, j] -= h
            numeric = (logreg_objective(wp, b, x, y, l2)[0]
                       - logreg_objective(wm, b, x, y, l2)[0]) / (2 * h)
            worst = max(worst, abs(numeric - grad_w[i, j]) / max(abs(numeric), 1e-12))
            assert grad_w[i, j] == pytest.approx(numeric, rel=1e-5, abs=1e-7)
        k = int(rng.integers(0, c))
        bp = b.copy()
        bp[k] += h
        bm = b.copy()
        bm[k] -= h
        numeric = (logreg_objective(w, bp, x, y, l2)[0]
                   - logreg_objective(w, bm, x, y, l2)[0]) / (2 * h)
        assert grad_b[k] == pytest.approx(numeric, rel=1e-5, abs=1e-7)
    _note(9, "logreg gradient check",
          f"10 weight points x 5 coords + bias, worst rel err={worst:.2e} "
          f"(tolerance 1e-5)")


def test_10_sandbox_report_tokens_match_golden_file():
    """Parsing the stored sandbox report reproduces the frozen token file
    byte-for-byte under canonical serialization."""
    raw = (DATA / "cuckoo_report.json").read_bytes()
    sample = parse_report(raw, location="cuckoo_report.json")
    expected = json.loads((DATA / "cuckoo_expected_tokens.json").read_text())
    actual = {"id": sample.id, "tokens": sorted(sample.attribs)}
    assert actual["tokens"] == expected["tokens"]  # exact list, order included
    assert canonical_json(actual) == canonical_json(expected)
    _note(10, "sandbox report golden file",
          f"id={sample.id[:12]}... {len(sample.attribs)} tokens byte-exact")
