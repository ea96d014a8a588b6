"""Independently coded reference implementations used only by tests.

Everything here recomputes model outputs from first principles with plain
Python loops over sets and dicts (mpmath for the exponentials, so overflow
is impossible at any parameter scale).  No code is shared with the package
internals beyond the public data types.
"""

from __future__ import annotations

import math
import random

import mpmath

from taskinfer.core import ActrParams, Corpus, Sample, build_corpus


def softmax_probs(values, temperature):
    """Arbitrary-precision Boltzmann distribution; no shift trick."""
    weights = [mpmath.e ** (mpmath.mpf(v) / mpmath.mpf(temperature)) for v in values]
    total = sum(weights)
    return [float(w / total) for w in weights]


def reference_ib_probs(corpus: Corpus, params: ActrParams, query, mode: str):
    """Transcribed instance-model scoring: per-chunk loops, no arrays."""
    query = set(query)
    m = len(corpus.samples)
    fan = {}
    for s in corpus.samples:
        for a in s.attribs:
            fan[a] = fan.get(a, 0) + 1

    activations = []
    for s in corpus.samples:
        spread = 0.0
        for a in query:
            if a in s.attribs:
                spread += math.log(m / fan[a])
            else:
                spread += math.log(1.0 / m)
        spread /= len(query)
        shared = len(query & s.attribs)
        overlap = shared / math.sqrt(len(query) * len(s.attribs))
        if params.partial_matching == "deficit":
            partial = params.mp * (overlap - 1.0)
        else:
            partial = params.mp * overlap
        activations.append(params.beta + spread + partial)

    retained = [i for i, a in enumerate(activations) if a >= params.tau]
    degenerate = not retained
    if degenerate:
        retained = list(range(m))
    probs_retained = softmax_probs([activations[i] for i in retained], params.s)
    chunk_probs = [0.0] * m
    for i, p in zip(retained, probs_retained):
        chunk_probs[i] = p

    if mode == "family":
        labels = sorted(corpus.families)
        out = {f: 0.0 for f in labels}
        for i, s in enumerate(corpus.samples):
            out[s.family] += chunk_probs[i]
    else:
        labels = sorted(corpus.tasks)
        out = {t: 0.0 for t in labels}
        for i, s in enumerate(corpus.samples):
            for t in s.tasks:
                out[t] += chunk_probs[i]
    return out, degenerate


def reference_ib_tasks(corpus: Corpus, params: ActrParams, query):
    """Family-mode task set: summed family mass per task, thresholded."""
    fam_probs, _ = reference_ib_probs(corpus, params, query, "family")
    tasks = {}
    for f, p in fam_probs.items():
        for t in corpus.families[f]:
            tasks[t] = tasks.get(t, 0.0) + p
    return {t for t, p in tasks.items() if p >= params.task_threshold}


def reference_rb_probs(corpus: Corpus, params: ActrParams, query, mode: str,
                       smoothing: float = 1.0):
    """Transcribed rule-model scoring: per-label counting loops, no arrays.

    Family mode softmaxes log prior + w * mean association over all
    families; direct mode gives each task a two-way softmax against its
    complement (a task carried by every sample keeps its prior of 1).
    """
    query = set(query)
    m = len(corpus.samples)
    sm = smoothing
    if mode == "family":
        labels = sorted(corpus.families)
        members = {f: [s for s in corpus.samples if s.family == f] for f in labels}
    else:
        labels = sorted(corpus.tasks)
        members = {t: [s for s in corpus.samples if t in s.tasks] for t in labels}

    def association(label):
        group = members[label]
        total = 0.0
        for a in query:
            fan = sum(1 for s in corpus.samples if a in s.attribs)
            if fan == 0:
                continue
            inside = sum(1 for s in group if a in s.attribs)
            given = (inside + sm) / (len(group) + 2 * sm)
            not_given = (fan - inside + sm) / (m - len(group) + 2 * sm)
            total += math.log(given / not_given)
        return total / len(query)

    if mode == "family":
        acts = [math.log(len(members[f]) / m) + params.w * association(f)
                for f in labels]
        return dict(zip(labels, softmax_probs(acts, params.s)))
    out = {}
    for t in labels:
        prior = len(members[t]) / m
        if prior == 1.0:
            out[t] = 1.0
            continue
        assoc = params.w * association(t)
        out[t] = softmax_probs(
            [math.log(prior) + assoc, math.log(1.0 - prior) - assoc], params.s)[0]
    return out


def reference_nb_posterior(corpus: Corpus, smoothing: float, query):
    """Brute-force Bernoulli Bayes over the attribute union, direct products."""
    query = set(query)
    families = sorted(corpus.families)
    members = {f: [s for s in corpus.samples if s.family == f] for f in families}
    vocab = set()
    for s in corpus.samples:
        vocab |= s.attribs
    universe = sorted(vocab | query)
    m = len(corpus.samples)
    score = {}
    for f in families:
        group = members[f]
        p = len(group) / m
        for a in universe:
            count = sum(1 for s in group if a in s.attribs)
            cond = (count + smoothing) / (len(group) + 2 * smoothing)
            p *= cond if a in query else (1.0 - cond)
        score[f] = p
    total = sum(score.values())
    return {f: v / total for f, v in score.items()}


def random_corpus(rng: random.Random, max_samples: int = 20, max_attrs: int = 10,
                  max_families: int = 4, max_tasks: int = 5) -> Corpus:
    """Small random labeled corpus for oracle cross-checks."""
    n_fams = rng.randint(1, max_families)
    task_pool = [f"t{i}" for i in range(max_tasks)]
    attr_pool = [f"a{i}" for i in range(max_attrs)]
    families = {}
    for i in range(n_fams):
        k = rng.randint(1, max_tasks)
        families[f"f{i}"] = frozenset(rng.sample(task_pool, k))
    n = rng.randint(n_fams, max_samples)
    samples = []
    fam_list = sorted(families)
    for j in range(n):
        fam = fam_list[j % n_fams] if j < n_fams else rng.choice(fam_list)
        k = rng.randint(1, max_attrs)
        samples.append(Sample(
            id=f"s{j}",
            attribs=frozenset(rng.sample(attr_pool, k)),
            family=fam,
        ))
    return build_corpus(samples, families)


def random_params(rng: random.Random) -> ActrParams:
    """Moderate random retrieval parameters (tau kept rarely-binding-ish)."""
    return ActrParams(
        beta=rng.uniform(-3.0, 3.0),
        s=rng.uniform(0.2, 2.0),
        tau=rng.uniform(-6.0, 2.0),
        mp=rng.uniform(0.0, 5.0),
        w=rng.uniform(1.0, 20.0),
        task_threshold=rng.uniform(0.2, 0.8),
        partial_matching=rng.choice(("overlap", "deficit")),
    )
