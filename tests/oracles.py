"""Independently coded reference implementations used only by tests.

Everything here recomputes model outputs from first principles with plain
Python loops over sets and dicts (mpmath for the exponentials, so overflow
is impossible at any parameter scale).  No code is shared with the package
internals beyond the public data types; the tree oracles take a trained
model's node arrays and redo only the walk and the averaging.  Three
exceptions: `retrieval_probs`, the list-in, list-out face of the retrieval
softmax that the distribution property tests drive;
`reference_held_out_predictions` and its one-row loop
`reference_loocv_predictions`, which retrain through the public
`train_method` on the samples not held out; `reference_split_trials`, which
does the same for each split trial and scores it through the evaluation's
own fold loop, `_scored`; `reference_grow_forests`, which
reads its targets and design matrix from `core.label_space` and
`core.attribute_matrix`, as the forest trainer does; and `reference_logreg`,
which reads them the same way and steps along `logreg_objective`'s
gradients, as `logreg_train` did before it ran in the Gram form (the
objective and its gradients in the primal form, which `baselines` kept
until no code of it read them).  The t-test's
`reference_t_p_value` is not first principles either: it is the two-sided
p-value from `scipy.stats`' Student-t survival function, which
`evaluation.paired_ttest` read before it called `scipy.special.stdtr`.  Nor
are the attribute index's scipy oracles (`scipy_matrix`,
`scipy_by_attribute`, `scipy_presence_counts`): the index held a scipy CSR
matrix before it kept plain arrays, and these redo with scipy what the
models then read from it.  `reference_normalize_path` is the path
normalization of `ingest` as it was before its scrub regexes were gated: every
enabled regex runs on every path.  `dict_prediction` is
`LabelSpace.prediction` as it was before its probabilities became a read-only
view and its task sets were shared: a fresh dict of floats and a fresh
frozenset for every prediction.  The per-query steps of the package before
they worked in place (`reference_query_cols`, `reference_softmax`,
`reference_activations`, `reference_softmax_retained`,
`reference_linear_scores`, and `reference_predict`, which chains them into
`dict_prediction`) read a trained model's arrays and redo its arithmetic one
fresh array per step, so the package's path must equal them bit for bit.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from itertools import compress

import mpmath
import numpy as np

from taskinfer.actr import IbModel, _softmax_retained
from taskinfer.baselines import LogRegModel, TrainingError
from taskinfer.core import (ActrParams, Corpus, LinearModel, Prediction, Sample,
                            attribute_matrix, build_corpus, label_space, softmax)
from taskinfer.evaluation import _scored, combine, stratified_split
from taskinfer.methods import train_method


def softmax_probs(values, temperature):
    """Arbitrary-precision Boltzmann distribution; no shift trick."""
    weights = [mpmath.e ** (mpmath.mpf(v) / mpmath.mpf(temperature)) for v in values]
    total = sum(weights)
    return [float(w / total) for w in weights]


def retrieval_probs(activations, params: ActrParams, apply_threshold: bool = True) -> tuple:
    """Retrieval probabilities for a list of activations: (probs, degenerate),
    with probs aligned to the input (zero for chunks excluded by tau).
    Without the threshold every chunk competes, and nothing is degenerate."""
    acts = np.asarray(list(activations), dtype=float)
    if not apply_threshold:
        return list(softmax(acts, params.s)), False
    probs, retained = _softmax_retained(acts, params)
    return list(probs), retained == 0


@dataclass(frozen=True)
class Activation:
    """Per-chunk activation, decomposed into its three terms."""

    base: float
    spreading: float
    partial_match: float

    @property
    def total(self) -> float:
        return self.base + self.spreading + self.partial_match


def ib_activation(corpus: Corpus, params: ActrParams, query, j: int) -> Activation:
    """Scalar activation of memory chunk j (corpus.samples[j]) for a query
    attribute set: one log term per query attribute, read from corpus.fan."""
    query = frozenset(query)
    if not query:
        raise ValueError("query attribute set is empty")
    if not 0 <= j < corpus.size:
        raise IndexError(f"chunk index {j} out of range for corpus of {corpus.size}")
    chunk = corpus.samples[j].attribs
    m = corpus.size
    spread = 0.0
    for a in query:
        if a in chunk:
            spread += math.log(m / corpus.fan[a])
        else:
            spread += math.log(1.0 / m)
    overlap = len(query & chunk) / math.sqrt(len(query) * len(chunk))
    if params.partial_matching == "deficit":
        partial = params.mp * (overlap - 1.0)
    else:
        partial = params.mp * overlap
    return Activation(base=params.beta, spreading=spread / len(query),
                      partial_match=partial)


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


def reference_nb_task_probs(corpus: Corpus, smoothing: float, query):
    """Brute-force Bernoulli Bayes of each task against its complement over
    the attribute union, direct products (a task every sample performs gets
    probability 1)."""
    query = set(query)
    vocab = set()
    for s in corpus.samples:
        vocab |= s.attribs
    universe = sorted(vocab | query)
    m = len(corpus.samples)
    out = {}
    for t in sorted(corpus.tasks):
        inside = [s for s in corpus.samples if t in s.tasks]
        outside = [s for s in corpus.samples if t not in s.tasks]
        if not outside:
            out[t] = 1.0
            continue
        joint = []
        for group in (inside, outside):
            p = len(group) / m
            for a in universe:
                count = sum(1 for s in group if a in s.attribs)
                cond = (count + smoothing) / (len(group) + 2 * smoothing)
                p *= cond if a in query else (1.0 - cond)
            joint.append(p)
        out[t] = joint[0] / (joint[0] + joint[1])
    return out


def reference_prediction(corpus: Corpus, mode: str, class_probs: dict,
                         task_threshold: float, retained_chunks: int,
                         degenerate: bool = False) -> Prediction:
    """Transcribed task derivation from a label -> probability map.

    Family mode picks the lexicographically first most probable family and
    adds each family's probability to every task it performs; in direct mode
    each label is its own task.  A task is predicted when its summed mass
    reaches the threshold.
    """
    family = None
    if mode == "family":
        best = -math.inf
        for label in sorted(class_probs):
            if class_probs[label] > best:
                best, family = class_probs[label], label
        label_tasks = corpus.families
    else:
        label_tasks = {t: {t} for t in class_probs}
    mass = {}
    for label, p in class_probs.items():
        for t in label_tasks[label]:
            mass[t] = mass.get(t, 0.0) + p
    return Prediction(
        class_probs=dict(class_probs),
        predicted_tasks=frozenset(t for t, m in mass.items() if m >= task_threshold),
        predicted_family=family,
        retained_chunks=retained_chunks,
        degenerate=degenerate,
    )


def dict_prediction(space, probs, task_threshold: float,
                    retained_chunks: int | None = None) -> Prediction:
    """The Prediction of a label space from one finite probability per column,
    with class_probs a dict and predicted_tasks a frozenset of its own."""
    probs = np.asarray(probs, dtype=float)[space.column_of]
    family, mass = None, probs
    if space.mode == "family":
        family = space.labels[int(np.argmax(probs))]
        mass = (probs[:, None] * space.incidence).sum(axis=0)
    return Prediction(
        class_probs=dict(zip(space.labels, probs.tolist())),
        predicted_tasks=frozenset(compress(space.tasks, mass >= task_threshold)),
        predicted_family=family,
        retained_chunks=len(space.labels) if retained_chunks is None else retained_chunks,
        degenerate=retained_chunks == 0,
    )


def reference_query_cols(col, query) -> tuple:
    """`core.query_cols` as it was before it read each attribute once: a
    membership test and a lookup per attribute, and a Python sort."""
    query = frozenset(query)
    if not query:
        raise ValueError("query attribute set is empty")
    cols = sorted(col[a] for a in query if a in col)
    return np.array(cols, dtype=int), len(query) - len(cols)


def reference_softmax(z: np.ndarray, s: float = 1.0, axis: int = -1) -> np.ndarray:
    """`core.softmax` as it was before it worked in place."""
    w = np.exp((z - z.max(axis=axis, keepdims=True)) / s)
    return w / w.sum(axis=axis, keepdims=True)


def reference_activations(model, cols: np.ndarray, n_unseen: int) -> np.ndarray:
    """`IbModel.activations` as it was before it worked in place: a fresh
    array for every step, read from the model's links, fans and log terms."""
    nq = cols.size + n_unseen
    start = model._start[cols]
    width = model._start[cols + 1] - start
    links = np.repeat(start - np.cumsum(width) + width, width) + np.arange(width.sum())
    chunks = model._chunks[links]
    n = model._sizes.size
    shared = np.bincount(chunks, minlength=n)
    hits = np.bincount(chunks, weights=np.repeat(model._log_hit[cols], width), minlength=n)
    spread = (hits + (nq - shared) * model._log_miss) / nq
    overlap = shared / np.sqrt(nq * model._sizes)
    params = model.params
    if params.partial_matching == "deficit":
        partial = params.mp * (overlap - 1.0)
    else:
        partial = params.mp * overlap
    acts = params.beta + spread + partial
    return acts if model._rows is None else acts[model._rows]


def reference_softmax_retained(acts: np.ndarray, params: ActrParams) -> tuple:
    """`actr._softmax_retained` as it was before it skipped the mask when
    tau binds no chunk: (probs, retained count), zero outside the retained
    chunks, over every chunk when none is retained."""
    if acts.size == 0:
        raise ValueError("no activations to retrieve over")
    mask = acts >= params.tau
    retained = int(mask.sum())
    if not retained:
        mask[:] = True
    probs = np.zeros(acts.shape)
    probs[mask] = reference_softmax(acts[mask], params.s)
    return probs, retained


def reference_linear_scores(model, cols: np.ndarray, n_unseen: int) -> tuple:
    """`LinearModel.scores` as it was before it worked in place."""
    total = model.weight[:, cols].sum(axis=1)
    if model.mean:
        total = total / (cols.size + n_unseen)
    z = model.bias + model.w * total + n_unseen * model.floor
    if model.space.mode == "family":
        return reference_softmax(z, model.s), None
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z / model.s)), None


def reference_predict(model, query, task_threshold: float) -> Prediction:
    """`methods.predict` through the reference steps above: the query's
    columns, the instance model's retrieval mass per column or a linear
    model's scores (any other model's own), and `dict_prediction`."""
    cols, n_unseen = reference_query_cols(model.col, query)
    if isinstance(model, IbModel):
        acts = reference_activations(model, cols, n_unseen)
        probs, retained = reference_softmax_retained(acts, model.params)
        probs = probs @ model.space.member
    elif isinstance(model, LinearModel):
        probs, retained = reference_linear_scores(model, cols, n_unseen)
    else:
        probs, retained = model.scores(cols, n_unseen)
    return dict_prediction(model.space, probs, task_threshold, retained)


def reference_forest_probs(model, query) -> np.ndarray:
    """Label probabilities of a tree model (`dt_train`, `rf_train`), walking
    its node arrays one tree at a time with plain ints and testing attributes
    by name.  The means are np.mean over per-tree lists, as the per-tree
    predictor took them: over the forest (family mode), or over each column's
    forest at its positive class (direct mode)."""
    query = set(query)
    name = {j: a for a, j in model.col.items()}
    leaves = []
    for root in model._roots:
        node = int(root)
        while int(model._present[node]) != node:       # a leaf is its own child
            attr = name[int(model._split[node])]
            node = int(model._present[node] if attr in query else model._absent[node])
        leaves.append(node)
    t = model.n_trees
    forests = [leaves[i:i + t] for i in range(0, len(leaves), t)]
    if model.space.mode == "family":
        return np.mean([model._dist[leaf] for leaf in forests[0]], axis=0)
    per_column = [np.mean([model._dist[leaf][1] for leaf in forest]) for forest in forests]
    return np.array(per_column)[model.space.column_of]


def reference_forest_depth(model) -> int:
    """Splits on the longest root-to-leaf path of any tree, visiting every node."""
    deepest = 0
    stack = [(int(root), 0) for root in model._roots]
    while stack:
        node, depth = stack.pop()
        present, absent = int(model._present[node]), int(model._absent[node])
        if present == node:
            deepest = max(deepest, depth)
        else:
            stack += [(present, depth + 1), (absent, depth + 1)]
    return deepest


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
        logs = np.where(p > 0, np.log(p), 0.0)
    return -(p * logs).sum(axis=1)


def _grow_tree(nodes: list, x: np.ndarray, y: np.ndarray, n_classes: int,
               idx: np.ndarray, avail: np.ndarray, min_count: float,
               rng: np.random.Generator, max_features: int, depth: int = 0) -> int:
    """Append the tree grown on rows idx to `nodes` and return its root.

    A node is (split column, present child, absent child, class distribution,
    depth), and a leaf is its own present and absent child.
    """
    counts = np.bincount(y[idx], minlength=n_classes).astype(float)
    at = len(nodes)
    nodes.append((0, at, at, counts / idx.size, depth))
    if idx.size < min_count or (counts > 0).sum() <= 1 or not avail.any():
        return at
    cand = np.flatnonzero(avail)
    if cand.size > max_features:
        cand = np.sort(rng.choice(cand, size=max_features, replace=False))
    onehot = (y[idx][:, None] == np.arange(n_classes)).astype(float)
    xc = x[np.ix_(idx, cand)]
    present_counts = xc.T.astype(float) @ onehot           # (c, K)
    n_p = present_counts.sum(axis=1)
    n_a = idx.size - n_p
    h = _entropy_rows(np.vstack([counts, present_counts, counts - present_counts]))
    h_p, h_a = h[1:cand.size + 1], h[cand.size + 1:]
    gains = h[0] - (n_p * h_p + n_a * h_a) / idx.size
    best = int(np.argmax(gains))                           # first max: smallest column
    if gains[best] <= 1e-12:
        return at
    split_col = int(cand[best])
    mask = x[idx, split_col]
    child_avail = avail.copy()
    child_avail[split_col] = False
    present = _grow_tree(nodes, x, y, n_classes, idx[mask], child_avail,
                         min_count, rng, max_features, depth + 1)
    absent = _grow_tree(nodes, x, y, n_classes, idx[~mask], child_avail,
                        min_count, rng, max_features, depth + 1)
    nodes[at] = (split_col, present, absent, nodes[at][3], depth)
    return at


def reference_grow_forests(corpus: Corpus, mode: str, n_trees: int, seed: int,
                           bootstrap: bool, max_features: int) -> tuple:
    """The node arrays (roots, split, present, absent, dist) and the depth of
    the forests `rf_train` grows, one tree at a time by recursion: each tree's
    seed drawn from the `seed` stream, forest by forest, then its bootstrap
    and its per-node candidate draws from its own stream in preorder, and
    the nodes numbered tree by tree in preorder.  `dt_train` is n_trees=1,
    seed=0, no bootstrap and every attribute a candidate."""
    space = label_space(corpus, mode)
    vocab, _, index = attribute_matrix(corpus)
    x = index.dense(bool)
    m = corpus.size
    if mode == "family":
        targets, n_classes = space.member.argmax(axis=1)[None], len(space.labels)
    else:
        targets, n_classes = space.member.T.astype(int), 2
    master = np.random.default_rng(seed)
    nodes, roots = [], []
    for y in targets:
        for _ in range(n_trees):
            rng = np.random.default_rng(int(master.integers(2**63 - 1)))
            idx = rng.integers(0, m, size=m) if bootstrap else np.arange(m)
            roots.append(_grow_tree(nodes, x, y, n_classes, idx,
                                    np.ones(len(vocab), dtype=bool),
                                    0.05 * m, rng, max_features))
    split, present, absent, dist, depth = zip(*nodes)
    return (np.array(roots), np.array(split), np.array(present), np.array(absent),
            np.array(dist), max(depth))


def reference_presence_counts(corpus: Corpus, space) -> tuple:
    """`LabelSpace.presence_counts` by a dense per-column gather: the
    (samples x vocab) boolean matrix filled in sample by sample, then each
    column's rows summed.  Returns (present as floats, total)."""
    col = {a: j for j, a in enumerate(sorted(set().union(*(s.attribs for s in corpus))))}
    x = np.zeros((corpus.size, len(col)), dtype=bool)
    for i, s in enumerate(corpus.samples):
        for a in s.attribs:
            x[i, col[a]] = True
    present = np.stack([x[c].sum(axis=0) for c in space.columns]).astype(float)
    return present, x.sum(axis=0)


def reference_index(corpus: Corpus) -> tuple:
    """A corpus's attribute index, sample by sample: (sorted vocabulary, each
    row's attribute set, per-attribute sample counts, family -> rows)."""
    fan: dict = {}
    members: dict = {}
    for i, s in enumerate(corpus.samples):
        for a in s.attribs:
            fan[a] = fan.get(a, 0) + 1
        members.setdefault(s.family, []).append(i)
    return sorted(fan), [set(s.attribs) for s in corpus.samples], fan, members


def reference_task_groups(corpus: Corpus) -> dict:
    """Each task's sample indices, by testing every sample for every task."""
    return {t: [i for i, s in enumerate(corpus.samples) if t in s.tasks]
            for t in sorted(corpus.tasks)}


def reference_logreg_direct(corpus: Corpus, learning_rate: float, l2: float,
                            epochs: int) -> tuple:
    """Direct-mode logistic regression one task at a time: a separate
    full-batch ascent per task on the two-class softmax (absent, present),
    from zero weights, with the L2 penalty on the weights only.

    Returns (weight, bias): per task in sorted order, the present class's
    weights over the sorted vocabulary minus the absent class's, and the
    same difference of the biases.
    """
    vocab, rows, _, _ = reference_index(corpus)
    n, d = corpus.size, len(vocab)
    x = np.array([[a in r for a in vocab] for r in rows], dtype=float)
    weights, biases = [], []
    for members in reference_task_groups(corpus).values():
        y = np.zeros((n, 2))
        y[:, 0] = 1.0
        y[members] = [0.0, 1.0]
        w, b = np.zeros((2, d)), np.zeros(2)
        for _ in range(epochs):
            z = x @ w.T + b
            e = np.exp(z - z.max(axis=1, keepdims=True))
            resid = y - e / e.sum(axis=1, keepdims=True)
            w += learning_rate * (resid.T @ x / n - l2 * w)
            b += learning_rate * resid.mean(axis=0)
        weights.append(w[1] - w[0])
        biases.append(b[1] - b[0])
    return np.array(weights), np.array(biases)


def logreg_objective(w: np.ndarray, b: np.ndarray, x: np.ndarray,
                     y: np.ndarray, l2: float) -> tuple:
    """Mean log-likelihood minus L2 penalty, with analytic gradients.

    y is one-hot, (n, K) for one K-class softmax or (n, G, K) for G
    independent ones; w and b stack their classes group by group, (G*K, d)
    and (G*K,).  Returns (objective, grad_w, grad_b) for gradient *ascent*;
    the bias is not penalized.
    """
    n = x.shape[0]
    p = softmax((x @ w.T + b).reshape(y.shape))
    eps = np.finfo(float).tiny
    ll = float(np.sum(y * np.log(p + eps)) / n)
    obj = ll - 0.5 * l2 * float((w * w).sum())
    resid = (y - p).reshape(n, -1)
    grad_w = resid.T @ x / n - l2 * w
    grad_b = resid.mean(axis=0)
    return obj, grad_w, grad_b


def reference_logreg(corpus: Corpus, learning_rate: float, l2: float, epochs: int,
                     mode: str) -> LogRegModel:
    """`logreg_train` in the primal form: full-batch ascent of
    `logreg_objective` on the weights themselves, rows in corpus order,
    raising TrainingError at the first epoch whose objective is not finite,
    the final weights' counted as epoch `epochs`.  Direct mode fits every
    column's two-class softmax in one ascent."""
    space = label_space(corpus, mode)
    _, col, index = attribute_matrix(corpus)
    y = space.member
    if mode == "direct":
        y = np.stack([1.0 - y, y], axis=2)
    xf = index.dense(float)
    k = y[0].size
    w, b = np.zeros((k, xf.shape[1])), np.zeros(k)
    for epoch in range(epochs + 1):
        obj, *grad = logreg_objective(w, b, xf, y, l2)
        if not math.isfinite(obj):
            raise TrainingError(f"non-finite objective at epoch {epoch}")
        if epoch == epochs:
            break
        gw, gb = grad
        w += learning_rate * gw
        b += learning_rate * gb
    grad_norm = math.sqrt(float((gw * gw).sum()) + float((gb * gb).sum()))
    if mode == "direct":
        w, b = w[1::2] - w[0::2], b[1::2] - b[0::2]
    return LogRegModel(space=space, col=col, bias=b, weight=w, floor=0.0, mean=False,
                       w=1.0, s=1.0, grad_norm=grad_norm)


def reference_held_out_predictions(corpus: Corpus, method: str, mode: str, rows,
                                   params: ActrParams | None = None) -> list:
    """The Prediction of each of `rows`, in their order, by `method` retrained
    on every other sample, the fold keeping as labels only the families
    present in it: the fold the evaluation trained before the count models
    downdated."""
    held = set(rows)
    rest = [s for j, s in enumerate(corpus.samples) if j not in held]
    present = {s.family for s in rest}
    fold = Corpus(rest, {f: t for f, t in corpus.families.items() if f in present})
    predictor = train_method(method, fold, mode=mode, params=params)
    return [predictor(corpus.samples[i].attribs) for i in rows]


def reference_loocv_predictions(corpus: Corpus, method: str, mode: str,
                                params: ActrParams | None = None) -> list:
    """Each sample's Prediction by `method` retrained on every other sample:
    the leave-one-out loop of `reference_held_out_predictions`."""
    return [reference_held_out_predictions(corpus, method, mode, [i], params)[0]
            for i in range(corpus.size)]


def reference_split_trials(corpus: Corpus, method: str, mode: str = "family",
                           params: ActrParams | None = None, train_frac: float = 0.6,
                           n_trials: int = 10, seed: int = 0):
    """`evaluation.split_trials` as it was before its predictors came from
    `methods.leave_out`: each trial retrains `method`, through the public
    `train_method` with the trial's seed, on `Corpus.without` its test rows."""
    master = random.Random(seed)
    reports = []
    for t in range(n_trials):
        tseed = master.getrandbits(63)
        test_ix = stratified_split(corpus, train_frac, random.Random(tseed))
        trained = lambda _: train_method(method, corpus.without(test_ix), mode, params, tseed)
        reports.append(_scored(corpus, [test_ix], trained, method, mode, seed, "split",
                               f"trial{t}"))
    return combine(reports)


def held_out_row_sets(corpus: Corpus, rng: random.Random) -> list:
    """Row sets to hold out of `corpus`, each leaving some row: a random subset
    in random order, each family's samples, the samples performing each task
    (which empties that task), and every row but one."""
    n = corpus.size
    if n < 2:
        return []
    keep = rng.randrange(n)
    sets = [rng.sample(range(n), rng.randint(1, n - 1)), [i for i in range(n) if i != keep]]
    sets += [list(corpus.members(f)) for f in sorted(corpus.families)]
    sets += [[i for i, s in enumerate(corpus.samples) if t in s.tasks]
             for t in sorted(corpus.tasks)]
    return [rows for rows in sets if 0 < len(rows) < n]


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


def scipy_matrix(corpus: Corpus):
    """The corpus index's links as a scipy CSR matrix (samples x vocab, bool)."""
    from scipy import sparse
    ix = corpus.index
    return sparse.csr_matrix((np.ones(ix.columns.size, dtype=bool), ix.columns, ix.offsets),
                             shape=(ix.size, len(ix.vocab)))


def scipy_by_attribute(corpus: Corpus) -> tuple:
    """(indptr, indices) of scipy's CSR -> CSC conversion of the index's links."""
    x = scipy_matrix(corpus).tocsc()
    return x.indptr, x.indices


def scipy_presence_counts(corpus: Corpus, space) -> tuple:
    """`LabelSpace.presence_counts` as the sparse product member.T @ x and a
    bincount of the link columns."""
    x = scipy_matrix(corpus)
    return (np.ascontiguousarray(space.member.T @ x),
            np.bincount(x.indices, minlength=x.shape[1]))


def reference_t_p_value(t: float, dof: int) -> float:
    """Two-sided p-value of Student's t statistic `t` at `dof` degrees of freedom."""
    from scipy import stats
    return 2.0 * float(stats.t.sf(abs(t), dof))


_USER_DIR_RES = (
    re.compile(r"(?<=\\users\\)(?!<user>(?:\\|$))[^\\]+", re.IGNORECASE),
    re.compile(r"(?<=\\documents and settings\\)(?!<user>(?:\\|$))[^\\]+",
               re.IGNORECASE),
)
_GUID_RE = re.compile(
    r"\{[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}\}", re.IGNORECASE)
_TMP_RE = re.compile(r"tmp[0-9a-f]{2,}\.tmp", re.IGNORECASE)


def reference_normalize_path(raw: str, config) -> str:
    """`ingest.normalize_path` by the full regex chain: separators unified,
    case folded, then each enabled scrub regex run on the path, whatever it
    holds."""
    s = raw.replace("/", "\\").strip()
    if config.fold_case:
        s = s.lower()
    if config.scrub_user_dirs:
        for pattern in _USER_DIR_RES:
            s = pattern.sub("<user>", s)
    if config.scrub_guids:
        s = _GUID_RE.sub("<guid>", s)
    if config.scrub_temp_names:
        s = _TMP_RE.sub("tmp<r>.tmp", s)
    return s
