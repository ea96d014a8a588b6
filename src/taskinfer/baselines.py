"""From-scratch baseline classifiers over binary attribute sets.

Bernoulli naive Bayes, a random forest of information-gain trees (the
decision tree is a forest of one), and multinomial logistic regression, each
trainable in family mode (one multiclass model) or direct-task mode (binary
relevance: one binary model per distinct task column, the samples performing
a task, so tasks a family always performs together share one model and equal
probabilities).  All of them consume the same boolean design matrix
(`core.attribute_matrix`), take their labels and targets (`LabelSpace.member`)
from `core.label_space`, and keep the scoring contract of the activation
models (`space`, `col`, `scores`), which `methods.predict` turns into a
Prediction.

Conventions shared across the baselines:
  - attribute absence is informative for NB (the Bernoulli event model);
  - query attributes never seen in training contribute the smoothing floor
    to NB and carry zero weight elsewhere;
  - the tree splits on presence/absence with natural-log information gain,
    never reuses an attribute on a path, breaks gain ties toward the
    lexicographically smallest attribute, and never splits a node holding
    fewer than 5% of the training samples;
  - the forest bootstraps |M| samples per tree and draws
    ceil(sqrt(|attributes|)) candidate attributes per node; the decision
    tree (`dt`) is a forest of one tree grown on every sample with every
    attribute a candidate at every node;
  - trees are flat node arrays, and a query walks every tree at once;
  - logistic regression is full-batch gradient ascent on the mean
    log-likelihood with an L2 penalty on the weights (bias unpenalized); in
    direct mode one ascent fits every column's binary model at once.

Naive Bayes and logistic regression are both linear in the query's
attributes, so each trains a `core.LinearModel` (the scorer the rule model
shares): a bias per label, a weight per label and attribute, and for NB the
smoothing floor an unseen attribute adds; family mode softmaxes the scores
and direct mode takes the sigmoid of each task's log odds against its
complement.  NB's is a `core.CountModel`, fitted from the presence counts
like the rule model, so it leaves a sample out by downdating them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (CountModel, Corpus, LabelSpace, LinearModel, attribute_matrix,
                   label_space, softmax)


class TrainingError(RuntimeError):
    """Optimization produced a non-finite objective."""


# ---------------------------------------------------------------- naive Bayes

def _bernoulli(space: LabelSpace, present: np.ndarray, total: np.ndarray,
               smoothing: float) -> tuple:
    """Per-column (bias, weight, floor) of Bernoulli naive Bayes: the log
    joint of each family, or the log odds of each task against its
    complement."""
    cond, cond_neg = space.presence_rates(present, total, smoothing)
    pos = space.sizes.astype(float)
    log_cond = np.log(cond)
    log_not = np.log1p(-cond)
    if space.mode == "family":
        bias = np.log(pos / space.size) + log_not.sum(axis=1)
        weight = log_cond - log_not
        floor = math.log(smoothing) - np.log(pos + 2 * smoothing)
    else:
        neg = space.size - pos
        log_cond_n = np.log(cond_neg)
        log_not_n = np.log1p(-cond_neg)
        with np.errstate(divide="ignore"):      # a task every sample performs
            bias = np.log(pos) - np.log(neg) + (log_not - log_not_n).sum(axis=1)
        weight = (log_cond - log_not) - (log_cond_n - log_not_n)
        floor = np.log(neg + 2 * smoothing) - np.log(pos + 2 * smoothing)
    return bias, weight, floor


def nb_train(corpus: Corpus, smoothing: float = 1.0, mode: str = "family") -> CountModel:
    """Bernoulli naive Bayes as a linear model fitted from presence counts."""
    return CountModel.train(corpus, mode, smoothing, _bernoulli, mean=False, w=1.0, s=1.0)


# ------------------------------------------------------------ trees and forests

def _row_entropy(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
        logs = np.where(p > 0, np.log(p), 0.0)
    return -(p * logs).sum(axis=1)


_GAIN_TOL = 1e-12
_MIN_LEAF_FRAC = 0.05


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
    h = _row_entropy(np.vstack([counts, present_counts, counts - present_counts]))
    h_p, h_a = h[1:cand.size + 1], h[cand.size + 1:]
    gains = h[0] - (n_p * h_p + n_a * h_a) / idx.size
    best = int(np.argmax(gains))                           # first max: smallest column
    if gains[best] <= _GAIN_TOL:
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


@dataclass(frozen=True)
class RfModel:
    """Information-gain trees as flat node arrays: one forest of n_trees
    trees over all labels (family mode), or one binary forest per distinct
    task column, in column order (direct mode)."""

    space: LabelSpace
    vocab: tuple
    n_trees: int
    col: Mapping[str, int]
    _roots: np.ndarray              # the root of every tree, forest by forest
    _split: np.ndarray              # per node: the attribute column it tests
    _present: np.ndarray            # per node: child when the attribute is present
    _absent: np.ndarray             # per node: child when it is absent
    _dist: np.ndarray               # per node: class distribution (nodes, K)
    _depth: int                     # splits on the longest root-to-leaf path

    def depth(self) -> int:
        return self._depth

    def scores(self, cols: np.ndarray, n_unseen: int) -> tuple:
        """(label probabilities, None: every label competes) of a query: the
        mean leaf distribution of the forest over all labels (family mode),
        or of each column's forest at its positive class, read by every
        label of that column (direct mode).  Every tree is walked at once;
        after `_depth` steps each walk rests on a leaf."""
        q = np.zeros(len(self.vocab), dtype=bool)
        q[cols] = True
        node = self._roots
        for _ in range(self._depth):
            node = np.where(q[self._split[node]], self._present[node], self._absent[node])
        if self.space.mode == "family":
            return self._dist[node].mean(axis=0), None
        probs = self._dist[node, 1].reshape(-1, self.n_trees).mean(axis=1)
        return probs[self.space.column_of], None


def _grow_forests(corpus: Corpus, mode: str, n_trees: int, seed: int,
                  bootstrap: bool, max_features: int) -> RfModel:
    space = label_space(corpus, mode)
    vocab, col, x = attribute_matrix(corpus)
    m = corpus.size
    if space.mode == "family":          # one forest over every label
        targets, n_classes = space.member.argmax(axis=1)[None], len(space.labels)
    else:                               # one binary forest per column
        targets, n_classes = space.member.T.astype(int), 2
    master = np.random.default_rng(seed)
    nodes, roots = [], []
    for y in targets:
        for _ in range(n_trees):
            rng = np.random.default_rng(int(master.integers(2**63 - 1)))
            idx = rng.integers(0, m, size=m) if bootstrap else np.arange(m)
            roots.append(_grow_tree(nodes, x, y, n_classes, idx,
                                    np.ones(len(vocab), dtype=bool),
                                    _MIN_LEAF_FRAC * m, rng, max_features))
    split, present, absent, dist, depth = zip(*nodes)
    return RfModel(space=space, vocab=tuple(vocab), n_trees=n_trees, col=col,
                   _roots=np.array(roots), _split=np.array(split),
                   _present=np.array(present), _absent=np.array(absent),
                   _dist=np.array(dist), _depth=max(depth))


def _check_count(name: str, value) -> None:
    """A count hyperparameter is an int (a bool is not one) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def dt_train(corpus: Corpus, mode: str = "family") -> RfModel:
    """The plain decision tree: a forest of one tree grown on every sample,
    with every attribute a candidate at every node."""
    return _grow_forests(corpus, mode, n_trees=1, seed=0, bootstrap=False,
                         max_features=len(corpus.index.vocab))


def rf_train(corpus: Corpus, n_trees: int = 100, seed: int = 0,
             mode: str = "family", bootstrap: bool = True,
             max_features: int | None = None) -> RfModel:
    """Bagged information-gain trees with per-node attribute subsampling.

    max_features=None draws ceil(sqrt(|vocab|)) candidates per node.  The
    `seed` stream gives each tree its own seed, forest by forest (direct
    mode: one forest per distinct task column, in first-label order); it is
    a non-negative int.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    _check_count("n_trees", n_trees)
    if type(bootstrap) is not bool:
        raise ValueError(f"bootstrap must be True or False, got {bootstrap!r}")
    if max_features is None:
        max_features = math.ceil(math.sqrt(len(corpus.index.vocab)))
    else:
        _check_count("max_features", max_features)
    return _grow_forests(corpus, mode, n_trees, seed, bootstrap, max_features)


# ------------------------------------------------------- logistic regression

@dataclass(frozen=True, eq=False)
class LogRegModel(LinearModel):
    """Logistic regression: a linear model (direct mode: per-task log odds)
    and the gradient norm its training ended at, the norm of the whole
    stacked gradient (direct mode: over every column's two-class fit)."""

    grad_norm: float


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


def logreg_train(corpus: Corpus, learning_rate: float = 0.1, l2: float = 1e-3,
                 epochs: int = 500, mode: str = "family") -> LogRegModel:
    """Full-batch ascent from zero weights; deterministic, so it takes no seed.

    Family mode fits one softmax over the labels; direct mode fits every
    column's two-class softmax (absent, present) in the same ascent, and a
    task's weights are the present class's minus the absent class's.
    """
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
    if not (math.isfinite(l2) and l2 >= 0):
        raise ValueError(f"l2 must be non-negative and finite, got {l2}")
    _check_count("epochs", epochs)
    space = label_space(corpus, mode)
    _, col, x = attribute_matrix(corpus)
    y = space.member
    if space.mode == "direct":
        y = np.stack([1.0 - y, y], axis=2)
    xf = x.astype(float)
    k = y[0].size                   # classes: one per label, or two per column
    w, b = np.zeros((k, xf.shape[1])), np.zeros(k)
    for epoch in range(epochs):
        obj, gw, gb = logreg_objective(w, b, xf, y, l2)
        if not math.isfinite(obj):
            raise TrainingError(f"non-finite objective at epoch {epoch}")
        w += learning_rate * gw
        b += learning_rate * gb
    grad_norm = math.sqrt(float((gw * gw).sum()) + float((gb * gb).sum()))
    if space.mode == "direct":
        w = (w[1::2] - w[0::2])[space.column_of]
        b = (b[1::2] - b[0::2])[space.column_of]
    return LogRegModel(space=space, col=col, bias=b, weight=w, floor=0.0, mean=False,
                       w=1.0, s=1.0, grad_norm=grad_norm)
