"""From-scratch baseline classifiers over binary attribute sets.

Bernoulli naive Bayes, a random forest of information-gain trees (the
decision tree is a forest of one), and multinomial logistic regression, each
trainable in family mode (one multiclass model) or direct-task mode (binary
relevance: one binary model per distinct task column, the samples performing
a task, so tasks a family always performs together share one model and equal
probabilities).  All of them read the corpus's one attribute index
(`core.attribute_matrix`), which the trees and logistic regression
densify, take their labels and targets (`LabelSpace.member`) from
`core.label_space`, and keep the scoring contract of the activation models
(`space`, `col`, `scores` per label column), which `methods.predict` turns
into a Prediction.

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
  - a forest's trees are grown in lockstep, one forest at a time: each
    step tests, counts and scores the next node (in preorder) of every tree
    still growing as one batch, while each tree keeps its own seed, draws its
    bootstrap and per-node candidates from it in preorder, and so is the
    tree that growing it alone would give;
  - trees are flat node arrays, numbered tree by tree in preorder, and a
    query walks every tree at once;
  - logistic regression is full-batch gradient ascent on the mean
    log-likelihood with an L2 penalty on the weights (bias unpenalized); in
    direct mode one ascent fits every column's binary model at once.

Naive Bayes and logistic regression are both linear in the query's
attributes, so each trains a `core.LinearModel` (the scorer the rule model
shares): a bias per label column, a weight per label column and attribute,
and for NB the smoothing floor an unseen attribute adds; family mode
softmaxes the scores and direct mode takes the sigmoid of each column's log
odds against its complement.  NB's is a `core.CountModel`, fitted from the
presence counts like the rule model, so it leaves a sample out by
downdating them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (CountModel, Corpus, LabelSpace, LinearModel, attribute_matrix,
                   check_finite, label_space, softmax)


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

def _row_entropy(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Natural-log entropy of every class-count row (the last axis), given
    each row's total (that axis kept, of length 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
        logs = np.where(p > 0, np.log(p), 0.0)
    return -(p * logs).sum(axis=-1)


_GAIN_TOL = 1e-12
_MIN_LEAF_FRAC = 0.05
_BATCH_CELLS = 2**18            # gathered cells (rows or samples x candidates) per batch


def _best_splits(x: np.ndarray, rows: np.ndarray, sizes: np.ndarray, counts: np.ndarray,
                 cands: list) -> tuple:
    """(column, gain) of the best split of each node, given its rows (grouped
    node by node and, within a node, by class), its class counts and its
    ascending candidate columns; the first maximal gain wins, so ties go to
    the smallest column.  The gains are one batch, padded to the widest
    candidate set; a batch that would gather more than _BATCH_CELLS cells is
    scored in halves, so a step's memory does not grow with the corpus."""
    n, k = counts.shape
    width = np.array([c.size for c in cands])
    if n > 1 and (rows.size + x.shape[0] * n) * width.max() > _BATCH_CELLS:
        half = n // 2
        cut = int(sizes[:half].sum())
        first = _best_splits(x, rows[:cut], sizes[:half], counts[:half], cands[:half])
        rest = _best_splits(x, rows[cut:], sizes[half:], counts[half:], cands[half:])
        return tuple(np.concatenate(pair) for pair in zip(first, rest))
    valid = np.arange(width.max()) < width[:, None]
    cand = np.zeros(valid.shape, dtype=int)
    cand[valid] = np.concatenate(cands)
    node = np.repeat(np.arange(n), sizes)
    gathered = x[:, cand][rows, node]                       # (rows, candidates)
    seg = counts.ravel()                                    # rows per (node, class)
    filled = seg > 0
    present = np.zeros((n * k, cand.shape[1]), dtype=np.int64)
    present[filled] = np.add.reduceat(gathered, (np.cumsum(seg) - seg)[filled],
                                      axis=0, dtype=np.int64)
    present = present.reshape(n, k, -1)
    n_p = present.sum(axis=1).astype(float)                 # (nodes, candidates)
    n_a = sizes[:, None] - n_p
    present = present.transpose(0, 2, 1).astype(float, order="C")
    total = counts.astype(float)
    h_p = _row_entropy(present, n_p[..., None])
    h_a = _row_entropy(total[:, None, :] - present, n_a[..., None])
    h = _row_entropy(total, sizes[:, None])
    gains = h[:, None] - (n_p * h_p + n_a * h_a) / sizes[:, None]
    gains[~valid] = -np.inf
    best = gains.argmax(axis=1)
    at = np.arange(n)
    return cand[at, best], gains[at, best]


def _grow_forest(x: np.ndarray, y: np.ndarray, n_classes: int, roots: list,
                 rngs: list, min_count: float, max_features: int) -> tuple:
    """Grow one forest's trees in lockstep from their root rows, each
    grouped by class (a subset keeps that order, as `_best_splits` needs).

    Each tree keeps its own depth-first stack (present child first); every
    step takes the next node of every tree still growing and tests, counts
    and scores them as one batch.  What runs node by node is a tree's
    candidate draw (`rng.choice` and sort, at a node that passes the leaf
    tests and has more available attributes than max_features), in the
    tree's preorder, and the split of a node's rows between its children.
    A node is a leaf when it holds fewer than min_count rows or a single
    class, has no attribute left on its path, or its best gain is at most
    _GAIN_TOL; a leaf is its own present and absent child.

    Returns (roots, split, present, absent, dist, depth) with the nodes
    numbered tree by tree in preorder, so a split's present child follows it.
    """
    n_attrs = x.shape[1]
    # A pending node: (rows, the columns split on along its path, the node it
    # is the absent child of, or -1).
    stacks = [[(rows, (), -1)] for rows in roots]
    made = np.zeros(len(roots), dtype=int)      # nodes each tree has made so far
    steps = []
    while trees := [t for t, stack in enumerate(stacks) if stack]:
        rows_of, paths, parent = zip(*(stacks[t].pop() for t in trees))
        sizes = np.array([r.size for r in rows_of])
        depth = np.array([len(p) for p in paths])
        rows = np.concatenate(rows_of)
        node = np.repeat(np.arange(len(trees)), sizes)
        counts = np.bincount(node * n_classes + y[rows],
                             minlength=len(trees) * n_classes).reshape(-1, n_classes)
        gid = made.sum() + np.arange(len(trees))     # creation order
        is_inner = ((sizes >= min_count) & ((counts > 0).sum(axis=1) > 1)
                    & (depth < n_attrs))
        inner = np.flatnonzero(is_inner)
        split = np.full(len(trees), -1)
        if inner.size:
            cands = []
            for b in inner:
                cand = np.delete(np.arange(n_attrs), paths[b])
                if cand.size > max_features:
                    cand = np.sort(rngs[trees[b]].choice(cand, size=max_features,
                                                          replace=False))
                cands.append(cand)
            col, gain = _best_splits(x, rows[is_inner[node]], sizes[inner], counts[inner],
                                     cands)
            for b, c in zip(inner[gain > _GAIN_TOL], col[gain > _GAIN_TOL].tolist()):
                r = rows_of[b]
                mask = x[r, c]
                stacks[trees[b]] += [(r[~mask], paths[b] + (c,), gid[b]),
                                     (r[mask], paths[b] + (c,), -1)]
                split[b] = c
        tree = np.array(trees)
        steps.append((tree, made[tree], depth, counts / sizes[:, None], split,
                      np.array(parent)))
        made[tree] += 1
    tree, local, depth, dist, split, parent = (np.concatenate(a) for a in zip(*steps))
    start = np.cumsum(made) - made
    at = start[tree] + local                    # each node's number, by creation order
    absent = at.copy()
    absent[parent[parent >= 0]] = at[parent >= 0]
    order = np.argsort(at)
    return (start, np.maximum(split, 0)[order], (at + (split >= 0))[order],
            absent[order], dist[order], depth[order])


@dataclass(frozen=True)
class RfModel:
    """Information-gain trees as flat node arrays: one forest of n_trees
    trees over all families (family mode), or one binary forest per label
    column, in column order (direct mode); it scores per label column."""

    space: LabelSpace
    n_trees: int
    col: Mapping[str, int]
    _roots: np.ndarray              # the root of every tree, forest by forest
    _split: np.ndarray              # per node: the attribute column it tests
    _present: np.ndarray            # per node: child when the attribute is present
    _absent: np.ndarray             # per node: child when it is absent
    _dist: np.ndarray               # per node: class distribution (nodes, K)
    _depth: int                     # splits on the longest root-to-leaf path

    def scores(self, cols: np.ndarray, n_unseen: int) -> tuple:
        """(column probabilities, None: every label competes) of a query:
        the mean leaf distribution of the family forest (family mode), or of
        each column's forest at its positive class (direct mode).  Every tree
        is walked at once; after `_depth` steps each walk rests on a leaf."""
        q = np.zeros(len(self.col), dtype=bool)
        q[cols] = True
        node = self._roots
        for _ in range(self._depth):
            node = np.where(q[self._split[node]], self._present[node], self._absent[node])
        if self.space.mode == "family":
            return self._dist[node].mean(axis=0), None
        return self._dist[node, 1].reshape(-1, self.n_trees).mean(axis=1), None


def _grow_forests(corpus: Corpus, mode: str, n_trees: int, seed: int,
                  bootstrap: bool, max_features: int) -> RfModel:
    space = label_space(corpus, mode)
    _, col, index = attribute_matrix(corpus)
    x = index.dense(bool)               # the trees test and gather dense columns
    m = corpus.size
    if space.mode == "family":          # one forest over every label
        targets, n_classes = space.member.argmax(axis=1)[None], len(space.columns)
    else:                               # one binary forest per column
        targets, n_classes = space.member.T.astype(int), 2
    master = np.random.default_rng(seed)
    forests, size = [], 0
    for y in targets:                   # one forest at a time bounds the batch
        rngs = [np.random.default_rng(int(master.integers(2**63 - 1)))
                for _ in range(n_trees)]
        roots = [rng.integers(0, m, size=m) if bootstrap else np.arange(m) for rng in rngs]
        roots = [r[np.argsort(y[r], kind="stable")] for r in roots]    # rows by class
        roots, split, present, absent, dist, depth = _grow_forest(
            x, y, n_classes, roots, rngs, _MIN_LEAF_FRAC * m, max_features)
        forests.append((roots + size, split, present + size, absent + size, dist, depth))
        size += split.size
    roots, split, present, absent, dist, depth = (np.concatenate(a) for a in zip(*forests))
    return RfModel(space=space, n_trees=n_trees, col=col,
                   _roots=roots, _split=split, _present=present, _absent=absent,
                   _dist=dist, _depth=int(depth.max()))


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
    """Logistic regression: a linear model per label column (direct mode:
    its log odds) and grad_norm, the norm of the whole stacked gradient
    (direct mode: of every column's fit) that the last epoch stepped along:
    the gradient before the final update, not the one at these weights."""

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

    Family mode fits one softmax over the families; direct mode fits every
    label column's two-class softmax (absent, present) in one ascent, and a
    column's weights are the present class's minus the absent class's.
    """
    check_finite("learning_rate", learning_rate)
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
    check_finite("l2", l2)
    if l2 < 0:
        raise ValueError(f"l2 must be non-negative and finite, got {l2}")
    _check_count("epochs", epochs)
    space = label_space(corpus, mode)
    _, col, index = attribute_matrix(corpus)
    y = space.member
    if space.mode == "direct":
        y = np.stack([1.0 - y, y], axis=2)
    xf = index.dense(float)
    k = y[0].size                   # classes: one per family, or two per column
    w, b = np.zeros((k, xf.shape[1])), np.zeros(k)
    for epoch in range(epochs):
        obj, gw, gb = logreg_objective(w, b, xf, y, l2)
        if not math.isfinite(obj):
            raise TrainingError(f"non-finite objective at epoch {epoch}")
        w += learning_rate * gw
        b += learning_rate * gb
    # The last epoch's gradient, taken before its update, not at w and b.
    grad_norm = math.sqrt(float((gw * gw).sum()) + float((gb * gb).sum()))
    if space.mode == "direct":
        w, b = w[1::2] - w[0::2], b[1::2] - b[0::2]
    return LogRegModel(space=space, col=col, bias=b, weight=w, floor=0.0, mean=False,
                       w=1.0, s=1.0, grad_norm=grad_norm)
