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
  - trees are grown in lockstep, the forests of all direct-mode columns
    together (in groups whose stacked root rows fit _GROUP_ROWS): each
    step tests, counts and scores the next node (in preorder) of every tree
    still growing as one batch, while each tree keeps its own seed, draws its
    bootstrap and per-node candidates from it in preorder, and so is the
    tree that growing it alone would give;
  - trees are flat node arrays, numbered tree by tree in preorder, and a
    query walks every tree at once;
  - logistic regression is full-batch gradient ascent on the mean
    log-likelihood with an L2 penalty on the weights (bias unpenalized);
    in direct mode one ascent fits every column's binary model at once.
    The ascent runs in the Gram (dual) form, one coefficient per training
    row and class, over the rows in sample-id order, so the model does not
    depend on the corpus's row order.

Naive Bayes and logistic regression are both linear in the query's
attributes, so each trains a `core.LinearModel` (the scorer the rule model
shares): a bias per label column, a weight per label column and attribute,
and for NB the smoothing floor an unseen attribute adds; family mode
softmaxes the scores and direct mode takes the sigmoid of each column's log
odds against its complement.  NB's is a `core.CountModel`, fitted from the
presence counts like the rule model, so it leaves a sample out by
downdating them.  NB takes log(p) and log(1 - p) of every presence rate it
reads, so it refuses a `smoothing` that rounds one to 0 or 1 for the counts
at hand.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (CountModel, Corpus, LabelSpace, LinearModel, attribute_matrix,
                   check_count, check_finite, check_smoothed, label_space, softmax)


class TrainingError(RuntimeError):
    """Optimization produced a non-finite objective."""


# ---------------------------------------------------------------- naive Bayes

def _bernoulli(space: LabelSpace, present: np.ndarray, total: np.ndarray,
               smoothing: float) -> tuple:
    """Per-column (bias, weight, floor) of Bernoulli naive Bayes: the log
    joint of each family, or the log odds of each task against its
    complement."""
    cond, cond_neg = space.presence_rates(present, total, smoothing)
    for rates in (cond,) if space.mode == "family" else (cond, cond_neg):
        check_smoothed(smoothing, rates, 1.0, "presence rate")
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
_GROUP_ROWS = 2**15             # stacked root rows of the forests grown together


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


def _grow_forest(x: np.ndarray, y: np.ndarray, n_classes: int, roots: np.ndarray,
                 rngs: list, min_count: float, max_features: int) -> tuple:
    """Grow trees in lockstep from their root rows, each grouped by class (a
    subset keeps that order, as `_best_splits` needs); tree t's classes are
    y[t], so the trees of several forests grow as one.

    Each tree keeps its own depth-first stack (present child first); every
    step takes the next node of every tree still growing and tests, counts
    and scores them as one batch, then parts every split node's rows between
    its children with one stable sort.  What runs node by node is a tree's
    candidate draw (`rng.choice` of positions among the available attributes,
    then sorted, at a node that passes the leaf tests and has more of them
    than max_features), in the tree's preorder, and the push of its children.
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
    free = np.ones(n_attrs, dtype=bool)         # scratch: the columns off one path
    made = np.zeros(len(roots), dtype=int)      # nodes each tree has made so far
    steps = []
    while trees := [t for t, stack in enumerate(stacks) if stack]:
        rows_of, paths, parent = zip(*(stacks[t].pop() for t in trees))
        tree = np.array(trees)
        sizes = np.array([r.size for r in rows_of])
        depth = np.array([len(p) for p in paths])
        rows = np.concatenate(rows_of)
        node = np.repeat(np.arange(tree.size), sizes)
        counts = np.bincount(node * n_classes + y[tree[node], rows],
                             minlength=tree.size * n_classes).reshape(-1, n_classes)
        gid = made.sum() + np.arange(tree.size)     # creation order
        is_inner = ((sizes >= min_count) & ((counts > 0).sum(axis=1) > 1)
                    & (depth < n_attrs))
        inner = np.flatnonzero(is_inner)
        split = np.full(tree.size, -1)
        if inner.size:
            cands = []
            for b in inner.tolist():
                path = list(paths[b])
                free[path] = False
                cand = free.nonzero()[0]
                free[path] = True
                if cand.size > max_features:
                    pick = rngs[trees[b]].choice(cand.size, size=max_features, replace=False)
                    pick.sort()
                    cand = cand[pick]
                cands.append(cand)
            col, gain = _best_splits(x, rows[is_inner[node]], sizes[inner], counts[inner],
                                     cands)
            split[inner[gain > _GAIN_TOL]] = col[gain > _GAIN_TOL]
        # The rows of every split node, absent then present side, each in its order.
        at = split[node] >= 0
        side = 2 * node[at] + x[rows[at], split[node[at]]]
        parted = rows[at][np.argsort(side, kind="stable")]
        bounds = [0, *np.cumsum(np.bincount(side, minlength=2 * tree.size)).tolist()]
        go = np.flatnonzero(split >= 0)
        for b, c in zip(go.tolist(), split[go].tolist()):
            path = paths[b] + (c,)
            stacks[trees[b]] += [(parted[bounds[2 * b]:bounds[2 * b + 1]], path, gid[b]),
                                 (parted[bounds[2 * b + 1]:bounds[2 * b + 2]], path, -1)]
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
    seeds = np.random.default_rng(seed).integers(2**63 - 1, size=targets.shape[0] * n_trees)
    # Forests grow together, as many as keep their stacked root rows within
    # _GROUP_ROWS (at least one), so a step's arrays stay small; a forest
    # larger than that grows alone.
    group = max(1, _GROUP_ROWS // (n_trees * m)) * n_trees
    forests, size = [], 0
    for first in range(0, seeds.size, group):
        rngs = [np.random.default_rng(s) for s in seeds[first:first + group].tolist()]
        y = np.repeat(targets[first // n_trees:(first + group) // n_trees], n_trees, axis=0)
        roots = (np.stack([rng.integers(0, m, size=m) for rng in rngs]) if bootstrap
                 else np.tile(np.arange(m), (len(rngs), 1)))
        by_class = np.argsort(np.take_along_axis(y, roots, axis=1), axis=1, kind="stable")
        roots, split, present, absent, dist, depth = _grow_forest(
            x, y, n_classes, np.take_along_axis(roots, by_class, axis=1), rngs,
            _MIN_LEAF_FRAC * m, max_features)
        forests.append((roots + size, split, present + size, absent + size, dist, depth))
        size += split.size
    roots, split, present, absent, dist, depth = (np.concatenate(a) for a in zip(*forests))
    return RfModel(space=space, n_trees=n_trees, col=col,
                   _roots=roots, _split=split, _present=present, _absent=absent,
                   _dist=dist, _depth=int(depth.max()))


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
    check_count("n_trees", n_trees)
    if type(bootstrap) is not bool:
        raise ValueError(f"bootstrap must be True or False, got {bootstrap!r}")
    if max_features is None:
        max_features = math.ceil(math.sqrt(len(corpus.index.vocab)))
    else:
        check_count("max_features", max_features)
    return _grow_forests(corpus, mode, n_trees, seed, bootstrap, max_features)


# ------------------------------------------------------- logistic regression

@dataclass(frozen=True, eq=False)
class LogRegModel(LinearModel):
    """Logistic regression: a linear model per label column (direct mode:
    its log odds), whose weights the Gram-form ascent maps back from its
    row coefficients, and grad_norm, the norm of the whole stacked weight
    and bias gradient (direct mode: of every column's fit) that the last
    epoch stepped along: the gradient before the final update, not the one
    at these weights."""

    grad_norm: float


def logreg_train(corpus: Corpus, learning_rate: float = 0.1, l2: float = 1e-3,
                 epochs: int = 500, mode: str = "family") -> LogRegModel:
    """Full-batch ascent from zero weights; deterministic, so it takes no seed.

    Family mode fits one softmax over the families; direct mode fits every
    label column's two-class softmax (absent, present) in one ascent, and a
    column's weights are the present class's minus the absent class's.

    The ascent of that objective (the mean log-likelihood less l2 / 2
    times ||w||^2) runs in its Gram (dual) form.  From
    zero weights every step stays in the span of the rows, so the weights
    are coef @ x for a coefficient per class and row, and the ascent needs
    only the Gram matrix x @ x.T, exact since its entries are counts: the
    scores are coef @ gram + b, ||w||^2 is the sum of coef * (coef @ gram),
    and the weights and the last weight gradient are mapped back through x
    once, at the end.  The rows are in sample-id order, so no sum depends
    on the corpus's row order.
    """
    check_finite("learning_rate", learning_rate)
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
    check_finite("l2", l2)
    if l2 < 0:
        raise ValueError(f"l2 must be non-negative and finite, got {l2}")
    check_count("epochs", epochs)
    space = label_space(corpus, mode)
    _, col, index = attribute_matrix(corpus)
    order = sorted(range(corpus.size), key=lambda i: corpus.samples[i].id)
    # Classes lead and rows trail: (families, rows), or (columns, 2, rows).
    y = space.member[order].T.astype(float)
    if space.mode == "direct":
        y = np.stack([1.0 - y, y], axis=1)
    xf = index.dense(float, order)
    gram = xf @ xf.T
    n = xf.shape[0]
    k = y.size // n                 # classes: one per family, or two per column
    coef, b = np.zeros((k, n)), np.zeros((k, 1))
    eps = np.finfo(float).tiny
    # A step of the coefficients, coef + learning_rate * (resid / n - l2 * coef):
    decay, step = 1.0 - learning_rate * l2, learning_rate / n
    for epoch in range(epochs):
        z = coef @ gram                                     # w @ x.T
        p = softmax((z + b).reshape(y.shape), axis=-2)
        obj = np.vdot(y, np.log(p + eps)) / n - 0.5 * l2 * np.vdot(z, coef)
        if not math.isfinite(obj):
            raise TrainingError(f"non-finite objective at epoch {epoch}")
        resid = (y - p).reshape(k, n)
        last, coef = coef, decay * coef + step * resid
        b = b + step * resid.sum(axis=1, keepdims=True)
    # The last epoch's gradient, taken before its update, not at the weights.
    gw = (resid / n - l2 * last) @ xf
    gb = resid.sum(axis=1) / n
    grad_norm = math.sqrt(float((gw * gw).sum()) + float((gb * gb).sum()))
    w, b = coef @ xf, b[:, 0]
    if space.mode == "direct":
        w, b = w[1::2] - w[0::2], b[1::2] - b[0::2]
    return LogRegModel(space=space, col=col, bias=b, weight=w, floor=0.0, mean=False,
                       w=1.0, s=1.0, grad_norm=grad_norm)
