"""From-scratch baseline classifiers over binary attribute sets.

Bernoulli naive Bayes, an information-gain decision tree, a random forest
over those trees, and multinomial logistic regression, each trainable in
family mode (one multiclass model) or direct-task mode (one binary model per
task, binary relevance).  All of them consume the same boolean design matrix
(`core.attribute_matrix`), take their labels from `core.label_space`, and
produce Predictions through it, the same task-thresholding path as the
activation models.

Conventions shared across the baselines:
  - attribute absence is informative for NB (the Bernoulli event model);
  - query attributes never seen in training contribute the smoothing floor
    to NB and carry zero weight elsewhere;
  - the tree splits on presence/absence with natural-log information gain,
    never reuses an attribute on a path, breaks gain ties toward the
    lexicographically smallest attribute, and never splits a node holding
    fewer than 5% of the training samples;
  - the forest bootstraps |M| samples per tree and draws
    ceil(sqrt(|attributes|)) candidate attributes per node (both togglable,
    so a single full-data, full-feature tree reproduces the plain tree);
  - logistic regression is full-batch gradient ascent on the mean
    log-likelihood with an L2 penalty on the weights (bias unpenalized).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import Corpus, LabelSpace, Prediction, attribute_matrix, label_space, query_cols


class TrainingError(RuntimeError):
    """Optimization produced a non-finite objective."""


# ---------------------------------------------------------------- naive Bayes

@dataclass(frozen=True)
class NbModel:
    """Bernoulli naive Bayes, family-multiclass or per-task binary."""

    space: LabelSpace
    vocab: tuple
    smoothing: float
    _col: Mapping[str, int]
    _class_counts: np.ndarray       # samples per label (L,)
    _cond: np.ndarray               # p(a|label) (L,d)
    _cond_neg: np.ndarray           # p(a|~label) (L,d), read in direct mode
    _n_train: int

    @property
    def priors(self) -> dict:
        return {
            label: float(self._class_counts[i]) / self._n_train
            for i, label in enumerate(self.space.labels)
        }

    def cond_prob(self, attribute: str, label: str) -> float:
        """Smoothed p(attribute present | label)."""
        i = self.space.labels.index(label)
        j = self._col.get(attribute)
        if j is None:
            sm = self.smoothing
            return sm / (self._class_counts[i] + 2 * sm)
        return float(self._cond[i, j])


def nb_train(corpus: Corpus, smoothing: float = 1.0, mode: str = "family") -> NbModel:
    space = label_space(corpus, mode)
    vocab, col, x = attribute_matrix(corpus)
    cond, cond_neg = space.presence_rates(x, smoothing)
    return NbModel(
        space=space,
        vocab=tuple(vocab),
        smoothing=smoothing,
        _col=col,
        _class_counts=np.array([g.size for g in space.groups], dtype=float),
        _cond=cond,
        _cond_neg=cond_neg,
        _n_train=corpus.size,
    )


def nb_predict(model: NbModel, query, task_threshold: float = 0.5) -> Prediction:
    cols, n_unseen = query_cols(model._col, query)
    sm = model.smoothing
    log_cond = np.log(model._cond)
    log_not = np.log1p(-model._cond)
    if model.space.mode == "family":
        floor = math.log(sm) - np.log(model._class_counts + 2 * sm)
        scores = (
            np.log(model._class_counts / model._n_train)
            + log_not.sum(axis=1)
            + (log_cond[:, cols] - log_not[:, cols]).sum(axis=1)
            + n_unseen * floor
        )
        shifted = np.exp(scores - scores.max())
        return model.space.prediction(shifted / shifted.sum(), task_threshold)
    pos_counts = model._class_counts
    neg_counts = model._n_train - pos_counts
    log_cond_n = np.log(model._cond_neg)
    log_not_n = np.log1p(-model._cond_neg)
    floor_delta = np.log(neg_counts + 2 * sm) - np.log(pos_counts + 2 * sm)
    with np.errstate(divide="ignore"):
        log_odds_prior = np.log(pos_counts) - np.log(neg_counts)
    delta = (
        log_odds_prior
        + (log_not - log_not_n).sum(axis=1)
        + ((log_cond[:, cols] - log_not[:, cols])
           - (log_cond_n[:, cols] - log_not_n[:, cols])).sum(axis=1)
        + n_unseen * floor_delta
    )
    p = np.where(
        pos_counts == 0, 0.0,
        np.where(neg_counts == 0, 1.0, 1.0 / (1.0 + np.exp(-delta))),
    )
    return model.space.prediction(p, task_threshold)


# ---------------------------------------------------------------- decision tree

@dataclass
class TreeNode:
    attr_col: int | None            # None marks a leaf
    dist: np.ndarray                # class distribution at this node
    n: int
    present: "TreeNode | None" = None
    absent: "TreeNode | None" = None


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def _row_entropy(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
        logs = np.where(p > 0, np.log(p), 0.0)
    return -(p * logs).sum(axis=1)


_GAIN_TOL = 1e-12


def _grow_tree(x: np.ndarray, y: np.ndarray, n_classes: int, idx: np.ndarray,
               avail: np.ndarray, min_count: float,
               rng: np.random.Generator | None, max_features: int | None) -> TreeNode:
    counts = np.bincount(y[idx], minlength=n_classes).astype(float)
    node = TreeNode(attr_col=None, dist=counts / idx.size, n=int(idx.size))
    if idx.size < min_count or (counts > 0).sum() <= 1 or not avail.any():
        return node
    cand = np.flatnonzero(avail)
    if rng is not None and max_features is not None and cand.size > max_features:
        cand = np.sort(rng.choice(cand, size=max_features, replace=False))
    onehot = (y[idx][:, None] == np.arange(n_classes)).astype(float)
    xc = x[np.ix_(idx, cand)]
    present_counts = xc.T.astype(float) @ onehot           # (c, K)
    absent_counts = counts[None, :] - present_counts
    n_p = present_counts.sum(axis=1)
    n_a = idx.size - n_p
    parent_h = _entropy(counts)
    child_h = (n_p * _row_entropy(present_counts)
               + n_a * _row_entropy(absent_counts)) / idx.size
    gains = parent_h - child_h
    best = int(np.argmax(gains))                           # first max: smallest column
    if gains[best] <= _GAIN_TOL:
        return node
    split_col = int(cand[best])
    mask = x[idx, split_col]
    child_avail = avail.copy()
    child_avail[split_col] = False
    node.attr_col = split_col
    node.present = _grow_tree(x, y, n_classes, idx[mask], child_avail,
                              min_count, rng, max_features)
    node.absent = _grow_tree(x, y, n_classes, idx[~mask], child_avail,
                             min_count, rng, max_features)
    return node


def _walk(node: TreeNode, qcols: set) -> np.ndarray:
    while node.attr_col is not None:
        node = node.present if node.attr_col in qcols else node.absent
    return node.dist


@dataclass(frozen=True)
class DtModel:
    space: LabelSpace
    vocab: tuple
    _col: Mapping[str, int]
    _roots: tuple                   # family: (root,); direct: one root per task

    @property
    def labels(self) -> tuple:
        return self.space.labels

    def depth(self) -> int:
        def d(node):
            if node.attr_col is None:
                return 0
            return 1 + max(d(node.present), d(node.absent))
        return max(d(r) for r in self._roots)


_MIN_LEAF_FRAC = 0.05


def _fit_targets(space: LabelSpace, n: int, fit_one) -> tuple:
    """fit_one(y, k) once over all labels (family) or once per label (direct)."""
    if space.mode == "family":
        y = np.empty(n, dtype=int)
        for i, g in enumerate(space.groups):
            y[g] = i
        return (fit_one(y, len(space.labels)),)
    fits = []
    for g in space.groups:
        y = np.zeros(n, dtype=int)
        y[g] = 1
        fits.append(fit_one(y, 2))
    return tuple(fits)


def dt_train(corpus: Corpus, mode: str = "family") -> DtModel:
    space = label_space(corpus, mode)
    vocab, col, x = attribute_matrix(corpus)
    min_count = _MIN_LEAF_FRAC * corpus.size
    idx = np.arange(corpus.size)

    def fit_one(y, k):
        return _grow_tree(x, y, k, idx, np.ones(len(vocab), dtype=bool),
                          min_count, None, None)

    roots = _fit_targets(space, corpus.size, fit_one)
    return DtModel(space=space, vocab=tuple(vocab), _col=col, _roots=roots)


def _forest_prediction(space: LabelSpace, col: Mapping[str, int], forests,
                       query, task_threshold: float) -> Prediction:
    """Mean leaf distribution of one forest over all labels (family mode), or
    of one binary forest per label at its positive class (direct mode)."""
    cols, _ = query_cols(col, query)
    qcols = set(cols.tolist())
    if space.mode == "family":
        probs = np.mean([_walk(t, qcols) for t in forests[0]], axis=0)
    else:
        probs = [np.mean([_walk(t, qcols)[1] for t in forest]) for forest in forests]
    return space.prediction(probs, task_threshold)


def dt_predict(model: DtModel, query, task_threshold: float = 0.5) -> Prediction:
    forests = [(root,) for root in model._roots]
    return _forest_prediction(model.space, model._col, forests, query, task_threshold)


# ---------------------------------------------------------------- random forest

@dataclass(frozen=True)
class RfModel:
    space: LabelSpace
    vocab: tuple
    n_trees: int
    _col: Mapping[str, int]
    _forests: tuple                 # family: (trees,); direct: one tuple per task


def rf_train(corpus: Corpus, n_trees: int = 100, seed: int = 0,
             mode: str = "family", bootstrap: bool = True,
             max_features: int | None = None) -> RfModel:
    """Bagged information-gain trees with per-node attribute subsampling.

    max_features=None draws ceil(sqrt(|vocab|)) candidates per node; pass the
    vocabulary size (and bootstrap=False) to reproduce the plain tree.
    """
    space = label_space(corpus, mode)
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    vocab, col, x = attribute_matrix(corpus)
    m = corpus.size
    min_count = _MIN_LEAF_FRAC * m
    mf = max_features if max_features is not None else math.ceil(math.sqrt(len(vocab)))
    master = np.random.default_rng(seed)

    def fit_one(y, k):
        trees = []
        for _ in range(n_trees):
            rng = np.random.default_rng(int(master.integers(2**63 - 1)))
            idx = rng.integers(0, m, size=m) if bootstrap else np.arange(m)
            trees.append(_grow_tree(x, y, k, idx, np.ones(len(vocab), dtype=bool),
                                    min_count, rng, mf))
        return tuple(trees)

    forests = _fit_targets(space, m, fit_one)
    return RfModel(space=space, vocab=tuple(vocab), n_trees=n_trees, _col=col,
                   _forests=forests)


def rf_predict(model: RfModel, query, task_threshold: float = 0.5) -> Prediction:
    return _forest_prediction(model.space, model._col, model._forests, query,
                              task_threshold)


# ------------------------------------------------------- logistic regression

@dataclass(frozen=True)
class LogRegModel:
    space: LabelSpace
    vocab: tuple
    epochs: int
    grad_norm: float                # gradient norm at the last epoch
    _col: Mapping[str, int]
    _w: np.ndarray                  # family: (K,d); direct: per-task deltas (T,d)
    _b: np.ndarray                  # family: (K,); direct: (T,)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = np.exp(z - z.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def logreg_objective(w: np.ndarray, b: np.ndarray, x: np.ndarray,
                     y_onehot: np.ndarray, l2: float) -> tuple:
    """Mean log-likelihood minus L2 penalty, with analytic gradients.

    Returns (objective, grad_w, grad_b) for gradient *ascent*; the bias is
    not penalized.
    """
    n = x.shape[0]
    z = x @ w.T + b
    p = _softmax_rows(z)
    eps = np.finfo(float).tiny
    ll = float(np.sum(y_onehot * np.log(p + eps)) / n)
    obj = ll - 0.5 * l2 * float((w * w).sum())
    resid = y_onehot - p
    grad_w = resid.T @ x / n - l2 * w
    grad_b = resid.mean(axis=0)
    return obj, grad_w, grad_b


def _fit_logreg(x: np.ndarray, y: np.ndarray, k: int, lr: float, l2: float,
                epochs: int) -> tuple:
    n, d = x.shape
    y_onehot = (y[:, None] == np.arange(k)).astype(float)
    w = np.zeros((k, d))
    b = np.zeros(k)
    xf = x.astype(float)
    grad_norm = math.inf
    for epoch in range(epochs):
        obj, gw, gb = logreg_objective(w, b, xf, y_onehot, l2)
        if not math.isfinite(obj):
            raise TrainingError(f"non-finite objective at epoch {epoch}")
        w += lr * gw
        b += lr * gb
        grad_norm = math.sqrt(float((gw * gw).sum()) + float((gb * gb).sum()))
    return w, b, grad_norm


def logreg_train(corpus: Corpus, learning_rate: float = 0.1, l2: float = 1e-3,
                 epochs: int = 500, mode: str = "family") -> LogRegModel:
    """Full-batch ascent from zero weights; deterministic, so it takes no seed."""
    space = label_space(corpus, mode)
    if learning_rate <= 0 or epochs < 1 or l2 < 0:
        raise ValueError("learning_rate must be > 0, epochs >= 1, l2 >= 0")
    vocab, col, x = attribute_matrix(corpus)
    fits = _fit_targets(space, corpus.size,
                        lambda y, k: _fit_logreg(x, y, k, learning_rate, l2, epochs))
    if space.mode == "family":
        w, b, _ = fits[0]
    else:
        w = np.stack([fw[1] - fw[0] for fw, _, _ in fits])
        b = np.array([fb[1] - fb[0] for _, fb, _ in fits])
    return LogRegModel(space=space, vocab=tuple(vocab), epochs=epochs,
                       grad_norm=max(gn for _, _, gn in fits), _col=col, _w=w, _b=b)


def logreg_predict(model: LogRegModel, query, task_threshold: float = 0.5) -> Prediction:
    cols, _ = query_cols(model._col, query)
    qvec = np.zeros(len(model.vocab))
    qvec[cols] = 1.0
    z = model._w @ qvec + model._b
    if model.space.mode == "family":
        p = _softmax_rows(z[None, :])[0]
    else:
        p = 1.0 / (1.0 + np.exp(-z))
    return model.space.prediction(p, task_threshold)
