"""Activation-based classifiers over binary attribute sets.

Two models share one retrieval rule.  The instance-based model (IB) keeps
every training sample as a memory chunk; a query computes, per chunk j,

    A_j = B_j + S_j + P_j

    B_j = beta                                  (constant base level)
    S_j = sum over query attributes a of
              log(|M| / fan(a))   if a in chunk j
              log(1 / |M|)        otherwise
          , divided by |query|                  (spreading activation)
    P_j = mp * |query & chunk| / sqrt(|query| * |chunk|)
                                                (partial matching, "overlap")

where fan(a) counts the training samples containing a.  With
partial_matching="deficit" the last term is shifted to
mp * (overlap - 1), a penalty in [-mp, 0]; ordering is unchanged but the
interaction with tau differs.  Chunks at or above the threshold tau enter a
Boltzmann retrieval distribution

    Pr(j) = exp(A_j / s) / sum_k exp(A_k / s)

computed deterministically (the temperature s stands in for noise; nothing
is sampled) with max-subtraction for numerical stability.  If no chunk
reaches tau, retrieval falls back to the softmax over all chunks and the
prediction is flagged degenerate.  Family probability is the retained
probability mass of the family's chunks; task probability sums the mass of
every family performing the task, thresholded at task_threshold.

The rule-based model (RB) compresses the corpus into per-(label, attribute)
rules, the smoothed presence rates naive Bayes also reads.  With
add-`smoothing` counts,

    p(a|f)  = (count(a, f) + sm) / (|f| + 2 sm)
    p(a|~f) = (count(a, M-f) + sm) / (|M| - |f| + 2 sm)
    s_{a,f} = log(p(a|f) / p(a|~f))

and a query scores A_f = log prior(f) + w * sum_a s_{a,f} / |query| over the
query attributes that have rules, softmaxed over all labels with the same
temperature (no tau filtering; every label competes).  In direct-task mode
each task gets a binary rule table (samples with the task vs without); the
complement label's association is the exact negation, so the pairwise
softmax reduces to a sigmoid.

Both models take their labels, and build their Predictions, through
`core.label_space`, like the baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ActrParams,
    Corpus,
    LabelSpace,
    Prediction,
    attribute_matrix,
    label_space,
    query_cols,
)


@dataclass(frozen=True)
class Activation:
    """Per-chunk activation, decomposed into its three terms."""

    base: float
    spreading: float
    partial_match: float

    @property
    def total(self) -> float:
        return self.base + self.spreading + self.partial_match


def _overlap(query: frozenset, chunk: frozenset) -> float:
    shared = len(query & chunk)
    return shared / math.sqrt(len(query) * len(chunk))


def _partial_term(overlap: float, params: ActrParams) -> float:
    if params.partial_matching == "deficit":
        return params.mp * (overlap - 1.0)
    return params.mp * overlap


def ib_activation(corpus: Corpus, params: ActrParams, query, j: int) -> Activation:
    """Activation of memory chunk j (corpus.samples[j]) for a query attribute set."""
    query = frozenset(query)
    if not query:
        raise ValueError("query attribute set is empty")
    if not 0 <= j < corpus.size:
        raise IndexError(f"chunk index {j} out of range for corpus of {corpus.size}")
    chunk = corpus.samples[j].attribs
    m = corpus.size
    miss = math.log(1.0 / m)
    spread = 0.0
    for a in query:
        if a in chunk:
            spread += math.log(m / corpus.fan[a])
        else:
            spread += miss
    return Activation(
        base=params.beta,
        spreading=spread / len(query),
        partial_match=_partial_term(_overlap(query, chunk), params),
    )


def _softmax_retained(acts: np.ndarray, params: ActrParams,
                      apply_threshold: bool) -> tuple:
    """Boltzmann distribution over the chunks at or above tau.

    Returns (probs, retained_count, degenerate).  probs is aligned with acts
    and zero outside the retained set.  When nothing reaches tau the softmax
    falls back to all chunks and degenerate is True; retained_count stays 0
    because it counts chunks that actually cleared the threshold.
    """
    if acts.size == 0:
        raise ValueError("no activations to retrieve over")
    if apply_threshold:
        mask = acts >= params.tau
    else:
        mask = np.ones(acts.shape, dtype=bool)
    retained = int(mask.sum()) if apply_threshold else int(acts.size)
    degenerate = False
    if not mask.any():
        mask = np.ones(acts.shape, dtype=bool)
        degenerate = True
        retained = 0
    sub = acts[mask]
    w = np.exp((sub - sub.max()) / params.s)
    probs = np.zeros(acts.shape)
    probs[mask] = w / w.sum()
    return probs, retained, degenerate


def retrieval_probs(activations: Sequence[float], params: ActrParams,
                    apply_threshold: bool = True) -> tuple:
    """Retrieval probabilities for a list of activations.

    Returns (probs, degenerate) with probs aligned to the input (zero for
    chunks excluded by tau).
    """
    acts = np.asarray(list(activations), dtype=float)
    probs, _, degenerate = _softmax_retained(acts, params, apply_threshold)
    return list(probs), degenerate


class IbModel:
    """Instance-based model: the training corpus held as retrievable memory."""

    def __init__(self, corpus: Corpus, params: ActrParams | None = None,
                 mode: str = "family"):
        self.space = label_space(corpus, mode)
        if corpus.size == 0:
            raise ValueError("cannot build memory from an empty corpus")
        self.corpus = corpus
        self.params = params or ActrParams()
        vocab, col, x = attribute_matrix(corpus)
        self._col = col
        self._x = x
        self._sizes = x.sum(axis=1)
        m = corpus.size
        fan = np.array([corpus.fan[a] for a in vocab], dtype=float)
        self._log_hit = np.log(m / fan)
        self._log_miss = math.log(1.0 / m)

    def activations(self, query) -> np.ndarray:
        """Total activation of every memory chunk for the query."""
        cols, n_unseen = query_cols(self._col, query)
        nq = cols.size + n_unseen
        xq = self._x[:, cols]
        shared = xq.sum(axis=1)
        hits = xq @ self._log_hit[cols]
        spread = (hits + (nq - shared) * self._log_miss) / nq
        overlap = shared / np.sqrt(nq * self._sizes)
        return self.params.beta + spread + _partial_term(overlap, self.params)

    def predict(self, query) -> Prediction:
        acts = self.activations(query)
        probs, retained, degenerate = _softmax_retained(acts, self.params, True)
        return self.space.prediction(
            [probs[g].sum() for g in self.space.groups],
            self.params.task_threshold,
            retained_chunks=retained,
            degenerate=degenerate,
        )


def ib_predict(corpus: Corpus, params: ActrParams | None, query,
               mode: str = "family") -> Prediction:
    """One-shot instance-based prediction (builds the memory, then queries it)."""
    return IbModel(corpus, params, mode).predict(query)


@dataclass(frozen=True, eq=False)
class RuleTable:
    """Per-(label, attribute) presence rules compressed from a corpus.

    given[i, col[a]] is the smoothed p(attribute a present | space.labels[i])
    and not_given[i, col[a]] the smoothed p(a present | not that label).
    priors hold label base rates (family mode: sums to 1; direct mode:
    per-task incidence).
    """

    space: LabelSpace
    col: Mapping[str, int]
    priors: Mapping[str, float]
    given: np.ndarray
    not_given: np.ndarray
    smoothing: float
    _prior: np.ndarray              # priors, aligned with space.labels
    _log_ratio: np.ndarray          # log(given / not_given)


def rb_train(corpus: Corpus, smoothing: float = 1.0, mode: str = "family") -> RuleTable:
    """Compress a corpus into smoothed presence rules per label."""
    space = label_space(corpus, mode)
    if corpus.size == 0:
        raise ValueError("cannot build rules from an empty corpus")
    kind = "family" if mode == "family" else "task"
    for label, g in zip(space.labels, space.groups):
        if not g.size:
            raise ValueError(f"{kind} {label!r} has no samples")
    _, col, x = attribute_matrix(corpus)
    given, not_given = space.presence_rates(x, smoothing)
    prior = np.array([g.size for g in space.groups]) / corpus.size
    return RuleTable(
        space=space,
        col=col,
        priors={label: float(p) for label, p in zip(space.labels, prior)},
        given=given,
        not_given=not_given,
        smoothing=smoothing,
        _prior=prior,
        _log_ratio=np.log(given / not_given),
    )


def rb_predict(rules: RuleTable, params: ActrParams, query) -> Prediction:
    """Score a query against a rule table.

    Attributes without a rule column (never seen in training) are skipped;
    the association still divides by the full query size.
    """
    cols, n_unseen = query_cols(rules.col, query)
    params = params or ActrParams()
    assoc = params.w * (rules._log_ratio[:, cols].sum(axis=1) / (cols.size + n_unseen))
    if rules.space.mode == "family":
        probs, _, _ = _softmax_retained(np.log(rules._prior) + assoc, params, False)
    else:
        # A two-way softmax of each task against its complement.  A task every
        # sample performs has log(1 - 1) = -inf there, so it keeps its prior 1.
        with np.errstate(divide="ignore"):
            acts = np.stack([np.log(rules._prior) + assoc,
                             np.log(1.0 - rules._prior) - assoc])
        w = np.exp((acts - acts.max(axis=0)) / params.s)
        probs = w[0] / w.sum(axis=0)
    return rules.space.prediction(probs, params.task_threshold)
