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
interaction with tau differs.

The memory is an inverted index from each attribute to the chunks that
contain it, ACT-R's associative links: the corpus index's by-attribute view
(one start/rows pair), so fan(a) is the number of a's links.  A
query gathers only the links of its known attributes: two bincounts over
their chunk ids give every chunk's |query & chunk| and its summed
log(|M| / fan(a)), so a chunk sharing nothing gets the miss term alone, and
an attribute unseen in training is a miss for every chunk.  Chunks at or
above the threshold tau enter a Boltzmann retrieval distribution

    Pr(j) = exp(A_j / s) / sum_k exp(A_k / s)

computed deterministically (the temperature s stands in for noise; nothing
is sampled) with max-subtraction for numerical stability.  If no chunk
reaches tau, retrieval falls back to the softmax over all chunks and the
prediction is flagged degenerate.  A label column's probability is the
retained probability mass of its chunks (a family's, or in direct mode those
performing a task), read in one product with the label space's sample x
column membership matrix; a task's probability sums the mass of every family
performing it, thresholded at task_threshold.

The rule-based model (RB) compresses the corpus into per-(label, attribute)
rules, the smoothed presence rates naive Bayes also reads.  With
add-`smoothing` counts,

    p(a|f)  = (count(a, f) + sm) / (|f| + 2 sm)
    p(a|~f) = (count(a, M-f) + sm) / (|M| - |f| + 2 sm)
    s_{a,f} = log(p(a|f) / p(a|~f))

and a query scores A_f = log prior(f) + w * sum_a s_{a,f} / |query| over the
query attributes that have rules, softmaxed over all labels with the same
temperature (no tau filtering; every label competes).  In direct-task mode
each task column gets a binary rule table (samples with the task vs
without), which the tasks sharing the column read; the complement label's
association is the exact negation, so the pairwise softmax is the sigmoid

    p(t) = 1 / (1 + exp(-(logit prior(t) + 2 w * sum_a s_{a,t} / |query|) / s))

and a task every sample performs (logit +inf) keeps its prior 1.  The rules
are a `core.CountModel`, fitted from the presence counts as naive Bayes is
(bias the log prior or its logit, weight the log ratios, doubled in direct
mode, averaged over the query).

Both models leave training samples out without retraining: `without(rows)`
downdates the instance model's memory, and the rule model's counts, to what
training on the other samples gives, so a protocol that holds samples out
trains them once.  A held-out instance model keeps reading the corpus
index's links: a query still gathers the held-out chunks' links, and their
activations are dropped at the end, so a fold copies no link.

The rule model needs every presence ratio p(a|f) / p(a|~f) strictly between
0 and infinity; a `smoothing` whose rates break that for the counts at hand
(too small, or near the float maximum) is refused by name.

Both models take their labels from `core.label_space` and keep the scoring
contract of the baselines: `space`, `col` and `scores(cols, n_unseen)` per
label column, which `methods.predict` turns into a Prediction.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .core import (
    ActrParams,
    CountModel,
    Corpus,
    LabelSpace,
    check_smoothed,
    label_space,
    softmax,
)


def _partial_term(overlap: float, params: ActrParams) -> float:
    if params.partial_matching == "deficit":
        return params.mp * (overlap - 1.0)
    return params.mp * overlap


def _softmax_retained(acts: np.ndarray, params: ActrParams) -> tuple:
    """Boltzmann distribution over the chunks at or above tau.

    Returns (probs, retained_count).  probs is aligned with acts and zero
    outside the retained set.  When nothing reaches tau the softmax falls
    back to all chunks (a degenerate retrieval); retained_count stays 0
    because it counts chunks that actually cleared the threshold.
    """
    if acts.size == 0:
        raise ValueError("no activations to retrieve over")
    mask = acts >= params.tau
    retained = int(mask.sum())
    if not retained:
        mask[:] = True
    probs = np.zeros(acts.shape)
    probs[mask] = softmax(acts[mask], params.s)
    return probs, retained


class IbModel:
    """Instance-based model: the training corpus held as retrievable memory.

    Every model of a corpus reads the links of its index: the chunks holding
    attribute vocab[j] are index rows _chunks[_start[j]:_start[j + 1]], in
    row order, and index row i holds _sizes[i] attributes.  A model that
    `without` made adds only its own: the index rows it still holds (_rows,
    in order; None for the whole corpus), so chunk i is index row _rows[i],
    and their fans and log terms.  space.member maps chunk mass to label
    columns.
    """

    def __init__(self, corpus: Corpus, params: ActrParams | None = None,
                 mode: str = "family"):
        self.space = label_space(corpus, mode)
        self.params = params or ActrParams()
        ix = corpus.index
        self.col, self._index = ix.col, ix
        # The index's by-attribute view lists each attribute's chunks in row
        # order, built once for every model of the corpus.  Chunk ids are
        # intp, which numpy gathers through fastest; sizes are int64, so that
        # |query| * |chunk| cannot overflow for a large chunk.
        self._start, self._chunks = ix.by_attribute
        self._sizes = np.diff(ix.offsets).astype(np.int64)
        self._hold(None, np.diff(self._start))

    def _hold(self, rows, fan) -> None:
        """Hold the memory of the index `rows` (None: every row), whose
        attribute j is held by fan[j] of them, with the log terms they give."""
        self._rows, self._fan = rows, fan
        m = self._sizes.size if rows is None else rows.size
        with np.errstate(divide="ignore"):      # a column with no chunk left
            self._log_hit = np.log(m / fan)
        self._log_miss = math.log(1.0 / m)

    def without(self, rows) -> "IbModel":
        """The model of every chunk of its memory but the distinct `rows`,
        numbered as its chunks are, scoring as training on the others does:
        the other chunks keep their order, and m and the fans of the rows'
        attributes fall.  An attribute only the rows held keeps its column
        with no chunk, so, like an unseen one, it is a miss for every chunk.
        The index's links are shared, not copied."""
        out = copy.copy(self)
        out.space = self.space.without(rows)[0]
        held = np.arange(self._sizes.size) if self._rows is None else self._rows
        lost = self._index.links(np.take(held, rows))[1]
        out._hold(np.delete(held, rows),
                  self._fan - np.bincount(lost, minlength=self._fan.size))
        return out

    def activations(self, cols: np.ndarray, n_unseen: int) -> np.ndarray:
        """Total activation of every memory chunk for a query of the known
        attribute columns `cols` and n_unseen attributes outside `col`."""
        nq = cols.size + n_unseen
        # Every index link of the query's known attributes, held-out rows'
        # too: each falls in its own row's bins, which the last step drops.
        start = self._start[cols]
        width = self._start[cols + 1] - start
        links = np.repeat(start - np.cumsum(width) + width, width) + np.arange(width.sum())
        chunks = self._chunks[links]
        n = self._sizes.size
        shared = np.bincount(chunks, minlength=n)
        hits = np.bincount(chunks, weights=np.repeat(self._log_hit[cols], width),
                           minlength=n)
        spread = (hits + (nq - shared) * self._log_miss) / nq
        overlap = shared / np.sqrt(nq * self._sizes)
        acts = self.params.beta + spread + _partial_term(overlap, self.params)
        return acts if self._rows is None else acts[self._rows]

    def scores(self, cols: np.ndarray, n_unseen: int) -> tuple:
        """(label column probabilities, retained chunk count) of a query:
        each column's probability is the retrieval mass of its chunks."""
        probs, retained = _softmax_retained(self.activations(cols, n_unseen), self.params)
        return probs @ self.space.member, retained


def _rules(space: LabelSpace, present: np.ndarray, total: np.ndarray,
           smoothing: float) -> tuple:
    """Per-column (bias, weight, floor) of the rules: the log prior (direct
    mode: its logit) and the log presence ratios (doubled in direct mode)."""
    given, not_given = space.presence_rates(present, total, smoothing)
    with np.errstate(all="ignore"):         # a ratio of 0 or inf is refused next
        ratio = given / not_given
    check_smoothed(smoothing, ratio, math.inf, "presence ratio")
    log_ratio = np.log(ratio, out=ratio)    # in place: no second (columns x vocab) array
    pos = space.sizes
    if space.mode == "family":
        bias, weight = np.log(pos / space.size), log_ratio
    else:
        # A task's two-way softmax against its complement, whose association
        # is the negation of its own, is the sigmoid of the difference.  A task
        # every sample performs has log odds +inf, so it keeps its prior 1.
        with np.errstate(divide="ignore"):
            bias = np.log(pos) - np.log(space.size - pos)
        weight = 2 * log_ratio
    return bias, weight, 0.0


def rb_train(corpus: Corpus, params: ActrParams | None = None, smoothing: float = 1.0,
             mode: str = "family") -> CountModel:
    """Compress a corpus into smoothed presence rules per label column: a
    linear model over the rules' log ratios, averaged over the query and
    scaled by the association weight `params.w`, at temperature `params.s`."""
    params = params or ActrParams()
    return CountModel.train(corpus, mode, smoothing, _rules, mean=True, w=params.w,
                            s=params.s)
