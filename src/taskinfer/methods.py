"""Method registry: one constructor from (name, corpus, rows) to a predictor.

Every classifier is reachable by a short method id.  Every trained model
keeps one contract: its `space` (the `core.LabelSpace` it scores over), its
`col` (attribute -> column) and `scores(cols, n_unseen)`, which gives a
query's label column probabilities and the chunks it retained (None when
every label competes).  `predict` is the one path from a model and a query
to a Prediction, and every predictor is a closure over it.  The evaluation
protocols and the CLI both go through here so a method id means the same
model everywhere.  `leave_out` alone decides how a predictor is built, the
rows it holds out read by `core.renumbering` alone: with no row it trains on
the corpus itself, and `train_method` is that predictor; otherwise the count
models (`actr-ib`, `actr-r`, `nb`) downdate one model of the whole corpus
with `without(rows)`, and the others train on `Corpus.without(rows)`.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Sequence

from . import actr, baselines
from .core import ActrParams, Corpus, Prediction, query_cols, renumbering

Predictor = Callable[[frozenset], Prediction]

# method -> (train(corpus, mode, params, seed) with the trainer's own default
# hyperparameters, downdates: whether the model's `without(rows)` is the model
# trained without those rows).  Trainers are looked up at call time, so
# wrappers installed on their modules (the benchmark tracer's) take effect.
_REGISTRY = {
    "actr-ib": (lambda corpus, mode, params, seed: actr.IbModel(corpus, params, mode), True),
    "actr-r": (lambda corpus, mode, params, seed: actr.rb_train(corpus, params, mode=mode),
               True),
    "nb": (lambda corpus, mode, params, seed: baselines.nb_train(corpus, mode=mode), True),
    "dt": (lambda corpus, mode, params, seed: baselines.dt_train(corpus, mode=mode), False),
    "rf": (lambda corpus, mode, params, seed: baselines.rf_train(corpus, seed=seed, mode=mode),
           False),
    "logreg": (lambda corpus, mode, params, seed: baselines.logreg_train(corpus, mode=mode),
               False),
}

METHODS = tuple(_REGISTRY)


def predict(model, query, task_threshold: float) -> Prediction:
    """The Prediction of a trained model for a non-empty query attribute set:
    its label scores, with the tasks whose mass reaches task_threshold."""
    probs, retained = model.scores(*query_cols(model.col, query))
    return model.space.prediction(probs, task_threshold, retained)


def train_method(method: str, corpus: Corpus, mode: str = "family",
                 params: ActrParams | None = None, seed: int = 0) -> Predictor:
    """Train `method` on `corpus` and return its query -> Prediction closure:
    `leave_out`'s predictor with no row held out.

    `params` carries the activation parameters and the shared task
    threshold; every other hyperparameter is the trainer's default (call the
    trainer itself, then `predict`, to set one).
    """
    return leave_out(method, corpus, mode, params, seed)(())


def leave_out(method: str, corpus: Corpus, mode: str = "family",
              params: ActrParams | None = None,
              seed: int = 0) -> Callable[[Sequence[int]], Predictor]:
    """Distinct rows of `corpus` -> the predictor of `method` trained on
    `corpus.without(rows)`, the other rows with only their families, or on
    `corpus` itself when no row is held out (so a family with no sample
    raises, as training on it does).  A method that downdates holds the rows
    out of one model of the whole corpus, trained when first asked; any
    other trains on the other rows when they are asked for.  A row
    `renumbering` rejects raises ValueError before any training."""
    if method not in _REGISTRY:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    train, downdates = _REGISTRY[method]
    params = params or ActrParams()
    whole = cache(lambda: train(corpus.without(()), mode, params, seed))

    def held_out(rows) -> Predictor:
        renumbering(corpus.size, rows)          # a bad row fails before any training
        model = (train(corpus, mode, params, seed) if not len(rows)
                 else whole().without(rows) if downdates
                 else train(corpus.without(rows), mode, params, seed))
        return lambda q: predict(model, q, params.task_threshold)
    return held_out
