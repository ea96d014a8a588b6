"""Method registry: one constructor path from (name, corpus) to a predictor.

Every classifier is reachable by a short method id.  Every trained model
keeps one contract: its `space` (the `core.LabelSpace` it scores over), its
`col` (attribute -> column) and `scores(cols, n_unseen)`, which gives a
query's label column probabilities and the chunks it retained (None when
every label competes).  `predict` is the one path from a model and a query
to a Prediction, and training returns a closure over it.  The evaluation
protocols and the CLI both go through here so a method id means the same
model everywhere.  `leave_out` holds a set of rows out for every method, the
rows read by `core.renumbering` alone: the count models (`actr-ib`,
`actr-r`, `nb`) downdate one model of the whole corpus with `without(rows)`,
and the others retrain on `Corpus.without(rows)`.
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


def _entry(method: str) -> tuple:
    if method not in _REGISTRY:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    return _REGISTRY[method]


def predict(model, query, task_threshold: float) -> Prediction:
    """The Prediction of a trained model for a non-empty query attribute set:
    its label scores, with the tasks whose mass reaches task_threshold."""
    probs, retained = model.scores(*query_cols(model.col, query))
    return model.space.prediction(probs, task_threshold, retained)


def _predictor(model, task_threshold: float) -> Predictor:
    return lambda q: predict(model, q, task_threshold)


def train_method(method: str, corpus: Corpus, mode: str = "family",
                 params: ActrParams | None = None, seed: int = 0) -> Predictor:
    """Train `method` on `corpus` and return its query -> Prediction closure.

    `params` carries the activation parameters and the shared task
    threshold; every other hyperparameter is the trainer's default (call the
    trainer itself, then `predict`, to set one).
    """
    train, _ = _entry(method)
    params = params or ActrParams()
    return _predictor(train(corpus, mode, params, seed), params.task_threshold)


def leave_out(method: str, corpus: Corpus, mode: str = "family",
              params: ActrParams | None = None,
              seed: int = 0) -> Callable[[Sequence[int]], Predictor]:
    """Distinct rows of `corpus` -> the predictor of `method` trained on
    `corpus.without(rows)`, the other rows with only their families.  A
    method that downdates trains one model of the whole corpus, when first
    asked, and downdates it for the rows; any other trains on the other rows
    when they are asked for.  A row `renumbering` rejects raises ValueError
    before any training."""
    train, downdates = _entry(method)
    params = params or ActrParams()
    if not downdates:
        return lambda rows: train_method(method, corpus.without(rows), mode, params, seed)
    whole = cache(lambda: train(corpus.without(()), mode, params, seed))

    def held_out(rows) -> Predictor:
        renumbering(corpus.size, rows)          # a bad row fails before `whole` trains
        return _predictor(whole().without(rows), params.task_threshold)
    return held_out
