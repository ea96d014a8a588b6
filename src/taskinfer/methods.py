"""Method registry: one constructor path from (name, corpus) to a predictor.

Every classifier is reachable by a short method id; training returns a
closure mapping a query attribute set to a Prediction.  The evaluation
protocols and the CLI both go through here so a method id means the same
model everywhere.
"""

from __future__ import annotations

from typing import Callable

from . import actr, baselines
from .core import ActrParams, Corpus, Prediction

Predictor = Callable[[frozenset], Prediction]

# method -> (train(corpus, mode, params, seed, **hyper), default hyperparameters
# (the only keys `hyper` may set), predict(model, params, query)).  Model
# functions are looked up at call time, so wrappers installed on their modules
# (the benchmark tracer's) take effect.
_REGISTRY = {
    "actr-ib": (
        lambda corpus, mode, params, seed: actr.IbModel(corpus, params, mode),
        {},
        lambda model, params, q: model.predict(q),
    ),
    "actr-r": (
        lambda corpus, mode, params, seed, **h: actr.rb_train(corpus, mode=mode, **h),
        {"smoothing": 1.0},
        lambda model, params, q: actr.rb_predict(model, params, q),
    ),
    "nb": (
        lambda corpus, mode, params, seed, **h: baselines.nb_train(corpus, mode=mode, **h),
        {"smoothing": 1.0},
        lambda model, params, q: baselines.nb_predict(model, q, params.task_threshold),
    ),
    "dt": (
        lambda corpus, mode, params, seed: baselines.dt_train(corpus, mode=mode),
        {},
        lambda model, params, q: baselines.dt_predict(model, q, params.task_threshold),
    ),
    "rf": (
        lambda corpus, mode, params, seed, **h: baselines.rf_train(
            corpus, seed=seed, mode=mode, **h),
        {"n_trees": 100, "bootstrap": True, "max_features": None},
        lambda model, params, q: baselines.rf_predict(model, q, params.task_threshold),
    ),
    "logreg": (
        lambda corpus, mode, params, seed, **h: baselines.logreg_train(
            corpus, mode=mode, **h),
        {"learning_rate": 0.1, "l2": 1e-3, "epochs": 500},
        lambda model, params, q: baselines.logreg_predict(model, q, params.task_threshold),
    ),
}

METHODS = tuple(_REGISTRY)


def train_method(method: str, corpus: Corpus, mode: str = "family",
                 params: ActrParams | None = None, seed: int = 0,
                 hyper: dict | None = None) -> Predictor:
    """Train `method` on `corpus` and return its query -> Prediction closure.

    `params` carries the activation parameters and the shared task
    threshold; `hyper` overrides method-specific training knobs (rb/nb
    `smoothing`, rf `n_trees`/`bootstrap`/`max_features`, logreg
    `learning_rate`/`l2`/`epochs`); any other key is rejected.
    """
    if method not in _REGISTRY:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    train, defaults, predict = _REGISTRY[method]
    hyper = hyper or {}
    unknown = sorted(set(hyper) - set(defaults))
    if unknown:
        raise ValueError(f"unknown hyperparameters for {method}: {unknown}")
    params = params or ActrParams()
    model = train(corpus, mode, params, seed, **{**defaults, **hyper})
    return lambda q: predict(model, params, q)
