"""Synthetic corpus generator with controllable within-family overlap.

Families are carrier x payload constructions: each carrier owns a disjoint
pool of carrier attributes, each task a disjoint payload bundle, and a
family's attribute pool is its carrier pool plus the bundles of its tasks.
Two regimes:

  generate             one family per carrier, each performing
                       tasks_per_carrier distinct tasks (family
                       identification is easy; the knob is within-family
                       mutation);
  generate_single_task one shared carrier pool, one family per task
                       (families differ only in their payload bundle).

A regime only plans its families: one (family, tasks, payload attributes,
carrier attributes) entry each.  One sampler, `_generate`, draws every
plan from one seeded stream, builds the corpus, measures its overlap and
checks it against the target.  The single-task regime also hands it the
shared carrier pool, whose part of the core is drawn once, before any
family, so every family carries the same carrier signature.

Overlap control.  Every sample from a family draws a fixed "core" of k pool
attributes (always present) plus each of the remaining R = N - k pool
attributes independently with probability q, where N is the family pool
size.  For two samples A, B from the same family, using expectations,

    E|A & B| = k + R q**2          E|A| = E|B| = k + R q

so the expected pairwise Dice overlap  2|A & B| / (|A| + |B|)  is

    omega = (k + R q**2) / (k + R q).                                (*)

Fixing the policy q = omega / 2 (the variable part contributes half the
match rate) and substituting R = N - k gives the closed form

    k = N * omega**2 / (4 * (1 - omega) + omega**2)

which degenerates correctly at both ends: omega = 1 gives k = N (identical
samples), and small omega gives k ~ 0 with q ~ omega (pure Bernoulli
sampling whose Dice overlap is exactly q).  After flooring k to an integer,
q is re-solved exactly from (*), a quadratic in q:

    q**2 - omega q + k (1 - omega) / (N - k) = 0

taking the larger root (bigger samples, same overlap).  Flooring k can only
lower the constant term, so the discriminant stays nonnegative.  Feasible
targets are omega in [2/N, 1]; below that the expected sample would hold
fewer than two attributes.

Cores are payload-first: a family's payload attributes enter its core before
any carrier attributes.  This mirrors the generator this corpus imitates
(payload code is the stable part, the carrier mutates) and it is what makes
`encrypt_variant` informative; overlap targeting is unaffected because (*)
only depends on k, q, N.

`encrypt_variant` models payload encryption: each "payload:" token of every
sample is independently replaced, with the given probability, by a token
unique to that (sample, position), so replaced payload code matches nothing
else in the corpus.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .core import Corpus, Sample, attribute_matrix, build_corpus

DEFAULT_ENCRYPT_FRACTION = 0.6

PAYLOAD_PREFIX = "payload:"
CARRIER_PREFIX = "carrier:"


class GenerationError(ValueError):
    """The generation spec is infeasible or the realized corpus missed it."""


@dataclass(frozen=True)
class GenSpec:
    """Generation parameters.

    samples_per_family (at least 2) applies to every family;
    carrier_attr_pool and payload_attrs_per_task size the disjoint attribute
    pools; overlap_target is the expected within-family pairwise Dice overlap.
    """

    n_carriers: int = 5
    tasks_per_carrier: int = 7
    samples_per_family: int = 200
    carrier_attr_pool: int = 100
    payload_attrs_per_task: int = 5
    overlap_target: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if self.n_carriers < 1 or self.tasks_per_carrier < 1:
            raise GenerationError("need at least one carrier and one task each")
        if self.samples_per_family < 2:
            raise GenerationError("samples_per_family must be >= 2 to measure overlap")
        if self.carrier_attr_pool < 1 or self.payload_attrs_per_task < 1:
            raise GenerationError("attribute pools must be non-empty")
        if not 0.0 < self.overlap_target <= 1.0:
            raise GenerationError(
                f"overlap_target must be in (0, 1], got {self.overlap_target}"
            )


# The single-task regime's defaults (see generate_single_task): one carrier,
# 17 single-task families of 100 samples; the other fields are GenSpec's.
SINGLE_TASK_SPEC = GenSpec(n_carriers=1, tasks_per_carrier=17, samples_per_family=100)


@dataclass(frozen=True)
class GenReport:
    """Realized statistics of a generated corpus (measured pre-encryption)."""

    overlap_target: float
    within_family_overlap: float
    cross_family_overlap: float
    family_sizes: dict


OVERLAP_TOLERANCE = 0.05


def core_size_and_rate(pool_size: int, overlap_target: float) -> tuple:
    """Closed-form (k, q) hitting the expected Dice overlap (see module doc).

    Raises GenerationError with the feasible range when the target cannot be
    met for this pool size.
    """
    n = pool_size
    omega = overlap_target
    lo = 2.0 / n
    if not lo <= omega <= 1.0:
        raise GenerationError(
            f"overlap target {omega} infeasible for pool size {n}; "
            f"feasible range is [{lo:.4f}, 1.0]"
        )
    if omega >= 1.0:
        return n, 0.0
    k = math.floor(n * omega**2 / (4.0 * (1.0 - omega) + omega**2))
    c = k * (1.0 - omega) / (n - k)
    disc = omega**2 - 4.0 * c
    q = (omega + math.sqrt(max(disc, 0.0))) / 2.0
    return k, q


def _family_samples(rng: random.Random, family: str, n_samples: int,
                    payload_attrs: list, carrier_attrs: list,
                    k: int, q: float, tasks: frozenset,
                    carrier_core: list | None) -> list:
    """Draw one family's samples: payload-first core + Bernoulli(q) rest.

    carrier_core pins the carrier portion of the core (the single-task
    regime shares it across families); None draws it per family.
    """
    payload = sorted(payload_attrs)
    pool = payload + sorted(carrier_attrs)
    if k <= len(payload):
        core = rng.sample(payload, k)
    else:
        core = payload + (carrier_core if carrier_core is not None else
                          rng.sample(pool[len(payload):], k - len(payload)))
    core_set = frozenset(core)
    variable = [a for a in pool if a not in core_set]
    out = []
    for i in range(n_samples):
        attrs = set(core_set)
        for a in variable:
            if rng.random() < q:
                attrs.add(a)
        if not attrs:
            attrs.add(pool[rng.randrange(len(pool))])
        out.append(Sample(
            id=f"{family}.s{i:04d}",
            attribs=frozenset(attrs),
            family=family,
            tasks=tasks,
        ))
    return out


def measure_overlap(corpus: Corpus) -> tuple:
    """Mean pairwise Dice overlap (within families, across families)."""
    xf = attribute_matrix(corpus)[2].dense(np.float32)
    inter = xf @ xf.T
    sizes = xf.sum(axis=1)
    denom = sizes[:, None] + sizes[None, :]
    dice = 2.0 * inter / denom
    fam_ids = {f: i for i, f in enumerate(sorted(corpus.families))}
    fam = np.array([fam_ids[s.family] for s in corpus.samples])
    same = fam[:, None] == fam[None, :]
    upper = np.triu(np.ones_like(same, dtype=bool), k=1)
    within_mask = same & upper
    cross_mask = ~same & upper
    within = float(dice[within_mask].mean()) if within_mask.any() else 0.0
    cross = float(dice[cross_mask].mean()) if cross_mask.any() else 0.0
    return within, cross


def _generate(spec: GenSpec, pool_size: int, plans: list, shared: list | None = None) -> tuple:
    """Sample every planned family and measure the corpus: (corpus, report).

    Each plan is (family, tasks, payload attributes, carrier attributes).
    `shared` is a carrier pool every family shares: the carrier part of the
    core is then drawn from it once, before any family, and pinned for all.
    """
    rng = random.Random(spec.seed)
    k, q = core_size_and_rate(pool_size, spec.overlap_target)
    carrier_core = (None if shared is None else
                    rng.sample(shared, max(0, k - spec.payload_attrs_per_task)))
    samples = [s for family, tasks, payload_attrs, carrier_attrs in plans
               for s in _family_samples(rng, family, spec.samples_per_family,
                                        payload_attrs, carrier_attrs, k, q, tasks,
                                        carrier_core)]
    families = {family: tasks for family, tasks, _, _ in plans}
    corpus = build_corpus(samples, families)
    within, cross = measure_overlap(corpus)
    if abs(within - spec.overlap_target) > OVERLAP_TOLERANCE:
        raise GenerationError(
            f"realized within-family overlap {within:.4f} missed the target "
            f"{spec.overlap_target} by more than {OVERLAP_TOLERANCE}"
        )
    return corpus, GenReport(
        overlap_target=spec.overlap_target,
        within_family_overlap=within,
        cross_family_overlap=cross,
        family_sizes={f: len(corpus.members(f)) for f in families},
    )


def generate(spec: GenSpec) -> tuple:
    """Distinct-carriers regime: one family per carrier, disjoint pools.

    Returns (corpus, report).  Family c{i} performs tasks c{i}.t{j}; carrier
    and payload attribute pools are disjoint across families and tasks.
    """
    tasks = range(spec.tasks_per_carrier)
    plans = [(f"c{c}", frozenset(f"c{c}.t{t}" for t in tasks),
              [f"{PAYLOAD_PREFIX}c{c}.t{t}.p{i}"
               for t in tasks for i in range(spec.payload_attrs_per_task)],
              [f"{CARRIER_PREFIX}c{c}.a{i}" for i in range(spec.carrier_attr_pool)])
             for c in range(spec.n_carriers)]
    return _generate(spec, spec.carrier_attr_pool
                     + spec.tasks_per_carrier * spec.payload_attrs_per_task, plans)


def generate_single_task(spec: GenSpec) -> tuple:
    """Single-task regime: one shared carrier pool, one family per task.

    Returns (corpus, report), like `generate`.  Requires spec.n_carriers ==
    1; tasks_per_carrier counts the single-task families.  Families differ
    only in their payload bundle, so the payload is the entire
    discriminative signal: every family draws the same always-present
    carrier core.
    """
    if spec.n_carriers != 1:
        raise GenerationError(
            f"single-task regime uses one carrier, got n_carriers={spec.n_carriers}"
        )
    carrier_attrs = [f"{CARRIER_PREFIX}c0.a{i}" for i in range(spec.carrier_attr_pool)]
    plans = [(f"f{t:02d}", frozenset((f"t{t:02d}",)),
              [f"{PAYLOAD_PREFIX}t{t:02d}.p{i}" for i in range(spec.payload_attrs_per_task)],
              carrier_attrs)
             for t in range(spec.tasks_per_carrier)]
    return _generate(spec, spec.carrier_attr_pool + spec.payload_attrs_per_task,
                     plans, shared=carrier_attrs)


def encrypt_variant(corpus: Corpus, fraction: float = DEFAULT_ENCRYPT_FRACTION,
                    seed: int = 0) -> Corpus:
    """Replace payload tokens with per-sample-unique obfuscated tokens.

    Each "payload:" token is replaced independently with probability
    `fraction`; fraction=1 leaves no payload token standing.  Labels and
    attribute counts are preserved.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = random.Random(seed)
    new_samples = []
    for s in corpus.samples:
        attrs = set(s.attribs)
        for j, a in enumerate(sorted(x for x in s.attribs if x.startswith(PAYLOAD_PREFIX))):
            if rng.random() < fraction:
                attrs.discard(a)
                attrs.add(f"enc:{s.id}.{j}")
        new_samples.append(Sample(s.id, frozenset(attrs), s.family, s.tasks))
    return build_corpus(new_samples, corpus.families)
