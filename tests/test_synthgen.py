"""Synthetic corpus generator: overlap targeting, regimes, obfuscation."""

import math
import random
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taskinfer.synthgen import (
    CARRIER_PREFIX,
    DEFAULT_ENCRYPT_FRACTION,
    OVERLAP_TOLERANCE,
    PAYLOAD_PREFIX,
    GenerationError,
    GenSpec,
    core_size_and_rate,
    encrypt_variant,
    generate,
    generate_single_task,
    measure_overlap,
)


class TestCoreSizeAndRate:
    def test_frozen_values_for_the_default_pool(self):
        # n = 100, target 0.6: k = floor(100 * 0.36 / (4*0.4 + 0.36)) = 18,
        # then q solves the quadratic for the residual pool of 82.
        k, q = core_size_and_rate(100, 0.6)
        assert k == 18
        assert q == pytest.approx(0.34685212856658165, abs=1e-12)

    def test_boundary_targets(self):
        # Minimum feasible target 2/n: empty core, q = target exactly.
        assert core_size_and_rate(100, 0.02) == (0, 0.02)
        # Full overlap: the whole pool is core, nothing varies.
        assert core_size_and_rate(100, 1.0) == (100, 0.0)

    def test_solution_satisfies_the_expected_dice_identity(self):
        # E[Dice] for core k and Bernoulli(q) over the remaining R attributes
        # is (k + R q^2) / (k + R q); the returned pair must reproduce the
        # target up to the flooring of k.
        for n in (50, 100, 333):
            for omega in (0.1, 0.25, 0.5, 0.6, 0.75, 0.9):
                if omega < 2.0 / n:
                    continue
                k, q = core_size_and_rate(n, omega)
                r = n - k
                expected = (k + r * q * q) / (k + r * q) if r else 1.0
                assert expected == pytest.approx(omega, abs=0.01)
                assert 0.0 <= q <= 1.0

    def test_infeasible_targets_name_the_range(self):
        with pytest.raises(GenerationError, match="feasible range"):
            core_size_and_rate(100, 0.001)
        with pytest.raises(GenerationError, match="feasible range"):
            core_size_and_rate(100, 1.5)


_INT_FIELDS = ("n_carriers", "tasks_per_carrier", "samples_per_family", "carrier_attr_pool",
               "payload_attrs_per_task", "seed")


def _assert_refused_by_name(name, value):
    with pytest.raises(GenerationError) as exc:
        GenSpec(**{name: value})
    want = "an int" if name != "overlap_target" else "a real number"
    assert str(exc.value) == f"{name} must be {want}, got {value!r}"


class TestGenSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_carriers": 0},
            {"tasks_per_carrier": 0},
            {"samples_per_family": 0},
            {"samples_per_family": 1},
            {"carrier_attr_pool": 0},
            {"payload_attrs_per_task": 0},
            {"overlap_target": 0.0},
            {"overlap_target": 1.2},
        ],
    )
    def test_rejects_degenerate_specs(self, kwargs):
        with pytest.raises(GenerationError):
            GenSpec(**kwargs)

    @given(name=st.sampled_from(_INT_FIELDS + ("overlap_target",)), data=st.data())
    def test_an_ill_typed_field_is_refused_by_name(self, name, data):
        # A count or seed that is not an int, and an overlap_target that is not
        # a real number, raise before any comparison does; a bool is neither.
        ill = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                        st.complex_numbers(allow_nan=False),
                        st.lists(st.integers(), max_size=2),
                        st.decimals(allow_nan=False, allow_infinity=False))
        if name != "overlap_target":
            ill |= st.floats() | st.fractions()
        _assert_refused_by_name(name, data.draw(ill))

    @pytest.mark.parametrize("name,value", [
        ("n_carriers", 2.5), ("samples_per_family", 3.0),         # a TypeError from range
        ("carrier_attr_pool", "10"), ("payload_attrs_per_task", None),   # one from <
        ("tasks_per_carrier", True), ("overlap_target", True), ("seed", 1.5)])  # accepted
    def test_values_that_failed_late_or_passed_are_refused_by_name(self, name, value):
        _assert_refused_by_name(name, value)

    @pytest.mark.parametrize("kwargs", [{"n_carriers": np.int64(2)},
                                        {"overlap_target": np.float32(0.5)},
                                        {"overlap_target": 1}, {"seed": -3}])
    def test_accepts_numpy_and_int_values(self, kwargs):
        GenSpec(**kwargs)


SMALL = GenSpec(n_carriers=5, tasks_per_carrier=3, samples_per_family=30,
                carrier_attr_pool=50, payload_attrs_per_task=4,
                overlap_target=0.6, seed=5)


class TestGenerate:
    def test_shape_and_labeling(self):
        corpus, report = generate(SMALL)
        assert corpus.size == 5 * 30
        assert sorted(corpus.families) == [f"c{i}" for i in range(5)]
        for i in range(5):
            assert corpus.families[f"c{i}"] == frozenset(
                f"c{i}.t{j}" for j in range(3)
            )
        assert report.family_sizes == {f"c{i}": 30 for i in range(5)}
        for s in corpus.samples:
            assert s.attribs
            for a in s.attribs:
                assert a.startswith((CARRIER_PREFIX, PAYLOAD_PREFIX))

    def test_within_family_overlap_hits_the_target(self):
        corpus, report = generate(SMALL)
        within, cross = measure_overlap(corpus)
        assert within == pytest.approx(report.within_family_overlap, abs=1e-9)
        assert abs(within - SMALL.overlap_target) <= OVERLAP_TOLERANCE

    def test_disjoint_carriers_never_overlap(self):
        _, report = generate(SMALL)
        assert report.cross_family_overlap == 0.0

    @pytest.mark.parametrize("omega", [0.2, 0.4, 0.8])
    def test_targeting_across_the_feasible_range(self, omega):
        spec = GenSpec(n_carriers=2, tasks_per_carrier=3, samples_per_family=40,
                       carrier_attr_pool=60, payload_attrs_per_task=4,
                       overlap_target=omega, seed=11)
        _, report = generate(spec)
        assert abs(report.within_family_overlap - omega) <= 0.02

    def test_same_seed_reproduces_the_corpus(self):
        a, ra = generate(SMALL)
        b, rb = generate(SMALL)
        assert a == b
        assert ra == rb

    def test_different_seeds_differ(self):
        a, _ = generate(SMALL)
        b, _ = generate(GenSpec(**{**SMALL.__dict__, "seed": 6}))
        assert a != b

    def test_report_to_dict_fields(self):
        _, report = generate(SMALL)
        d = asdict(report)
        assert set(d) == {"overlap_target", "within_family_overlap",
                          "cross_family_overlap", "family_sizes"}

    def test_encrypted_spec_obfuscates_after_measurement(self):
        clean, report = generate(SMALL)
        corpus = encrypt_variant(clean, DEFAULT_ENCRYPT_FRACTION, seed=SMALL.seed)
        # The report reflects the clean corpus; the encrypted one is obfuscated.
        assert abs(report.within_family_overlap - 0.6) <= OVERLAP_TOLERANCE
        assert any(a.startswith("enc:") for s in corpus.samples for a in s.attribs)
        assert measure_overlap(corpus)[0] < report.within_family_overlap

    # Three attributes at overlap 0.7 give an empty core (k = 0) and q = 0.7,
    # so a sample misses all three draws with probability 0.3**3.
    SPARSE = GenSpec(n_carriers=1, tasks_per_carrier=1, carrier_attr_pool=1,
                     payload_attrs_per_task=2, overlap_target=0.7,
                     samples_per_family=200, seed=2)

    def test_a_sample_that_draws_no_attribute_takes_one_from_the_pool(self, monkeypatch):
        fallbacks = []                  # randrange is the fallback's draw alone
        randrange = random.Random.randrange
        monkeypatch.setattr(random.Random, "randrange",
                            lambda rng, *args: fallbacks.append(args) or randrange(rng, *args))
        corpus, report = generate(self.SPARSE)
        assert fallbacks == [(3,)] * 4
        assert all(s.attribs for s in corpus.samples)
        assert report.within_family_overlap == pytest.approx(0.6649, abs=5e-5)

    def test_a_realized_overlap_off_its_target_raises(self):
        with pytest.raises(GenerationError, match=(
                r"^realized within-family overlap 0\.5000 missed the target 0\.7 "
                r"by more than 0\.05$")):
            generate(replace(self.SPARSE, samples_per_family=2, seed=0))


SINGLE = GenSpec(n_carriers=1, tasks_per_carrier=5, samples_per_family=20,
                 carrier_attr_pool=100, payload_attrs_per_task=12,
                 overlap_target=0.6, seed=3)


def _always_present_carrier_attrs(corpus, family):
    core = None
    for i in corpus.members(family):
        carr = {a for a in corpus.samples[i].attribs if a.startswith(CARRIER_PREFIX)}
        core = carr if core is None else core & carr
    return frozenset(core)


class TestGenerateSingleTask:
    def test_shape_one_family_per_task(self):
        corpus, _ = generate_single_task(SINGLE)
        assert corpus.size == 5 * 20
        assert sorted(corpus.families) == [f"f{t:02d}" for t in range(5)]
        for t in range(5):
            assert corpus.families[f"f{t:02d}"] == frozenset({f"t{t:02d}"})

    def test_families_share_one_carrier_core(self):
        # Single carrier: the always-present carrier signature is identical
        # across families, so only payload separates them.
        corpus, _ = generate_single_task(SINGLE)
        cores = {_always_present_carrier_attrs(corpus, f) for f in corpus.families}
        assert len(cores) == 1
        (core,) = cores
        k, _ = core_size_and_rate(
            SINGLE.carrier_attr_pool + SINGLE.payload_attrs_per_task,
            SINGLE.overlap_target,
        )
        assert len(core) == k - SINGLE.payload_attrs_per_task

    def test_cross_family_overlap_is_high(self):
        corpus, _ = generate_single_task(SINGLE)
        within, cross = measure_overlap(corpus)
        assert abs(within - 0.6) <= OVERLAP_TOLERANCE
        assert cross > 0.25  # shared carrier; payloads disjoint

    def test_requires_exactly_one_carrier(self):
        with pytest.raises(GenerationError, match="single-task regime"):
            generate_single_task(GenSpec(**{**SINGLE.__dict__, "n_carriers": 2}))

    def test_deterministic(self):
        assert generate_single_task(SINGLE) == generate_single_task(SINGLE)


class TestEncryptVariant:
    def test_full_fraction_leaves_no_payload_tokens(self):
        corpus, _ = generate_single_task(SINGLE)
        enc = encrypt_variant(corpus, 1.0, seed=9)
        for s in enc.samples:
            assert not any(a.startswith(PAYLOAD_PREFIX) for a in s.attribs)

    def test_replacements_preserve_counts_labels_and_ids(self):
        corpus, _ = generate_single_task(SINGLE)
        enc = encrypt_variant(corpus, 1.0, seed=9)
        assert enc.families == corpus.families
        for before, after in zip(corpus.samples, enc.samples):
            assert after.id == before.id
            assert after.family == before.family
            assert after.tasks == before.tasks
            assert len(after.attribs) == len(before.attribs)
            fresh = {a for a in after.attribs if a.startswith("enc:")}
            # Obfuscated tokens are unique to the sample that carries them.
            assert all(a.startswith(f"enc:{before.id}.") for a in fresh)

    def test_carrier_attributes_are_untouched(self):
        corpus, _ = generate_single_task(SINGLE)
        enc = encrypt_variant(corpus, 1.0, seed=9)
        for before, after in zip(corpus.samples, enc.samples):
            carrier = {a for a in before.attribs if a.startswith(CARRIER_PREFIX)}
            assert carrier <= after.attribs

    def test_half_fraction_survival_rate(self):
        corpus, _ = generate_single_task(SINGLE)
        total = sum(1 for s in corpus.samples for a in s.attribs
                    if a.startswith(PAYLOAD_PREFIX))
        enc = encrypt_variant(corpus, 0.5, seed=9)
        survived = sum(1 for s in enc.samples for a in s.attribs
                       if a.startswith(PAYLOAD_PREFIX))
        assert total > 1000
        assert survived / total == pytest.approx(0.5, abs=0.05)

    def test_negligible_fraction_is_an_identity(self):
        corpus, _ = generate_single_task(SINGLE)
        assert encrypt_variant(corpus, 1e-15, seed=9) == corpus

    def test_deterministic_per_seed(self):
        corpus, _ = generate_single_task(SINGLE)
        assert encrypt_variant(corpus, 0.5, seed=4) == encrypt_variant(
            corpus, 0.5, seed=4
        )
        assert encrypt_variant(corpus, 0.5, seed=4) != encrypt_variant(
            corpus, 0.5, seed=5
        )

    def test_default_fraction_is_partial(self):
        assert 0.0 < DEFAULT_ENCRYPT_FRACTION < 1.0
        corpus, _ = generate_single_task(SINGLE)
        enc = encrypt_variant(corpus, DEFAULT_ENCRYPT_FRACTION, seed=2)
        kept = sum(1 for s in enc.samples for a in s.attribs
                   if a.startswith(PAYLOAD_PREFIX))
        assert kept > 0  # partial, not total, obfuscation

    def test_rejects_out_of_range_fractions(self):
        corpus, _ = generate_single_task(SINGLE)
        for frac in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError, match="fraction"):
                encrypt_variant(corpus, frac)
