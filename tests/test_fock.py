import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksim import (
    CapacityError,
    FockKet,
    ModeRegister,
    attach_probe,
    bs_5050,
    expand_bilinear_power,
    homodyne_condition,
)
from focksim.pdc import singlet_form

TWIN = ModeRegister.polarized("a", "b")
SINGLE = ModeRegister([("a", "H")])
TWO = ModeRegister([("a", "H"), ("b", "H")])


def brute_force_bilinear_power(form: dict, n: int, register: ModeRegister) -> dict:
    """Independent oracle: enumerate every ordered choice of form factors.

    Sums coefficients over all length-n factor sequences (the multinomial
    expansion written out one sequence at a time), then converts each
    creation monomial to its basis amplitude.
    """
    items = list(form.items())
    amplitudes: dict[tuple[int, ...], complex] = {}
    for combo in product(items, repeat=n):
        powers = [0] * len(register)
        coeff = 1.0 + 0.0j
        for (i, j), c in combo:
            powers[i] += 1
            powers[j] += 1
            coeff *= c
        key = tuple(powers)
        amplitudes[key] = amplitudes.get(key, 0.0) + coeff
    return {
        occ: coeff * math.prod(math.sqrt(math.factorial(p)) for p in occ)
        for occ, coeff in amplitudes.items()
        if coeff != 0.0
    }


def random_ket(rng: np.random.Generator, register: ModeRegister, terms: int = 6,
               max_photons: int = 4) -> FockKet:
    out = {}
    for _ in range(terms):
        occ = [0] * len(register)
        for _ in range(int(rng.integers(0, max_photons + 1))):
            occ[int(rng.integers(0, len(register)))] += 1
        out[tuple(occ)] = complex(rng.normal(), rng.normal())
    return FockKet(register, out).normalized()


class TestModeRegister:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ModeRegister([("a", "H"), ("a", "H")])

    def test_bad_polarization_rejected(self):
        with pytest.raises(ValueError, match="polarization"):
            ModeRegister([("a", "X")])

    def test_index_lookup(self):
        assert TWIN.index("a", "V") == 1
        assert TWIN.index("bH") == 2
        assert TWIN.spatial_indices("b") == (2, 3)
        with pytest.raises(ValueError):
            TWIN.index("c", "H")


class TestBilinearPower:
    def test_power_zero_gives_vacuum(self):
        out = expand_bilinear_power(singlet_form(TWIN), 0, TWIN)
        assert dict(out.items()) == {(0, 0, 0, 0): 1.0 + 0.0j}

    def test_single_pair_is_antisymmetric(self):
        out = expand_bilinear_power(singlet_form(TWIN), 1, TWIN).normalized()
        inv = 1.0 / math.sqrt(2.0)
        assert out.amplitude((1, 0, 0, 1)) == pytest.approx(inv)
        assert out.amplitude((0, 1, 1, 0)) == pytest.approx(-inv)

    def test_third_power_coefficients(self):
        expected = brute_force_bilinear_power(singlet_form(TWIN), 3, TWIN)
        out = expand_bilinear_power(singlet_form(TWIN), 3, TWIN)
        assert dict(out.items()) == expected
        normalized = out.normalized()
        assert normalized.amplitude((3, 0, 0, 3)) == pytest.approx(0.5)
        assert normalized.amplitude((2, 1, 1, 2)) == pytest.approx(-0.5)
        assert normalized.amplitude((1, 2, 2, 1)) == pytest.approx(0.5)
        assert normalized.amplitude((0, 3, 3, 0)) == pytest.approx(-0.5)

    @pytest.mark.parametrize("n", range(6))
    def test_norm_squared_counts_pair_orderings(self, n):
        out = expand_bilinear_power(singlet_form(TWIN), n, TWIN)
        expected = math.factorial(n) * math.factorial(n + 1)
        assert out.norm_squared == pytest.approx(expected, rel=1e-13)

    def test_power_above_capacity_rejected(self):
        with pytest.raises(CapacityError):
            expand_bilinear_power(singlet_form(TWIN), 9, TWIN)

    @pytest.mark.parametrize("n", range(5))
    def test_matches_enumeration_for_integer_forms(self, n):
        forms = [
            singlet_form(TWIN),
            {(0, 1): 2.0, (2, 3): -1.0, (0, 3): 1.0},
            {(0, 0): 1.0, (1, 2): 3.0j},
            {(0, 2): 1.0 + 1.0j, (1, 3): -2.0},
        ]
        for form in forms:
            expected = brute_force_bilinear_power(form, n, TWIN)
            got = dict(expand_bilinear_power(form, n, TWIN).items())
            assert got == expected

    def test_matches_enumeration_for_random_float_forms(self):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(10):
            pairs = {(0, 1), (0, 3), (1, 2), (2, 2)}
            form = {p: complex(rng.normal(), rng.normal()) for p in pairs}
            for n in range(1, 5):
                expected = brute_force_bilinear_power(form, n, TWIN)
                got = dict(expand_bilinear_power(form, n, TWIN).items())
                assert set(got) == set(expected)
                for occ, amp in expected.items():
                    assert got[occ] == pytest.approx(amp, rel=1e-12, abs=1e-12)

    def test_out_of_range_mode_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            expand_bilinear_power({(0, 7): 1.0}, 1, TWIN)


class TestInnerProduct:
    def test_normalized_self_overlap(self):
        rng = np.random.Generator(np.random.Philox(3))
        ket = random_ket(rng, TWIN)
        assert ket.inner(ket) == pytest.approx(1.0)

    def test_distinct_basis_kets_orthogonal(self):
        a = FockKet.basis(TWO, (1, 0))
        b = FockKet.basis(TWO, (0, 1))
        assert a.inner(b) == 0.0

    def test_conjugate_symmetry(self):
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(25):
            a = random_ket(rng, TWIN)
            b = random_ket(rng, TWIN)
            assert abs(a.inner(b) - b.inner(a).conjugate()) < 1e-14

    def test_register_mismatch_rejected(self):
        with pytest.raises(ValueError, match="register"):
            FockKet.vacuum(TWIN).inner(FockKet.vacuum(TWO))


class TestProjection:
    def test_full_support_projection_keeps_state(self):
        rng = np.random.Generator(np.random.Philox(5))
        ket = FockKet(TWO, {(1, 1): 1.0}).normalized()
        projected, probability = ket.project({"aH": 1, "bH": 1})
        assert probability == pytest.approx(1.0)
        assert projected.fidelity(ket) == pytest.approx(1.0)
        del rng

    def test_one_photon_per_mode_selection(self):
        ket = FockKet(TWO, {(2, 0): 1.0, (1, 1): 1.0}).normalized()
        projected, probability = ket.project({"aH": 1, "bH": 1})
        assert probability == pytest.approx(0.5)
        assert projected.amplitude((1, 1)) == pytest.approx(1.0)

    def test_spatial_group_constraint(self):
        ket = FockKet(TWIN, {(1, 1, 0, 0): 1.0, (2, 0, 0, 0): 1.0, (1, 0, 1, 0): 1.0})
        projected, probability = ket.project({"a": 2, "b": 0})
        assert probability == pytest.approx(2.0 / 3.0)
        assert len(projected) == 2

    def test_zero_probability_yields_empty_outcome(self):
        ket = FockKet.basis(TWO, (2, 0))
        projected, probability = ket.project({"aH": 1, "bH": 1})
        assert projected is None
        assert probability == 0.0


# "b" has only an H mode, so a spatial key can name a single mode
MIXED = ModeRegister([("a", "H"), ("a", "V"), ("b", "H"), ("c", "H"), ("c", "V")])


def closure_project(ket: FockKet, pattern: dict) -> tuple:
    """``FockKet.project`` as first written: a per-term closure over the constraints."""
    register = ket.register
    mode_constraints = []
    group_constraints = []
    for key, count in pattern.items():
        if key in register.labels:
            mode_constraints.append((register.index(key), int(count)))
        else:
            group_constraints.append((register.spatial_indices(key), int(count)))

    def matches(occ):
        for i, c in mode_constraints:
            if occ[i] != c:
                return False
        for idxs, c in group_constraints:
            if sum(occ[i] for i in idxs) != c:
                return False
        return True

    kept = {occ: amp for occ, amp in ket.items() if matches(occ)}
    total = ket.norm_squared
    if total == 0.0:
        return None, 0.0
    weight = sum(abs(a) ** 2 for a in kept.values())
    probability = weight / total
    if weight == 0.0:
        return None, 0.0
    scale = 1.0 / math.sqrt(weight)
    return FockKet(register, {o: a * scale for o, a in kept.items()}), probability


mixed_kets = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * len(MIXED)),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0, allow_infinity=False),
    min_size=4,
    max_size=40,
).map(lambda terms: FockKet(MIXED, terms))


@st.composite
def kets_and_patterns(draw):
    """A ket and a pattern read off one of its terms, maybe with one count redrawn.

    Each spatial mode is left free, constrained in total, or constrained
    mode by mode.
    """
    ket = draw(mixed_kets)
    occ = draw(st.sampled_from([occ for occ, _ in ket.items()]))
    pattern = {}
    for spatial in draw(st.permutations(list(dict.fromkeys(s for s, _ in MIXED.modes)))):
        indices = MIXED.spatial_indices(spatial)
        form = draw(st.sampled_from(["free", "total", "modes"]))
        if form == "total":
            pattern[spatial] = sum(occ[i] for i in indices)
        elif form == "modes":
            pattern.update((MIXED.labels[i], occ[i]) for i in indices)
    if pattern and draw(st.booleans()):
        pattern[draw(st.sampled_from(sorted(pattern)))] = draw(st.integers(0, 4))
    return ket, pattern


@settings(deadline=None)
@given(ket_and_pattern=kets_and_patterns())
def test_project_matches_closure_project(ket_and_pattern):
    # same kept terms in the same order, equal amplitudes, equal probability
    ket, pattern = ket_and_pattern
    expected, expected_probability = closure_project(ket, pattern)
    projected, probability = ket.project(pattern)
    assert probability == expected_probability
    if expected is None:
        assert projected is None
    else:
        assert list(projected.items()) == list(expected.items())


class TestTensorAndReshape:
    def test_restricted_drops_empty_modes_only(self):
        ket = FockKet(TWIN, {(1, 0, 0, 0): 1.0})
        reduced = ket.restricted(["a"])
        assert reduced.register.labels == ("aH", "aV")
        with pytest.raises(ValueError, match="occupied"):
            ket.restricted(["b"])

    def test_extended_appends_vacuum(self):
        ket = FockKet.basis(SINGLE, (2,))
        grown = ket.extended([("b", "H")])
        assert grown.amplitude((2, 0)) == pytest.approx(1.0)


class TestPruningAndNorm:
    def test_tiny_amplitudes_are_dropped(self):
        ket = FockKet(SINGLE, {(0,): 1.0, (1,): 1e-15})
        assert len(ket) == 1

    def test_occupancy_cap_enforced(self):
        with pytest.raises(CapacityError):
            FockKet.basis(SINGLE, (16,))

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            FockKet(SINGLE, {}).normalized()


class TestValidationAtPublicConstructors:
    @pytest.mark.parametrize(
        "occ, error",
        [((1, 0, 0), ValueError), ((1, -1, 0, 0), ValueError), ((16, 0, 0, 0), CapacityError)],
        ids=["wrong-length", "negative", "over-cap"],
    )
    def test_public_constructor_checks_every_occupation(self, occ, error):
        with pytest.raises(error):
            FockKet(TWIN, {(0, 0, 0, 0): 1.0, occ: 0.5})

    def test_internal_kets_store_python_complex(self):
        # numpy amplitudes in, and every operation's result holds complex
        ket = FockKet(TWIN, {(1, 0, 2, 0): np.float64(0.6), (0, 1, 0, 2): np.complex128(0.8j)})
        mixed = bs_5050(TWIN, "a", "b").apply(ket)
        projected, _ = mixed.project({"a": 1})
        only_a, _ = mixed.project({"b": 0})
        results = [
            ket,
            mixed,
            projected,
            projected.normalized(),
            only_a.restricted(["a"]),
            homodyne_condition(attach_probe(mixed, 3.0, 0.4), 5.0),
        ]
        for result in results:
            assert all(type(amp) is complex for _, amp in result.items())
