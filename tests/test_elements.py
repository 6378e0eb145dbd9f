import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksim import (
    CapacityError,
    FockKet,
    ModeRegister,
    ModeTransform,
    apply_circuit,
    bs_5050,
    bs_unbalanced,
    expand_bilinear_power,
    pbs,
    polarization_rotation,
)
from focksim.fock import _SQRT_FACT
from focksim.pdc import psi_n, singlet_form

TWIN = ModeRegister.polarized("a", "b")
TWO = ModeRegister([("a", "H"), ("b", "H")])


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_ket(rng: np.random.Generator, register: ModeRegister, terms: int = 4,
               max_photons: int = 6) -> FockKet:
    out = {}
    for _ in range(terms):
        occ = [0] * len(register)
        for _ in range(int(rng.integers(0, max_photons + 1))):
            occ[int(rng.integers(0, len(register)))] += 1
        out[tuple(occ)] = complex(rng.normal(), rng.normal())
    return FockKet(register, out).normalized()


class TestModeTransform:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            ModeTransform(TWO, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ModeTransform(TWO, np.eye(3))

    def test_identity_fixes_random_states(self):
        rng = np.random.Generator(np.random.Philox(1))
        ket = random_ket(rng, TWIN)
        assert ModeTransform(TWIN, np.eye(len(TWIN))).apply(ket).fidelity(ket) == pytest.approx(1.0)

    def test_register_mismatch_rejected(self):
        with pytest.raises(ValueError, match="register"):
            ModeTransform(TWO, np.eye(len(TWO))).apply(FockKet.vacuum(TWIN))


class TestBalancedSplitter:
    def test_single_photon_splits_evenly(self):
        out = bs_5050(TWO, "a", "b").apply(FockKet.basis(TWO, (1, 0)))
        inv = 1.0 / math.sqrt(2.0)
        assert out.amplitude((1, 0)) == pytest.approx(inv)
        assert out.amplitude((0, 1)) == pytest.approx(inv)

    def test_hong_ou_mandel_with_hadamard_convention(self):
        # two-operator expansion oracle: a -> (a+b)/sqrt2, b -> (a-b)/sqrt2
        # turns a^dag b^dag into (a^dag^2 - b^dag^2)/2, so |1,1> bunches
        inv = 1.0 / math.sqrt(2.0)
        hadamard = ModeTransform(TWO, np.array([[inv, inv], [inv, -inv]]))
        out = hadamard.apply(FockKet.basis(TWO, (1, 1)))
        assert out.amplitude((2, 0)) == pytest.approx(inv)
        assert out.amplitude((0, 2)) == pytest.approx(-inv)
        assert out.amplitude((1, 1)) == 0.0

    def test_twin_beam_output_coefficients(self):
        # full pattern of the mixed six-photon family after the splitter
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(20):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            m, n = math.cos(angle) / math.sqrt(2.0), math.sin(angle) / math.sqrt(2.0)
            ket = FockKet(
                TWIN,
                {(3, 0, 0, 3): m, (0, 3, 3, 0): -m, (1, 2, 2, 1): n, (2, 1, 1, 2): -n},
            )
            out = bs_5050(TWIN, "a", "b").apply(ket)
            s3 = math.sqrt(3.0)
            expected = {
                (3, 0, 0, 3): (m + 3 * n) / 4,
                (0, 3, 3, 0): -(m + 3 * n) / 4,
                (1, 2, 2, 1): (3 * m + n) / 4,
                (2, 1, 1, 2): -(3 * m + n) / 4,
                (3, 2, 0, 1): s3 * (m - n) / 4,
                (0, 1, 3, 2): -s3 * (m - n) / 4,
                (1, 0, 2, 3): s3 * (m - n) / 4,
                (2, 3, 1, 0): -s3 * (m - n) / 4,
            }
            for occ, value in expected.items():
                assert abs(out.amplitude(occ) - value) < 1e-12

    def test_double_pass_equals_matrix_square(self):
        # matrix-square oracle for composition
        rng = np.random.Generator(np.random.Philox(3))
        splitter = bs_5050(TWIN, "a", "b")
        ket = random_ket(rng, TWIN)
        twice = splitter.apply(splitter.apply(ket))
        squared = ModeTransform(TWIN, splitter.matrix @ splitter.matrix).apply(ket)
        assert twice.fidelity(squared) == pytest.approx(1.0)
        assert (twice - squared).norm < 1e-12

    def test_missing_partner_rejected(self):
        register = ModeRegister([("a", "H"), ("b", "V")])
        with pytest.raises(ValueError, match="polarization"):
            bs_5050(register, "a", "b")


class TestUnbalancedSplitter:
    REGISTER = ModeRegister([("a", "H"), ("c0", "H"), ("c1", "H")])

    def test_splitting_ratio(self):
        out = bs_unbalanced(self.REGISTER, "a", "c1", "c0", 2.0 / 3.0).apply(
            FockKet.basis(self.REGISTER, (1, 0, 0))
        )
        assert out.amplitude((0, 1, 0)) == pytest.approx(math.sqrt(2.0 / 3.0))
        assert out.amplitude((0, 0, 1)) == pytest.approx(math.sqrt(1.0 / 3.0))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.4])
    def test_transmission_range_enforced(self, bad):
        with pytest.raises(ValueError, match="transmission"):
            bs_unbalanced(self.REGISTER, "a", "c1", "c0", bad)

    def test_constructed_matrices_unitary_for_random_transmission(self):
        rng = np.random.Generator(np.random.Philox(4))
        for _ in range(100):
            t = float(rng.uniform(0.01, 0.99))
            element = bs_unbalanced(self.REGISTER, "a", "c1", "c0", t)
            deviation = np.max(np.abs(element.matrix @ element.matrix.conj().T - np.eye(3)))
            assert deviation < 1e-12


class TestPolarizationRotation:
    def test_zero_angle_is_identity(self):
        rng = np.random.Generator(np.random.Philox(5))
        ket = random_ket(rng, TWIN)
        out = polarization_rotation(TWIN, "b", 0.0).apply(ket)
        assert out.fidelity(ket) == pytest.approx(1.0)

    def test_quarter_turn_maps_singlet_to_parallel_pair(self):
        ket = psi_n(1)
        out = polarization_rotation(TWIN, "b", math.pi / 2.0).apply(ket)
        inv = 1.0 / math.sqrt(2.0)
        assert out.amplitude((1, 0, 1, 0)) == pytest.approx(inv)
        assert out.amplitude((0, 1, 0, 1)) == pytest.approx(inv)

    def test_norm_preserved_at_eighth_turn(self):
        out = polarization_rotation(TWIN, "b", math.pi / 4.0).apply(psi_n(3))
        assert abs(out.norm - 1.0) < 1e-12

    def test_missing_polarization_rejected(self):
        with pytest.raises(ValueError, match="H and V"):
            polarization_rotation(TWO, "a", 0.3)


class TestPolarizingSplitter:
    REGISTER = ModeRegister([("s", "H"), ("s", "V"), ("h", "H"), ("v", "V")])

    def test_horizontal_routes_to_h_output(self):
        ket = FockKet.basis(self.REGISTER, (1, 0, 0, 0))
        out = pbs(self.REGISTER, "s", "h", "v").apply(ket)
        assert out.amplitude((0, 0, 1, 0)) == pytest.approx(1.0)

    def test_vertical_routes_to_v_output(self):
        ket = FockKet.basis(self.REGISTER, (0, 1, 0, 0))
        out = pbs(self.REGISTER, "s", "h", "v").apply(ket)
        assert out.amplitude((0, 0, 0, 1)) == pytest.approx(1.0)

    def test_superposition_becomes_path_entangled(self):
        inv = 1.0 / math.sqrt(2.0)
        ket = FockKet(self.REGISTER, {(1, 0, 0, 0): inv, (0, 1, 0, 0): inv})
        out = pbs(self.REGISTER, "s", "h", "v").apply(ket)
        assert out.amplitude((0, 0, 1, 0)) == pytest.approx(inv)
        assert out.amplitude((0, 0, 0, 1)) == pytest.approx(inv)

    def test_colliding_outputs_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            pbs(self.REGISTER, "s", "h", "h")


class TestInvariants:
    def test_norm_preserved_for_random_unitaries(self):
        rng = np.random.Generator(np.random.Philox(6))
        registers = [
            ModeRegister([("m" + str(i), "H") for i in range(n)]) for n in (2, 3, 4, 8)
        ]
        for trial in range(500):
            register = registers[trial % len(registers)]
            transform = ModeTransform(register, random_unitary(rng, len(register)))
            ket = random_ket(rng, register, terms=3, max_photons=6)
            out = transform.apply(ket)
            assert abs(out.norm - ket.norm) < 1e-12

    def test_sequential_application_matches_matrix_product(self):
        rng = np.random.Generator(np.random.Philox(7))
        register = ModeRegister([("m" + str(i), "H") for i in range(4)])
        for _ in range(20):
            t1 = ModeTransform(register, random_unitary(rng, 4))
            t2 = ModeTransform(register, random_unitary(rng, 4))
            ket = random_ket(rng, register, terms=3, max_photons=4)
            sequential = t2.apply(t1.apply(ket))
            combined = ModeTransform(register, t1.matrix @ t2.matrix).apply(ket)
            assert (sequential - combined).norm < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_twin_beam_singlet_family_invariant_under_splitter(self, n):
        ket = psi_n(n)
        out = bs_5050(TWIN, "a", "b").apply(ket)
        assert out.fidelity(ket) > 1.0 - 1e-12

    def test_photon_number_conserved(self):
        rng = np.random.Generator(np.random.Philox(8))
        register = ModeRegister([("m" + str(i), "H") for i in range(5)])
        for _ in range(20):
            transform = ModeTransform(register, random_unitary(rng, 5))
            ket = random_ket(rng, register, terms=3, max_photons=5)
            out = transform.apply(ket)
            assert out.photon_expectation() == pytest.approx(
                ket.photon_expectation(), abs=1e-10
            )


def expansion_path_apply(transform: ModeTransform, ket: FockKet) -> FockKet:
    """``ModeTransform.apply`` as first written: every term re-runs the
    multinomial split of every occupied mode, and every sqrt-factorial
    factor, 1.0 included, is applied."""
    matrix = transform.matrix
    rows = tuple(
        tuple((int(j), matrix[i, j]) for j in np.flatnonzero(matrix[i]))
        for i in range(len(matrix))
    )
    out = {}
    zero = (0,) * len(rows)
    for occ, amp in ket.items():
        prefactor = amp
        for m in occ:
            prefactor /= _SQRT_FACT[m]
        partial = {zero: prefactor}
        for i, m in enumerate(occ):
            if m == 0:
                continue
            row = rows[i]
            expansions = []

            def split(entry, remaining, used, weight):
                j, r = row[entry]
                if entry == len(row) - 1:
                    w = weight * r**remaining / math.factorial(remaining)
                    expansions.append((tuple(used + [(j, remaining)]) if remaining else tuple(used), w))
                    return
                for k in range(remaining + 1):
                    w = weight * r**k / math.factorial(k)
                    split(entry + 1, remaining - k, used + [(j, k)] if k else used, w)

            split(0, m, [], complex(math.factorial(m)))
            grown = {}
            for powers, coeff in partial.items():
                for assignment, weight in expansions:
                    lifted = list(powers)
                    for j, k in assignment:
                        lifted[j] += k
                    key = tuple(lifted)
                    grown[key] = grown.get(key, 0.0) + coeff * weight
            partial = grown
        for powers, coeff in partial.items():
            value = coeff * math.prod(_SQRT_FACT[p] for p in powers)
            out[powers] = out.get(powers, 0.0) + value
    return FockKet(ket.register, out)


TRIPLE = ModeRegister.polarized("a", "r", "t")


@st.composite
def small_kets(draw):
    # up to four terms of up to six photons, each photon in a drawn mode
    terms = {}
    for photons in draw(st.lists(st.lists(st.integers(0, 5), max_size=6), min_size=1, max_size=4)):
        occ = [0] * len(TRIPLE)
        for mode in photons:
            occ[mode] += 1
        part = st.floats(-1.0, 1.0)
        terms[tuple(occ)] = complex(draw(part), draw(part))
    return FockKet(TRIPLE, terms)


transforms = st.one_of(
    st.builds(
        lambda t: bs_unbalanced(TRIPLE, "a", "r", "t", t), st.floats(0.01, 0.99)
    ),
    st.builds(
        lambda spatial, theta: polarization_rotation(TRIPLE, spatial, theta),
        st.sampled_from(("a", "r", "t")),
        st.floats(-math.pi, math.pi),
    ),
)


@settings(deadline=None)
@given(transform=transforms, ket=small_kets())
def test_apply_matches_expansion_path(transform, ket):
    # same keys in the same order and equal amplitudes; the transform is
    # applied twice so the second call reads the expansions the first built
    expected = list(expansion_path_apply(transform, ket).items())
    assert list(transform.apply(ket).items()) == expected
    assert list(transform.apply(ket).items()) == expected


def test_output_past_the_occupancy_cap_raises():
    # 16 photons in (a, b): the splitter can put all of them in one mode
    with pytest.raises(CapacityError):
        bs_5050(TWIN, "a", "b").apply(FockKet.basis(TWIN, (8, 0, 8, 0)))


def test_output_past_the_sqrt_factorial_table_raises():
    # 18 photons in (a, b): an output mode can receive more than the cap plus one
    with pytest.raises(CapacityError):
        bs_5050(TWIN, "a", "b").apply(FockKet.basis(TWIN, (9, 0, 9, 0)))
