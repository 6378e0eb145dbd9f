import math
from itertools import product

import pytest

from focksim import (
    CapacityError,
    ModeRegister,
    bs_5050,
    psi_n,
    singlet_form,
    six_photon_mixture,
    squeezed_weights,
)

TWIN = ModeRegister.polarized("a", "b")


def brute_force_singlet_power(n: int) -> dict:
    """Sequence-enumeration oracle for the antisymmetric pair power."""
    items = list(singlet_form(TWIN).items())
    amplitudes: dict[tuple[int, ...], complex] = {}
    for combo in product(items, repeat=n):
        powers = [0, 0, 0, 0]
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


class TestPairStates:
    def test_zeroth_order_is_vacuum(self):
        state = psi_n(0)
        assert dict(state.items()) == {(0, 0, 0, 0): 1.0 + 0.0j}

    def test_first_order_antisymmetric_pair(self):
        state = psi_n(1)
        inv = 1.0 / math.sqrt(2.0)
        assert state.amplitude((1, 0, 0, 1)) == pytest.approx(inv)
        assert state.amplitude((0, 1, 1, 0)) == pytest.approx(-inv)

    def test_third_order_matches_enumeration(self):
        expected = brute_force_singlet_power(3)
        norm = math.sqrt(sum(abs(a) ** 2 for a in expected.values()))
        state = psi_n(3)
        for occ, amp in expected.items():
            assert state.amplitude(occ) == pytest.approx(amp / norm)
        assert state.amplitude((3, 0, 0, 3)) == pytest.approx(0.5)
        assert state.amplitude((2, 1, 1, 2)) == pytest.approx(-0.5)

    def test_order_capacity(self):
        with pytest.raises(CapacityError):
            psi_n(6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_splitter_invariance(self, n):
        state = psi_n(n)
        out = bs_5050(TWIN, "a", "b").apply(state)
        assert out.fidelity(state) > 1.0 - 1e-12


class TestSqueezedWeights:
    def test_zero_interaction_is_vacuum(self):
        expansion = squeezed_weights(0.0, 10)
        # tanh(0)**1 is 0.0, so the weights stop after order 0
        assert expansion.weights == (1.0,)
        assert expansion.mean_photons_per_arm == 0.0

    def test_weights_follow_closed_form(self):
        tau = 0.37
        expansion = squeezed_weights(tau, 12)
        for n, w in enumerate(expansion.weights):
            expected = math.sqrt(n + 1.0) * math.tanh(tau) ** n / math.cosh(tau) ** 2
            assert w == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("tau", [0.1, 0.3, 0.5])
    def test_truncated_norm_approaches_one(self, tau):
        # geometric-series oracle: sum (n+1) x^n = (1-x)^-2 at x = tanh^2
        expansion = squeezed_weights(tau, 80)
        x = math.tanh(tau) ** 2
        closed = 1.0 / ((1.0 - x) ** 2 * math.cosh(tau) ** 4)
        assert closed == pytest.approx(1.0, abs=1e-14)
        assert expansion.truncated_norm == pytest.approx(1.0, abs=1e-10)

    def test_mean_photons_matches_weighted_sum(self):
        # the closed form counts photons per arm, i.e. the mean order n
        tau = 0.5
        expansion = squeezed_weights(tau, 200)
        per_arm = sum(n * p for n, p in enumerate(expansion.probabilities))
        assert expansion.mean_photons_per_arm == pytest.approx(per_arm, abs=1e-10)
        assert expansion.mean_photons_per_arm == pytest.approx(2.0 * math.sinh(tau) ** 2)

    def test_truncation_tail_bound(self):
        for tau in (0.2, 0.4, 0.5):
            for n_max in (5, 10, 20):
                expansion = squeezed_weights(tau, n_max)
                x = math.tanh(tau) ** 2
                bound = (n_max + 2) * x ** (n_max + 1) / (1.0 - x) ** 2 / math.cosh(tau) ** 4
                exact_tail = x ** (n_max + 1) * ((n_max + 2) * (1.0 - x) + x)
                assert exact_tail < bound
                summed_tail = 1.0 - expansion.truncated_norm
                if bound > 1e-12:
                    assert summed_tail < bound
                assert summed_tail == pytest.approx(exact_tail, abs=1e-14)

    def test_negative_interaction_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            squeezed_weights(-0.1, 5)


class TestSixPhotonMixture:
    def test_single_process_limit(self):
        mixture = six_photon_mixture(1.0)
        assert mixture.amps[0] == 1.0
        assert mixture.amps[1] == 0.0
        assert mixture.amps[2] == 0.0

    def test_two_process_limit(self):
        mixture = six_photon_mixture(2.0)
        inv = 1.0 / math.sqrt(2.0)
        assert mixture.amps[0].real == pytest.approx(inv)
        assert mixture.amps[1].real == pytest.approx(inv)
        assert mixture.amps[2] == 0.0

    @pytest.mark.parametrize("k", [1.0, 1.5, 2.0, 3.0, 10.0, 1e6])
    def test_squares_sum_to_one(self, k):
        # polynomial identity oracle: 6 + 6(k-1) + (k-1)(k-2) = (k+1)(k+2)
        assert 6.0 + 6.0 * (k - 1.0) + (k - 1.0) * (k - 2.0) == pytest.approx(
            (k + 1.0) * (k + 2.0), rel=1e-15
        )
        mixture = six_photon_mixture(k)
        assert sum(mixture.squared) == pytest.approx(1.0, abs=1e-12)

    def test_intermediate_ratio_has_imaginary_component(self):
        mixture = six_photon_mixture(1.5)
        assert mixture.amps[2].real == 0.0
        assert mixture.amps[2].imag != 0.0
        assert mixture.squared[2] < 0.0

    def test_many_process_limit(self):
        mixture = six_photon_mixture(1e6)
        assert abs(mixture.amps[0]) < 1e-5
        assert abs(mixture.amps[2]) == pytest.approx(1.0, abs=1e-5)

    def test_below_unity_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            six_photon_mixture(0.5)

    @pytest.mark.parametrize("k", [1e200, 1e308])
    def test_overflowing_ratio_is_a_capacity_error(self, k):
        # (k + 1)(k + 2) overflows; the amplitudes would read nan
        with pytest.raises(CapacityError, match="k="):
            six_photon_mixture(k)

    def test_largest_finite_results_keep_their_bits(self):
        mixture = six_photon_mixture(1e150)
        denom = (1e150 + 1.0) * (1e150 + 2.0)
        assert mixture.amps[0] == complex(math.sqrt(6.0 / denom))
        assert all(math.isfinite(abs(a)) for a in mixture.amps)
