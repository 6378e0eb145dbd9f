"""Acceptance suite: every criterion runs at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import integrate

from focksim import (
    CoefficientPair,
    FockKet,
    ModeRegister,
    apply_cross_kerr,
    apply_probe_phase,
    attach_probe,
    bs_5050,
    build_psi_theta,
    cascade_closed_form,
    cascade_simulate,
    decode_table,
    detect,
    discrimination_error,
    expand_bilinear_power,
    ghz_circuit,
    ghz_state,
    homodyne_condition,
    make_rng,
    midpoint_threshold,
    psi_n,
    psi_theta_reference,
    sample_ghz_circuit,
    singlet_form,
    six_photon_mixture,
    squeezed_weights,
    tagged_circuit_state,
    twin_beam_register,
    twin_beam_state,
    w_pair_state,
)

ALPHA, THETA = 1000.0, 0.1


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL  {description}")
        raise
    print(f"criterion {number} PASS  {description}")


def random_pairs(count: int, seed: int):
    rng = np.random.Generator(np.random.Philox(seed))
    for _ in range(count):
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        yield CoefficientPair(
            math.cos(angle) / math.sqrt(2.0), math.sin(angle) / math.sqrt(2.0)
        )


def test_criterion_1_balanced_splitter_coefficients():
    with criterion(1, "balanced splitter output coefficients, 100 random pairs"):
        splitter = bs_5050(twin_beam_register, "a", "b")
        s3 = math.sqrt(3.0)
        worst = 0.0
        for pair in random_pairs(100, seed=101):
            m, n = pair.m, pair.n
            out = splitter.apply(twin_beam_state(pair))
            expected = {
                (3, 0, 0, 3): (m + 3 * n) / 4.0,
                (0, 3, 3, 0): -(m + 3 * n) / 4.0,
                (1, 2, 2, 1): (3 * m + n) / 4.0,
                (2, 1, 1, 2): -(3 * m + n) / 4.0,
                (3, 2, 0, 1): s3 * (m - n) / 4.0,
                (0, 1, 3, 2): -s3 * (m - n) / 4.0,
                (1, 0, 2, 3): s3 * (m - n) / 4.0,
                (2, 3, 1, 0): -s3 * (m - n) / 4.0,
            }
            for occ, value in expected.items():
                worst = max(worst, abs(out.amplitude(occ) - value))
        assert worst < 1e-12


def test_criterion_2_cascade_ratio_sequence():
    with criterion(2, "cascade ratios from (0, 1/sqrt2), closed form vs simulation"):
        pair0 = CoefficientPair(0.0, 1.0 / math.sqrt(2.0))
        run = cascade_simulate(pair0, 10)
        state = twin_beam_state(pair0)
        for k in range(1, 11):
            step = cascade_closed_form(pair0, k)
            exact = Fraction(1) - Fraction(-1, 2) ** k
            exact /= Fraction(1) + Fraction(-1, 2) ** k
            assert abs(step.ratio - float(exact)) < 1e-12
            outcome = detect(state, ALPHA, THETA, force="symmetric")
            state = outcome.state
            simulated = twin_beam_state(step.normalized_pair)
            assert (state - simulated).norm < 1e-12
            simulated_ratio = (
                state.amplitude((3, 0, 0, 3)).real / state.amplitude((1, 2, 2, 1)).real
            )
            assert abs(simulated_ratio - step.ratio) < 1e-12
        final_ratio = cascade_closed_form(pair0, 10).ratio
        assert abs(abs(final_ratio - 1.0) - 2.0 / 1025.0) < 1e-12
        assert abs(final_ratio - 1.0) < 2e-3
        assert run.step_probabilities[0] == pytest.approx(5.0 / 8.0, abs=1e-12)


def _tagged_detector_state(pair: CoefficientPair):
    mixed = bs_5050(twin_beam_register, "a", "b").apply(twin_beam_state(pair))
    tagged = attach_probe(mixed, ALPHA, THETA)
    tagged = apply_cross_kerr(tagged, (2, 2, 1, 1))
    return apply_probe_phase(tagged, -9)


def test_criterion_3_homodyne_conditioning_states():
    with criterion(3, "peak-centre conditioning and asymmetric-branch repair"):
        for pair in (CoefficientPair(1.0 / math.sqrt(2.0), 0.0),
                     CoefficientPair(0.6, math.sqrt(0.5 - 0.36))):
            m, n = pair.m, pair.n
            tagged = _tagged_detector_state(pair)

            symmetric = homodyne_condition(tagged, 2.0 * ALPHA)
            norm = math.sqrt(10.0 + 24.0 * m * n)
            symmetric_target = FockKet(
                twin_beam_register,
                {
                    (3, 0, 0, 3): (m + 3 * n) / norm,
                    (0, 3, 3, 0): -(m + 3 * n) / norm,
                    (1, 2, 2, 1): (3 * m + n) / norm,
                    (2, 1, 1, 2): -(3 * m + n) / norm,
                },
            )
            assert symmetric.fidelity(symmetric_target) >= 1.0 - 1e-6

            x = 2.0 * ALPHA * math.cos(THETA)
            phased = homodyne_condition(tagged, x)
            phi = ALPHA * math.sin(THETA) * (x - 2.0 * ALPHA * math.cos(THETA))
            plus = 0.5 * complex(math.cos(phi), math.sin(phi))
            minus = 0.5 * complex(math.cos(phi), -math.sin(phi))
            sign = math.copysign(1.0, m - n)
            phased_target = FockKet(
                twin_beam_register,
                {
                    (3, 2, 0, 1): sign * plus,
                    (2, 3, 1, 0): -sign * plus,
                    (1, 0, 2, 3): sign * minus,
                    (0, 1, 3, 2): -sign * minus,
                },
            )
            assert phased.fidelity(phased_target) >= 1.0 - 1e-6

            repaired = detect(twin_beam_state(pair), ALPHA, THETA, force="asymmetric")
            repaired_target = FockKet(
                twin_beam_register,
                {
                    (3, 2, 0, 1): 0.5, (0, 1, 3, 2): -0.5,
                    (1, 0, 2, 3): 0.5, (2, 3, 1, 0): -0.5,
                },
            )
            assert repaired.state.fidelity(repaired_target) >= 1.0 - 1e-9


def test_criterion_4_discrimination_error_formula():
    with criterion(4, "misassignment error vs tail quadrature on the parameter grid"):
        for alpha, theta in product((10.0, 100.0, 1000.0), (0.05, 0.1, 0.3)):
            center = 2.0 * alpha * math.cos(theta)
            threshold = midpoint_threshold(alpha, theta)
            tail, _ = integrate.quad(
                lambda x: math.exp(-0.5 * (x - center) ** 2) / math.sqrt(2.0 * math.pi),
                threshold,
                threshold + 80.0,
            )
            value = discrimination_error(alpha, theta)
            if max(abs(value), abs(tail)) == 0.0:
                continue  # both underflow identically far in the tail
            assert abs(value - tail) / max(abs(value), abs(tail)) < 1e-6


def test_criterion_5_prepared_state_structure():
    with criterion(5, "six-mode preparation weights and reference fidelity grid"):
        state = build_psi_theta(math.pi / 2.0).state
        assert abs(state.fidelity(ghz_state()) - 0.5) <= 1e-10
        assert abs(state.fidelity(w_pair_state(False)) - 0.25) <= 1e-10
        assert abs(state.fidelity(w_pair_state(True)) - 0.25) <= 1e-10
        for theta in np.linspace(0.0, math.pi / 2.0, 20):
            result = build_psi_theta(float(theta))
            assert result.state.fidelity(psi_theta_reference(float(theta))) >= 1.0 - 1e-10


def test_criterion_6_ghz_branches_and_decoding():
    with criterion(6, "branch census, ten-interval repair, sampled frequencies"):
        state = build_psi_theta(math.pi / 2.0).state
        tagged = tagged_circuit_state(state, ALPHA, THETA)
        branches = list(tagged.items())
        assert len(branches) == 20
        indices = sorted(idx for (_, idx), _ in branches)
        assert indices == sorted(
            [24, -24] + [2 * k for k in range(-8, 9) if k != 0] + [0, 0]
        )
        for (_, idx), amp in branches:
            expected = 0.5 if abs(idx) == 24 else 1.0 / 6.0
            assert abs(amp - expected) < 1e-12

        table = decode_table(ALPHA, THETA)
        target = ghz_state()
        for interval in table.intervals:
            corrected, index = ghz_circuit(
                state, ALPHA, THETA, x=table.peak_center(interval)
            )
            assert index == interval.index
            assert corrected.fidelity(target) >= 1.0 - 1e-9

        draws = 10_000
        counts = [0] * 10
        fidelity_total = 0.0
        for corrected, interval, _x in sample_ghz_circuit(
            state, ALPHA, THETA, make_rng(2024), draws
        ):
            counts[interval] += 1
            fidelity_total += corrected.fidelity(target)
        assert fidelity_total / draws >= 1.0 - 1e-5
        expected_p = [0.5] + [1.0 / 18.0] * 9
        for count, p in zip(counts, expected_p):
            bound = 3.0 * math.sqrt(p * (1.0 - p) / draws)
            assert abs(count / draws - p) <= bound


def test_criterion_7_six_photon_mixture_weights():
    with criterion(7, "mixture amplitude squares over the pulse-ratio grid"):
        for k in (1.0, 1.5, 2.0, 3.0, 10.0, 1e6):
            mixture = six_photon_mixture(k)
            assert abs(sum(mixture.squared) - 1.0) <= 1e-12
        exact = six_photon_mixture(1.0)
        assert exact.amps == (1.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j)
        assert six_photon_mixture(2.0).amps[2] == 0.0 + 0.0j


def test_criterion_8_source_expansion_and_invariance():
    with criterion(8, "squeezed expansion truncation, arm mean, splitter invariance"):
        for tau in (0.1, 0.2, 0.3, 0.4, 0.5):
            expansion = squeezed_weights(tau, 80)
            assert abs(expansion.truncated_norm - 1.0) <= 1e-10
            per_arm = sum(n * p for n, p in enumerate(expansion.probabilities))
            assert abs(expansion.mean_photons_per_arm - per_arm) <= 1e-10
        splitter = bs_5050(twin_beam_register, "a", "b")
        for n in (1, 2, 3):
            pair_state = psi_n(n)
            assert splitter.apply(pair_state).fidelity(pair_state) >= 1.0 - 1e-12


def test_criterion_9_expansion_matches_enumeration():
    with criterion(9, "bilinear power expansion vs brute-force enumeration"):
        register = ModeRegister.polarized("a", "b")
        forms = (
            singlet_form(register),
            {(0, 1): 1.0, (2, 3): -1.0},
            {(0, 0): 1.0, (1, 2): 2.0j, (2, 3): -3.0},
            {(0, 3): 1.0 + 2.0j, (1, 2): -1.0 - 1.0j},
        )
        for form in forms:
            items = list(form.items())
            for n in range(5):
                expected: dict[tuple[int, ...], complex] = {}
                for combo in product(items, repeat=n):
                    powers = [0, 0, 0, 0]
                    coeff = 1.0 + 0.0j
                    for (i, j), c in combo:
                        powers[i] += 1
                        powers[j] += 1
                        coeff *= c
                    key = tuple(powers)
                    expected[key] = expected.get(key, 0.0) + coeff
                expected = {
                    occ: c * math.prod(math.sqrt(math.factorial(p)) for p in occ)
                    for occ, c in expected.items()
                    if c != 0.0
                }
                got = dict(expand_bilinear_power(form, n, register).items())
                assert got == expected
