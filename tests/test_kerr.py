import math

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
    discrimination_error,
    homodyne_condition,
    homodyne_pdf,
    make_rng,
    midpoint_threshold,
    sample_homodyne,
    twin_beam_state,
)
from focksim.kerr import ProbeTaggedState, peak_center

TWIN = ModeRegister.polarized("a", "b")
TWO = ModeRegister([("a", "H"), ("b", "H")])

DETECTOR_WEIGHTS = (2, 2, 1, 1)
DETECTOR_GATE = -9


def mixed_state(m: float, n: float) -> FockKet:
    ket = twin_beam_state(CoefficientPair(m, n))
    return bs_5050(TWIN, "a", "b").apply(ket)


def tagged_detector_state(m: float, n: float, alpha: float = 1000.0, theta: float = 0.1):
    tagged = attach_probe(mixed_state(m, n), alpha, theta)
    tagged = apply_cross_kerr(tagged, DETECTOR_WEIGHTS)
    return apply_probe_phase(tagged, DETECTOR_GATE)


class TestAttachProbe:
    def test_vacuum_gets_single_branch_at_zero(self):
        tagged = attach_probe(FockKet.vacuum(TWO), 2.0, 0.5)
        assert dict(tagged.items()) == {((0, 0), 0): 1.0 + 0.0j}

    def test_norm_preserved(self):
        tagged = tagged_detector_state(0.5, 0.5)
        assert tagged.is_normalized

    def test_absent_branch_is_none_and_the_repr_names_the_probe(self):
        tagged = attach_probe(FockKet.vacuum(TWO), 2.0, 0.5)
        assert tagged.branch(1) is None
        assert repr(tagged) == "ProbeTaggedState(1 branches, alpha=2.0, theta=0.5)"

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            attach_probe(FockKet.vacuum(TWO), -1.0, 0.5)


    def test_tagged_state_checks_occupations(self):
        with pytest.raises(ValueError, match="non-negative"):
            ProbeTaggedState(TWO, {((1, -1), 0): 1.0}, 2.0, 0.5)

    @pytest.mark.parametrize("alpha, theta, message", [(-1.0, 0.5, "non-negative"), (2.0, 0.0, "positive")])
    def test_both_constructors_check_the_probe(self, alpha, theta, message):
        with pytest.raises(ValueError, match=message):
            ProbeTaggedState(TWO, {((1, 0), 0): 1.0}, alpha, theta)
        with pytest.raises(ValueError, match=message):
            attach_probe(FockKet.vacuum(TWO), alpha, theta)

    @pytest.mark.parametrize(
        "alpha, theta, name",
        [(math.nan, 0.5, "alpha"), (math.inf, 0.5, "alpha"), (2.0, math.nan, "theta"), (2.0, math.inf, "theta"),
         (-math.inf, 0.5, "alpha"), (2.0, -math.inf, "theta")],
    )
    def test_non_finite_probe_is_rejected_by_name(self, alpha, theta, name):
        # NaN passed both sign checks, and theta=inf failed later with "math domain error"
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ProbeTaggedState(TWO, {((1, 0), 0): 1.0}, alpha, theta)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            attach_probe(FockKet.vacuum(TWO), alpha, theta)

    @pytest.mark.parametrize("m, n", [(0.5, 0.5), (0.6, math.sqrt(0.5 - 0.36)), (0.0, math.sqrt(0.5))])
    def test_readout_view_matches_written_out_expressions(self, m, n):
        tagged = tagged_detector_state(m, n, alpha=500.0, theta=0.2)
        weights = {}
        for (_, idx), amp in tagged.items():
            weights[idx] = weights.get(idx, 0.0) + abs(amp) ** 2
        groups = tuple(
            (idx, weight, peak_center(500.0, tagged.phase_of(idx))) for idx, weight in sorted(weights.items())
        )
        occupations = [occ for (occ, _), _ in tagged.items()]
        conditioning = tuple(
            (
                i,
                occ,
                amp,
                peak_center(500.0, tagged.phase_of(idx)),
                500.0 * math.sin(tagged.phase_of(idx)),
                abs(amp) if occupations.count(occ) == 1 else math.inf,
            )
            for i, ((occ, idx), amp) in enumerate(tagged.items())
        )
        norm_squared = sum(abs(amp) ** 2 for _, amp in tagged.items())
        assert tagged.norm_squared == norm_squared
        assert tagged.is_normalized == (abs(norm_squared - 1.0) < 1e-12)
        assert tagged.phase_groups() == groups
        view = tagged._view()
        assert view.normalized == tagged.is_normalized
        # the terms by ascending peak centre, ties in term order
        by_center = tuple(sorted(conditioning, key=lambda term: (term[3], term[0])))
        assert view.conditioning == by_center
        assert view.centers == tuple(term[3] for term in by_center)
        assert set(view.centers) == {center for _, _, center in groups}

    def test_group_weights_build_no_readout_view(self):
        # a forced detection reads only these weights
        tagged = tagged_detector_state(0.6, math.sqrt(0.14), alpha=500.0, theta=0.2)
        weights = tagged.group_weights()
        assert tagged._view_cache is None
        assert weights == {idx: weight for idx, weight, _ in tagged.phase_groups()}
        assert list(weights) == sorted(weights)


class TestCrossKerr:
    def test_zero_weights_identity(self):
        tagged = attach_probe(FockKet.basis(TWO, (2, 1)), 2.0, 0.5)
        out = apply_cross_kerr(tagged, (0, 0))
        assert dict(out.items()) == dict(tagged.items())

    def test_single_photon_acquires_its_weight(self):
        tagged = attach_probe(FockKet.basis(TWO, (1, 0)), 2.0, 0.5)
        out = apply_cross_kerr(tagged, (7, 0))
        assert dict(out.items()) == {((1, 0), 7): 1.0 + 0.0j}

    def test_detector_wiring_produces_three_phase_groups(self):
        m, n = 1.0 / math.sqrt(2.0), 0.0
        tagged = tagged_detector_state(m, n)
        groups = tagged.group_weights()
        assert set(groups) == {-2, 0, 2}
        s3 = math.sqrt(3.0)
        plus = {occ for (occ, idx), _ in tagged.items() if idx == 2}
        minus = {occ for (occ, idx), _ in tagged.items() if idx == -2}
        assert plus == {(3, 2, 0, 1), (2, 3, 1, 0)}
        assert minus == {(1, 0, 2, 3), (0, 1, 3, 2)}
        for occ, sign in (((3, 2, 0, 1), 1), ((2, 3, 1, 0), -1)):
            amp = dict(tagged.items())[(occ, 2)]
            assert amp == pytest.approx(sign * s3 * (m - n) / 4.0)

    def test_equal_coefficients_collapse_to_single_peak(self):
        tagged = tagged_detector_state(0.5, 0.5)
        assert set(tagged.group_weights()) == {0}

    def test_branch_merging_is_exact(self):
        # one composite application against per-mode single steps
        composite = tagged_detector_state(0.3, math.sqrt(0.5 - 0.09))
        stepwise = attach_probe(mixed_state(0.3, math.sqrt(0.5 - 0.09)), 1000.0, 0.1)
        for mode in range(4):
            weights = [0, 0, 0, 0]
            weights[mode] = DETECTOR_WEIGHTS[mode]
            stepwise = apply_cross_kerr(stepwise, weights)
        stepwise = apply_probe_phase(stepwise, DETECTOR_GATE)
        assert dict(stepwise.items()) == dict(composite.items())

    def test_weight_length_checked(self):
        tagged = attach_probe(FockKet.vacuum(TWO), 1.0, 0.5)
        with pytest.raises(ValueError, match="length"):
            apply_cross_kerr(tagged, (1, 2, 3))


class TestProbePhase:
    def test_zero_shift_identity(self):
        tagged = tagged_detector_state(0.5, 0.5)
        assert dict(apply_probe_phase(tagged, 0).items()) == dict(tagged.items())

    def test_gate_puts_symmetric_branch_at_zero(self):
        mixed = attach_probe(mixed_state(0.5, 0.5), 1000.0, 0.1)
        raw = apply_cross_kerr(mixed, DETECTOR_WEIGHTS)
        assert set(raw.group_weights()) == {9}
        assert set(apply_probe_phase(raw, DETECTOR_GATE).group_weights()) == {0}


class TestHomodynePdf:
    def test_single_branch_is_unit_gaussian_at_displaced_center(self):
        tagged = attach_probe(FockKet.basis(TWO, (1, 1)), 3.0, 0.5)
        center = 6.0
        for x in (4.0, 6.0, 7.5):
            expected = math.exp(-0.5 * (x - center) ** 2) / math.sqrt(2.0 * math.pi)
            assert homodyne_pdf(tagged, x) == pytest.approx(expected)

    def test_equal_coefficients_give_single_peak(self):
        tagged = tagged_detector_state(0.5, 0.5, alpha=3.0, theta=0.8)
        assert homodyne_pdf(tagged, 6.0) == pytest.approx(
            math.exp(0.0) / math.sqrt(2.0 * math.pi)
        )

    def test_density_integrates_to_one(self):
        rng = np.random.Generator(np.random.Philox(9))
        for _ in range(5):
            m = float(rng.uniform(-1.0, 1.0))
            n = math.copysign(math.sqrt(max(0.5 - m * m, 0.0)), rng.normal())
            m, n = CoefficientPair(m, n).normalized().m, CoefficientPair(m, n).normalized().n
            tagged = tagged_detector_state(m, n, alpha=2.5, theta=0.9)
            centers = sorted(
                2.0 * 2.5 * math.cos(idx * 0.45) for idx in tagged.group_weights()
            )
            total, _ = integrate.quad(
                lambda x: homodyne_pdf(tagged, x),
                centers[0] - 12.0,
                centers[-1] + 12.0,
                points=centers,
                limit=200,
            )
            assert total == pytest.approx(1.0, abs=1e-9)


class TestHomodyneConditioning:
    def test_single_phase_state_unchanged_for_any_outcome(self):
        tagged = tagged_detector_state(0.5, 0.5, alpha=4.0, theta=0.6)
        signal = mixed_state(0.5, 0.5)
        for x in (-1.0, 3.0, 8.0):
            conditioned = homodyne_condition(tagged, x)
            assert conditioned.fidelity(signal) == pytest.approx(1.0)

    def test_peak_outcome_selects_symmetric_component(self):
        m, n = 1.0 / math.sqrt(2.0), 0.0
        alpha, theta = 1000.0, 0.1
        conditioned = homodyne_condition(tagged_detector_state(m, n), 2.0 * alpha)
        norm = math.sqrt(10.0 + 24.0 * m * n)
        expected = FockKet(
            TWIN,
            {
                (3, 0, 0, 3): (m + 3 * n) / norm,
                (0, 3, 3, 0): -(m + 3 * n) / norm,
                (1, 2, 2, 1): (3 * m + n) / norm,
                (2, 1, 1, 2): -(3 * m + n) / norm,
            },
        )
        assert conditioned.fidelity(expected) > 1.0 - 1e-6

    def test_shifted_peak_outcome_carries_measurement_phase(self):
        m, n = 1.0 / math.sqrt(2.0), 0.0
        alpha, theta = 1000.0, 0.1
        x = 2.0 * alpha * math.cos(theta) + 0.5
        conditioned = homodyne_condition(tagged_detector_state(m, n), x)
        phi = alpha * math.sin(theta) * (x - 2.0 * alpha * math.cos(theta))
        s3 = math.sqrt(3.0)
        scale = s3 * (m - n) / 4.0 / math.sqrt(12.0 * (m - n) ** 2 / 16.0)
        expected = FockKet(
            TWIN,
            {
                (3, 2, 0, 1): scale * complex(math.cos(phi), math.sin(phi)),
                (2, 3, 1, 0): -scale * complex(math.cos(phi), math.sin(phi)),
                (1, 0, 2, 3): scale * complex(math.cos(phi), -math.sin(phi)),
                (0, 1, 3, 2): -scale * complex(math.cos(phi), -math.sin(phi)),
            },
        )
        assert conditioned.fidelity(expected) > 1.0 - 1e-6

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_outcome_rejected(self, x):
        tagged = tagged_detector_state(0.6, math.sqrt(0.5 - 0.36))
        with pytest.raises(ValueError, match="quadrature x must be finite"):
            homodyne_condition(tagged, x)

    def test_zero_density_outcome_is_empty(self):
        tagged = tagged_detector_state(0.5, 0.5)
        assert homodyne_condition(tagged, 2000.0 + 200.0) is None

    def test_far_tail_outcome_conditions_to_the_nearest_branch(self):
        # 11.8 beyond the top peak the density is 2e-31 and every Gaussian
        # weight is below 1e-15, under PRUNE_THRESHOLD before normalizing
        tagged = tagged_detector_state(0.6, math.sqrt(0.5 - 0.36))
        x = 2000.0 + 11.8
        assert 1e-31 < homodyne_pdf(tagged, x) < 1e-30
        conditioned = homodyne_condition(tagged, x)
        assert conditioned is not None and conditioned.is_normalized
        assert conditioned.fidelity(tagged.branch(0)) == pytest.approx(1.0, abs=1e-12)

    def test_outcome_where_only_the_density_underflows_conditions_to_branch_0(self):
        # exp(-45^2 / 4) is a normal double, exp(-45^2 / 2) is not
        tagged = tagged_detector_state(0.5, 0.5)
        assert homodyne_pdf(tagged, 2000.0 + 45.0) == 0.0
        conditioned = homodyne_condition(tagged, 2000.0 + 45.0)
        assert conditioned is not None and conditioned.is_normalized
        assert conditioned.fidelity(tagged.branch(0)) == pytest.approx(1.0, abs=1e-12)

    def test_no_far_tail_outcome_raises(self):
        # past about 53.3 the nearest weight exp(-offset^2 / 4) is subnormal, and
        # one power of two lifting it to 1 would overflow; past about 54.6 it is 0
        tagged = tagged_detector_state(0.5, 0.5)
        centers = [center for _, _, center in tagged.phase_groups()]
        for step in range(0, 241):
            offset = 38.0 + step / 10.0
            for x in (max(centers) + offset, min(centers) - offset):
                conditioned = homodyne_condition(tagged, x)
                assert conditioned is None or conditioned.is_normalized
        assert homodyne_condition(tagged, max(centers) + 54.0) is not None
        assert homodyne_condition(tagged, max(centers) + 55.0) is None

    @pytest.mark.parametrize("side, offset", [(1, 9.0), (1, 9.5), (1, 10.0), (-1, 9.5), (-1, 10.0)])
    def test_tail_rescaling_keeps_the_bits_where_nothing_was_pruned(self, side, offset):
        # just past 8.9 from every peak the amplitudes are rescaled, but every
        # term here is far above or far below PRUNE_THRESHOLD either way
        tagged = tagged_detector_state(0.6, math.sqrt(0.5 - 0.36))
        centers = [center for _, _, center in tagged.phase_groups()]
        x = max(centers) + offset if side > 0 else min(centers) - offset
        unscaled = {}
        for (occ, idx), amp in tagged.items():
            phase = tagged.phase_of(idx)
            shift = x - peak_center(tagged.alpha, phase)
            rate = tagged.alpha * math.sin(phase)
            factor = math.exp(-0.25 * shift * shift) * complex(
                math.cos(rate * shift), math.sin(rate * shift)
            )
            unscaled[occ] = unscaled.get(occ, 0.0) + amp * factor
        expected = FockKet(TWIN, unscaled).normalized()
        assert list(homodyne_condition(tagged, x).items()) == list(expected.items())

    def test_relative_phase_vanishes_at_peak_center(self):
        # conditioned amplitudes at a branch's own peak are real multiples
        tagged = tagged_detector_state(1.0 / math.sqrt(2.0), 0.0, alpha=500.0, theta=0.2)
        x = 2.0 * 500.0 * math.cos(0.2)
        conditioned = homodyne_condition(tagged, x)
        for occ in ((3, 2, 0, 1), (1, 0, 2, 3)):
            assert abs(conditioned.amplitude(occ).imag) < 1e-12

    def test_conditioning_marginalizes_to_branch_probabilities(self):
        alpha, theta = 2.5, 0.9
        m = 0.31
        n = math.sqrt(0.5 - m * m)
        tagged = tagged_detector_state(m, n, alpha=alpha, theta=theta)
        targets = [(3, 0, 0, 3), (3, 2, 0, 1), (1, 0, 2, 3)]
        unconditioned = {
            occ: sum(abs(a) ** 2 for (o, _), a in tagged.items() if o == occ)
            for occ in targets
        }
        centers = sorted(2.0 * alpha * math.cos(i * theta / 2.0) for i in (-2, 0, 2))

        def integrand(occ):
            def inner(x):
                conditioned = homodyne_condition(tagged, x)
                if conditioned is None:
                    return 0.0
                return homodyne_pdf(tagged, x) * abs(conditioned.amplitude(occ)) ** 2

            return inner

        for occ in targets:
            value, _ = integrate.quad(
                integrand(occ), centers[0] - 12.0, centers[-1] + 12.0,
                points=centers, limit=300,
            )
            assert value == pytest.approx(unconditioned[occ], abs=1e-6)


class TestDiscriminationError:
    def test_zero_phase_gives_coin_flip(self):
        assert discrimination_error(5.0, 1e-18) == pytest.approx(0.5)

    def test_reference_point_value(self):
        # frozen from a 40-digit erfc evaluation; tail integral cross-check below
        value = discrimination_error(1000.0, 0.1)
        assert value == pytest.approx(2.9290908857107816e-07, rel=1e-12)
        tail, _ = integrate.quad(
            lambda x: math.exp(-0.5 * (x - 2000.0 * math.cos(0.1)) ** 2)
            / math.sqrt(2.0 * math.pi),
            midpoint_threshold(1000.0, 0.1),
            midpoint_threshold(1000.0, 0.1) + 60.0,
        )
        assert value == pytest.approx(tail, rel=1e-6)

    def test_monotone_decreasing_in_alpha(self):
        values = [discrimination_error(a, 0.1) for a in (10.0, 50.0, 200.0, 1000.0)]
        assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))

    def test_matches_misassigned_mass_for_two_peak_state(self):
        alpha, theta = 4.0, 0.8
        tagged = tagged_detector_state(1.0 / math.sqrt(2.0), 0.0, alpha=alpha, theta=theta)
        groups = tagged.group_weights()
        threshold = midpoint_threshold(alpha, theta)
        wrong_mass = 0.0
        for idx, weight in groups.items():
            center = 2.0 * alpha * math.cos(idx * theta / 2.0)
            if idx == 0:
                # symmetric branch credited only above threshold
                wrong_side, _ = integrate.quad(
                    lambda x: math.exp(-0.5 * (x - center) ** 2) / math.sqrt(2 * math.pi),
                    center - 40.0,
                    threshold,
                )
            else:
                wrong_side, _ = integrate.quad(
                    lambda x: math.exp(-0.5 * (x - center) ** 2) / math.sqrt(2 * math.pi),
                    threshold,
                    center + 40.0,
                )
            wrong_mass += weight * wrong_side
        assert wrong_mass == pytest.approx(discrimination_error(alpha, theta), abs=1e-10)


class TestSampling:
    def test_same_seed_same_outcome(self):
        tagged = tagged_detector_state(1.0 / math.sqrt(2.0), 0.0, alpha=3.0, theta=0.9)
        first = sample_homodyne(tagged, 123)
        second = sample_homodyne(tagged, 123)
        assert first.x == second.x
        assert first.interval_index == second.interval_index
        assert dict(first.conditional.items()) == dict(second.conditional.items())

    def test_single_branch_reproduces_signal(self):
        tagged = tagged_detector_state(0.5, 0.5, alpha=3.0, theta=0.9)
        outcome = sample_homodyne(tagged, 7)
        assert outcome.interval_index == 0
        assert outcome.conditional.fidelity(mixed_state(0.5, 0.5)) == pytest.approx(1.0)
        assert outcome.probability_density == pytest.approx(
            homodyne_pdf(tagged, outcome.x)
        )

    def test_group_frequencies_match_weights(self):
        m = 0.4
        n = math.sqrt(0.5 - m * m)
        tagged = tagged_detector_state(m, n, alpha=3.0, theta=0.9)
        weights = tagged.group_weights()
        expected = {0: weights[0], 2: weights[2] + weights[-2]}
        rng = make_rng(20240817)
        draws = 100_000
        counts = {0: 0, 2: 0}
        for _ in range(draws):
            counts[sample_homodyne(tagged, rng).interval_index] += 1
        for group, p in expected.items():
            bound = 3.0 * math.sqrt(p * (1.0 - p) / draws)
            assert abs(counts[group] / draws - p) < bound


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_density_rejects_non_finite_outcome(x):
    tagged = tagged_detector_state(0.6, math.sqrt(0.5 - 0.36))
    with pytest.raises(ValueError, match="quadrature x must be finite"):
        homodyne_pdf(tagged, x)


def test_density_overflow_names_alpha():
    # the squared distance to the far peak, (2e200 (1 - cos 0.1))^2, overflows
    tagged = tagged_detector_state(0.6, math.sqrt(0.5 - 0.36), alpha=1e200)
    with pytest.raises(OverflowError, match=r"alpha=1e\+200 is too large"):
        homodyne_pdf(tagged, 2e200)
