import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksim import (
    CapacityError,
    CoefficientPair,
    FockKet,
    ModeRegister,
    ModeTransform,
    a_matrix_power,
    apply_cross_kerr,
    apply_phase_correction,
    apply_probe_phase,
    attach_probe,
    bs_5050,
    cascade_closed_form,
    cascade_simulate,
    decide_and_repair,
    detect,
    make_rng,
    midpoint_threshold,
    psi_n,
    repair_phase,
    symmetric_success_probability,
    twin_beam_register,
    twin_beam_state,
)
from focksim import detector
from focksim.detector import KERR_WEIGHTS, PROBE_GATE

ALPHA, THETA = 1000.0, 0.1


def random_pair(rng: np.random.Generator) -> CoefficientPair:
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    return CoefficientPair(math.cos(angle) / math.sqrt(2.0), math.sin(angle) / math.sqrt(2.0))


def exact_ratio(k: int) -> Fraction:
    """Independent ratio oracle for the all-second-coefficient start."""
    step = Fraction(-1, 2) ** k
    return (1 - step) / (1 + step)


class TestTwinBeamState:
    def test_equal_pair_is_third_order_singlet(self):
        state = twin_beam_state(CoefficientPair(0.5, 0.5))
        assert state.fidelity(psi_n(3)) == pytest.approx(1.0)

    def test_pure_first_family(self):
        inv = 1.0 / math.sqrt(2.0)
        state = twin_beam_state(CoefficientPair(inv, 0.0))
        assert state.amplitude((3, 0, 0, 3)) == pytest.approx(inv)
        assert state.amplitude((0, 3, 3, 0)) == pytest.approx(-inv)
        assert len(state) == 2

    def test_random_pairs_normalized(self):
        rng = np.random.Generator(np.random.Philox(31))
        for _ in range(20):
            assert abs(twin_beam_state(random_pair(rng)).norm - 1.0) < 1e-12

    def test_unnormalized_pair_rejected(self):
        with pytest.raises(ValueError, match="1/2"):
            twin_beam_state(CoefficientPair(1.0, 1.0))


class TestDetect:
    def test_equal_pair_is_fixed_point(self):
        state = twin_beam_state(CoefficientPair(0.5, 0.5))
        outcome = detect(state, ALPHA, THETA, force="symmetric")
        assert outcome.branch == "symmetric"
        assert outcome.probability == pytest.approx(1.0)
        assert outcome.state.fidelity(state) == pytest.approx(1.0)

    def test_symmetric_branch_statistics(self):
        pair = CoefficientPair(1.0 / math.sqrt(2.0), 0.0)
        outcome = detect(twin_beam_state(pair), ALPHA, THETA, force="symmetric")
        assert outcome.probability == pytest.approx(5.0 / 8.0)
        target = twin_beam_state(
            CoefficientPair(1.0 / math.sqrt(20.0), 3.0 / math.sqrt(20.0))
        )
        assert outcome.state.fidelity(target) == pytest.approx(1.0)

    def test_forced_asymmetric_yields_corrected_four_ket_state(self):
        pair = CoefficientPair(1.0 / math.sqrt(2.0), 0.0)
        outcome = detect(twin_beam_state(pair), ALPHA, THETA, force="asymmetric")
        assert outcome.probability == pytest.approx(3.0 / 8.0)
        expected = FockKet(
            twin_beam_register,
            {(3, 2, 0, 1): 0.5, (0, 1, 3, 2): -0.5, (1, 0, 2, 3): 0.5, (2, 3, 1, 0): -0.5},
        )
        assert (outcome.state - expected).norm < 1e-12

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.Generator(np.random.Philox(37))
        for _ in range(20):
            pair = random_pair(rng)
            state = twin_beam_state(pair)
            p_sym = detect(state, ALPHA, THETA, force="symmetric").probability
            p_asym = detect(state, ALPHA, THETA, force="asymmetric").probability
            assert p_sym + p_asym == pytest.approx(1.0, abs=1e-12)
            assert p_sym == pytest.approx(symmetric_success_probability(pair), abs=1e-12)

    def test_success_probability_identity_against_norm_decomposition(self):
        rng = np.random.Generator(np.random.Philox(41))
        for _ in range(20):
            m, n = random_pair(rng).m, random_pair(rng).n
            scale = math.sqrt(0.5 / (m * m + n * n))
            m, n = m * scale, n * scale
            direct = 2.0 * ((m + 3 * n) ** 2 + (3 * m + n) ** 2) / 16.0
            assert direct == pytest.approx((5.0 + 12.0 * m * n) / 8.0, abs=1e-12)
            # splitter output norm identity
            total = direct + 12.0 * (m - n) ** 2 / 16.0
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_sampled_symmetric_outcome(self):
        pair = CoefficientPair(0.5, 0.5)
        outcome = detect(twin_beam_state(pair), ALPHA, THETA, rng=make_rng(5))
        assert outcome.branch == "symmetric"
        assert outcome.measured_x is not None
        assert outcome.state.fidelity(twin_beam_state(pair)) > 1.0 - 1e-9

    def test_sampled_asymmetric_outcome_is_repaired(self):
        pair = CoefficientPair(1.0 / math.sqrt(2.0), 0.0)
        state = twin_beam_state(pair)
        expected = detect(state, ALPHA, THETA, force="asymmetric").state
        rng = make_rng(11)
        seen = 0
        for _ in range(40):
            outcome = detect(state, ALPHA, THETA, rng=rng)
            if outcome.branch == "asymmetric":
                seen += 1
                assert outcome.state.fidelity(expected) > 1.0 - 1e-9
        assert seen > 0

    def test_wrong_photon_number_rejected(self):
        with pytest.raises(ValueError, match="six-photon"):
            detect(psi_n(1), ALPHA, THETA, force="symmetric")

    def test_wrong_register_rejected(self):
        with pytest.raises(ValueError, match="register"):
            detect(FockKet(ModeRegister.polarized("c", "d"), dict(psi_n(3).items())), ALPHA, THETA,
                   force="symmetric")


class TestPhaseCorrection:
    def test_zero_phase_identity(self):
        state = twin_beam_state(CoefficientPair(0.5, 0.5))
        out = apply_phase_correction(state, 0.0, "b")
        assert (out - state).norm == 0.0

    def test_maps_measurement_phases_to_flat_state(self):
        phi = 1.234
        plus = complex(math.cos(phi), math.sin(phi)) * 0.5
        minus = complex(math.cos(phi), -math.sin(phi)) * 0.5
        measured = FockKet(
            twin_beam_register,
            {(3, 2, 0, 1): plus, (2, 3, 1, 0): -plus, (1, 0, 2, 3): minus, (0, 1, 3, 2): -minus},
        )
        flat = FockKet(
            twin_beam_register,
            {(3, 2, 0, 1): 0.5, (0, 1, 3, 2): -0.5, (1, 0, 2, 3): 0.5, (2, 3, 1, 0): -0.5},
        )
        corrected = apply_phase_correction(measured, phi, "b")
        assert corrected.fidelity(flat) == pytest.approx(1.0)

    def test_norm_preserved(self):
        state = twin_beam_state(CoefficientPair(0.6, math.sqrt(0.5 - 0.36)))
        assert abs(apply_phase_correction(state, 2.1, "b").norm - 1.0) < 1e-12

    def test_outcome_at_threshold_reads_asymmetric(self):
        state = twin_beam_state(CoefficientPair(0.6, math.sqrt(0.5 - 0.36)))
        terms = dict(state.items())
        x0 = midpoint_threshold(ALPHA, THETA)
        branch, repaired = decide_and_repair(terms, x0, ALPHA, THETA)
        assert branch == "asymmetric"
        expected = apply_phase_correction(state, repair_phase(ALPHA, THETA, x0) % (2.0 * math.pi), "b")
        assert list(repaired.items()) == list(expected.items())
        branch, kept = decide_and_repair(terms, math.nextafter(x0, math.inf), ALPHA, THETA)
        assert branch == "symmetric" and kept is terms
        assert decide_and_repair({}, x0, ALPHA, THETA) == ("asymmetric", {})


class TestIterationMatrix:
    def test_zeroth_power_is_identity(self):
        assert np.array_equal(a_matrix_power(0), np.eye(2))

    def test_first_power(self):
        assert np.array_equal(a_matrix_power(1), np.array([[1.0, 3.0], [3.0, 1.0]]))

    def test_third_power(self):
        assert np.array_equal(a_matrix_power(3), np.array([[28.0, 36.0], [36.0, 28.0]]))

    def test_matches_repeated_multiplication(self):
        base = np.array([[1.0, 3.0], [3.0, 1.0]])
        power = np.eye(2)
        for k in range(11):
            assert np.array_equal(a_matrix_power(k), power)
            power = power @ base

    def test_capacity_limit(self):
        with pytest.raises(CapacityError, match="k="):
            a_matrix_power(31)


class TestCascadeClosedForm:
    START = CoefficientPair(0.0, 1.0 / math.sqrt(2.0))

    @pytest.mark.parametrize("k", range(1, 11))
    def test_ratio_sequence(self, k):
        step = cascade_closed_form(self.START, k)
        assert step.ratio == pytest.approx(float(exact_ratio(k)), abs=1e-14)

    def test_first_three_ratios(self):
        ratios = [cascade_closed_form(self.START, k).ratio for k in (1, 2, 3)]
        assert ratios == pytest.approx([3.0, 3.0 / 5.0, 9.0 / 7.0])

    def test_equal_start_is_fixed_point(self):
        for k in range(1, 8):
            assert cascade_closed_form(CoefficientPair(0.5, 0.5), k).ratio == pytest.approx(1.0)

    def test_tenth_step_distance_from_one(self):
        step = cascade_closed_form(self.START, 10)
        assert abs(step.ratio - 1.0) == pytest.approx(2.0 / 1025.0, abs=1e-12)

    def test_vanishing_denominator_reports_signed_infinity(self):
        # n_1 = 3 m0 + n0 = 0 along both of these directions
        scale = 1.0 / math.sqrt(20.0)
        positive = cascade_closed_form(CoefficientPair(-scale, 3.0 * scale), 1)
        assert math.isinf(positive.ratio) and positive.ratio > 0
        negative = cascade_closed_form(CoefficientPair(scale, -3.0 * scale), 1)
        assert math.isinf(negative.ratio) and negative.ratio < 0

    def test_normalization_constant_matches_coefficients(self):
        rng = np.random.Generator(np.random.Philox(43))
        for _ in range(20):
            pair = random_pair(rng)
            for k in range(0, 8):
                step = cascade_closed_form(pair, k)
                assert step.c_k == pytest.approx(
                    2.0 * (step.m_k**2 + step.n_k**2), rel=1e-12
                )
                normalized = step.normalized_pair
                assert normalized.m**2 + normalized.n**2 == pytest.approx(0.5, abs=1e-12)

    def test_ratio_convergence_bound(self):
        # tight geometric bound for non-negative starts:
        # |ratio - 1| <= 2^(1-k) r / (1 - 2^-k r) with r = |m0-n0|/(m0+n0)
        rng = np.random.Generator(np.random.Philox(47))
        for _ in range(10):
            angle = float(rng.uniform(0.05, math.pi / 2.0 - 0.05))
            pair = CoefficientPair(
                math.cos(angle) / math.sqrt(2.0), math.sin(angle) / math.sqrt(2.0)
            )
            r = abs(pair.m - pair.n) / (pair.m + pair.n)
            for k in range(1, 21):
                step = cascade_closed_form(pair, k)
                bound = 2.0 ** (1 - k) * r / (1.0 - 2.0**-k * r)
                assert abs(step.ratio - 1.0) <= bound + 1e-12

    def test_ratio_alternates_around_one(self):
        ratios = [cascade_closed_form(self.START, k).ratio for k in range(1, 12)]
        for r1, r2 in zip(ratios, ratios[1:]):
            assert (r1 - 1.0) * (r2 - 1.0) < 0.0


class TestCascadeSimulate:
    def test_equal_start_probability_one_state_fixed(self):
        run = cascade_simulate(CoefficientPair(0.5, 0.5), 4)
        assert run.step_probabilities == pytest.approx((1.0, 1.0, 1.0, 1.0))
        assert run.cumulative_probability == pytest.approx(1.0)
        assert run.state.fidelity(psi_n(3)) == pytest.approx(1.0)

    def test_single_step_from_pure_first_family(self):
        run = cascade_simulate(CoefficientPair(1.0 / math.sqrt(2.0), 0.0), 1)
        assert run.step_probabilities[0] == pytest.approx(5.0 / 8.0)
        target = twin_beam_state(
            CoefficientPair(1.0 / math.sqrt(20.0), 3.0 / math.sqrt(20.0))
        )
        assert run.state.fidelity(target) == pytest.approx(1.0)

    def test_agrees_with_closed_form(self):
        rng = np.random.Generator(np.random.Philox(53))
        for _ in range(50):
            pair = random_pair(rng)
            if abs(pair.m + pair.n) < 0.05:
                continue  # closed form is fine but the state norm gets tiny
            k = int(rng.integers(1, 11))
            run = cascade_simulate(pair, k)
            step = cascade_closed_form(pair, k)
            expected = twin_beam_state(step.normalized_pair)
            assert (run.state - expected).norm < 1e-12 or (
                run.state + expected
            ).norm < 1e-12

    def test_step_probabilities_track_coefficients(self):
        pair = CoefficientPair(0.0, 1.0 / math.sqrt(2.0))
        run = cascade_simulate(pair, 5)
        current = pair
        for probability in run.step_probabilities:
            assert probability == pytest.approx(
                symmetric_success_probability(current), abs=1e-12
            )
            current = cascade_closed_form(current, 1).normalized_pair

    def test_ten_steps_approach_target(self):
        run = cascade_simulate(CoefficientPair(0.0, 1.0 / math.sqrt(2.0)), 10)
        fidelity = run.state.fidelity(psi_n(3))
        assert fidelity >= 0.999998
        closed = cascade_closed_form(CoefficientPair(0.0, 1.0 / math.sqrt(2.0)), 10)
        assert fidelity == pytest.approx(closed.fidelity_with_target, abs=1e-12)

    def test_depth_capacity(self):
        with pytest.raises(CapacityError):
            cascade_simulate(CoefficientPair(0.5, 0.5), 31)

    def test_negative_depth_is_rejected_as_by_the_closed_form(self):
        # it returned an empty run with cumulative probability 1.0
        for call in (a_matrix_power, lambda k: cascade_closed_form(CoefficientPair(0.5, 0.5), k),
                     lambda k: cascade_simulate(CoefficientPair(0.5, 0.5), k)):
            with pytest.raises(ValueError, match="k=-1 must be non-negative"):
                call(-1)

    @pytest.mark.parametrize(
        "alpha, theta, name", [(math.nan, THETA, "alpha"), (math.inf, THETA, "alpha"), (ALPHA, math.nan, "theta"),
                               (ALPHA, math.inf, "theta"), (-1.0, THETA, "alpha"), (ALPHA, 0.0, "theta")],
    )
    def test_forced_symmetric_detection_checks_the_probe(self, alpha, theta, name):
        # a cascade step reads no probe, but the detector it stands for still checks one
        with pytest.raises(ValueError, match=f"{name} must be"):
            detect(twin_beam_state(CoefficientPair(0.6, 0.3).normalized()), alpha, theta, force="symmetric")

    @pytest.mark.parametrize(
        "alpha, theta, name", [(math.nan, THETA, "alpha"), (ALPHA, math.inf, "theta"), (ALPHA, 0.0, "theta")],
    )
    def test_forced_asymmetric_detection_checks_the_probe(self, alpha, theta, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            detect(twin_beam_state(CoefficientPair(0.6, 0.3).normalized()), alpha, theta, force="asymmetric")

    @pytest.mark.parametrize("force", ["symmetric", "asymmetric"])
    def test_forced_detection_builds_no_tagged_state(self, monkeypatch, force):
        def tagged(*_):
            raise AssertionError("forced detection built a tagged state")

        monkeypatch.setattr(detector, "detector_probe_state", tagged)
        monkeypatch.setattr(detector, "attach_probe", tagged)
        outcome = detect(twin_beam_state(CoefficientPair(0.6, 0.3).normalized()), ALPHA, THETA, force=force)
        assert outcome.branch == force
        assert 0.0 < outcome.probability < 1.0

    @pytest.mark.parametrize("alpha, theta, name", [(math.nan, THETA, "alpha"), (ALPHA, math.inf, "theta")])
    def test_sampled_detection_names_a_non_finite_probe(self, alpha, theta, name):
        # a NaN alpha failed the draw blaming "quadrature x"
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            detect(twin_beam_state(CoefficientPair(0.5, 0.5)), alpha, theta, rng=1)


def fresh_splitter_cascade(pair: CoefficientPair, k: int, alpha: float, theta: float):
    """``cascade_simulate`` written out, with a new splitter built at every step."""
    state = twin_beam_state(pair.normalized())
    probabilities = []
    cumulative = 1.0
    for _ in range(k):
        mixed = bs_5050(state.register, "a", "b").apply(state.normalized())
        tagged = attach_probe(mixed, alpha, theta)
        tagged = apply_probe_phase(apply_cross_kerr(tagged, KERR_WEIGHTS), PROBE_GATE)
        probability = tagged.group_weights().get(0, 0.0)
        state = tagged.branch(0)
        probabilities.append(probability)
        cumulative *= probability
    return state, tuple(probabilities), cumulative


# 0 and pi/2 start with one family of terms absent, so the shared splitter
# meets occupancies in another order than a fresh one
angles = st.floats(0.0, 2.0 * math.pi) | st.sampled_from([0.0, math.pi / 2.0])


@settings(deadline=None, max_examples=40)
@given(angle=angles, k=st.integers(0, 30))
def test_cascade_matches_fresh_splitter_loop(angle, k):
    pair = CoefficientPair(math.cos(angle), math.sin(angle))
    state, probabilities, cumulative = fresh_splitter_cascade(pair, k, ALPHA, THETA)
    run = cascade_simulate(pair, k)
    assert list(run.state.items()) == list(state.items())
    assert run.step_probabilities == probabilities
    assert run.cumulative_probability == cumulative


def test_two_cascades_build_the_splitter_once(monkeypatch):
    detector._splitter.cache_clear()
    built = []
    init = ModeTransform.__init__

    def counting_init(self, register, matrix):
        built.append(register)
        init(self, register, matrix)

    monkeypatch.setattr(ModeTransform, "__init__", counting_init)
    cascade_simulate(CoefficientPair(0.6, 0.3), 30)
    cascade_simulate(CoefficientPair(0.0, 1.0 / math.sqrt(2.0)), 5)
    assert built == [twin_beam_register]
