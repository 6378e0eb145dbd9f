import math
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focksim import (
    FockKet,
    GhzReadout,
    build_psi_theta,
    decode_table,
    ghz_circuit,
    ghz_state,
    interval_probabilities,
    make_rng,
    pattern_occupation,
    psi_theta_reference,
    sample_ghz_circuit,
    scheme_register,
    spin_flip,
    tagged_circuit_state,
    w_pair_state,
)
from focksim.elements import apply_circuit, pbs, polarization_rotation
from focksim.fock import PRUNE_THRESHOLD
from focksim.kerr import apply_cross_kerr, apply_probe_phase, attach_probe, homodyne_condition, sample_homodyne
from focksim.schemes import (
    GHZ_KERR_THETA_WEIGHTS,
    GHZ_PROBE_GATE,
    SCHEME_SPATIALS,
    DecodeInterval,
    GhzDecodeTable,
)

ALPHA, THETA = 1000.0, 0.1
HALF_PI = math.pi / 2.0

# phase group (base units) -> the pair of surviving polarization patterns,
# checked by hand against the tap weights (1, 2, 3, 3, 6, 9) minus 12
BRANCH_TABLE = {
    12: ("HHHHHH", "VVVVVV"),
    0: ("HHVHHV", "VVHVVH"),
    1: ("HVHHHV", "VHVVVH"),
    2: ("VHHHHV", "HVVVVH"),
    3: ("HHVHVH", "VVHVHV"),
    4: ("HVHHVH", "VHVVHV"),
    5: ("VHHHVH", "HVVVHV"),
    6: ("HHVVHH", "VVHHVV"),
    7: ("HVHVHH", "VHVHVV"),
    8: ("VHHVHH", "HVVHVV"),
}


class TestPreparedStateReference:
    def test_uniform_pair_and_w_pair_structure_at_half_pi(self):
        reference = psi_theta_reference(HALF_PI)
        assert reference.fidelity(ghz_state()) == pytest.approx(0.5, abs=1e-12)
        assert reference.fidelity(w_pair_state(False)) == pytest.approx(0.25, abs=1e-12)
        assert reference.fidelity(w_pair_state(True)) == pytest.approx(0.25, abs=1e-12)
        assert ghz_state().inner(reference).real == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12
        )

    def test_all_families_present_at_quarter_pi(self):
        reference = psi_theta_reference(math.pi / 4.0)
        assert abs(reference.norm - 1.0) < 1e-12
        # 2 uniform + 2 anti-uniform + 18 + 18 + 12 + 12 distinct patterns
        assert len(reference) == 64

    def test_printed_coefficients_already_normalized(self):
        # the closed-form coefficient table carries its own normalization
        c, s = math.cos(0.7), math.sin(0.7)
        norm2 = (
            (c**6 + s**6) / 2.0
            + (c**2 * (2 * s * s - c * c) ** 2 + s**2 * (s * s - 2 * c * c) ** 2) / 2.0
            + 3.0 * (c**4 * s**2 + c**2 * s**4)
        )
        assert norm2 == pytest.approx(1.0, abs=1e-14)


class TestPreparationPipeline:
    @pytest.mark.parametrize("theta", [0.3, math.pi / 4.0, 1.2])
    def test_matches_reference(self, theta):
        result = build_psi_theta(theta)
        assert result.state.fidelity(psi_theta_reference(theta)) > 1.0 - 1e-10

    def test_half_pi_weights(self):
        state = build_psi_theta(HALF_PI).state
        assert state.fidelity(ghz_state()) == pytest.approx(0.5, abs=1e-10)
        assert state.fidelity(w_pair_state(False)) == pytest.approx(0.25, abs=1e-10)
        assert state.fidelity(w_pair_state(True)) == pytest.approx(0.25, abs=1e-10)

    def test_zero_angle_antisymmetric_weight(self):
        state = build_psi_theta(0.0).state
        inv = 1.0 / math.sqrt(2.0)
        anti = FockKet(
            scheme_register,
            {pattern_occupation("HHHVVV"): inv, pattern_occupation("VVVHHH"): -inv},
        )
        assert state.fidelity(anti) == pytest.approx(0.5, abs=1e-10)

    def test_one_photon_per_spatial_mode(self):
        state = build_psi_theta(0.9).state
        for occ, _ in state.items():
            for spatial in ("c1", "c2", "c3", "d1", "d2", "d3"):
                assert sum(occ[i] for i in scheme_register.spatial_indices(spatial)) == 1

    def test_postselect_probability_at_half_pi(self):
        # hand-computed from the splitter multinomials: 2 (6 6 / 324)^2
        # + 18 (12 / 324)^2 = 4/81
        result = build_psi_theta(HALF_PI)
        assert result.postselect_probability == pytest.approx(4.0 / 81.0, abs=1e-12)

    def test_probability_symmetric_under_angle_reflection(self):
        for theta in (0.2, 0.7, 1.3):
            forward = build_psi_theta(theta).postselect_probability
            mirrored = build_psi_theta(math.pi - theta).postselect_probability
            assert forward > 0.0
            assert forward == pytest.approx(mirrored, abs=1e-12)


@cache
def psi_zero() -> FockKet:
    return build_psi_theta(0.0).state


@settings(deadline=None)
@given(theta=st.floats(-2.0 * math.pi, 2.0 * math.pi))
@example(theta=0.0)
@example(theta=HALF_PI)
@example(theta=-HALF_PI)
@example(theta=-0.7)
def test_the_rotation_of_arm_b_commutes_with_the_preparation(theta):
    """The rotation of arm b commutes with the polarization-blind splitters and
    with the one-photon-per-spatial-mode post-selection, so the heralding
    probability is 4/81 at every angle and psi(theta) is psi(0) with d1, d2 and
    d3 rotated by theta."""
    result = build_psi_theta(theta)
    # 2.0e-15 at most over 6000 angles: the weight over a ket of 3136 terms
    assert result.postselect_probability == pytest.approx(4.0 / 81.0, abs=1e-14)
    rotations = [polarization_rotation(scheme_register, d, theta) for d in ("d1", "d2", "d3")]
    prepared, rotated = dict(result.state.items()), dict(apply_circuit(psi_zero(), rotations).items())
    # the pipeline prunes before it renormalizes, so it drops terms up to about 4.5e-14
    floor = PRUNE_THRESHOLD / math.sqrt(result.postselect_probability) + 1e-15
    for occ in prepared.keys() | rotated.keys():
        if occ in prepared and occ in rotated:
            assert abs(prepared[occ] - rotated[occ]) <= 1e-15
        else:
            assert abs(prepared.get(occ, rotated.get(occ))) < floor


class TestSpinFlip:
    def test_empty_set_is_identity(self):
        state = build_psi_theta(HALF_PI).state
        assert (spin_flip(state, set()) - state).norm == 0.0

    def test_two_flips_repair_mixed_pattern(self):
        flipped = spin_flip(FockKet.basis(scheme_register, pattern_occupation("HHVHHV")), {"c3", "d3"})
        assert flipped.amplitude(pattern_occupation("HHHHHH")) == pytest.approx(1.0)

    def test_involution(self):
        state = build_psi_theta(1.1).state
        twice = spin_flip(spin_flip(state, {"c1", "d2"}), {"c1", "d2"})
        assert (twice - state).norm < 1e-14


class TestDecodeTable:
    def test_ten_intervals_partition_axis(self):
        table = decode_table(ALPHA, THETA)
        assert len(table.intervals) == 10
        assert table.intervals[0].x_lo == -math.inf
        assert table.intervals[-1].x_hi == math.inf
        for left, right in zip(table.intervals, table.intervals[1:]):
            assert left.x_hi == right.x_lo

    def test_threshold_values_and_ordering(self):
        table = decode_table(ALPHA, THETA)
        assert table.intervals[0].x_hi == pytest.approx(
            ALPHA * (math.cos(1.2) + math.cos(0.8))
        )
        assert table.intervals[-1].x_lo == pytest.approx(ALPHA * (math.cos(0.1) + 1.0))
        bounds = [iv.x_hi for iv in table.intervals[:-1]]
        assert bounds == sorted(bounds)

    def test_branch_assignment(self):
        table = decode_table(ALPHA, THETA)
        assert [iv.branch for iv in table.intervals] == [12, 8, 7, 6, 5, 4, 3, 2, 1, 0]

    def test_peaks_lie_inside_their_intervals(self):
        table = decode_table(ALPHA, THETA)
        for interval in table.intervals:
            center = table.peak_center(interval)
            assert interval.x_lo < center < interval.x_hi
            assert table.lookup(center) is interval

    def test_infinite_outcomes_read_the_outer_intervals(self):
        table = decode_table(ALPHA, THETA)
        assert table.lookup(math.inf) is table.intervals[-1]
        assert table.lookup(-math.inf) is table.intervals[0]

    def test_flip_sets_have_at_most_two_entries(self):
        table = decode_table(ALPHA, THETA)
        for interval in table.intervals:
            assert len(interval.flips) <= 2
        assert table.intervals[0].flips == frozenset()
        assert table.intervals[-1].flips == frozenset({"c3", "d3"})

    def test_flip_sets_match_branch_patterns(self):
        table = decode_table(ALPHA, THETA)
        for interval in table.intervals:
            plus, _ = BRANCH_TABLE[interval.branch]
            expected = {
                spatial
                for spatial, pol in zip(("c1", "c2", "c3", "d1", "d2", "d3"), plus)
                if pol == "V"
            }
            assert interval.flips == frozenset(expected)

    @pytest.mark.parametrize("theta", [0.27, 0.3, 0.5])
    def test_large_phase_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            decode_table(ALPHA, theta)


class TestCircuitBranches:
    def test_census_of_branches(self):
        state = build_psi_theta(HALF_PI).state
        tagged = tagged_circuit_state(state, ALPHA, THETA)
        branches = {}
        for (occ, idx), amp in tagged.items():
            pattern = "".join(
                "H" if occ[scheme_register.index(spatial, "H")] else "V"
                for spatial in SCHEME_SPATIALS
            )
            branches[pattern] = (idx, amp)
        assert len(branches) == 20
        for phase, (plus, minus) in BRANCH_TABLE.items():
            magnitude = 0.5 if phase == 12 else 1.0 / 6.0
            for pattern, expected_idx in ((plus, 2 * phase), (minus, -2 * phase)):
                idx, amp = branches[pattern]
                assert idx == expected_idx
                assert amp.real == pytest.approx(magnitude, abs=1e-12)
                assert amp.imag == 0.0


class TestGhzCircuit:
    def test_peak_center_decoding_all_intervals(self):
        state = build_psi_theta(HALF_PI).state
        table = decode_table(ALPHA, THETA)
        target = ghz_state()
        for interval in table.intervals:
            corrected, index = ghz_circuit(
                state, ALPHA, THETA, x=table.peak_center(interval)
            )
            assert index == interval.index
            assert corrected.fidelity(target) > 1.0 - 1e-9

    def test_off_center_outcome_is_repaired_by_phase(self):
        state = build_psi_theta(HALF_PI).state
        table = decode_table(ALPHA, THETA)
        target = ghz_state()
        for interval in (table.intervals[0], table.intervals[4], table.intervals[9]):
            x = table.peak_center(interval) + 0.8
            corrected, index = ghz_circuit(state, ALPHA, THETA, x=x)
            assert index == interval.index
            assert corrected.fidelity(target) > 1.0 - 1e-9

    def test_far_tail_outcome_is_decoded(self):
        # beyond the top peak by 12 (density 1.2e-33), by 38 (density below
        # 1e-300) and by 40 to 53, where the density exp(-offset^2 / 2) is 0
        # but the amplitude weight exp(-offset^2 / 4) is not: conditioning
        # still leaves terms and is exact
        readout = GhzReadout(build_psi_theta(HALF_PI).state, ALPHA, THETA)
        for offset in (12.0, 38.0, 40.0, 45.0, 53.0):
            corrected, index = readout.condition(2.0 * ALPHA + offset)
            assert index == 9
            assert corrected is not None and corrected.is_normalized
            assert corrected.fidelity(ghz_state()) >= 1.0 - 1e-12

    def test_no_far_tail_outcome_raises(self):
        readout = GhzReadout(build_psi_theta(HALF_PI).state, ALPHA, THETA)
        for step in range(0, 61):
            corrected, index = readout.condition(2.0 * ALPHA + step)
            assert index == 9
            assert corrected is None or corrected.is_normalized

    def test_unsupported_outcome_is_empty(self):
        state = build_psi_theta(HALF_PI).state
        corrected, index = ghz_circuit(state, ALPHA, THETA, x=2.0 * ALPHA + 400.0)
        assert corrected is None
        assert index == 9

    def test_interval_probabilities(self):
        state = build_psi_theta(HALF_PI).state
        probabilities = interval_probabilities(state, ALPHA, THETA)
        assert sum(probabilities) == pytest.approx(1.0, abs=1e-12)
        assert probabilities[0] == pytest.approx(0.5, abs=1e-6)
        for p in probabilities[1:]:
            assert p == pytest.approx(1.0 / 18.0, abs=1e-6)

    def test_sampled_frequencies_and_fidelity(self):
        state = build_psi_theta(HALF_PI).state
        draws = 2000
        results = sample_ghz_circuit(state, ALPHA, THETA, make_rng(99), draws)
        target = ghz_state()
        counts = [0] * 10
        total_fidelity = 0.0
        for corrected, interval, _x in results:
            counts[interval] += 1
            total_fidelity += corrected.fidelity(target)
        assert total_fidelity / draws > 1.0 - 1e-5
        expected = [0.5] + [1.0 / 18.0] * 9
        for count, p in zip(counts, expected):
            bound = 3.0 * math.sqrt(p * (1.0 - p) / draws)
            assert abs(count / draws - p) < bound

    def test_sampling_is_deterministic(self):
        state = build_psi_theta(HALF_PI).state
        first = sample_ghz_circuit(state, ALPHA, THETA, 1234, 5)
        second = sample_ghz_circuit(state, ALPHA, THETA, 1234, 5)
        assert [(i, x) for _, i, x in first] == [(i, x) for _, i, x in second]

    def test_non_finite_outcome_rejected(self):
        state = build_psi_theta(HALF_PI).state
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="quadrature x must be finite"):
                ghz_circuit(state, ALPHA, THETA, x=x)

    def test_sampled_call_is_one_readout_draw(self):
        state = build_psi_theta(HALF_PI).state
        corrected, index = ghz_circuit(state, ALPHA, THETA, rng=2024)
        expected, expected_index, _ = GhzReadout(state, ALPHA, THETA).sample(make_rng(2024))
        assert index == expected_index

        def bits(ket):
            return [(occ, amp.real.hex(), amp.imag.hex()) for occ, amp in ket.items()]

        assert bits(corrected) == bits(expected)

    def test_requires_outcome_or_rng(self):
        state = build_psi_theta(HALF_PI).state
        with pytest.raises(ValueError, match="rng"):
            ghz_circuit(state, ALPHA, THETA)

    def test_rejects_multi_photon_modes(self):
        bad = FockKet(
            scheme_register,
            {
                tuple(
                    2 if i == 0 else (1 if scheme_register.modes[i][1] == "H" and i > 1 else 0)
                    for i in range(12)
                ): 1.0
            },
        )
        with pytest.raises(ValueError, match="one photon"):
            ghz_circuit(bad, ALPHA, THETA, x=0.0)


# -- the extraction circuit as built from real elements -----------------

# probe settings for the readout checks below: the default one, and a weak
# probe whose peaks sit close enough that nearly every interval edge lies
# within 9 of a peak
PROPERTY_PROBES = ((ALPHA, THETA), (20.0, 0.2))

PATH_SPATIALS = ("p1", "p2", "p3", "p4", "p5", "p6")


def literal_circuit(state, alpha, theta):
    """The tagged state on the path-extended register, and the six polarizing taps.

    Each tap routes a scheme mode's H photon onto its path, the Kerr cells
    sit on the path H modes, and the probe gate follows.  Applying the taps
    again undoes them.
    """
    extended = state.extended((path, "H") for path in PATH_SPATIALS)
    register = extended.register
    taps = tuple(pbs(register, spatial, path, spatial) for spatial, path in zip(SCHEME_SPATIALS, PATH_SPATIALS))
    extended = apply_circuit(extended, taps)
    weights = [0] * len(register)
    for path, w in zip(PATH_SPATIALS, GHZ_KERR_THETA_WEIGHTS):
        weights[register.index(path, "H")] = 2 * w
    tagged = apply_cross_kerr(attach_probe(extended, alpha, theta), weights)
    return apply_probe_phase(tagged, GHZ_PROBE_GATE), taps


def literal_maps(tagged, taps, table):
    """The readout's maps as traced through the taps, keyed by the occupations the taps restore."""
    sources = list(dict.fromkeys(occ for (occ, _), _ in tagged.items()))
    tracer = apply_circuit(FockKet(taps[0].register, {occ: tag for tag, occ in enumerate(sources, start=1)}), taps)
    undone = tracer.restricted(SCHEME_SPATIALS)
    # undoing the taps relabels basis states: every tag survives, in order
    assert [tag for _, tag in undone.items()] == list(range(1, len(sources) + 1))
    restored = [occ for occ, _ in undone.items()]
    return [
        {restored[int(tag.real) - 1]: occ for occ, tag in spin_flip(undone, interval.flips).items()}
        for interval in table.intervals
    ]


@st.composite
def one_photon_per_mode_kets(draw):
    """Kets over some of the 64 one-photon-per-mode patterns, with finite parts and signed zeros."""
    patterns = draw(st.lists(st.text("HV", min_size=6, max_size=6), min_size=1, max_size=12, unique=True))
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e100, 1e100))
    terms = {pattern_occupation(p): complex(draw(part), draw(part)) for p in patterns}
    return FockKet(scheme_register, terms)


@settings(deadline=None, max_examples=60)
@given(state=one_photon_per_mode_kets(), probe=st.sampled_from(PROPERTY_PROBES))
@example(state=build_psi_theta(HALF_PI).state, probe=(ALPHA, THETA))
def test_direct_tagging_is_the_literal_circuit(state, probe):
    tagged = tagged_circuit_state(state, *probe)
    literal, taps = literal_circuit(state, *probe)
    assert tagged.register == scheme_register
    assert (tagged.alpha, tagged.theta) == (literal.alpha, literal.theta)
    # the signal terms with the taps undone by the real elements, in order, bit for bit
    undone = apply_circuit(FockKet(literal.register, {occ: amp for (occ, _), amp in literal.items()}), taps)
    undone = undone.restricted(SCHEME_SPATIALS)
    assert [(occ, idx, amp.real.hex(), amp.imag.hex()) for (occ, idx), amp in tagged.items()] == [
        (occ, idx, amp.real.hex(), amp.imag.hex())
        for (occ, amp), ((_, idx), _) in zip(undone.items(), literal.items(), strict=True)
    ]
    readout = GhzReadout(state, *probe)
    assert readout._maps == literal_maps(literal, taps, readout.table)


def swapped_by_label(occ, flips):
    """``occ`` with the H and V photons of each spatial mode in ``flips`` exchanged, read mode label by label."""
    other = {"H": "V", "V": "H"}
    return tuple(
        occ[scheme_register.index(spatial, other[pol] if spatial in flips else pol)]
        for spatial, pol in scheme_register.modes
    )


@settings(deadline=None, max_examples=60)
@given(state=one_photon_per_mode_kets(), probe=st.sampled_from(PROPERTY_PROBES))
@example(state=build_psi_theta(HALF_PI).state, probe=(ALPHA, THETA))
def test_spin_flip_and_readout_maps_swap_by_label(state, probe):
    readout = GhzReadout(state, *probe)
    sources = list(dict.fromkeys(occ for (occ, _), _ in readout._tagged.items()))
    for interval, relabel in zip(readout.table.intervals, readout._maps, strict=True):
        # ``0.0 +`` clears a negative zero's sign, and nothing else
        assert bits(spin_flip(state, interval.flips)) == [
            (swapped_by_label(occ, interval.flips), (0.0 + amp).real.hex(), (0.0 + amp).imag.hex())
            for occ, amp in state.items()
        ]
        assert list(relabel.items()) == [(occ, swapped_by_label(occ, interval.flips)) for occ in sources]


def test_an_infinite_part_stays_infinite():
    # the taps' batch multiplies by 1 + 0j, and inf * 0.0 is NaN; the direct tagging only adds 0.0
    state = FockKet(scheme_register, {pattern_occupation("HVHVHV"): complex(math.inf, 1.0)})
    [(_, amp)] = tagged_circuit_state(state, ALPHA, THETA).items()
    assert (amp.real, amp.imag) == (math.inf, 1.0)
    [(_, amp)] = literal_circuit(state, ALPHA, THETA)[0].items()
    assert math.isnan(amp.real) and math.isnan(amp.imag)


def per_draw_readout(conditioned, x, table, splitters):
    """The per-draw readout the compiled maps replace, written out step by step."""
    for splitter in splitters:
        conditioned = splitter.apply(conditioned)
    conditioned = conditioned.restricted(("c1", "c2", "c3", "d1", "d2", "d3"))
    interval = table.lookup(x)
    repaired = spin_flip(conditioned, interval.flips)
    phi = table.alpha * math.sin(interval.branch * table.theta) * (
        x - 2.0 * table.alpha * math.cos(interval.branch * table.theta)
    )
    if phi != 0.0:
        h_index = scheme_register.index("c1", "H")
        repaired = FockKet(
            scheme_register,
            {
                occ: amp * complex(math.cos(2.0 * phi * occ[h_index]), -math.sin(2.0 * phi * occ[h_index]))
                for occ, amp in repaired.items()
            },
        )
    return repaired, interval.index


def bits(ket: FockKet) -> list:
    """Terms in order with the exact bits of each amplitude (signed zeros too)."""
    return [(occ, amp.real.hex(), amp.imag.hex()) for occ, amp in ket.items()]


class TestCompiledReadout:
    def test_sampled_draws_match_per_draw_readout(self):
        state = build_psi_theta(HALF_PI).state
        for probe in PROPERTY_PROBES:
            table = decode_table(*probe)
            tagged, splitters = literal_circuit(state, *probe)
            compiled = sample_ghz_circuit(state, *probe, make_rng(2024), 1000)
            rng = make_rng(2024)
            for corrected, interval, x in compiled:
                outcome = sample_homodyne(tagged, rng)
                expected, expected_interval = per_draw_readout(outcome.conditional, outcome.x, table, splitters)
                assert x == outcome.x
                assert interval == expected_interval
                assert bits(corrected) == bits(expected)

    def test_exact_outcomes_match_per_draw_readout(self):
        state = build_psi_theta(HALF_PI).state
        table = decode_table(ALPHA, THETA)
        tagged, splitters = literal_circuit(state, ALPHA, THETA)
        for interval in table.intervals:
            for shift in (0.0, 0.8, -1.3):
                x = table.peak_center(interval) + shift
                corrected, index = ghz_circuit(state, ALPHA, THETA, x=x)
                expected, expected_index = per_draw_readout(
                    homodyne_condition(tagged, x), x, table, splitters
                )
                assert index == expected_index
                assert bits(corrected) == bits(expected)


def _outcomes_near_peaks(alpha, theta):
    table = decode_table(alpha, theta)
    peaks = [table.peak_center(interval) for interval in table.intervals]
    edges = [
        x
        for interval in table.intervals[1:]
        for x in (interval.x_lo, math.nextafter(interval.x_lo, -math.inf))
        if min(abs(x - peak) for peak in peaks) <= 9.0
    ]
    near = st.builds(lambda peak, offset: peak + offset, st.sampled_from(peaks), st.floats(-9.0, 9.0))
    return st.one_of(st.sampled_from(edges), near)


@pytest.fixture(scope="module")
def readouts():
    state = build_psi_theta(HALF_PI).state
    return {
        probe: (GhzReadout(state, *probe), *literal_circuit(state, *probe))
        for probe in PROPERTY_PROBES
    }


@settings(deadline=None)
@given(
    data=st.sampled_from(PROPERTY_PROBES).flatmap(
        lambda probe: st.tuples(st.just(probe), _outcomes_near_peaks(*probe))
    )
)
def test_condition_matches_per_draw_readout_near_every_peak(readouts, data):
    probe, x = data
    readout, tagged, splitters = readouts[probe]
    corrected, index = readout.condition(x)
    expected, expected_index = per_draw_readout(
        homodyne_condition(tagged, x), x, decode_table(*probe), splitters
    )
    assert index == expected_index
    assert bits(corrected) == bits(expected)


# -- the decode table as it was built before the branch census derived it --


def old_branch_patterns() -> dict[int, tuple[str, str]]:
    """Branch phase -> (more-H pattern, its complement), from all 20 patterns."""
    patterns = ["H" * 6, "V" * 6]
    for pattern in [h + d for h in ("VHH", "HVH", "HHV") for d in ("VHH", "HVH", "HHV")]:
        patterns.append(pattern)
        patterns.append(pattern.translate(str.maketrans("HV", "VH")))
    groups: dict[int, tuple[str, str]] = {}
    for pattern in patterns:
        phase = sum(
            w for w, pol in zip(GHZ_KERR_THETA_WEIGHTS, pattern) if pol == "H"
        ) - 12
        if phase > 0 or (phase == 0 and pattern.count("H") > 3):
            partner = pattern.translate(str.maketrans("HV", "VH"))
            groups[phase] = (pattern, partner)
    return groups


def old_decode_table(alpha: float, theta: float) -> GhzDecodeTable:
    """Written-out interval order and two threshold formulas."""
    if alpha <= 0 or theta <= 0:
        raise ValueError("alpha and theta must be positive")
    if 12 * theta > math.pi:
        raise ValueError(
            f"theta={theta} too large: branch peak ordering needs 12*theta <= pi"
        )
    thresholds = [alpha * (math.cos(12 * theta) + math.cos(8 * theta))]
    thresholds += [
        alpha * (math.cos((9 - i) * theta) + math.cos((8 - i) * theta)) for i in range(1, 9)
    ]
    if any(lo >= hi for lo, hi in zip(thresholds, thresholds[1:])):
        raise ValueError(
            f"homodyne thresholds are not strictly increasing at theta={theta}; "
            "branch peaks overlap"
        )
    branch_of_interval = [12] + [9 - i for i in range(1, 9)] + [0]
    patterns = old_branch_patterns()
    edges = [-math.inf] + thresholds + [math.inf]
    intervals = []
    for index in range(10):
        branch = branch_of_interval[index]
        plus_pattern = patterns[branch][0]
        flips = frozenset(
            spatial for spatial, pol in zip(SCHEME_SPATIALS, plus_pattern) if pol == "V"
        )
        intervals.append(
            DecodeInterval(
                index=index,
                x_lo=edges[index],
                x_hi=edges[index + 1],
                branch=branch,
                flips=flips,
            )
        )
    return GhzDecodeTable(alpha=float(alpha), theta=float(theta), intervals=tuple(intervals))


def _table_or_error(build, alpha, theta):
    try:
        return build(alpha, theta)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(deadline=None, max_examples=300)
@given(
    alpha=st.floats(1e-3, 1e6),
    theta=st.one_of(
        st.floats(0.0, 0.3, exclude_min=True),
        # near the 12 theta = pi guard and where thresholds tie
        st.sampled_from([math.pi / 12, math.nextafter(math.pi / 12, 1.0), 1e-9, 5e-324]),
    ),
)
def test_decode_table_matches_written_out_construction(alpha, theta):
    new = _table_or_error(decode_table, alpha, theta)
    old = _table_or_error(old_decode_table, alpha, theta)
    if isinstance(old, str):
        assert new == old
        return
    assert (new.alpha, new.theta) == (old.alpha, old.theta)
    assert len(new.intervals) == len(old.intervals) == 10
    for got, want in zip(new.intervals, old.intervals):
        assert (got.index, got.x_lo, got.x_hi, got.branch, got.flips) == (
            want.index,
            want.x_lo,
            want.x_hi,
            want.branch,
            want.flips,
        )


def test_census_rejects_a_negative_branch_phase(monkeypatch):
    # with a weak last cell, 'HHVVHH' gathers 1 + 2 + 6 + 1 = 10 of the gate's 12
    from focksim import schemes

    monkeypatch.setattr(schemes, "GHZ_KERR_THETA_WEIGHTS", (1, 2, 3, 3, 6, 1))
    with pytest.raises(ValueError, match="negative branch phase"):
        schemes._branch_patterns()
    with pytest.raises(ValueError, match="negative branch phase"):
        decode_table(ALPHA, THETA)
