"""Kets built inside the library trust the amplitudes they are built from.

Every stored amplitude is a Python ``complex`` (the public constructors
convert, every operation keeps the type), internal construction only
prunes, and a ket sums its norm squared once.  The draws of the GHZ readout
and of sampled detection skip the density that ``sample_homodyne`` reports,
and must otherwise be the old draw, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksim import (
    CoefficientPair,
    FockKet,
    GhzReadout,
    ModeRegister,
    apply_cross_kerr,
    apply_phase_correction,
    apply_probe_phase,
    attach_probe,
    bs_5050,
    build_psi_theta,
    detect,
    detector_probe_state,
    expand_bilinear_power,
    homodyne_condition,
    homodyne_pdf,
    make_rng,
    peak_center,
    polarization_rotation,
    sample_homodyne,
    scheme_register,
    spin_flip,
    twin_beam_register,
    twin_beam_state,
)
from focksim.detector import decide_and_repair
from focksim.kerr import ProbeTaggedState
from focksim.pdc import singlet_form

TWIN = twin_beam_register
TWO = ModeRegister([("a", "H"), ("b", "H")])
ALPHA, THETA = 1000.0, 0.1
PAIR = CoefficientPair(0.6, math.sqrt(0.5 - 0.36))


def bits(ket: FockKet) -> list:
    """Terms in order with the exact bits of each amplitude (signed zeros too)."""
    return [(occ, amp.real.hex(), amp.imag.hex()) for occ, amp in ket.items()]


@pytest.fixture(scope="module")
def readout():
    return GhzReadout(build_psi_theta(math.pi / 2.0).state, ALPHA, THETA)


@pytest.fixture(scope="module")
def kets(readout):
    """One ket from every operation that builds one."""
    twin = twin_beam_state(PAIR)
    mixed = bs_5050(TWIN, "a", "b").apply(twin)
    tagged = detector_probe_state(twin, ALPHA, THETA)
    table = readout.table
    off_peak = table.peak_center(table.intervals[3]) + 0.4
    return {
        "public constructor": twin,
        "mixing apply": mixed,
        "rotation apply": polarization_rotation(TWIN, "a", 0.3).apply(twin),
        "sum": twin + mixed,
        "difference": twin - mixed,
        "scaled": mixed * (0.3 - 0.2j),
        "normalized": (twin + mixed).normalized(),
        "project": mixed.project({"a": 3})[0],
        "extended": mixed.extended([("c", "H")]),
        "restricted": mixed.extended([("c", "H")]).restricted(("a", "b")),
        "bilinear power": expand_bilinear_power(singlet_form(TWIN), 2, TWIN),
        "homodyne condition": homodyne_condition(tagged, peak_center(ALPHA, THETA) + 0.3),
        "branch": tagged.branch(0),
        "phase correction": apply_phase_correction(mixed, 0.7, "b"),
        "forced asymmetric": detect(twin, ALPHA, THETA, force="asymmetric").state,
        "sampled detection": detect(twin, ALPHA, THETA, rng=5).state,
        "spin flip": spin_flip(build_psi_theta(0.4).state, ("c1", "d2")),
        "prepared": build_psi_theta(0.4).state,
        "ghz repair": readout.condition(off_peak)[0],
        "ghz repair at a peak": readout.condition(table.peak_center(table.intervals[3]))[0],
        "ghz sample": readout.sample(make_rng(3))[0],
        "sample_homodyne": sample_homodyne(tagged, 11).conditional,
    }


KET_NAMES = [
    "public constructor", "mixing apply", "rotation apply", "sum", "difference", "scaled",
    "normalized", "project", "extended", "restricted", "bilinear power",
    "homodyne condition", "branch", "phase correction", "forced asymmetric",
    "sampled detection", "spin flip", "prepared", "ghz repair", "ghz repair at a peak",
    "ghz sample", "sample_homodyne",
]


def test_every_operation_is_listed(kets):
    assert list(kets) == KET_NAMES


@pytest.mark.parametrize("name", KET_NAMES)
def test_amplitudes_are_python_complex(kets, name):
    ket = kets[name]
    assert len(ket) > 0
    assert all(type(amp) is complex for _, amp in ket.items())


def test_tagged_amplitudes_are_python_complex():
    tagged = attach_probe(bs_5050(TWIN, "a", "b").apply(twin_beam_state(PAIR)), ALPHA, THETA)
    for state in (tagged, apply_cross_kerr(tagged, (2, 2, 1, 1)), apply_probe_phase(tagged, -9)):
        assert len(state) > 0
        assert all(type(amp) is complex for _, amp in state.items())
    public = ProbeTaggedState(TWO, {((1, 0), 0): 1, ((0, 1), 2): 0.5}, ALPHA, THETA)
    assert all(type(amp) is complex for _, amp in public.items())


@pytest.mark.parametrize("name", KET_NAMES)
def test_cached_norm_squared_is_the_sum(kets, name):
    ket = kets[name]
    fresh = sum(abs(amp) ** 2 for _, amp in ket.items())
    assert ket.norm_squared == fresh
    assert ket._norm_squared == fresh
    assert ket.norm_squared == fresh
    assert ket.norm == math.sqrt(fresh)


def test_group_total_is_the_sum_a_draw_took():
    tagged = detector_probe_state(twin_beam_state(PAIR), ALPHA, THETA)
    assert tagged._view().group_total == sum(weight for _, weight, _ in tagged.phase_groups())


def test_public_constructor_converts():
    ket = FockKet(TWO, {(1, 0): np.complex128(0.6), (0, 1): 0.8, (1, 1): 1})
    assert all(type(amp) is complex for _, amp in ket.items())


def test_internal_construction_prunes_and_keeps_nan():
    nan = complex(math.nan, 0.0)
    terms = {(1, 0): 1e-15 + 0j, (0, 1): 0.5 + 0j, (1, 1): nan, (2, 0): 0j}
    assert list(dict(FockKet._from_valid(TWO, terms).items())) == [(0, 1), (1, 1)]
    tagged = ProbeTaggedState._from_valid(
        TWO, {(occ, 0): amp for occ, amp in terms.items()}, ALPHA, THETA
    )
    assert [occ for (occ, _), _ in tagged.items()] == [(0, 1), (1, 1)]


def test_operations_prune_what_falls_below_the_threshold():
    mixed = bs_5050(TWIN, "a", "b").apply(twin_beam_state(PAIR))
    assert len(mixed * 1e-15) == 0
    assert len(mixed - mixed) == 0
    assert (mixed * 1e-15).norm_squared == 0.0


# -- the draws, against the path that also computed the density ------------


def old_sample_homodyne(state, rng):
    """``sample_homodyne`` as it was written, density included."""
    if not state.is_normalized:
        raise ValueError("sampling needs a normalized probe-tagged state")
    groups = state.phase_groups()
    total = sum(weight for _, weight, _ in groups)
    draw = rng.random() * total
    acc = 0.0
    for chosen, weight, center in groups:
        acc += weight
        if draw < acc:
            break
    x = float(rng.normal(loc=center, scale=1.0))
    conditional = homodyne_condition(state, x)
    if conditional is None:
        raise ValueError("sampled outcome has zero density; state inconsistent")
    return x, abs(chosen), conditional, homodyne_pdf(state, x)


def old_repair(readout, conditioned, x):
    """``GhzReadout._repair`` building its ket through the converting constructor."""
    table = readout.table
    interval = table.lookup(x)
    relabel = readout._maps[interval.index]
    phase = interval.branch * table.theta
    phi = table.alpha * math.sin(phase) * (x - 2.0 * table.alpha * math.cos(phase))
    if phi == 0.0:
        terms = {relabel[occ]: amp for occ, amp in conditioned.items()}
    else:
        h_index = scheme_register.index("c1", "H")
        terms = {}
        for occ, amp in conditioned.items():
            target = relabel[occ]
            angle = 2.0 * phi * target[h_index]
            terms[target] = amp * complex(math.cos(angle), -math.sin(angle))
    return FockKet(scheme_register, terms), interval.index


@pytest.fixture(scope="module")
def weak_readout():
    # peaks close enough that draws land between them and phases do not vanish
    return GhzReadout(build_psi_theta(math.pi / 2.0).state, 20.0, 0.2)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**64 - 1), weak=st.booleans())
def test_ghz_sample_matches_old_draw_path(readout, weak_readout, seed, weak):
    readout = weak_readout if weak else readout
    new, old = make_rng(seed), make_rng(seed)
    for _ in range(20):
        corrected, index, x = readout.sample(new)
        old_x, _, conditional, _ = old_sample_homodyne(readout._tagged, old)
        expected, expected_index = old_repair(readout, conditional, old_x)
        assert x == old_x
        assert index == expected_index
        assert bits(corrected) == bits(expected)


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_sample_homodyne_reports_the_old_outcome(seed):
    tagged = detector_probe_state(twin_beam_state(PAIR), 20.0, 0.2)
    new, old = make_rng(seed), make_rng(seed)
    for _ in range(20):
        outcome = sample_homodyne(tagged, new)
        x, index, conditional, density = old_sample_homodyne(tagged, old)
        assert (outcome.x, outcome.interval_index, outcome.probability_density) == (x, index, density)
        assert bits(outcome.conditional) == bits(conditional)


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_sampled_detection_matches_old_draw_path(seed):
    state = twin_beam_state(PAIR)
    alpha, theta = 20.0, 0.2
    tagged = detector_probe_state(state.normalized(), alpha, theta)
    p_symmetric = tagged.group_weights()[0]
    new, old = make_rng(seed), make_rng(seed)
    for _ in range(20):
        outcome = detect(state, alpha, theta, rng=new)
        x, _, conditional, _ = old_sample_homodyne(tagged, old)
        branch, repaired = decide_and_repair(conditional, x, alpha, theta)
        assert (outcome.measured_x, outcome.branch) == (x, branch)
        assert outcome.probability == (p_symmetric if branch == "symmetric" else 1.0 - p_symmetric)
        assert bits(outcome.state) == bits(repaired)


# -- conditioning, against the pass over every term that built two kets -----


def old_homodyne_condition(state, x):
    """``homodyne_condition`` as it was written: every term weighed, two kets built.

    Its tail guard read the density, which underflows from about 38.6 from
    every peak; within 38 of a peak that guard and the amplitude weight agree.
    """
    nearest = min(abs(x - center) for _, _, center in state.phase_groups())
    terms = [
        (occ, amp, peak_center(state.alpha, state.phase_of(idx)), state.alpha * math.sin(state.phase_of(idx)))
        for (occ, idx), amp in state.items()
    ]
    if nearest > math.sqrt(80.0) and homodyne_pdf(state, x) > 0.0:
        scale = math.ldexp(1.0, -math.frexp(math.exp(-0.25 * nearest * nearest))[1])
        terms = [(occ, amp * scale, center, rate) for occ, amp, center, rate in terms]
    out = {}
    for occ, amp, center, rate in terms:
        offset = x - center
        weight = math.exp(-0.25 * offset * offset)
        if weight == 0.0:
            continue
        factor = weight * complex(math.cos(rate * offset), math.sin(rate * offset))
        out[occ] = out.get(occ, 0.0) + amp * factor
    conditioned = FockKet._from_valid(state.register, out)
    if conditioned.norm_squared == 0.0:
        return None
    return conditioned.normalized()


@pytest.fixture(scope="module")
def tagged_states(readout, weak_readout):
    detector = [detector_probe_state(twin_beam_state(PAIR), *probe) for probe in ((20.0, 0.2), (ALPHA, THETA))]
    # two occupations at two probe phases each: the terms of one merge, and the
    # first term of the other weighs 0.0 where the second does not
    shared = ProbeTaggedState(
        TWO, {((0, 1), -40): 0.36 + 0.2j, ((1, 0), 0): 0.6, ((0, 1), 0): 0.48j, ((1, 0), 2): -0.48}, 20.0, 0.2
    )
    return [readout._tagged, weak_readout._tagged, *detector, shared]


def test_conditioning_matches_the_full_pass(tagged_states):
    # the fused pass weighs only the terms within 60 of x, skips those the
    # prune would drop and builds no ket; every outcome within 38 of a peak
    for tagged in tagged_states:
        for _, _, center in tagged.phase_groups():
            for step in range(-345, 346):
                x = center + step * 0.11
                new, old = homodyne_condition(tagged, x), old_homodyne_condition(tagged, x)
                assert (new is None) == (old is None)
                assert new is None or bits(new) == bits(old)
