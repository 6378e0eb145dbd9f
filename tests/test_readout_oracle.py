"""The one-pass detector readout against its old path, bit for bit.

A ``homodyne-sweep`` row used to condition into a ket, repair the phase
into a second ket and take ``FockKet.fidelity`` against a target ket; a
cascade step (``detect(state, alpha, theta, force="symmetric")``) used to
build three tagged states and take the phase-0 branch, and forced
asymmetric detection to build them and keep every other branch.
Each old path is written out here, and every float it gives is compared
with ``float.hex``, so a sign of zero or a last bit that moves fails.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focksim import cli
from focksim.detector import (
    CoefficientPair,
    cascade_simulate,
    detect,
    detector_probe_state,
    twin_beam_register,
    twin_beam_state,
)
from focksim.fock import PRUNE_THRESHOLD, FockKet
from focksim.kerr import homodyne_pdf, midpoint_threshold, peak_center, repair_phase

ARM_B = twin_beam_register.spatial_indices("b")


def pruned(terms: dict) -> dict:
    return {occ: amp for occ, amp in terms.items() if not abs(amp) < PRUNE_THRESHOLD}


def normalized(terms: dict) -> dict:
    """``FockKet.normalized`` on a ket's terms."""
    scale = complex(1.0 / math.sqrt(sum(abs(a) ** 2 for a in terms.values())))
    return pruned({occ: amp * scale for occ, amp in terms.items()})


def old_conditioned(state, x: float) -> dict | None:
    """``homodyne_condition`` as it was: its terms, or ``None`` for no state.

    Each branch's peak centre, rate and bound come from the branch itself,
    not from the state's readout view.  The view's window of 60 about ``x``
    is left out: every weight beyond it is 0.0, which the loop skips.
    """
    shared = Counter(occ for (occ, _), _ in state.items())
    terms = []
    for (occ, idx), amp in state.items():
        phase = state.phase_of(idx)
        bound = abs(amp) if shared[occ] == 1 else math.inf
        terms.append((occ, amp, peak_center(state.alpha, phase), state.alpha * math.sin(phase), bound))
    nearest = min((abs(x - center) for _, _, center, _, _ in terms), default=math.inf)
    if nearest > math.sqrt(80.0) and (weight := math.exp(-0.25 * nearest * nearest)) > 0.0:
        scale = math.ldexp(1.0, min(-math.frexp(weight)[1], 1023))
        terms = [(occ, amp * scale, center, rate, bound * scale) for occ, amp, center, rate, bound in terms]
    out = {}
    for occ, amp, center, rate, bound in terms:
        offset = x - center
        weight = math.exp(-0.25 * offset * offset)
        if weight == 0.0 or weight * bound < 0.5 * PRUNE_THRESHOLD:
            continue
        factor = weight * complex(math.cos(rate * offset), math.sin(rate * offset))
        out[occ] = out.get(occ, 0.0) + amp * factor
    norm_squared = sum(abs(a) ** 2 for a in out.values() if not abs(a) < PRUNE_THRESHOLD)
    if norm_squared == 0.0:
        return None
    scale = complex(1.0 / math.sqrt(norm_squared))
    return {occ: amp for occ, a in out.items()
            if not abs(a) < PRUNE_THRESHOLD and not abs(amp := a * scale) < PRUNE_THRESHOLD}


def old_phase_correction(terms: dict, phi: float) -> dict:
    out = {}
    for occ, amp in terms.items():
        count = sum(occ[i] for i in ARM_B)
        out[occ] = amp * complex(math.cos(0.5 * phi * count), math.sin(0.5 * phi * count))
    return pruned(out)


def old_decide_and_repair(conditional: dict | None, x: float, alpha: float, theta: float):
    if x > midpoint_threshold(alpha, theta):
        return "symmetric", conditional
    if conditional is None:
        return "asymmetric", None
    phi = repair_phase(alpha, theta, x) % (2.0 * math.pi)
    return "asymmetric", old_phase_correction(conditional, phi)


def old_fidelity(terms: dict, other: dict) -> float:
    denom = sum(abs(a) ** 2 for a in terms.values()) * sum(abs(a) ** 2 for a in other.values())
    if denom == 0.0:
        return 0.0
    if len(terms) <= len(other):
        inner = sum(amp.conjugate() * b for occ, amp in terms.items() if (b := other.get(occ)) is not None)
    else:
        inner = sum(terms[occ].conjugate() * b for occ, b in other.items() if occ in terms)
    return abs(inner) ** 2 / denom


class OldSweep:
    """One sweep's old readout: the tagged state and both target kets, as terms."""

    def __init__(self, m0: float, n0: float, alpha: float, theta: float):
        self.alpha, self.theta = alpha, theta
        self.pair = CoefficientPair(m0, n0).normalized()
        self.state = twin_beam_state(self.pair)
        self.tagged = detector_probe_state(self.state, alpha, theta)
        symmetric = normalized({occ: amp for (occ, idx), amp in self.tagged.items() if idx == 0})
        asymmetric = None
        if abs(self.pair.m - self.pair.n) > 1e-12:
            asymmetric = normalized(pruned({occ: amp for (occ, idx), amp in self.tagged.items() if idx != 0}))
        self.targets = {"symmetric": (0, symmetric), "asymmetric": (1, asymmetric)}

    def row(self, x: float) -> tuple:
        branch, repaired = old_decide_and_repair(old_conditioned(self.tagged, x), x, self.alpha, self.theta)
        interval, target = self.targets[branch]
        fidelity = old_fidelity(repaired, target) if repaired is not None and target is not None else 0.0
        return (x, homodyne_pdf(self.tagged, x), interval, fidelity)

    def new_rows(self, a: float, b: float) -> list[tuple]:
        """The sweep's rows at ``a`` and ``b``: a 2-point grid is its two ends, exactly."""
        asymmetric = detect(self.state, self.alpha, self.theta, force="asymmetric").state \
            if self.targets["asymmetric"][1] is not None else None
        targets = {"symmetric": (0, self.tagged.branch(0)), "asymmetric": (1, asymmetric)}
        typed = {"alpha": self.alpha, "theta": self.theta, "grid": 2}
        return list(cli._sweep_rows(typed, self.tagged, targets, a, b))


def hexed(row: tuple) -> tuple:
    return tuple(cell if isinstance(cell, int) else cell.hex() for cell in row)


PAIRS = [(0.6, 0.3), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.5, -0.5000001), (-0.3, 0.9)]
PROBES = [(1000.0, 0.1), (2.0, 0.1), (20.0, 3.0), (1000.0, 3.0)]


@pytest.mark.parametrize("probe", PROBES, ids=[f"alpha={a}-theta={t}" for a, t in PROBES])
@pytest.mark.parametrize("pair", PAIRS, ids=[f"m0={m}-n0={n}" for m, n in PAIRS])
def test_sweep_grid_matches_the_old_readout(pair, probe):
    alpha, theta = probe
    old = OldSweep(*pair, alpha, theta)
    typed = {"m0": pair[0], "n0": pair[1], "alpha": alpha, "theta": theta, "grid": 201}
    new = list(cli.run_homodyne_sweep(typed))
    lo, top = 2.0 * alpha * math.cos(theta) - 8.0, 2.0 * alpha + 8.0
    assert [hexed(row) for row in new] == [hexed(old.row(x)) for x in np.linspace(lo, top, 201).tolist()]


@pytest.mark.parametrize("probe", PROBES, ids=[f"alpha={a}-theta={t}" for a, t in PROBES])
@pytest.mark.parametrize("pair", PAIRS, ids=[f"m0={m}-n0={n}" for m, n in PAIRS])
def test_sweep_points_at_the_threshold_and_far_out_match_the_old_readout(pair, probe):
    alpha, theta = probe
    old = OldSweep(*pair, alpha, theta)
    x0 = midpoint_threshold(alpha, theta)
    centers = [center for _, _, center in old.tagged.phase_groups()]
    ends = [
        (math.nextafter(x0, -math.inf), x0),
        (x0, math.nextafter(x0, math.inf)),
        (x0 - 0.5, x0 + 0.5),
        # more than 60 from every peak: no term survives
        (min(centers) - 60.5, max(centers) + 61.0),
        # the scaled tail, up to where the nearest weight underflows
        (min(centers) - 40.0, max(centers) + 54.0),
    ]
    for a, b in ends:
        assert [hexed(row) for row in old.new_rows(a, b)] == [hexed(old.row(a)), hexed(old.row(b))]
    # the far points really had no state, and the threshold reads asymmetric
    assert old_conditioned(old.tagged, max(centers) + 61.0) is None
    assert old_decide_and_repair(None, x0, alpha, theta)[0] == "asymmetric"


def old_cascade(pair: CoefficientPair, k: int, alpha: float, theta: float):
    """``cascade_simulate`` as it was: the loop of ``detect(force="symmetric")``, written out."""
    state = twin_beam_state(pair.normalized())
    states, probabilities = [], []
    for _ in range(k):
        if state.register != twin_beam_register or state.photon_numbers() != {6}:
            raise ValueError("detector expects a six-photon twin-beam ket")
        tagged = detector_probe_state(state.normalized(), alpha, theta)
        probability = tagged.group_weights().get(0, 0.0)
        state = tagged.branch(0)
        states.append(state)
        probabilities.append(probability)
    return states, probabilities


def ket_bits(ket) -> list:
    return [(occ, amp.real.hex(), amp.imag.hex()) for occ, amp in ket.items()]


pairs = st.floats(0.0, 2.0 * math.pi).map(lambda a: (math.cos(a), math.sin(a))) | st.sampled_from(
    [(1.0, 1.0), (1.0, -1.0), (0.5, -0.5000001), (-0.5000001, 0.5), (0.0, 1.0), (1.0, 0.0), (0.0, -1.0)]
)


@settings(deadline=None, max_examples=25)
@given(pair=pairs)
@example(pair=(0.5, -0.5000001))
@example(pair=(1.0, 1.0))
@example(pair=(0.0, 1.0))
@example(pair=(1.0, 0.0))
def test_cascade_steps_match_the_old_detect_loop(pair):
    pair0 = CoefficientPair(*pair)
    states, probabilities = old_cascade(pair0, 30, 1000.0, 0.1)
    for k in range(1, 31):
        run = cascade_simulate(pair0, k)
        assert [p.hex() for p in run.step_probabilities] == [p.hex() for p in probabilities[:k]]
        cumulative = 1.0
        for p in probabilities[:k]:
            cumulative *= p
        assert run.cumulative_probability.hex() == cumulative.hex()
        assert ket_bits(run.state) == ket_bits(states[k - 1])


def old_forced(state, alpha: float, theta: float, branch: str):
    """``detect(state, alpha, theta, force=branch)`` as it was: three tagged states, then one branch kept."""
    tagged = detector_probe_state(state.normalized(), alpha, theta)
    p_symmetric = tagged.group_weights().get(0, 0.0)
    if branch == "symmetric":
        kept = {occ: amp for (occ, idx), amp in tagged.items() if idx == 0}
        probability = p_symmetric
    else:
        kept = {occ: amp for (occ, idx), amp in tagged.items() if idx != 0}
        probability = 1.0 - p_symmetric
    if not kept:
        raise ValueError(f"state has no {branch} component")
    return FockKet._from_valid(tagged.register, kept).normalized(), probability


@pytest.mark.parametrize("branch", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("probe", PROBES, ids=[f"alpha={a}-theta={t}" for a, t in PROBES])
@pytest.mark.parametrize("pair", PAIRS, ids=[f"m0={m}-n0={n}" for m, n in PAIRS])
def test_forced_detection_matches_the_old_tagged_path(pair, probe, branch):
    state = twin_beam_state(CoefficientPair(*pair).normalized())
    try:
        old_state, old_probability = old_forced(state, *probe, branch)
    except ValueError as exc:  # m = n has no asymmetric component
        with pytest.raises(ValueError, match=str(exc)):
            detect(state, *probe, force=branch)
        return
    outcome = detect(state, *probe, force=branch)
    assert outcome.branch == branch
    assert ket_bits(outcome.state) == ket_bits(old_state)
    assert outcome.probability.hex() == old_probability.hex()


@pytest.mark.parametrize("branch", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("part", ["real", "imaginary"])
@pytest.mark.parametrize("pair", [(0.6, 0.3), (-0.3, 0.9), (1.0, 0.0)], ids=["m0=0.6-n0=0.3", "m0=-0.3-n0=0.9",
                                                                         "m0=1-n0=0"])
def test_forced_detection_of_negative_zero_parts_matches_the_old_tagged_path(pair, part, branch):
    # each amplitude as one part and a -0.0 for the other
    state = twin_beam_state(CoefficientPair(*pair).normalized())
    signed = (lambda a: complex(a, -0.0)) if part == "real" else (lambda a: complex(-0.0, a))
    state = FockKet(state.register, {occ: signed(amp.real) for occ, amp in state.items()})
    # some of them reach the splitter, normalized, still -0.0
    parts = [x for _, amp in state.normalized().items() for x in (amp.real, amp.imag)]
    assert any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in parts)
    old_state, old_probability = old_forced(state, 1000.0, 0.1, branch)
    outcome = detect(state, 1000.0, 0.1, force=branch)
    assert ket_bits(outcome.state) == ket_bits(old_state)
    assert outcome.probability.hex() == old_probability.hex()
