"""Six-mode entangled-state preparation and GHZ extraction pipelines.

The preparation pipeline rotates one arm of the six-photon twin-beam
state, splits each arm into three spatial modes with an unbalanced and a
balanced beam splitter, and post-selects on exactly one photon per output
mode.  The extraction circuit couples the horizontal photon of every
output mode to a shared coherent probe with weighted cross-Kerr cells,
reads the probe with X homodyne, and repairs the surviving branch with up
to two polarization flips plus a measurement-dependent phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .elements import ModeTransform, apply_circuit, bs_unbalanced, polarization_rotation
from .fock import FockKet, ModeRegister, _Selection
from .kerr import (
    ProbeTaggedState,
    _conditioned_terms,
    _draw_homodyne,
    _turned,
    apply_cross_kerr,
    apply_probe_phase,
    attach_probe,
    make_rng,
    peak_center,
    repair_phase,
)
from .pdc import psi_n

SCHEME_SPATIALS = ("c1", "c2", "c3", "d1", "d2", "d3")
scheme_register = ModeRegister.polarized(*SCHEME_SPATIALS)
# the post-selection of the preparation, which the extraction circuit needs of its input
_ONE_PHOTON_PER_MODE = {spatial: 1 for spatial in SCHEME_SPATIALS}
_C1_H = (scheme_register.index("c1", "H"),)  # the mode whose phase the GHZ repair turns

# Kerr cell strengths on the horizontal modes, in base-phase units,
# ordered as SCHEME_SPATIALS; the probe gate then rewinds 12 base units.
GHZ_KERR_THETA_WEIGHTS = (1, 2, 3, 3, 6, 9)
GHZ_PROBE_GATE = -24  # half-theta units
_KERR_WEIGHTS = tuple(x for w in GHZ_KERR_THETA_WEIGHTS for x in (2 * w, 0))  # per scheme_register mode (H, V)

_SPLITTER_SPATIALS = ("c0", "c1", "c2", "c3", "d0", "d1", "d2", "d3")

# cyclic path assignments appearing in the three-way splitter output
_C_PERMS = (("c1", "c2", "c3"), ("c1", "c3", "c2"), ("c2", "c3", "c1"))
_D_PERMS = (("d1", "d2", "d3"), ("d1", "d3", "d2"), ("d2", "d3", "d1"))
_ID_C = (_C_PERMS[0],)
_ID_D = (_D_PERMS[0],)


@dataclass(frozen=True)
class SchemeResult:
    """Post-selected six-mode state with its heralding probability."""

    state: FockKet
    postselect_probability: float


def pattern_occupation(pattern: str) -> tuple[int, ...]:
    """Occupation vector for one photon per scheme mode with given polarizations."""
    if len(pattern) != 6 or any(ch not in "HV" for ch in pattern):
        raise ValueError(f"pattern must be six H/V letters, got {pattern!r}")
    occ = [0] * len(scheme_register)
    for spatial, pol in zip(SCHEME_SPATIALS, pattern):
        occ[scheme_register.index(spatial, pol)] = 1
    return tuple(occ)


def ghz_state() -> FockKet:
    """(|HHHHHH> + |VVVVVV>) / sqrt(2) on the six scheme modes."""
    inv = 1.0 / math.sqrt(2.0)
    return FockKet(
        scheme_register,
        {pattern_occupation("H" * 6): inv, pattern_occupation("V" * 6): inv},
    )


def _single_minority_patterns(majority: str, minority: str) -> list[str]:
    """The nine patterns with one ``minority`` letter in each arm triple, in (i, j) order."""
    halves = [majority * i + minority + majority * (2 - i) for i in range(3)]
    return [half_c + half_d for half_c in halves for half_d in halves]


def w_pair_state(flipped: bool = False) -> FockKet:
    """Product of two three-mode W states, one per arm triple.

    Nine equal-amplitude patterns with a single V (single H when
    ``flipped``) in each triple.
    """
    majority, minority = ("V", "H") if flipped else ("H", "V")
    terms = {
        pattern_occupation(pattern): 1.0 / 3.0
        for pattern in _single_minority_patterns(majority, minority)
    }
    return FockKet(scheme_register, terms)


@cache
def _preparation() -> tuple[FockKet, tuple[ModeTransform, ...]]:
    """psi_n(3) padded with the splitters' vacuum modes, and the four splitters, built once per process."""
    source = psi_n(3).extended(ModeRegister.polarized(*_SPLITTER_SPATIALS).modes)
    register = source.register
    splitters = (
        bs_unbalanced(register, "a", "c1", "c0", 2.0 / 3.0),
        bs_unbalanced(register, "b", "d1", "d0", 2.0 / 3.0),
        bs_unbalanced(register, "c0", "c3", "c2", 0.5),
        bs_unbalanced(register, "d0", "d3", "d2", 0.5),
    )
    return source, splitters


def build_psi_theta(theta: float) -> SchemeResult:
    """Run the full preparation pipeline at rotation angle ``theta``.

    Third-order twin-beam input, polarization rotation of arm b, a 1:2
    splitter into (c1, c0) and (d1, d0), a balanced splitter of c0 and d0
    into (c2, c3) / (d2, d3), then post-selection on exactly one photon in
    each of the six output spatial modes.
    """
    source, splitters = _preparation()
    rotation = polarization_rotation(source.register, "b", theta)
    projected, probability = apply_circuit(source, (rotation, *splitters), postselect=_ONE_PHOTON_PER_MODE)
    if projected is None:
        raise ValueError("post-selection pattern has zero probability")
    return SchemeResult(
        state=projected.restricted(SCHEME_SPATIALS),
        postselect_probability=probability,
    )


# (closed-form coefficient, signed pattern pair, c and d path assignments) per term group
_REFERENCE_GROUPS = (
    (lambda c, s: c**3, (("HHHVVV", 1.0), ("VVVHHH", -1.0)), _ID_C, _ID_D),
    (lambda c, s: s**3, (("HHHHHH", 1.0), ("VVVVVV", 1.0)), _ID_C, _ID_D),
    (lambda c, s: c * (2 * s * s - c * c) / 3.0, (("HHVVVH", 1.0), ("VVHHHV", -1.0)), _C_PERMS, _D_PERMS),
    (lambda c, s: s * (s * s - 2 * c * c) / 3.0, (("HHVHHV", 1.0), ("VVHVVH", 1.0)), _C_PERMS, _D_PERMS),
    (lambda c, s: c * c * s, (("HHVVVV", 1.0), ("VVHHHH", 1.0)), _C_PERMS, _ID_D),
    (lambda c, s: c * c * s, (("HHHVVH", 1.0), ("VVVHHV", 1.0)), _ID_C, _D_PERMS),
    (lambda c, s: c * s * s, (("HHHHHV", 1.0), ("VVVVVH", -1.0)), _ID_C, _D_PERMS),
    (lambda c, s: -c * s * s, (("HHVHHH", 1.0), ("VVHVVV", -1.0)), _C_PERMS, _ID_D),
)


@cache
def _reference_layout() -> tuple[tuple[tuple[int, ...], int, float], ...]:
    """``(occupation, coefficient index, sign)`` of every term the reference sums, in order."""
    layout = []
    for group, (_, patterns, c_perms, d_perms) in enumerate(_REFERENCE_GROUPS):
        for pattern, sign in patterns:
            for c_perm in c_perms:
                for d_perm in d_perms:
                    occ = [0] * len(scheme_register)
                    for path, pol in zip(c_perm + d_perm, pattern):
                        occ[scheme_register.index(path, pol)] += 1
                    layout.append((tuple(occ), group, sign))
    return tuple(layout)


def psi_theta_reference(theta: float) -> FockKet:
    """The prepared state built directly from its closed-form coefficients.

    Independent of the pipeline: polarization patterns and their cyclic path
    assignments are written out term by term (laid out once) and normalized.
    """
    c, s = math.cos(theta), math.sin(theta)
    coeffs = [coeff(c, s) for coeff, *_ in _REFERENCE_GROUPS]
    terms: dict[tuple[int, ...], float] = {}
    for key, group, sign in _reference_layout():
        terms[key] = terms.get(key, 0.0) + 0.5 * coeffs[group] * sign
    return FockKet._from_valid(scheme_register, {key: complex(amp) for key, amp in terms.items()}).normalized()


def _swapped_order(register: ModeRegister, spatials) -> list[int]:
    """The register's mode order with the H and V modes of the named spatial modes exchanged."""
    order = list(range(len(register)))
    for h, v in [(register.index(s, "H"), register.index(s, "V")) for s in set(spatials)]:
        order[h], order[v] = v, h
    return order


def spin_flip(state: FockKet, spatials) -> FockKet:
    """Swap the H and V occupations of the named spatial modes."""
    order = _swapped_order(state.register, spatials)
    # swaps are one-to-one, so no two terms meet; ``0.0 +`` still clears a negative zero's sign
    out = {tuple(map(occ.__getitem__, order)): 0.0 + amp for occ, amp in state.items()}
    return FockKet._from_valid(state.register, out)


# -- homodyne interval decoding ------------------------------------------


@dataclass(frozen=True)
class DecodeInterval:
    """One homodyne interval: bounds, surviving branch, and its repair."""

    index: int
    x_lo: float
    x_hi: float
    branch: int  # probe phase of the surviving branch, in base-phase units
    flips: frozenset[str]


@dataclass(frozen=True)
class GhzDecodeTable:
    """Partition of the quadrature axis into branch-decoding intervals."""

    alpha: float
    theta: float
    intervals: tuple[DecodeInterval, ...]

    def lookup(self, x: float) -> DecodeInterval:
        for interval in self.intervals:
            if interval.x_lo <= x < interval.x_hi:
                return interval
        if math.isnan(x):
            raise ValueError("quadrature x must not be NaN")
        return self.intervals[-1]

    def peak_center(self, interval: DecodeInterval) -> float:
        return peak_center(self.alpha, interval.branch * self.theta)


def _branch_patterns() -> dict[int, str]:
    """Branch phase (base units) -> the pattern whose spin flips repair it.

    Walks the ten H-majority patterns the prepared state supports: the
    uniform one and every single-minority placement in each triple.  A
    pattern and its complement acquire opposite phases, which the X
    quadrature cannot tell apart; the decode table keys each pair by its
    H-majority member, so that member's phase must not be negative.
    """
    patterns = {}
    for pattern in ["H" * 6] + _single_minority_patterns("H", "V"):
        phase = sum(w for w, pol in zip(GHZ_KERR_THETA_WEIGHTS, pattern) if pol == "H")
        phase += GHZ_PROBE_GATE // 2
        if phase < 0:
            raise ValueError(f"pattern {pattern} has negative branch phase {phase}")
        patterns[phase] = pattern
    return patterns


def decode_table(alpha: float, theta: float) -> GhzDecodeTable:
    """Build the ten-interval decode table for given probe parameters.

    Intervals run up the quadrature axis and their branches down the census
    phases, since a larger phase puts its peak ``2 alpha cos(phase theta)``
    further left.  The threshold between neighbouring branches ``a > b`` is
    their midpoint ``alpha (cos a theta + cos b theta)``.  Rejected when the
    peak ordering degenerates (theta too large).
    """
    if not 0 < alpha < math.inf:  # NaN fails too
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    patterns = _branch_patterns()
    branches = sorted(patterns, reverse=True)
    if branches[0] * theta > math.pi:
        # the largest branch phase must stay on the monotone arc of the
        # cosine, otherwise peak positions stop decreasing with the phase
        raise ValueError(
            f"theta={theta} too large: branch peak ordering needs {branches[0]}*theta <= pi"
        )
    thresholds = [
        alpha * (math.cos(a * theta) + math.cos(b * theta))
        for a, b in zip(branches, branches[1:])
    ]
    if any(lo >= hi for lo, hi in zip(thresholds, thresholds[1:])):
        raise ValueError(
            f"homodyne thresholds are not strictly increasing at theta={theta}; "
            "branch peaks overlap"
        )
    edges = [-math.inf] + thresholds + [math.inf]
    intervals = tuple(
        DecodeInterval(
            index=index,
            x_lo=edges[index],
            x_hi=edges[index + 1],
            branch=branch,
            flips=frozenset(
                spatial for spatial, pol in zip(SCHEME_SPATIALS, patterns[branch]) if pol == "V"
            ),
        )
        for index, branch in enumerate(branches)
    )
    return GhzDecodeTable(alpha=float(alpha), theta=float(theta), intervals=intervals)


# -- the extraction circuit ----------------------------------------------


def tagged_circuit_state(state: FockKet, alpha: float, theta: float) -> ProbeTaggedState:
    """Probe-tagged state after the Kerr cells and the probe gate, on ``scheme_register``.

    Each mode's H photon advances the probe by its ``GHZ_KERR_THETA_WEIGHTS``
    entry in base units.  The circuit's polarizing splitters, which route
    each H photon to a tap path and back, only relabel basis states and are
    not simulated.  Finite amplitudes keep their bits; an infinite part
    stays infinite (the taps' ``x * 0.0`` made it NaN).
    """
    if state.register != scheme_register:
        raise ValueError("circuit expects a ket on the six-mode scheme register")
    selection = _Selection(scheme_register, _ONE_PHOTON_PER_MODE)
    if not all(selection.keeps(occ) for occ, _ in state.items()):
        raise ValueError("circuit input needs exactly one photon per spatial mode")
    tagged = apply_cross_kerr(attach_probe(state, alpha, theta), _KERR_WEIGHTS)
    return apply_probe_phase(tagged, GHZ_PROBE_GATE)


class GhzReadout:
    """The extraction circuit for one prepared state, tagged and compiled once.

    Each interval's spin flips become one relabel map, from every tagged
    occupation to that occupation in the swapped mode order ``spin_flip``
    uses.  An outcome then takes one pass from its conditioned terms to
    the corrected ket, the one ket it builds.
    """

    def __init__(self, state: FockKet, alpha: float, theta: float):
        self.table = decode_table(alpha, theta)
        self._tagged = tagged_circuit_state(state, alpha, theta)
        sources = list(dict.fromkeys(occ for (occ, _), _ in self._tagged.items()))
        orders = [_swapped_order(scheme_register, interval.flips) for interval in self.table.intervals]
        self._maps = [{occ: tuple(map(occ.__getitem__, order)) for occ in sources} for order in orders]

    def _repair(self, terms: dict[tuple[int, ...], complex], x: float) -> tuple[FockKet, int]:
        """The corrected ket of conditioned terms, each relabelled, phased and pruned in one pass."""
        table = self.table
        interval = table.lookup(x)
        relabel = self._maps[interval.index]
        phi = repair_phase(table.alpha, interval.branch * table.theta, x)
        # -2 phi per photon in c1 H cancels the relative phase of the surviving pair (uniform after the flips)
        relabelled = ((relabel[occ], amp) for occ, amp in terms.items())
        return FockKet._from_valid(scheme_register, _turned(relabelled, -2.0 * phi, _C1_H)), interval.index

    def condition(self, x: float) -> tuple[FockKet | None, int]:
        """Corrected state and interval index for the quadrature outcome ``x``.

        The state is ``None`` when ``x`` has no support: conditioning leaves no term.
        """
        x = float(x)
        terms = _conditioned_terms(self._tagged, x)
        return self._repair(terms, x) if terms else (None, self.table.lookup(x).index)

    def sample(self, rng) -> tuple[FockKet, int, float]:
        """Draw one outcome: ``(corrected state, interval index, x)``."""
        x, _, terms = _draw_homodyne(self._tagged, rng)
        return (*self._repair(terms, x), x)

    def probabilities(self) -> tuple[float, ...]:
        """Exact probability of each homodyne interval."""
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        probabilities = []
        for interval in self.table.intervals:
            total = 0.0
            for _, weight, center in self._tagged.phase_groups():
                # erf is exactly +-1 at +-inf, so the outer edges need no case
                hi = 0.5 * (1.0 + math.erf((interval.x_hi - center) * inv_sqrt2))
                lo = 0.5 * (1.0 + math.erf((interval.x_lo - center) * inv_sqrt2))
                total += weight * (hi - lo)
            probabilities.append(total)
        return tuple(probabilities)


def ghz_circuit(
    state: FockKet, alpha: float, theta: float, x: float | None = None, rng=None
) -> tuple[FockKet | None, int]:
    """Project the prepared state onto the uniform-polarization pair.

    Measures the shared probe at quadrature ``x`` (or samples one outcome
    from ``rng``), decodes the surviving branch from the interval table,
    and applies the branch's spin flips and phase repair.
    Returns the corrected state and the interval index; the state is
    ``None`` when the requested ``x`` has no support.
    """
    if x is None and rng is None:
        raise ValueError("either a quadrature value or an rng is required")
    readout = GhzReadout(state, alpha, theta)
    return readout.sample(rng)[:2] if x is None else readout.condition(x)


def sample_ghz_circuit(
    state: FockKet, alpha: float, theta: float, rng, samples: int
) -> list[tuple[FockKet, int, float]]:
    """Draw repeated homodyne outcomes from one tagged state.

    Returns ``(corrected state, interval index, x)`` per draw; the readout
    is compiled once, so a draw is one pass from outcome to corrected ket,
    and builds that one ket.
    """
    readout = GhzReadout(state, alpha, theta)
    rng = make_rng(rng)
    return [readout.sample(rng) for _ in range(int(samples))]


def interval_probabilities(state: FockKet, alpha: float, theta: float) -> tuple[float, ...]:
    """Exact probability of each homodyne interval for the tagged state."""
    return GhzReadout(state, alpha, theta).probabilities()
