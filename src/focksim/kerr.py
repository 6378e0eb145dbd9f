"""Weak cross-Kerr coupling to a coherent probe and X-homodyne readout.

Each signal branch carries an integer probe-phase index in units of half
the base Kerr phase, so every branch's probe phase is exact (integer
arithmetic, no floating phase drift).  Tagging never merges branches: only
conditioning sums the branches of equal occupation.  The probe quadrature
convention puts the peak of ``|<x|beta>|^2`` at ``2 Re(beta)`` with unit
variance, and conditioning on an outcome ``x`` multiplies the branch at
probe phase ``phi`` by::

    exp(-(x - 2 a cos(phi))^2 / 4) * exp(i a sin(phi) (x - 2 a cos(phi)))

This omits the x-independent per-branch phase ``exp(i a^2 sin(phi) cos(phi))``
(``= exp(i Re(beta) Im(beta))``) that the exact overlap ``<x|beta>``
carries, as Barrett et al., PRA 71, 060302 (2005) and Nemoto & Munro, PRL
93, 250502 (2004) do.  Every ``fidelity_after_correction`` column therefore
assumes that a lab also applies that fixed phase to each branch.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .fock import (NORM_TOLERANCE, PRUNE_THRESHOLD, FockKet, ModeRegister, _check_occupation, _norm_squared, _pruned,
                   _significant)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# distance from every peak beyond which conditioning rescales the amplitudes:
# there every Gaussian weight exp(-offset^2 / 4) is below exp(-20) ~ 2e-9
_TAIL_OFFSET = math.sqrt(80.0)
_ZERO_WEIGHT_OFFSET = 60.0  # beyond this from its peak a term's weight is 0.0 (from about 54.6)
# a term no other branch shares an occupation with, whose weight times
# |amplitude| is below this, is pruned whatever its phase (half for rounding)
_NEGLIGIBLE = 0.5 * PRUNE_THRESHOLD


def peak_center(alpha: float, phase: float) -> float:
    """Homodyne peak ``2 alpha cos(phase)`` of a branch at probe phase ``phase``."""
    return 2.0 * alpha * math.cos(phase)


def repair_phase(alpha: float, phase: float, x: float) -> float:
    """Phase ``alpha sin(phase) (x - peak)`` that outcome ``x`` gives a branch at ``phase``."""
    return alpha * math.sin(phase) * (x - peak_center(alpha, phase))


def _turned(terms: Iterable[tuple[tuple[int, ...], complex]], rate: float, indices: tuple[int, ...]):
    """Each ``(occupation, amplitude)`` turned by exp(i rate n), n its photons in the modes ``indices``; unpruned."""
    for occ, amp in terms:
        angle = rate * sum(map(occ.__getitem__, indices))
        yield occ, amp * complex(math.cos(angle), math.sin(angle))


_TaggedTerms = Mapping[tuple[tuple[int, ...], int], complex]  # keyed by (occupation, phase index)


class _ReadoutView(NamedTuple):
    """What every homodyne readout of one tagged state reads."""

    norm_squared: float
    normalized: bool  # as ProbeTaggedState.is_normalized, which a draw requires
    groups: tuple[tuple[int, float, float], ...]  # as ProbeTaggedState.phase_groups()
    group_total: float  # the group weights summed in that order, which a draw scales
    # (position, occupation, amplitude, peak centre, alpha sin(phase), bound) per
    # branch, by ascending peak centre: the factors of the conditioning weight in
    # the module docstring, and |amplitude| as the bound (inf for a shared occupation)
    conditioning: tuple[tuple[int, tuple[int, ...], complex, float, float, float], ...]
    centers: tuple[float, ...]  # the peak centres in that order
    in_order: tuple[tuple[int, tuple[int, ...], complex, float, float, float], ...]  # conditioning by position


class ProbeTaggedState:
    """Signal ket whose branches are tagged with exact probe-phase indices.

    Branch keys are ``(occupation, phase_index)``; the physical probe phase
    of a branch is ``phase_index * theta / 2``.  The state is immutable, so
    everything a homodyne readout reads (norm, phase groups, peak centres,
    per-branch conditioning factors) is built once, as one view, on first
    use and kept.
    """

    __slots__ = ("_register", "_terms", "_alpha", "_theta", "_view_cache")

    def __init__(self, register: ModeRegister, terms: _TaggedTerms, alpha: float, theta: float):
        checked = {
            (_check_occupation(register, occ), int(idx)): amp
            for (occ, idx), amp in _significant(terms).items()
        }
        _check_probe(alpha, theta)
        self._register, self._terms, self._alpha, self._theta = register, checked, float(alpha), float(theta)
        self._view_cache: _ReadoutView | None = None

    @classmethod
    def _from_valid(
        cls, register: ModeRegister, terms: _TaggedTerms, alpha: float, theta: float
    ) -> "ProbeTaggedState":
        """Tagged state from keys, ``complex`` amplitudes and a probe valid by construction.

        As :meth:`FockKet._from_valid`: nothing is checked, and the terms
        are only pruned.  The probe is checked where it enters, by the
        public constructor and :func:`attach_probe`.
        """
        state = cls.__new__(cls)
        state._register, state._terms, state._alpha, state._theta = register, _pruned(terms), float(alpha), float(theta)
        state._view_cache = None
        return state

    @property
    def register(self) -> ModeRegister:
        return self._register

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def theta(self) -> float:
        return self._theta

    def items(self):
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def _view(self) -> _ReadoutView:
        if self._view_cache is None:
            weights = self.group_weights()
            centers = {idx: peak_center(self._alpha, self.phase_of(idx)) for idx in weights}
            rates = {idx: self._alpha * math.sin(self.phase_of(idx)) for idx in weights}
            groups = tuple((idx, weights[idx], centers[idx]) for idx in weights)
            norm_squared = _norm_squared(self._terms)
            shared = Counter(occ for occ, _ in self._terms)
            conditioning = sorted(
                ((i, occ, amp, centers[idx], rates[idx], abs(amp) if shared[occ] == 1 else math.inf)
                 for i, ((occ, idx), amp) in enumerate(self._terms.items())),
                key=lambda term: term[3],
            )
            self._view_cache = _ReadoutView(
                norm_squared=norm_squared,
                normalized=abs(norm_squared - 1.0) < NORM_TOLERANCE,
                groups=groups,
                group_total=sum(weight for _, weight, _ in groups),
                conditioning=tuple(conditioning),
                centers=tuple(term[3] for term in conditioning),
                in_order=tuple(sorted(conditioning)),
            )
        return self._view_cache

    @property
    def norm_squared(self) -> float:
        return self._view().norm_squared

    @property
    def is_normalized(self) -> bool:
        return self._view().normalized

    def phase_of(self, index: int) -> float:
        return index * self._theta / 2.0

    def group_weights(self) -> dict[int, float]:
        """Total squared amplitude per phase index, in index order; builds no readout view."""
        weights: dict[int, float] = {}
        for (_, idx), amp in self._terms.items():
            weights[idx] = weights.get(idx, 0.0) + abs(amp) ** 2
        return dict(sorted(weights.items()))

    def phase_groups(self) -> tuple[tuple[int, float, float], ...]:
        """``(phase index, total squared amplitude, peak centre)`` per group, in index order."""
        return self._view().groups

    def branch(self, index: int) -> FockKet | None:
        """Renormalized signal component at one phase index, if present."""
        kept = {occ: amp for (occ, idx), amp in self._terms.items() if idx == index}
        if not kept:
            return None
        return FockKet._from_valid(self._register, kept).normalized()

    def __repr__(self) -> str:
        return (
            f"ProbeTaggedState({len(self._terms)} branches, "
            f"alpha={self._alpha}, theta={self._theta})"
        )


@dataclass(frozen=True)
class HomodyneOutcome:
    """One sampled X-homodyne record.

    ``interval_index`` is the absolute phase-group index whose Gaussian
    produced the draw (branches at opposite phase share a peak and are not
    distinguishable from the quadrature value alone).
    """

    x: float
    interval_index: int
    conditional: FockKet
    probability_density: float


def _check_probe(alpha: float, theta: float) -> None:
    """Reject a probe whose amplitude is not finite and >= 0, or whose base Kerr phase is not finite and > 0."""
    if not math.isfinite(alpha):
        raise ValueError(f"probe amplitude alpha must be finite, got {alpha}")
    if alpha < 0:
        raise ValueError("probe amplitude alpha must be non-negative")
    if not math.isfinite(theta):
        raise ValueError(f"base Kerr phase theta must be finite, got {theta}")
    if theta <= 0:
        raise ValueError("base Kerr phase theta must be positive")


def attach_probe(ket: FockKet, alpha: float, theta: float) -> ProbeTaggedState:
    """Pair a signal ket with a fresh coherent probe (all branches at phase 0)."""
    _check_probe(alpha, theta)
    return ProbeTaggedState._from_valid(
        ket.register,
        {(occ, 0): amp for occ, amp in ket.items()},
        alpha,
        theta,
    )


def apply_cross_kerr(state: ProbeTaggedState, weights: Iterable[int]) -> ProbeTaggedState:
    """Advance each branch's probe phase by the weighted photon count.

    ``weights`` holds one integer per register mode, in half-theta units;
    a branch with occupation ``n`` gains ``sum_i weights[i] * n[i]``.
    """
    weights = tuple(int(w) for w in weights)
    if len(weights) != len(state.register):
        raise ValueError("weights length does not match register size")
    # each key keeps its occupation, so no two terms meet; ``0.0 +`` still clears a negative zero's sign
    out = {(occ, idx + sum(w * n for w, n in zip(weights, occ))): 0.0 + amp for (occ, idx), amp in state.items()}
    return ProbeTaggedState._from_valid(state.register, out, state.alpha, state.theta)


def apply_probe_phase(state: ProbeTaggedState, shift_index: int) -> ProbeTaggedState:
    """Shift every branch's phase index by a fixed amount (a probe phase gate)."""
    shift_index = int(shift_index)
    return ProbeTaggedState._from_valid(
        state.register,
        {(occ, idx + shift_index): amp for (occ, idx), amp in state.items()},
        state.alpha,
        state.theta,
    )


def _require_finite(x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"quadrature x must be finite, got {x}")


def homodyne_pdf(state: ProbeTaggedState, x: float) -> float:
    """Probability density of quadrature outcome ``x``.

    A mixture of unit-variance Gaussians, one per phase group, centred at
    ``2 alpha cos(phase)`` and weighted by the group's squared amplitude.
    """
    _require_finite(x)
    total = 0.0
    try:
        for _, weight, center in state.phase_groups():
            total += weight * _INV_SQRT_2PI * math.exp(-0.5 * (x - center) ** 2)
    except OverflowError:
        raise OverflowError(
            f"alpha={state.alpha} is too large: (x - peak)**2 overflows a double at x={x}"
        ) from None
    return total


def homodyne_condition(state: ProbeTaggedState, x: float) -> FockKet | None:
    """Signal ket conditioned on homodyne outcome ``x``, probe discarded.

    Branches at equal occupation merge coherently after picking up their
    Gaussian weight and measurement-dependent phase.  Returns ``None`` when
    conditioning leaves no term (empty outcome, not an error).

    More than 8.9 from every peak the Gaussian weights would push terms under
    ``PRUNE_THRESHOLD`` before normalizing, so there every amplitude is first
    scaled by one power of two (at most 2^1023) while the nearest peak's weight
    ``exp(-offset^2 / 4)`` is above 0: to about 54.6 from it, though the density
    is 0 from about 38.6.  The scaling keeps the bits wherever nothing was pruned.
    """
    terms = _conditioned_terms(state, x)
    return FockKet._from_valid(state.register, terms) if terms else None


def _conditioned_terms(state: ProbeTaggedState, x: float) -> dict[tuple[int, ...], complex]:
    """The terms of :func:`homodyne_condition`, pruned and normalized as its ket; empty for ``None``."""
    _require_finite(x)
    view = state._view()
    # the terms whose weight can be above 0.0, back in their order
    lo = bisect.bisect_left(view.centers, x - _ZERO_WEIGHT_OFFSET)
    hi = bisect.bisect_right(view.centers, x + _ZERO_WEIGHT_OFFSET)
    terms = view.in_order if hi - lo == len(view.centers) else sorted(view.conditioning[lo:hi])
    # distance to the nearest homodyne peak below and above x (inf where none)
    i = bisect.bisect(view.centers, x)
    below = x - view.centers[i - 1] if i else math.inf
    above = view.centers[i] - x if i < len(view.centers) else math.inf
    nearest = min(below, above)
    if nearest > _TAIL_OFFSET and (weight := math.exp(-0.25 * nearest * nearest)) > 0.0:
        # a subnormal weight would need a scale past the largest double
        scale = math.ldexp(1.0, min(-math.frexp(weight)[1], 1023))
        terms = [(i, occ, amp * scale, center, rate, bound * scale) for i, occ, amp, center, rate, bound in terms]
    out: dict[tuple[int, ...], complex] = {}
    get, exp, cos, sin = out.get, math.exp, math.cos, math.sin
    for _, occ, amp, center, rate, bound in terms:
        offset = x - center
        weight = exp(-0.25 * offset * offset)
        if weight == 0.0 or weight * bound < _NEGLIGIBLE:
            continue
        factor = weight * complex(cos(rate * offset), sin(rate * offset))
        out[occ] = get(occ, 0.0) + amp * factor
    # as FockKet._from_valid(register, out).normalized(): prune, sum the norm, scale, prune
    norm_squared = sum([m**2 for m in map(abs, out.values()) if not m < PRUNE_THRESHOLD])
    if norm_squared == 0.0:
        return {}
    scale = complex(1.0 / math.sqrt(norm_squared))
    return {occ: amp for occ, a in out.items()
            if not abs(a) < PRUNE_THRESHOLD and not abs(amp := a * scale) < PRUNE_THRESHOLD}


def discrimination_error(alpha: float, theta: float) -> float:
    """Misassignment probability between the phase-0 and phase-theta peaks.

    Equals the Gaussian tail mass past the midpoint threshold
    ``x0 = alpha (1 + cos(theta))``.
    """
    if not alpha > 0:  # NaN fails too
        raise ValueError(f"probe amplitude alpha must be positive, got {alpha}")
    if not theta > 0:
        raise ValueError(f"Kerr phase theta must be positive, got {theta}")
    return 0.5 * math.erfc(2.0 * alpha * (1.0 - math.cos(theta)) / (2.0 * math.sqrt(2.0)))


def midpoint_threshold(alpha: float, theta: float) -> float:
    """Decision threshold between the phase-0 and phase-theta homodyne peaks."""
    return alpha * (1.0 + math.cos(theta))


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator; identical seeds give identical streams."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(int(seed)))


def sample_homodyne(state: ProbeTaggedState, rng) -> HomodyneOutcome:
    """Draw one homodyne outcome and the conditioned signal state.

    The phase group is chosen by its weight, then ``x`` is drawn from that
    group's unit-variance Gaussian; conditioning uses the full mixture, so
    the conditional includes any overlap from neighbouring groups.
    """
    x, group, terms = _draw_homodyne(state, rng)
    return HomodyneOutcome(x, group, FockKet._from_valid(state.register, terms), homodyne_pdf(state, x))


def _draw_homodyne(state: ProbeTaggedState, rng) -> tuple[float, int, dict[tuple[int, ...], complex]]:
    """:func:`sample_homodyne` as ``(x, interval index, conditioned terms)``, without the density.

    The readouts that draw (the GHZ readout, sampled detection) read no density.
    """
    view = state._view()
    if not view.normalized:
        raise ValueError("sampling needs a normalized probe-tagged state")
    rng = make_rng(rng)
    draw = rng.random() * view.group_total
    acc = 0.0
    for chosen, weight, center in view.groups:
        acc += weight
        if draw < acc:
            break
    x = float(rng.normal(center, 1.0))
    terms = _conditioned_terms(state, x)
    if not terms:
        raise ValueError("sampled outcome has zero density; state inconsistent")
    return x, abs(chosen), terms
