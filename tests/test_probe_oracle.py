"""An independent oracle for the homodyne readout of a probe-tagged state.

A branch at probe phase ``phi`` carries the coherent probe ``|beta>``,
``beta = alpha e^{i phi}``.  Here its overlap with an eigenstate of the
quadrature ``x = a + a^dag`` that focksim reads (unit variance, peak at
``2 Re beta``) is summed in the Fock basis, with no closed form::

    <x|beta> = e^{-|beta|^2 / 2} sum_n beta^n / sqrt(n!) <x|n>
    <x|n>    = (2 pi)^{-1/4} H_n(x / sqrt 2) e^{-x^2 / 4} / sqrt(2^n n!)

over the first 90 terms, with the Hermite polynomials ``H_n`` of
``numpy.polynomial.hermite``.  For ``alpha <= 3`` the Poisson weight left
out is below 1e-50.  The oracle keeps the x-independent phase
``e^{i alpha^2 sin(phi) cos(phi)}`` that :mod:`focksim.kerr` documents as
omitted, so the conditioning check applies that phase to every branch first.

The tagged states are those of the GHZ extraction circuit, on random
superpositions of two to four one-photon-per-mode patterns, so the same
states also feed :class:`focksim.GhzReadout`.
"""

import cmath
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite
from scipy.integrate import quad

from focksim import (
    FockKet,
    GhzReadout,
    ProbeTaggedState,
    homodyne_condition,
    homodyne_pdf,
    pattern_occupation,
    scheme_register,
    tagged_circuit_state,
)

FOCK_TERMS = 90
# beyond this distance from every peak a branch's density is below 1e-22
QUAD_MARGIN = 10.0
PATTERNS = ["".join(letters) for letters in product("HV", repeat=6)]


def overlap_coefficients(beta: complex) -> np.ndarray:
    """Hermite-series coefficients of ``<x|beta> (2 pi)^{1/4} e^{x^2 / 4}`` in ``x / sqrt 2``.

    ``e^{-|beta|^2 / 2} (beta / sqrt 2)^n / n!``, the Fock amplitude
    ``beta^n / sqrt(n!)`` over the Hermite norm ``sqrt(2^n n!)``.
    """
    coefficients = np.empty(FOCK_TERMS, dtype=complex)
    coefficients[0] = math.exp(-0.5 * abs(beta) ** 2)
    for n in range(1, FOCK_TERMS):
        coefficients[n] = coefficients[n - 1] * beta / (math.sqrt(2.0) * n)
    return coefficients


class Oracle:
    """Every branch of a tagged state, with its probe expanded in Fock terms."""

    def __init__(self, tagged):
        self.branches = []
        for (occ, idx), amp in tagged.items():
            phi = tagged.phase_of(idx)
            self.branches.append((occ, amp, phi, tagged.alpha * cmath.exp(1j * phi)))
        # one column of coefficients per branch, so one hermval call reads them all
        self._columns = np.stack([overlap_coefficients(beta) for *_, beta in self.branches], axis=1)

    def overlaps(self, x: float) -> np.ndarray:
        """``<x|beta>`` of every branch's probe."""
        return (2.0 * math.pi) ** -0.25 * math.exp(-0.25 * x * x) * hermite.hermval(x / math.sqrt(2.0), self._columns)

    def conditioned(self, x: float) -> dict:
        """The signal ket left by outcome ``x``, normalized, as occupation -> amplitude."""
        out: dict = {}
        for (occ, amp, _, _), overlap in zip(self.branches, self.overlaps(x)):
            out[occ] = out.get(occ, 0.0) + amp * overlap
        norm = math.sqrt(sum(abs(a) ** 2 for a in out.values()))
        return {occ: a / norm for occ, a in out.items()}

    def density(self, x: float) -> float:
        """``|| <x| (tagged state) ||^2``; every branch here holds its own occupation."""
        amplitudes = np.array([amp for _, amp, _, _ in self.branches])
        return float(np.sum(np.abs(amplitudes * self.overlaps(x)) ** 2))


@st.composite
def readout_cases(draw):
    patterns = draw(st.lists(st.sampled_from(PATTERNS), min_size=2, max_size=4, unique=True))
    polar = draw(st.lists(st.tuples(st.floats(0.2, 1.0), st.floats(0.0, 2.0 * math.pi)), min_size=4, max_size=4))
    terms = {pattern_occupation(p): r * cmath.exp(1j * angle) for p, (r, angle) in zip(patterns, polar)}
    state = FockKet(scheme_register, terms).normalized()
    alpha = draw(st.floats(0.5, 3.0))
    # the decode table needs the largest branch phase, 12 theta, to stay below pi
    theta = draw(st.floats(0.05, 0.25))
    near = draw(st.integers(0, len(patterns) - 1))
    offset = draw(st.floats(-3.0, 3.0))
    return state, alpha, theta, near, offset


@settings(deadline=None, max_examples=15)
@given(case=readout_cases())
def test_readout_matches_the_fock_expansion_of_the_probe(case):
    state, alpha, theta, near, offset = case
    tagged = tagged_circuit_state(state, alpha, theta)
    oracle = Oracle(tagged)
    # an outcome within three standard deviations of one branch's peak
    x = 2.0 * alpha * math.cos(oracle.branches[near][2]) + offset

    assert homodyne_pdf(tagged, x) == pytest.approx(oracle.density(x), rel=1e-9, abs=1e-15)

    fixed = {}
    for (occ, idx), amp in tagged.items():
        phi = tagged.phase_of(idx)
        fixed[(occ, idx)] = amp * cmath.exp(1j * alpha**2 * math.sin(phi) * math.cos(phi))
    fixed = ProbeTaggedState(tagged.register, fixed, alpha, theta)
    conditioned = homodyne_condition(fixed, x)
    expected = oracle.conditioned(x)
    assert set(dict(conditioned.items())) <= set(expected)
    for occ, amp in expected.items():
        assert abs(conditioned.amplitude(occ) - amp) < 1e-9

    readout = GhzReadout(state, alpha, theta)
    centers = [2.0 * alpha * math.cos(phi) for _, _, phi, _ in oracle.branches]
    lowest, highest = min(centers) - QUAD_MARGIN, max(centers) + QUAD_MARGIN
    for interval, probability in zip(readout.table.intervals, readout.probabilities()):
        lo, hi = max(interval.x_lo, lowest), min(interval.x_hi, highest)
        integral = quad(oracle.density, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)[0] if lo < hi else 0.0
        assert abs(probability - integral) < 1e-9
