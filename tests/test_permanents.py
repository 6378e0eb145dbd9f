"""``ModeTransform.apply`` against an oracle that shares none of its code.

A unitary U sends the basis state S to the amplitude

    <T|U|S> = perm(U[S, T]) / sqrt(prod_i s_i! prod_j t_j!)

on every output T with the same photon number (Scheel 2004, "Permanents in
linear optical networks"), where U[S, T] repeats row i s_i times and column
j t_j times.  The permanents come from Ryser's formula (1963).
"""

import itertools
import math
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksim import FockKet, ModeRegister, ModeTransform, build_psi_theta, expand_bilinear_power
from focksim.elements import bs_unbalanced, polarization_rotation
from focksim.pdc import singlet_form
from focksim.schemes import SCHEME_SPATIALS, scheme_register

TOLERANCE = 1e-12


@cache
def _column_subsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every subset of n columns as a 0/1 row, and (-1)^(n - size) per subset."""
    subsets = np.array(list(itertools.product((0, 1), repeat=n)), dtype=float)
    return subsets.T, (-1.0) ** (n - subsets.sum(axis=1))


def permanent(matrix: np.ndarray) -> complex:
    """Ryser: perm A = sum over column subsets S of (-1)^(n-|S|) prod_i sum_(j in S) a_ij."""
    n = len(matrix)
    if n == 0:
        return 1.0
    subsets, signs = _column_subsets(n)
    return complex(signs @ np.prod(matrix @ subsets, axis=0))


def repeated(occupation) -> list[int]:
    """Each mode index repeated by its photon count."""
    return [i for i, count in enumerate(occupation) for _ in range(count)]


def compositions(photons: int, modes: int):
    """Every occupation of ``modes`` modes holding ``photons`` photons."""
    for bars in itertools.combinations(range(photons + modes - 1), modes - 1):
        edges = (-1,) + bars + (photons + modes - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def permanent_amplitude(unitary: np.ndarray, source, target) -> complex:
    norm = math.prod(math.factorial(n) for n in source) * math.prod(math.factorial(n) for n in target)
    return permanent(unitary[np.ix_(repeated(source), repeated(target))]) / math.sqrt(norm)


def permanent_apply(unitary: np.ndarray, ket: FockKet) -> dict[tuple[int, ...], complex]:
    """Every output amplitude of the ket's photon-number sectors, zeros included."""
    out: dict[tuple[int, ...], complex] = {}
    for photons in ket.photon_numbers():
        sources = [(occ, amp) for occ, amp in ket.items() if sum(occ) == photons]
        for target in compositions(photons, len(ket.register)):
            out[target] = sum(amp * permanent_amplitude(unitary, occ, target) for occ, amp in sources)
    return out


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """QR of a complex Gaussian with the phases of R's diagonal divided out (Mezzadri 2007)."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_permanent_of_small_matrices():
    assert permanent(np.array([[2.0]])) == 2.0
    assert permanent(np.array([[1.0, 2.0], [3.0, 4.0]])) == 10.0
    # the all-ones n x n matrix has permanent n!
    assert permanent(np.ones((5, 5))) == pytest.approx(120.0, abs=1e-12)


@st.composite
def unitaries_and_kets(draw):
    modes = draw(st.integers(2, 8))
    unitary = haar_unitary(np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32)))), modes)
    # up to three terms of up to six photons, each photon in a drawn mode
    terms = {}
    for photons in draw(
        st.lists(st.lists(st.integers(0, modes - 1), max_size=6), min_size=1, max_size=3)
    ):
        occ = [0] * modes
        for mode in photons:
            occ[mode] += 1
        part = st.floats(-1.0, 1.0)
        terms[tuple(occ)] = complex(draw(part), draw(part))
    register = ModeRegister((f"m{i}", "H") for i in range(modes))
    return unitary, FockKet(register, terms)


@settings(deadline=None, max_examples=40)
@given(case=unitaries_and_kets())
def test_apply_matches_permanents(case):
    unitary, ket = case
    applied = ModeTransform(ket.register, unitary).apply(ket)
    expected = permanent_apply(unitary, ket)
    # every stored term is an output of the oracle, and every oracle output agrees
    assert set(dict(applied.items())) <= set(expected)
    for target, amplitude in expected.items():
        assert abs(applied.amplitude(target) - amplitude) < TOLERANCE


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_post_selected_pipeline_matches_permanents(seed):
    # the five preparation elements of build_psi_theta, composed as ``then``
    # composes them: applying M1 and then M2 substitutes with M1 @ M2
    theta = float(np.random.Generator(np.random.Philox(seed)).uniform(0.0, math.pi / 2.0))
    register = ModeRegister.polarized("a", "b", "c0", "c1", "c2", "c3", "d0", "d1", "d2", "d3")
    elements = [
        polarization_rotation(register, "b", theta),
        bs_unbalanced(register, "a", "c1", "c0", 2.0 / 3.0),
        bs_unbalanced(register, "b", "d1", "d0", 2.0 / 3.0),
        bs_unbalanced(register, "c0", "c3", "c2", 0.5),
        bs_unbalanced(register, "d0", "d3", "d2", 0.5),
    ]
    unitary = np.eye(len(register), dtype=complex)
    for element in elements:
        unitary = unitary @ element.matrix
    source = expand_bilinear_power(singlet_form(register), 3, register).normalized()
    kept = [register.index(s, p) for s, p in scheme_register.modes]
    amplitudes = {}
    for pols in itertools.product("HV", repeat=len(SCHEME_SPATIALS)):
        target = [0] * len(register)
        for spatial, pol in zip(SCHEME_SPATIALS, pols):
            target[register.index(spatial, pol)] = 1
        amplitude = sum(amp * permanent_amplitude(unitary, occ, target) for occ, amp in source.items())
        amplitudes[tuple(target[i] for i in kept)] = amplitude
    assert len(amplitudes) == 64
    probability = sum(abs(a) ** 2 for a in amplitudes.values())
    result = build_psi_theta(theta)
    assert abs(result.postselect_probability - probability) < TOLERANCE
    for occupation, amplitude in amplitudes.items():
        assert abs(result.state.amplitude(occupation) - amplitude / math.sqrt(probability)) < TOLERANCE
