"""The numpy behaviours that ``apply_circuit``'s batch kernel relies on for its bits.

The kernel replays CPython's complex arithmetic on float arrays, so each
operation it uses must round as CPython's does.  A numpy upgrade that
breaks one of these fails here, by name, rather than as a digest mismatch.
The last canary names the libm symmetry that the phase repairs rely on.
"""

import functools
import math
import operator
import random

import numpy as np


def values(seed: int, count: int = 20000) -> list[float]:
    """Signed floats over many binades, with zeros and subnormals among them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x = rng.uniform(0.5, 1.0) * 2.0 ** rng.randint(-1070, 60)
        out.append(-x if rng.random() < 0.5 else x)
    return out + [0.0, -0.0, 5e-324, 1e-14, math.nextafter(1e-14, 0.0)]


def test_hypot_gives_the_bits_of_complex_abs():
    re, im = values(1), values(2)
    numpy_abs = np.hypot(np.array(re), np.array(im)).tolist()
    assert numpy_abs == [abs(complex(a, b)) for a, b in zip(re, im)]
    assert np.isnan(np.hypot(math.nan, 1.0)) and np.hypot(math.inf, math.nan) == math.inf


def test_bincount_adds_each_bin_in_input_order_from_zero():
    # one by one, each 2**-53 rounds back to 1.0; summed in pairs or blocks first, they would not
    weights = [1.0] + [2.0**-53] * 64
    sequential = functools.reduce(operator.add, weights, 0.0)
    assert sequential == 1.0 != math.fsum(weights)
    assert np.bincount(np.zeros(len(weights), np.intp), weights).tolist() == [sequential]
    # interleaved bins, as the kernel lays out (re, im) pairs
    bins = np.bincount(np.tile([0, 1], len(weights)), np.repeat(weights, 2)).tolist()
    assert bins == [sequential, sequential]
    assert np.bincount([0], [-0.0]).tolist()[0].hex() == (0.0 + -0.0).hex()


def test_float_products_and_sums_round_as_python_does():
    a, b, c, d = (np.array(values(seed, 5000)) for seed in (3, 4, 5, 6))
    q = np.stack([a * b, c * d], axis=1)
    got = (q[:, 0] + q[:, 1]).tolist()
    assert got == [x * y + z * w for x, y, z, w in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist())]


def test_in_place_division_rounds_each_quotient():
    x, d = values(7), [abs(v) + 1.0 for v in values(8)]
    got = np.array(x)
    got /= np.array(d)
    assert got.tolist() == [a / b for a, b in zip(x, d)]


def test_math_pow_squares_as_the_power_operator_does():
    ms = [abs(v) for v in values(9)]
    assert [math.pow(m, 2.0) for m in ms] == [m**2 for m in ms]


def test_complex_arrays_round_trip_python_complex_exactly():
    amps = [complex(a, b) for a, b in zip(values(10), values(11))]
    assert np.fromiter(amps, complex, len(amps)).tolist() == amps
    parts = np.fromiter(amps, complex, len(amps)).view(float).reshape(-1, 2).tolist()
    assert parts == [[z.real, z.imag] for z in amps]


def test_libm_cosine_is_even_and_sine_is_odd():
    # the GHZ repair turns by cos(-a) + i sin(-a); its pinned bits were recorded with cos(a) - i sin(a)
    angles = [abs(v) for v in values(12)] + [2.0**e * m for e in range(-30, 61) for m in (1.0, 1.1, math.pi / 2)]
    for a in angles:
        assert math.cos(-a).hex() == math.cos(a).hex()
        assert math.sin(-a).hex() == (-math.sin(a)).hex()
