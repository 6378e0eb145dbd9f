"""Batches shared by every transform of one structure, against a batch laid out fresh for each, bit for bit.

A batch's layout depends only on a transform's structure (its register,
its moved modes and where each row is nonzero) and the input signature;
each transform runs it with a weight table of its own, numbered by
position.  Before, every transform laid out its own batches and numbered
their weights by value, so two positions whose weights were equal as
floats shared a row.  That path is written out below as ``FreshBatch``,
and ``build_psi_theta`` on shared batches is compared with it by
``float.hex`` and term order.
"""

import math
from array import array
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focksim import ModeTransform, build_psi_theta, elements, schemes
from focksim.cli import main
from focksim.elements import _expansion, bs_unbalanced, polarization_rotation
from focksim.fock import _SQRT_FACT, MAX_OCCUPANCY, PRUNE_THRESHOLD, _Selection, _sqrt_factorials


class _Numbering(dict):
    def __missing__(self, key) -> int:
        self[key] = number = len(self)
        return number


def _pairs(slots: array) -> np.ndarray:
    return (2 * np.frombuffer(slots, np.int64)[:, None] + np.arange(2)).ravel()


class FreshBatch:
    """``elements._Batch`` as it was: one transform's layout, with its weights numbered by value."""

    def __init__(self, transform: ModeTransform, signature):
        rounds, sizes = [], []
        weights, ranks = _Numbering(), _Numbering()
        expansions = {}

        def emit(r, size, slots, sources, ws, rows):
            if r == len(rounds):
                rounds.append((array("q"), array("q"), array("q")))
                sizes.append(0)
            src, index, dst = rounds[r]
            base = sizes[r]
            sizes[r] += size
            src.extend(map(rows.__getitem__, sources))
            index.extend(map(weights.__getitem__, ws))
            dst.extend(map(base.__add__, slots))
            return base

        tail_round, tail_row, tail_rank = array("q"), array("q"), array("q")
        divided, divisors = array("q"), []
        for t, occ in enumerate(signature):
            total = sum(occ)
            sqrt_fact = _sqrt_factorials(total) if total > MAX_OCCUPANCY else _SQRT_FACT
            divs = tuple(_SQRT_FACT[m] for m in occ if m > 1)
            if divs:
                divided.append(t)
                divisors.append(divs)
            start = list(occ)
            for i in transform._moved:
                start[i] = 0
            keys = [tuple(start)]
            rows, r = (t,), 0
            for i in transform._moved:
                m = occ[i]
                if m == 0:
                    continue
                expansion = expansions.get((i, m))
                if expansion is None:
                    expansion = expansions[(i, m)] = _expansion(transform._rows[i], m)
                slots, ops = {}, []
                for src, powers in enumerate(keys):
                    for assignment, weight in expansion:
                        lifted = list(powers)
                        for j, k in assignment:
                            lifted[j] += k
                        ops.append((slots.setdefault(tuple(lifted), len(slots)), src, weight))
                base = emit(r, len(slots), *zip(*ops), rows)
                keys, rows, r = slots, range(base, base + len(slots)), r + 1
            rows = list(rows)
            last = [r - 1] * len(keys)
            scaled, scales = [], []
            for e, powers in enumerate(keys):
                scale = 1.0
                for p in powers:
                    if p > 1:
                        scale *= sqrt_fact[p]
                if scale != 1.0:
                    scaled.append(e)
                    scales.append(scale)
            if scaled:
                base = emit(r, len(scaled), range(len(scaled)), scaled, scales, rows)
                for k, e in enumerate(scaled, base):
                    last[e], rows[e] = r, k
            tail_round.extend(last)
            tail_row.extend(rows)
            tail_rank.extend(map(ranks.__getitem__, keys))

        self.weights = np.array([[(w.real, -w.imag), (w.imag, w.real)] for w in weights]).reshape(-1, 2, 2)
        self.rounds = tuple(
            (
                np.frombuffer(src, np.int64).repeat(2).reshape(-1, 2),
                np.frombuffer(index, np.int64),
                None if dst == array("q", range(size)) else _pairs(dst),
                size,
            )
            for (src, index, dst), size in zip(rounds, sizes)
        )
        starts = np.cumsum([0, len(signature), *sizes])
        rows = np.frombuffer(tail_row, np.int64) + starts[np.frombuffer(tail_round, np.int64) + 1]
        self.tail = rows, _pairs(tail_rank)
        self.divided = None if len(divided) == len(signature) else np.frombuffer(divided, np.int64)
        width = max(map(len, divisors), default=0)
        table = np.array([divs + (1.0,) * (width - len(divs)) for divs in divisors]).reshape(len(divisors), width)
        self.divisors = table.T[:, :, None].repeat(2, axis=2)
        self.outputs = tuple(ranks)

    def run(self, amplitudes: np.ndarray) -> np.ndarray:
        inputs = amplitudes.view(float).reshape(-1, 2)
        if len(self.divisors):
            x = inputs if self.divided is None else inputs[self.divided]
            x += x * 0.0
            for d in self.divisors:
                x /= d
            if self.divided is not None:
                inputs[self.divided] = x
        values = [inputs]
        for src, index, dst, size in self.rounds:
            q = values[-1].take(src, 0)
            q *= self.weights.take(index, 0)
            q = np.add(q[..., 0], q[..., 1])
            values.append(q if dst is None else np.bincount(dst, q.ravel(), 2 * size).reshape(-1, 2))
        rows, dst = self.tail
        return np.bincount(dst, np.concatenate(values).take(rows, 0).ravel(), 2 * len(self.outputs)).view(complex)


def fresh_psi_theta(theta: float) -> tuple[list, str]:
    """``build_psi_theta`` with every element's batch laid out fresh: the state's terms and probability as hex."""
    source, _ = schemes._preparation()
    register = source.register
    elements_ = (
        polarization_rotation(register, "b", theta),
        bs_unbalanced(register, "a", "c1", "c0", 2.0 / 3.0),
        bs_unbalanced(register, "b", "d1", "d0", 2.0 / 3.0),
        bs_unbalanced(register, "c0", "c3", "c2", 0.5),
        bs_unbalanced(register, "d0", "d3", "d2", 0.5),
    )
    signature = tuple(source._terms)
    amplitudes = np.fromiter(source._terms.values(), complex, len(source))
    with np.errstate(invalid="ignore", over="ignore"):
        for element in elements_:
            batch = FreshBatch(element, signature)
            amplitudes = batch.run(amplitudes)
            magnitudes = np.hypot(amplitudes.real, amplitudes.imag)
            keep = ~(magnitudes < PRUNE_THRESHOLD)
            signature = tuple(occ for occ, kept in zip(batch.outputs, keep.tolist()) if kept)
            amplitudes = amplitudes[keep]
    selection = _Selection(register, schemes._ONE_PHOTON_PER_MODE)
    kept = {occ: amp for occ, amp in zip(signature, amplitudes.tolist()) if selection.keeps(occ)}
    projected, probability = selection.projected(sum(map(math.pow, magnitudes[keep].tolist(), repeat(2.0))), kept)
    return hexed(projected.restricted(schemes.SCHEME_SPATIALS)), probability.hex()


def hexed(ket) -> list:
    return [(occ, amp.real.hex(), amp.imag.hex()) for occ, amp in ket.items()]


def rotation_weights(theta: float) -> dict:
    """The rotation's expansion weights in the preparation's batch, by position."""
    source, _ = schemes._preparation()
    rotation = polarization_rotation(source.register, "b", theta)
    batch = rotation._batch(tuple(source._terms))
    return {key: rotation._expansion_at(*key[:2])[key[2]][1] for key in batch._weights if type(key) is tuple}


def coincidences(theta: float) -> set:
    """Pairs of positions whose weights are equal as floats at ``theta`` but not at a generic angle."""
    weights, generic = rotation_weights(theta), rotation_weights(0.3)
    return {
        (a, b) for a in weights for b in weights
        if a < b and weights[a] == weights[b] and generic[a] != generic[b]
    }


# angles at which two weights of the rotation's batch, different functions of
# theta, round to the same float (atan(1/2), atan(1/3), atan(3), pi/6), and
# 1e-200, whose s**2 and s**3 underflow to zeros of both signs
EQUAL_WEIGHT_ANGLES = tuple(map(float.fromhex, (
    "0x1.dac670561bb4fp-2", "0x1.4978fa3269ee1p-2", "0x1.3fc176b7a8560p+0", "0x1.0c152382d7366p-1",
))) + (1e-200,)


@pytest.mark.parametrize("theta", EQUAL_WEIGHT_ANGLES)
def test_the_equal_weight_angles_give_two_positions_one_float(theta):
    assert coincidences(theta)


angles = st.one_of(
    st.sampled_from((0.0, math.pi / 2, 1e-200, -1e-200, -0.7, -math.pi / 2) + EQUAL_WEIGHT_ANGLES),
    st.floats(-math.pi, math.pi),
)


@settings(deadline=None, max_examples=40)
@given(thetas=st.lists(angles, min_size=1, max_size=4))
@example(thetas=[0.0, math.pi / 2, 1e-200, -0.7, *EQUAL_WEIGHT_ANGLES])
def test_psi_theta_on_shared_batches_matches_fresh_batches(thetas):
    for theta in thetas:  # in the drawn order: each call finds what the ones before laid out
        result = build_psi_theta(theta)
        assert (hexed(result.state), result.postselect_probability.hex()) == fresh_psi_theta(theta)


def test_the_rotation_rows_keep_the_matrix_scalars():
    source, _ = schemes._preparation()
    rotation = polarization_rotation(source.register, "b", 0.7)
    expected = tuple(
        tuple((int(j), rotation.matrix[i, j]) for j in np.flatnonzero(rotation.matrix[i]))
        for i in range(len(source.register))
    )
    assert rotation._rows == expected
    assert all(type(j) is int and type(r) is np.complex128 for row in rotation._rows for j, r in row)


def test_a_warm_sweep_lays_out_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(elements, "_LAYOUTS", {})
    assert main(["run", "psi-theta", "grid=20", f"output={tmp_path / 'first.csv'}"]) == 0

    def refuse(self, transform, signature):
        raise AssertionError("a warm sweep laid out a batch")

    monkeypatch.setattr(elements._Batch, "__init__", refuse)
    assert main(["run", "psi-theta", "grid=7", f"output={tmp_path / 'second.csv'}"]) == 0
    # the rotation's batches: one at angle 0 (the identity), one at every other angle
    source, _ = schemes._preparation()
    structures = {polarization_rotation(source.register, "b", theta)._structure for theta in (0.0, 0.3)}
    assert len(structures) == 2
    laid_out = {key for key in elements._LAYOUTS if key[0] in structures}
    assert laid_out == {(structure, tuple(source._terms)) for structure in structures}
