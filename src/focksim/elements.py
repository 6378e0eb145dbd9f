"""Passive linear-optical elements as exact creation-operator substitutions.

A :class:`ModeTransform` rewrites each input creation operator as a linear
combination of output creation operators (matrix entry ``[i][j]`` is the
coefficient of output mode ``j`` when substituting input mode ``i``) and is
applied to a ket by exact multinomial re-expansion, so photon number and
norm are conserved to machine precision.

The substitution rows are built once, at construction; they keep the
matrix's numpy scalars, from which the expansion weights are computed, and
each weight is stored as a Python ``complex`` (an exact conversion).  Each
input mode's expansion at each occupancy is computed once.

Each input signature (a ket's occupations, in order) gets one batch, laid
out once from those expansions as numpy arrays and run round by round,
each round one step of every term, over ``(re, im)`` float rows.  A term
divides its amplitude by its ``sqrt(m!)`` divisors, takes a round of
``(dst, src, weight)`` multiply-adds per moved mode, then one round of
``sqrt(k!)`` scales; its outputs are numbered by their first appearance in
the batch.  Each operation keeps the bits of the per-term Python
arithmetic it replaced:

- a product is CPython's complex product on split floats, a float product
  and one float sum per part (numpy's complex multiply may fuse, so it is
  not used);
- ``np.bincount`` sums into each slot and output in op order, from ``0.0``,
  as Python's lists and dict did; a round that writes each slot once
  skips that ``0.0 +``, which changes at most the sign of a zero part;
- divisors apply in turn as float divisions (numpy's complex division uses
  a reciprocal).  CPython's complex-by-float division also adds zero
  products, which change a zero part's sign, cleared by the output sums,
  or spread an infinite part as NaN, which adding ``x * 0.0`` once does too;
- pruning uses ``np.hypot``, which gives ``abs``'s bits (``np.abs`` does not);
- the post-selection norm is the builtin ``sum`` of ``math.pow(m, 2.0)``
  (libm's ``pow``, as ``m ** 2``; ``m * m`` differs in about 0.1% of cases).

:func:`apply_circuit` hands each element's surviving amplitudes to the next
as an array, finds the next batch by the previous one and its keep mask,
and builds only its result as a ket (``apply`` is a circuit of one
element).  With ``postselect`` it decides once per pattern and batch which
outputs :meth:`FockKet.project` would keep, and gives that ``project``'s bits.

A transform may be shared for the life of a process (the symmetry detector
keeps one splitter per register, the preparation pipeline its four
splitters, the GHZ readout its six taps).  Expansions and batches depend
only on the rows and the occupations, and each compiles once, under a
lock, so a shared transform gives a fresh one's bits, from any thread; its
memory grows with the distinct signatures it has seen, and no further.

Photon number is conserved, so the outputs of terms holding at most
``MAX_OCCUPANCY`` photons are valid by construction and the result is built
without checking them (see :mod:`focksim.fock`).  A batch with a term past
that cap checks its surviving outputs before the next element runs, so a
circuit raises the ``CapacityError`` of the first element whose result the
checked constructor would refuse.
"""

from __future__ import annotations

import math
import threading
import weakref
from array import array
from itertools import repeat
from typing import Iterable, Mapping

import numpy as np

from .fock import _SQRT_FACT, MAX_OCCUPANCY, PRUNE_THRESHOLD, FockKet, ModeRegister
from .fock import _check_occupation, _Selection, _sqrt_factorials

UNITARITY_TOLERANCE = 1e-12

# one (assignment, weight) per way to share an input mode's photons over its
# row's output modes; an assignment lists (output mode, photons) pairs
_Expansion = list[tuple[tuple[tuple[int, int], ...], complex]]


class ModeTransform:
    """Unitary substitution rule on the creation operators of a register."""

    __slots__ = (
        "_register", "_matrix", "_rows", "_moved", "_expansions", "_compiling", "_batches", "__weakref__",
    )

    def __init__(self, register: ModeRegister, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        n = len(register)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape} does not match register size {n}")
        deviation = np.max(np.abs(matrix @ matrix.conj().T - np.eye(n)))
        if deviation > UNITARITY_TOLERANCE:
            raise ValueError(f"matrix is not unitary (deviation {deviation:.3e})")
        self._register = register
        self._matrix = matrix.copy()
        self._matrix.setflags(write=False)
        # substitution rows: the nonzero (output mode, coefficient) pairs per input mode
        self._rows = tuple(
            tuple((int(j), self._matrix[i, j]) for j in np.flatnonzero(self._matrix[i]))
            for i in range(n)
        )
        # input modes whose row is not exactly a_i^dag -> a_i^dag
        self._moved = tuple(i for i, row in enumerate(self._rows) if row != ((i, 1.0),))
        # (input mode, occupancy) -> its multinomial expansion, filled as batches compile
        self._expansions: dict[tuple[int, int], _Expansion] = {}
        # held while a batch and its expansions compile, one thread at a time
        self._compiling = threading.Lock()
        # input signature (the ordered input occupations) -> its batch
        self._batches: dict[tuple[tuple[int, ...], ...], _Batch] = {}

    @property
    def register(self) -> ModeRegister:
        return self._register

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def apply(self, ket: FockKet) -> FockKet:
        """Substitute and re-expand every creation operator of the ket."""
        return apply_circuit(ket, (self,))

    def _batch(self, signature: tuple[tuple[int, ...], ...]) -> "_Batch":
        """The batch of one input signature, compiled on first use under the lock."""
        batch = self._batches.get(signature)
        if batch is None:
            with self._compiling:
                batch = self._batches.get(signature)
                if batch is None:
                    batch = self._batches[signature] = _Batch(self, signature)
        return batch

    def __repr__(self) -> str:
        return f"ModeTransform(on {self._register!r})"


class _Numbering(dict):
    """Numbers keys 0, 1, 2, ... in the order they are first looked up."""

    def __missing__(self, key) -> int:
        self[key] = number = len(self)
        return number


def _pairs(slots: array) -> np.ndarray:
    """The float positions ``2 s`` and ``2 s + 1`` of each complex slot ``s``, in order."""
    return (2 * np.frombuffer(slots, np.int64)[:, None] + np.arange(2)).ravel()


class _Batch:
    """One input signature's terms, laid out from their expansions as numpy arrays.

    Round ``r`` runs step ``r`` of every term that has one, reading the
    ``(re, im)`` rows of round ``r - 1`` (round 0 reads the inputs).  A
    term's steps are one level per moved mode it occupies, then its
    ``sqrt(k!)`` scales.  The tail sums each output entry, wherever its
    last step left it, into its rank: the first appearance of its
    occupation in the batch.
    """

    __slots__ = ("outputs", "_divided", "_divisors", "_weights", "_rounds", "_tail", "_invalid", "_keeps",
                 "_successors")

    def __init__(self, transform: ModeTransform, signature: tuple[tuple[int, ...], ...]):
        rounds: list[tuple[array, array, array]] = []  # per round: source rows, weight rows, slots
        sizes: list[int] = []
        weights, ranks = _Numbering(), _Numbering()
        expansions = transform._expansions

        def emit(r: int, size: int, slots, sources, ws, rows) -> int:
            """Append one term's step ``r``, given as op columns; returns its first slot."""
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
        divided, divisors, over = array("q"), [], False
        for t, occ in enumerate(signature):
            # an output mode can exceed the cap only if the term holds more
            # photons; such a term reads its output factors from a longer table
            total = sum(occ)
            over = over or total > MAX_OCCUPANCY
            sqrt_fact = _sqrt_factorials(total) if total > MAX_OCCUPANCY else _SQRT_FACT
            # sqrt(0!) = sqrt(1!) = 1.0: dividing or multiplying by it changes at
            # most the sign of a zero part, which the first sum into an output
            # clears, so only the larger factors are applied
            divs = tuple(_SQRT_FACT[m] for m in occ if m > 1)
            if divs:
                divided.append(t)
                divisors.append(divs)
            # photons of modes the transform leaves in place start where they
            # are; expanding them would multiply by exactly 1 + 0j
            start = list(occ)
            for i in transform._moved:
                start[i] = 0
            keys = [tuple(start)]
            rows, r = (t,), 0  # the rows of the term's values in round r - 1
            for i in transform._moved:
                m = occ[i]
                if m == 0:
                    continue
                expansion = expansions.get((i, m))
                if expansion is None:
                    expansion = expansions[(i, m)] = _expansion(transform._rows[i], m)
                # multiply every partial term by the mode's expansion; a key's
                # slot is its first appearance, as in an insertion-ordered dict
                slots: dict[tuple[int, ...], int] = {}
                ops = []
                for src, powers in enumerate(keys):
                    for assignment, weight in expansion:
                        lifted = list(powers)
                        for j, k in assignment:
                            lifted[j] += k
                        ops.append((slots.setdefault(tuple(lifted), len(slots)), src, weight))
                base = emit(r, len(slots), *zip(*ops), rows)
                keys, rows, r = slots, range(base, base + len(slots)), r + 1
            rows = list(rows)
            last = [r - 1] * len(keys)  # the round of each output's value
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

        # keyed as numbers, a weight and one whose zero part has the other sign
        # share a row: their products differ only in the sign of a zero
        self._weights = np.array([[(w.real, -w.imag), (w.imag, w.real)] for w in weights]).reshape(-1, 2, 2)
        self._rounds = tuple(
            (
                np.frombuffer(src, np.int64).repeat(2).reshape(-1, 2),
                np.frombuffer(index, np.int64),
                None if dst == array("q", range(size)) else _pairs(dst),  # no sum if one op per slot
                size,
            )
            for (src, index, dst), size in zip(rounds, sizes)
        )
        starts = np.cumsum([0, len(signature), *sizes])  # of the inputs and each round, laid end to end
        rows = np.frombuffer(tail_row, np.int64) + starts[np.frombuffer(tail_round, np.int64) + 1]
        self._tail = rows, _pairs(tail_rank)
        self._divided = None if len(divided) == len(signature) else np.frombuffer(divided, np.int64)
        # each divided term's divisors in turn, for both parts; 1.0 (exact) pads the shorter lists
        width = max(map(len, divisors), default=0)
        table = np.array([divs + (1.0,) * (width - len(divs)) for divs in divisors]).reshape(len(divisors), width)
        self._divisors = table.T[:, :, None].repeat(2, axis=2)
        self.outputs = tuple(ranks)
        invalid = (max(occ) > MAX_OCCUPANCY for occ in self.outputs)
        self._invalid = np.fromiter(invalid, bool, len(self.outputs)) if over else None
        self._keeps: dict[tuple, np.ndarray] = {}  # selection key -> whether it keeps each output
        # next element -> keep mask bytes -> its batch; weak, so that a batch
        # that outlives a circuit does not keep the circuit's later elements alive
        self._successors: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def run(self, amplitudes: np.ndarray) -> np.ndarray:
        """The output amplitudes, in rank order, of input amplitudes (an array this call may overwrite)."""
        inputs = amplitudes.view(float).reshape(-1, 2)
        if len(self._divisors):
            x = inputs if self._divided is None else inputs[self._divided]
            x += x * 0.0  # the zero products of the first complex-by-float division
            for d in self._divisors:
                x /= d
            if self._divided is not None:
                inputs[self._divided] = x
        values = [inputs]
        for src, index, dst, size in self._rounds:
            # each op's source row twice, times its weight rows (w.re, -w.im) and (w.im, w.re)
            q = values[-1].take(src, 0)
            q *= self._weights.take(index, 0)
            q = np.add(q[..., 0], q[..., 1])
            values.append(q if dst is None else np.bincount(dst, q.ravel(), 2 * size).reshape(-1, 2))
        rows, dst = self._tail
        return np.bincount(dst, np.concatenate(values).take(rows, 0).ravel(), 2 * len(self.outputs)).view(complex)

    def survivors(self, register: ModeRegister, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The outputs' magnitudes, and which survive pruning (``np.hypot`` gives ``abs``'s bits).

        Past the photon cap, the first survivor that the public constructor
        would refuse raises its ``CapacityError``.
        """
        magnitudes = np.hypot(amplitudes.real, amplitudes.imag)
        keep = ~(magnitudes < PRUNE_THRESHOLD)
        if self._invalid is not None:
            for i in np.flatnonzero(keep & self._invalid)[:1].tolist():
                _check_occupation(register, self.outputs[i])
        return magnitudes, keep

    def successor(self, element: ModeTransform, keep: np.ndarray) -> "_Batch":
        """``element``'s batch for the outputs ``keep`` marks."""
        by_mask = self._successors.get(element)
        if by_mask is None:
            by_mask = self._successors.setdefault(element, {})
        batch = by_mask.get(mask := keep.tobytes())
        if batch is None:
            outputs = tuple(map(self.outputs.__getitem__, np.flatnonzero(keep).tolist()))
            batch = by_mask.setdefault(mask, element._batch(outputs))
        return batch


def _expansion(row: tuple[tuple[int, complex], ...], m: int) -> _Expansion:
    """Multinomial expansion of (sum_j r_j a_j^dag)^m."""
    expansions: _Expansion = []

    def split(entry: int, remaining: int, used: list[tuple[int, int]], weight: complex) -> None:
        if entry == len(row) - 1:
            j, r = row[entry]
            # converting the numpy scalar is exact; apply's products then stay Python complex
            w = complex(weight * r**remaining / math.factorial(remaining))
            expansions.append((tuple(used + [(j, remaining)]) if remaining else tuple(used), w))
            return
        j, r = row[entry]
        for k in range(remaining + 1):
            w = weight * r**k / math.factorial(k)
            split(entry + 1, remaining - k, used + [(j, k)] if k else used, w)

    split(0, m, [], complex(math.factorial(m)))
    return expansions


def _embedded(register: ModeRegister, blocks: Iterable[tuple[tuple[int, ...], tuple]]) -> ModeTransform:
    """The identity on ``register`` with each ``(modes, rows)`` block written onto its modes.

    Row ``a`` of a block substitutes input mode ``modes[a]`` over the output
    modes ``modes``: ``matrix[modes[a], modes[b]] = rows[a][b]``.
    """
    matrix = np.eye(len(register), dtype=complex)
    for modes, rows in blocks:
        matrix[np.ix_(modes, modes)] = rows
    return ModeTransform(register, matrix)


def bs_5050(register: ModeRegister, spatial_a: str, spatial_b: str) -> ModeTransform:
    """Balanced beam splitter across a spatial pair, identical on H and V.

    Convention (a rotation, so photon-number-symmetric twin-beam states pass
    through with their printed signs intact)::

        a^dag -> (a^dag + b^dag) / sqrt(2)
        b^dag -> (b^dag - a^dag) / sqrt(2)
    """
    if spatial_a == spatial_b:
        raise ValueError("beam splitter needs two distinct spatial modes")
    inv = 1.0 / math.sqrt(2.0)
    blocks = [
        ((register.index(spatial_a, pol), register.index(spatial_b, pol)), ((inv, inv), (-inv, inv)))
        for pol in ("H", "V")
        if register.has_mode(spatial_a, pol) and register.has_mode(spatial_b, pol)
    ]
    if not blocks:
        raise ValueError(f"no common polarization between {spatial_a!r} and {spatial_b!r}")
    return _embedded(register, blocks)


def bs_unbalanced(
    register: ModeRegister,
    spatial_in: str,
    spatial_r: str,
    spatial_t: str,
    transmission: float,
) -> ModeTransform:
    """Beam splitter feeding a fresh reflected/transmitted mode pair.

    Maps ``in^dag -> sqrt(T) t^dag + sqrt(R) r^dag`` with ``R = 1 - T`` on
    every polarization the input mode carries; the second splitter port is
    assumed to be vacuum, and the completion rows are chosen to keep the
    whole matrix unitary.
    """
    if not 0.0 < transmission < 1.0:
        raise ValueError(f"transmission must lie strictly between 0 and 1, got {transmission}")
    if len({spatial_in, spatial_r, spatial_t}) != 3:
        raise ValueError("input, reflected and transmitted spatial modes must be distinct")
    st = math.sqrt(transmission)
    sr = math.sqrt(1.0 - transmission)
    # rows of in, r, t over the modes in, r, t
    rows = ((0.0, sr, st), (0.0, st, -sr), (1.0, 0.0, 0.0))
    blocks = [
        (tuple(register.index(spatial, pol) for spatial in (spatial_in, spatial_r, spatial_t)), rows)
        for pol in ("H", "V")
        if register.has_mode(spatial_in, pol)
    ]
    if not blocks:
        raise ValueError(f"input spatial mode {spatial_in!r} not present in register")
    return _embedded(register, blocks)


def polarization_rotation(register: ModeRegister, spatial: str, theta: float) -> ModeTransform:
    """Rotate the polarization basis of one spatial mode by ``theta``.

    ``V^dag -> cos(theta) V^dag + sin(theta) H^dag`` and
    ``H^dag -> cos(theta) H^dag - sin(theta) V^dag``.
    """
    if not (register.has_mode(spatial, "H") and register.has_mode(spatial, "V")):
        raise ValueError(f"spatial mode {spatial!r} needs both H and V modes in the register")
    c, s = math.cos(theta), math.sin(theta)
    modes = (register.index(spatial, "H"), register.index(spatial, "V"))
    return _embedded(register, [(modes, ((c, -s), (s, c)))])


def pbs(
    register: ModeRegister,
    spatial_in: str,
    spatial_out_h: str,
    spatial_out_v: str,
) -> ModeTransform:
    """Polarizing beam splitter: H routes to one output path, V to the other.

    An output may coincide with the input (that polarization then stays
    put), but the two outputs must differ.
    """
    if spatial_out_h == spatial_out_v:
        raise ValueError("the two output spatial modes must be distinct")
    pairs = [
        (register.index(spatial_in, pol), register.index(out, pol))
        for pol, out in (("H", spatial_out_h), ("V", spatial_out_v))
    ]
    # a swap keeps the permutation unitary; the counter-propagating entry is
    # never exercised because output modes start in vacuum
    swap = ((0.0, 1.0), (1.0, 0.0))
    return _embedded(register, [(pair, swap) for pair in pairs if pair[0] != pair[1]])


def apply_circuit(
    ket: FockKet,
    elements: Iterable[ModeTransform],
    postselect: Mapping[str, int] | None = None,
) -> FockKet | tuple[FockKet | None, float]:
    """Apply the elements in order; with ``postselect``, project onto that pattern too.

    Each element's surviving amplitudes feed the next one as a numpy array,
    and only the result is built as a ket, with the bits of applying the
    elements one by one.  With ``postselect`` the result is
    ``(projected, probability)``, bit for bit
    ``apply_circuit(ket, elements).project(postselect)``.
    """
    register = ket.register
    batch = None
    # Python's complex arithmetic never warns; numpy warns on an infinite or NaN part
    with np.errstate(invalid="ignore", over="ignore"):
        for element in elements:
            if element.register != register:
                raise ValueError("ket register does not match transform register")
            if batch is None:
                batch = element._batch(tuple(ket._terms))
                amplitudes = np.fromiter(ket._terms.values(), complex, len(ket))
            else:
                keep = batch.survivors(register, amplitudes)[1]
                batch = batch.successor(element, keep)
                amplitudes = amplitudes[keep]
            amplitudes = batch.run(amplitudes)
        if batch is None:
            return ket if postselect is None else ket.project(postselect)
        if postselect is None:
            if batch._invalid is not None:
                batch.survivors(register, amplitudes)
            # the ket prunes its terms as survivors does
            return FockKet._from_valid(register, zip(batch.outputs, amplitudes.tolist()))
        magnitudes, keep = batch.survivors(register, amplitudes)
    selection = _Selection(register, postselect)
    chosen = batch._keeps.get(selection.key)
    if chosen is None:
        chosen = np.fromiter(map(selection.keeps, batch.outputs), bool, len(batch.outputs))
        chosen = batch._keeps.setdefault(selection.key, chosen)
    chosen = np.flatnonzero(keep & chosen)
    kept = dict(zip(map(batch.outputs.__getitem__, chosen.tolist()), amplitudes[chosen].tolist()))
    # the norm sums each m**2 in order: libm's pow, as math.pow calls it, which m * m does not always match
    return selection.projected(sum(map(math.pow, magnitudes[keep].tolist(), repeat(2.0))), kept)
