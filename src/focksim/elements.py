"""Passive linear-optical elements as exact creation-operator substitutions.

A :class:`ModeTransform` rewrites each input creation operator as a linear
combination of output creation operators (matrix entry ``[i][j]`` is the
coefficient of output mode ``j`` when substituting input mode ``i``) and is
applied to a ket by exact multinomial re-expansion, so photon number and
norm are conserved to machine precision.

The substitution rows (the nonzero entries of each matrix row) are built
once, when the transform is constructed.  ``apply`` runs one program per
input occupation, compiled on the first ket that holds it and replayed for
every later one: the ``sqrt(m!)`` divisors of the amplitude, one level of
``(dst, src, weight)`` multiply-adds per moved mode (modes the transform
leaves in place are not expanded), and a tail naming each output
occupation's id once, in slot order, with its ``sqrt(k!)`` scale.  A last
level that writes each slot once is fused into the tail, which then
multiplies by its weights and sums straight into the output: the skipped
``0.0 +`` changes at most the sign of a zero part, which the first
``0.0 +`` into the output clears.  A transform numbers output occupations
as its programs first produce them, and one replay loop sums every term
into a dict keyed by those ids, which keeps each id where it first
appears: every output amplitude is the multinomial expansion's sum, in
its order, and no occupation is hashed per term.  The rows keep the
matrix's numpy scalars: the expansion weights are computed from them, and
converting the rows to Python ``complex`` moves output bits.  Each
finished weight is stored as a Python ``complex``; that conversion is
exact, and CPython computes a complex product and sum with the same
formulas as numpy, so ``apply`` runs on Python scalars alone and its
results keep their bits.

:func:`apply_circuit` hands each element's surviving terms to the next and
builds only its result as a ket (``apply`` is a circuit of one element).
With ``postselect`` it also projects that result, deciding once per output
id and pattern whether a term is kept, by the rule :meth:`FockKet.project`
uses, so it gives the bits of a ``project`` after the circuit.

A transform may be shared for the life of a process (the symmetry
detector keeps one splitter per register, the preparation pipeline its
four splitters, the GHZ readout its six taps).  Filling its programs is
idempotent: a program depends only on the rows and the occupation, never
on the ket that first needs it, and ids are assigned under a lock while a
program compiles, so a shared transform gives the same bits as a fresh
one, from any thread.  Its memory grows with the distinct occupations it
has seen, and no further.

Photon number is conserved, so the output occupations of a ket whose terms
each hold at most ``MAX_OCCUPANCY`` photons are valid by construction and
the result is built without checking or converting them (see
:mod:`focksim.fock`); its amplitudes are Python ``complex``, as in every ket.
A replay that met a term past that cap checks its surviving outputs before
it returns, so a circuit raises the ``CapacityError`` of the first element
whose result the checked constructor would refuse.
"""

from __future__ import annotations

import math
import threading
from itertools import compress
from typing import Iterable, Mapping

import numpy as np

from .fock import _SQRT_FACT, MAX_OCCUPANCY, PRUNE_THRESHOLD, FockKet, ModeRegister
from .fock import _check_occupation, _Selection, _sqrt_factorials

UNITARITY_TOLERANCE = 1e-12

# one (assignment, weight) per way to share an input mode's photons over its
# row's output modes; an assignment lists (output mode, photons) pairs
_Expansion = list[tuple[tuple[tuple[int, int], ...], complex]]
# what apply does for one input occupation: the amplitude's divisors; per
# moved mode but a fused last one, (size, (dst, src, weight) ops); the tail's
# (src, weight or None, output id, scale or None) per output; and whether the
# term holds more than MAX_OCCUPANCY photons
_Program = tuple[tuple, tuple, tuple, bool]


class ModeTransform:
    """Unitary substitution rule on the creation operators of a register."""

    __slots__ = (
        "_register", "_matrix", "_rows", "_moved", "_expansions",
        "_programs", "_ids", "_occupations", "_compiling", "_selections",
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
        # (input mode, occupancy) -> its multinomial expansion, filled by _compile
        self._expansions: dict[tuple[int, int], _Expansion] = {}
        # input occupation -> its compiled program, filled by _replay
        self._programs: dict[tuple[int, ...], _Program] = {}
        # output occupation <-> id, numbered as programs first produce them
        self._ids: dict[tuple[int, ...], int] = {}
        self._occupations: list[tuple[int, ...]] = []
        # held while a program compiles or a selection memo grows, one thread at a time
        self._compiling = threading.Lock()
        # compiled post-selection pattern -> whether it keeps each output id
        self._selections: dict[tuple, list[bool]] = {}

    @property
    def register(self) -> ModeRegister:
        return self._register

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def then(self, later: "ModeTransform") -> "ModeTransform":
        """Single transform equivalent to applying ``self`` first, then ``later``."""
        if self._register != later._register:
            raise ValueError("cannot compose transforms on different registers")
        return ModeTransform(self._register, self._matrix @ later._matrix)

    def apply(self, ket: FockKet) -> FockKet:
        """Substitute and re-expand every creation operator of the ket."""
        return apply_circuit(ket, (self,))

    def _replay(self, terms: Iterable[tuple[tuple[int, ...], complex]]) -> dict[int, complex]:
        """Every term's program, summed into one dict keyed by output id.

        The dict keeps each id where it first appears, so every output
        amplitude is the same sum, in the same order, as in a dict keyed by
        the output occupations.  Past the photon cap (a term held more than
        ``MAX_OCCUPANCY`` photons) every output that survives pruning is
        checked, in order, as the public ``FockKet`` constructor checks it.
        """
        out: dict[int, complex] = {}
        get = out.get
        programs = self._programs
        over_cap = False
        for occ, amp in terms:
            program = programs.get(occ)
            if program is None:
                with self._compiling:
                    program = programs[occ] = self._compile(occ)
            divisors, levels, tail, over = program
            over_cap = over_cap or over
            for d in divisors:
                amp /= d
            values = [amp]
            for size, ops in levels:
                grown = [0.0] * size
                for dst, src, weight in ops:
                    grown[dst] = grown[dst] + values[src] * weight
                values = grown
            for src, weight, i, scale in tail:
                v = values[src] if weight is None else values[src] * weight
                out[i] = get(i, 0.0) + (v if scale is None else v * scale)
        if over_cap:
            for occ, _ in self._outputs(out):
                _check_occupation(self._register, occ)
        return out

    def _outputs(self, out: dict[int, complex]) -> list[tuple[tuple[int, ...], complex]]:
        """The replayed terms that survive pruning, as ``(occupation, amplitude)`` pairs."""
        occupations = self._occupations
        return [(occupations[i], amp) for i, amp in out.items() if not abs(amp) < PRUNE_THRESHOLD]

    def _selected(self, out: dict[int, complex], selection: _Selection) -> tuple[FockKet | None, float]:
        """What ``project`` gives on the ket of :meth:`_outputs`, without building that ket.

        Whether an output is kept is decided once per output id and pattern, for
        every id numbered by then, in a list that grows under the compile lock.
        """
        occupations = self._occupations
        keeps = self._selections.setdefault(selection.key, [])
        if len(keeps) < len(occupations):
            with self._compiling:
                keeps.extend(map(selection.keeps, occupations[len(keeps) :]))
        squares = [m**2 for m in map(abs, out.values()) if not m < PRUNE_THRESHOLD]
        kept = {
            occupations[i]: amp
            for i, amp in compress(out.items(), map(keeps.__getitem__, out))
            if not abs(amp) < PRUNE_THRESHOLD
        }
        return selection.projected(sum(squares), kept)

    def _compile(self, occ: tuple[int, ...]) -> _Program:
        """The steps ``apply`` takes for one input occupation, in the order it takes them."""
        # an output mode can exceed the cap only if the term holds more
        # photons; such a term reads its output factors from a longer table
        total = sum(occ)
        sqrt_fact = _sqrt_factorials(total) if total > MAX_OCCUPANCY else _SQRT_FACT
        # sqrt(0!) = sqrt(1!) = 1.0: dividing or multiplying by it changes at
        # most the sign of a zero part, which the first sum into ``out``
        # clears, so only the larger factors are applied
        divisors = tuple(_SQRT_FACT[m] for m in occ if m > 1)
        # photons of modes the transform leaves in place start where they
        # are; expanding them would multiply by exactly 1 + 0j
        start = list(occ)
        for i in self._moved:
            start[i] = 0
        keys: list[tuple[int, ...]] = [tuple(start)]
        levels = []
        for i in self._moved:
            m = occ[i]
            if m == 0:
                continue
            expansion = self._expansions.get((i, m))
            if expansion is None:
                expansion = self._expansions[(i, m)] = _expansion(self._rows[i], m)
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
            levels.append((len(slots), tuple(ops)))
            keys = list(slots)
        # a last level that writes each slot once (its ops then run in slot
        # order) is fused into the tail; its ``0.0 +`` is skipped, as above
        fused = levels.pop()[1] if levels and len(levels[-1][1]) == levels[-1][0] else None
        tail = []
        for slot, powers in enumerate(keys):
            scale = 1.0
            for p in powers:
                if p > 1:
                    scale *= sqrt_fact[p]
            i = self._ids.get(powers)
            if i is None:
                i = self._ids[powers] = len(self._occupations)
                self._occupations.append(powers)
            src, weight = fused[slot][1:] if fused else (slot, None)
            tail.append((src, weight, i, None if scale == 1.0 else scale))
        return divisors, tuple(levels), tuple(tail), total > MAX_OCCUPANCY

    def __repr__(self) -> str:
        return f"ModeTransform(on {self._register!r})"


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


def identity(register: ModeRegister) -> ModeTransform:
    return ModeTransform(register, np.eye(len(register)))


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

    Each element's surviving terms feed the next one directly, and only the
    result is built as a ket, with the bits of applying the elements one by
    one.  With ``postselect`` the result is ``(projected, probability)``,
    bit for bit ``apply_circuit(ket, elements).project(postselect)``.
    """
    register = ket.register
    last = None
    for element in elements:
        if element.register != register:
            raise ValueError("ket register does not match transform register")
        out = element._replay(ket.items() if last is None else last._outputs(out))
        last = element
    if last is None:
        return ket if postselect is None else ket.project(postselect)
    if postselect is None:
        return FockKet._from_valid(register, last._outputs(out))
    return last._selected(out, _Selection(register, postselect))
