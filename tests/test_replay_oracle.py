"""The batch kernel of ``apply_circuit`` against the per-term replay it replaced, bit for bit.

The replay compiled one program per input occupation, summed every term's
program into a dict keyed by output id, pruned with ``abs`` and, with
``postselect``, summed ``m**2`` over the surviving outputs and kept the
selected ones.  Both are written out below, with tables of their own, and
every result is compared with ``float.hex``: key order, each amplitude's
parts, the post-selection probability and which element raises
``CapacityError``.
"""

import math
import random
import weakref
from functools import partial

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focksim import CapacityError, FockKet, ModeRegister, ModeTransform, apply_circuit
from focksim.elements import _expansion, bs_5050, bs_unbalanced, pbs, polarization_rotation
from focksim.fock import _SQRT_FACT, MAX_OCCUPANCY, PRUNE_THRESHOLD, _check_occupation, _Selection
from focksim.fock import _sqrt_factorials


class Tables:
    """One transform's compiled programs and output ids, as the replay kept them."""

    def __init__(self):
        self.expansions = {}
        self.programs = {}
        self.ids = {}
        self.occupations = []


TABLES: "weakref.WeakKeyDictionary[ModeTransform, Tables]" = weakref.WeakKeyDictionary()


def tables(transform) -> Tables:
    return TABLES.setdefault(transform, Tables())


def old_compile(transform, occ) -> tuple:
    """``ModeTransform._compile`` as it was: the steps the replay took for one input occupation.

    A program is the amplitude's divisors; per moved mode but a fused last
    one, ``(size, (dst, src, weight) ops)``; the tail's ``(src, weight or
    None, output id, scale or None)`` per output; and whether the term holds
    more than MAX_OCCUPANCY photons.
    """
    own = tables(transform)
    total = sum(occ)
    sqrt_fact = _sqrt_factorials(total) if total > MAX_OCCUPANCY else _SQRT_FACT
    divisors = tuple(_SQRT_FACT[m] for m in occ if m > 1)
    start = list(occ)
    for i in transform._moved:
        start[i] = 0
    keys = [tuple(start)]
    levels = []
    for i in transform._moved:
        m = occ[i]
        if m == 0:
            continue
        expansion = own.expansions.get((i, m))
        if expansion is None:
            expansion = own.expansions[(i, m)] = _expansion(transform._rows[i], m)
        slots = {}
        ops = []
        for src, powers in enumerate(keys):
            for assignment, weight in expansion:
                lifted = list(powers)
                for j, k in assignment:
                    lifted[j] += k
                ops.append((slots.setdefault(tuple(lifted), len(slots)), src, weight))
        levels.append((len(slots), tuple(ops)))
        keys = list(slots)
    # a last level that writes each slot once is fused into the tail as its weights
    fused = levels.pop()[1] if levels and len(levels[-1][1]) == levels[-1][0] else None
    tail = []
    for slot, powers in enumerate(keys):
        scale = 1.0
        for p in powers:
            if p > 1:
                scale *= sqrt_fact[p]
        i = own.ids.get(powers)
        if i is None:
            i = own.ids[powers] = len(own.occupations)
            own.occupations.append(powers)
        src, weight = fused[slot][1:] if fused else (slot, None)
        tail.append((src, weight, i, None if scale == 1.0 else scale))
    return divisors, tuple(levels), tuple(tail), total > MAX_OCCUPANCY


def old_replay(transform, terms) -> dict:
    """``ModeTransform._replay`` as it was: every term's program, summed into a dict keyed by output id."""
    programs = tables(transform).programs
    out = {}
    get = out.get
    over_cap = False
    for occ, amp in terms:
        program = programs.get(occ)
        if program is None:
            program = programs[occ] = old_compile(transform, occ)
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
        for occ, _ in old_outputs(transform, out):
            _check_occupation(transform.register, occ)
    return out


def old_outputs(transform, out: dict) -> list:
    occupations = tables(transform).occupations
    return [(occupations[i], amp) for i, amp in out.items() if not abs(amp) < PRUNE_THRESHOLD]


def old_selected(transform, out: dict, selection: _Selection):
    occupations = tables(transform).occupations
    squares = [m**2 for m in map(abs, out.values()) if not m < PRUNE_THRESHOLD]
    kept = {
        occupations[i]: amp
        for i, amp in out.items()
        if selection.keeps(occupations[i]) and not abs(amp) < PRUNE_THRESHOLD
    }
    return selection.projected(sum(squares), kept)


def old_apply_circuit(ket: FockKet, elements, postselect=None):
    register = ket.register
    last = None
    for element in elements:
        out = old_replay(element, ket.items() if last is None else old_outputs(last, out))
        last = element
    if last is None:
        return ket if postselect is None else ket.project(postselect)
    if postselect is None:
        return FockKet._from_valid(register, old_outputs(last, out))
    return old_selected(last, out, _Selection(register, postselect))


def hexed(ket: FockKet) -> list:
    return [(occ, type(amp).__name__, amp.real.hex(), amp.imag.hex()) for occ, amp in ket.items()]


def outcome(elements, run) -> tuple:
    """The result with every float as hex, or the ``CapacityError`` and the element that raised it."""
    try:
        result = run()
    except CapacityError as exc:
        # elements after the one that raised never ran; an empty input cannot raise
        compiled = [i for i, e in enumerate(elements) if e in TABLES or e._tables]
        return "CapacityError", str(exc), max(compiled)
    if isinstance(result, FockKet):
        return "ket", hexed(result)
    projected, probability = result
    return "projected", None if projected is None else hexed(projected), probability.hex()


TRIPLE = ModeRegister.polarized("a", "b", "c")
SPATIALS = ("a", "b", "c")
# angles whose sine or cosine is a rounding residue below the prune threshold
PRUNING_ANGLES = (math.pi / 2, -math.pi / 2, math.pi, 3 * math.pi / 2)


def phased_splitter(register: ModeRegister, i: int, j: int, a: complex, b: complex) -> ModeTransform:
    """A 2 x 2 unitary with complex entries on modes ``i`` and ``j``: complex weights reach every product."""
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = a / norm, b / norm
    matrix = np.eye(len(register), dtype=complex)
    matrix[np.ix_((i, j), (i, j))] = ((a, b), (-b.conjugate(), a.conjugate()))
    return ModeTransform(register, matrix)


@st.composite
def circuits(draw):
    """Factories of fresh elements on TRIPLE, one to four of them."""
    makers = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("merge", "splitter", "rotation", "pbs", "phased")))
        spatials = draw(st.permutations(SPATIALS))
        if kind == "merge":
            makers.append(partial(bs_5050, TRIPLE, *spatials[:2]))
        elif kind == "splitter":
            makers.append(partial(bs_unbalanced, TRIPLE, *spatials, draw(st.floats(0.01, 0.99))))
        elif kind == "rotation":
            theta = draw(st.one_of(st.sampled_from(PRUNING_ANGLES), st.floats(-math.pi, math.pi)))
            makers.append(partial(polarization_rotation, TRIPLE, spatials[0], theta))
        elif kind == "pbs":
            # a permutation: single photons pass with their amplitudes' exact bits
            makers.append(partial(pbs, TRIPLE, spatials[0], spatials[1], spatials[0]))
        else:
            i, j = draw(st.permutations(range(len(TRIPLE))))[:2]
            a, b = (complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.1, 1.0))) for _ in range(2))
            makers.append(partial(phased_splitter, TRIPLE, i, j, a, b))
    return makers


def _square_mismatches(count: int) -> list[float]:
    """Magnitudes whose ``m * m`` is not libm's ``m ** 2``."""
    rng = random.Random(7)
    found = []
    while len(found) < count:
        m = rng.uniform(0.05, 1.0)
        if m * m != m**2:
            found.append(m)
    return found


SQUARE_MISMATCHES = _square_mismatches(4)
T = PRUNE_THRESHOLD
# the prune threshold, one ulp either side, signed zeros, NaN, infinity, and
# magnitudes whose square differs between m * m and m ** 2
SPECIAL_PARTS = (T, math.nextafter(T, 0.0), math.nextafter(T, 1.0), 0.0, -0.0, math.nan, math.inf)
parts = st.one_of(
    st.sampled_from(SPECIAL_PARTS + tuple(SQUARE_MISMATCHES)),
    st.floats(0.05, 1.0),
).flatmap(lambda x: st.sampled_from((x, -x)))


@st.composite
def kets(draw):
    """Kets on TRIPLE; some hold a term with more than MAX_OCCUPANCY photons."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        occ = [0] * len(TRIPLE)
        for _ in range(draw(st.integers(0, 4))):
            occ[draw(st.integers(0, len(TRIPLE) - 1))] += 1
        terms[tuple(occ)] = complex(draw(parts), draw(parts))
    if not draw(st.integers(0, 3)):
        photons = draw(st.integers(MAX_OCCUPANCY + 1, MAX_OCCUPANCY + 2))
        i, j = draw(st.permutations(range(len(TRIPLE))))[:2]
        occ = [0] * len(TRIPLE)
        occ[i] = draw(st.integers(photons - MAX_OCCUPANCY, MAX_OCCUPANCY))
        occ[j] = photons - occ[i]
        terms[tuple(occ)] = complex(draw(parts), draw(parts))
    return FockKet(TRIPLE, terms)


# counts by mode label or by spatial name; 18 is more photons than any term holds
patterns = st.dictionaries(
    st.sampled_from(TRIPLE.labels + tuple(dict.fromkeys(s for s, _ in TRIPLE.modes))),
    st.one_of(st.integers(0, 3), st.just(18)),
    max_size=3,
)

SWAP_A_TO_B = [partial(pbs, TRIPLE, "a", "b", "a")]


@settings(deadline=None, max_examples=200)
@given(makers=circuits(), ket=kets(), pattern=patterns)
# single photons moved by a permutation, at and either side of the threshold
@example(
    makers=SWAP_A_TO_B,
    ket=FockKet(TRIPLE, {(1, 0, 0, 0, 0, 0): T, (0, 0, 1, 0, 0, 0): math.nextafter(T, 1.0),
                         (0, 1, 0, 0, 0, 0): complex(-0.0, math.nextafter(T, 0.0)), (0, 0, 0, 0, 1, 0): 0.5}),
    pattern={},
)
# outputs whose squared magnitudes differ between m * m and m ** 2
@example(
    makers=SWAP_A_TO_B,
    ket=FockKet(TRIPLE, {(1, 0, 0, 0, 0, 0): SQUARE_MISMATCHES[0], (0, 0, 0, 0, 1, 0): SQUARE_MISMATCHES[1]}),
    pattern={"c": 1},
)
# complex weights, whose products numpy's complex128 multiply would round otherwise
@example(
    makers=[partial(phased_splitter, TRIPLE, 0, 2, complex(0.6, 0.3), complex(-0.2, 0.7))],
    ket=FockKet(TRIPLE, {(1, 0, 1, 0, 0, 0): complex(0.6, -0.2), (2, 0, 0, 0, 0, 0): complex(0.3, 0.7)}),
    pattern={"a": 1},
)
# a NaN and an infinite part, divided (two photons) and not
@example(
    makers=[partial(bs_5050, TRIPLE, "a", "b")],
    ket=FockKet(TRIPLE, {(2, 0, 0, 0, 0, 0): complex(math.inf, 0.5), (0, 0, 1, 0, 0, 0): complex(-0.3, math.nan),
                         (0, 0, 0, 0, 1, 0): 0.5}),
    pattern={"c": 1},
)
# sixteen photons into one mode: the first splitter raises
@example(
    makers=[partial(bs_5050, TRIPLE, "a", "b"), partial(bs_5050, TRIPLE, "a", "c")],
    ket=FockKet(TRIPLE, {(8, 0, 8, 0, 0, 0): 1.0}),
    pattern={},
)
def test_the_batch_kernel_matches_the_per_term_replay(makers, ket, pattern):
    old_elements = [make() for make in makers]
    new_elements = [make() for make in makers]
    expected = outcome(old_elements, lambda: old_apply_circuit(ket, old_elements))
    assert outcome(new_elements, lambda: apply_circuit(ket, new_elements)) == expected
    # cold for this pattern, then warm: the batches and their masks are kept
    expected = outcome(old_elements, lambda: old_apply_circuit(ket, old_elements, pattern))
    for _ in range(2):
        assert outcome(new_elements, lambda: apply_circuit(ket, new_elements, pattern)) == expected
