"""``ModeTransform.apply`` runs compiled batches with the arithmetic of the path they replaced.

``expansion_path_apply`` below is ``apply`` as it was before compiling:
every term is re-expanded through one dict per moved mode.  A batch must
give the same output keys in the same order and the same amplitude bits,
whether the transform is fresh or has already compiled what it meets.  So
must ``apply_circuit``, which feeds each element's terms to the next and
may post-select the result, against elements applied one by one and a
``project`` after them.
"""

import gc
import math
import struct
import sys
import threading
import time
import weakref
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksim import (
    CapacityError,
    FockKet,
    GhzReadout,
    ModeRegister,
    ModeTransform,
    apply_circuit,
    build_psi_theta,
    schemes,
)
from focksim.elements import _expansion, bs_5050, bs_unbalanced, polarization_rotation
from focksim.fock import _SQRT_FACT, MAX_OCCUPANCY, _sqrt_factorials, expand_bilinear_power
from focksim.pdc import singlet_form
from focksim.schemes import SCHEME_SPATIALS


def _distribute_mode(partial, expansion):
    grown = {}
    for powers, coeff in partial.items():
        for assignment, weight in expansion:
            lifted = list(powers)
            for j, k in assignment:
                lifted[j] += k
            key = tuple(lifted)
            grown[key] = grown.get(key, 0.0) + coeff * weight
    return grown


def _expanded(transform: ModeTransform, occ, prefactor, expansions) -> dict:
    """One input term's expansion, keyed by output occupation in first-appearance order."""
    start = list(occ)
    for i in transform._moved:
        start[i] = 0
    partial = {tuple(start): prefactor}
    for i in transform._moved:
        m = occ[i]
        if m == 0:
            continue
        expansion = expansions.get((i, m))
        if expansion is None:
            expansion = expansions[(i, m)] = _expansion(transform._rows[i], m)
        partial = _distribute_mode(partial, expansion)
    return partial


def expansion_path_apply(transform: ModeTransform, ket: FockKet) -> FockKet:
    """The expansion path, with an expansion table of its own."""
    out = {}
    expansions = {}
    checked = False
    for occ, amp in ket.items():
        total = sum(occ)
        if total > MAX_OCCUPANCY:
            checked = True
            sqrt_fact = _sqrt_factorials(total)
        else:
            sqrt_fact = _SQRT_FACT
        prefactor = amp
        for m in occ:
            if m > 1:
                prefactor /= _SQRT_FACT[m]
        partial = _expanded(transform, occ, prefactor, expansions)
        for powers, coeff in partial.items():
            scale = 1.0
            for p in powers:
                if p > 1:
                    scale *= sqrt_fact[p]
            value = coeff * scale if scale != 1.0 else coeff
            out[powers] = out.get(powers, 0.0) + value
    if checked:
        return FockKet(transform.register, out)
    return FockKet._from_valid(transform.register, out)


def bits(ket: FockKet) -> list[tuple[tuple[int, ...], str, bytes]]:
    """Every term in order, with its amplitude's type and packed bits."""
    return [
        (occ, type(amp).__name__, struct.pack("<dd", amp.real, amp.imag))
        for occ, amp in ket.items()
    ]


def haar_unitary(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


PAIR = ModeRegister.polarized("a", "b")
TRIPLE = ModeRegister.polarized("a", "b", "c")
LINES = {n: ModeRegister((f"m{i}", "H") for i in range(n)) for n in range(2, 6)}

# real and imaginary parts: signed zeros are common, so negative-zero
# products reach the sums
parts = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.floats(0.05, 1.0).flatmap(lambda x: st.sampled_from((x, -x))),
)


@st.composite
def kets(draw, register: ModeRegister, max_photons: int = 6):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        photons = draw(st.integers(0, max_photons))
        occ = [0] * len(register)
        for _ in range(photons):
            occ[draw(st.integers(0, len(register) - 1))] += 1
        re, im = draw(parts), draw(parts)
        if re == 0.0 and im == 0.0:
            re = 0.5
        terms[tuple(occ)] = complex(re, im)
    return FockKet(register, terms)


@st.composite
def transform_and_kets(draw):
    kind = draw(st.sampled_from(("haar", "interference", "rotation", "splitter")))
    if kind == "haar":
        n = draw(st.integers(2, 5))
        register = LINES[n]
        seed = draw(st.integers(0, 2**32 - 1))
        make = lambda: ModeTransform(register, haar_unitary(seed, n))  # noqa: E731
    elif kind == "interference":
        register = TRIPLE
        pair = draw(st.sampled_from((("a", "b"), ("b", "c"), ("c", "a"))))
        make = lambda: bs_5050(register, *pair)  # noqa: E731
    elif kind == "rotation":
        register = PAIR
        spatial = draw(st.sampled_from(("a", "b")))
        special = st.sampled_from((0.0, math.pi / 2, math.pi))
        theta = draw(st.one_of(special, st.floats(-math.pi, math.pi)))
        make = lambda: polarization_rotation(register, spatial, theta)  # noqa: E731
    else:
        register = TRIPLE
        transmission = draw(st.floats(0.01, 0.99))
        make = lambda: bs_unbalanced(register, "a", "b", "c", transmission)  # noqa: E731
    return make, draw(kets(register)), draw(kets(register))


@settings(deadline=None, max_examples=150)
@given(case=transform_and_kets())
def test_replay_matches_the_expansion_path_cold_and_warm(case):
    make, ket, other = case
    expected = bits(expansion_path_apply(make(), ket))
    transform = make()
    assert bits(transform.apply(ket)) == expected  # compiles the ket's batch
    assert bits(transform.apply(ket)) == expected  # runs the compiled batch
    # warmed by another ket first: some expansions are found, others computed
    shared = make()
    assert bits(shared.apply(other)) == bits(expansion_path_apply(make(), other))
    assert bits(shared.apply(ket)) == expected


def test_a_batch_is_compiled_once_per_signature():
    transform = bs_5050(TRIPLE, "a", "b")
    ket = FockKet(TRIPLE, {(1, 0, 1, 0, 0, 0): 0.6, (2, 0, 0, 0, 1, 0): 0.8})
    transform.apply(ket)
    batches = dict(transform._batches)
    assert list(batches) == [((1, 0, 1, 0, 0, 0), (2, 0, 0, 0, 1, 0))]
    expansions = dict(transform._expansions)
    transform.apply(FockKet(TRIPLE, {(1, 0, 1, 0, 0, 0): 1.0}))
    transform.apply(ket)
    assert len(transform._batches) == 2
    assert all(transform._batches[signature] is batch for signature, batch in batches.items())
    # the second signature's terms reuse the expansions the first computed
    assert transform._expansions == expansions
    assert all(transform._expansions[key] is expansion for key, expansion in expansions.items())


def test_a_batch_reuses_its_output_tuples():
    transform = bs_5050(TRIPLE, "a", "b")
    ket = FockKet(TRIPLE, {(2, 0, 0, 0, 0, 0): 1.0})
    first = transform.apply(ket)
    outputs = transform._batches[((2, 0, 0, 0, 0, 0),)].outputs
    assert [occ for occ, _ in first.items()] == list(outputs)
    for result in (first, transform.apply(ket)):
        assert all(occ is powers for (occ, _), powers in zip(result.items(), outputs))


@settings(deadline=None, max_examples=100)
@given(case=transform_and_kets())
def test_a_batch_ranks_each_output_once_in_first_appearance_order(case):
    make, ket, _ = case
    transform = make()
    transform.apply(ket)
    signature = tuple(occ for occ, _ in ket.items())
    batch = transform._batches[signature]
    per_term = [list(_expanded(transform, occ, 1.0, {})) for occ in signature]
    assert batch.outputs == tuple(dict.fromkeys(powers for outputs in per_term for powers in outputs))
    # the tail reads each term's outputs once each, wherever its last step left them
    rows, dst = batch._tail
    assert len(rows) == len(set(rows.tolist())) == sum(map(len, per_term))
    assert dst[::2].tolist() == [2 * batch.outputs.index(powers) for outputs in per_term for powers in outputs]
    # a term's steps: one level per moved mode it occupies, then one round of scales if any output has one
    steps = [
        sum(1 for i in transform._moved if occ[i]) + any(p > 1 for powers in outputs for p in powers)
        for occ, outputs in zip(signature, per_term)
    ]
    assert len(batch._rounds) == max(steps)
    for src, index, slots, size in batch._rounds:
        assert len(src) == len(index)
        # a round that writes each slot once skips the sum
        assert (slots is None) == (len(index) == size)


def test_a_round_sums_only_where_a_slot_is_written_twice():
    transform = bs_5050(TRIPLE, "a", "b")
    transform.apply(FockKet(TRIPLE, {(2, 0, 0, 0, 0, 0): 1.0}))
    transform.apply(FockKet(TRIPLE, {(1, 0, 1, 0, 0, 0): 1.0}))
    # (a + b)^2 / 2 writes three slots once each, then scales a^2 and b^2
    (_, _, level, _), (_, _, scale, _) = transform._batches[((2, 0, 0, 0, 0, 0),)]._rounds
    assert level is None and scale is None
    # a (a + b) writes two slots once each; times (b - a) it writes a.b twice
    (_, _, first, _), (_, _, last, size), _ = transform._batches[((1, 0, 1, 0, 0, 0),)]._rounds
    assert first is None
    assert last is not None and size == 3


@pytest.mark.parametrize("amp", [1.0, complex(0.6, -0.0), complex(-0.0, -0.8), complex(-0.6, 0.8)])
def test_an_exact_cancellation_keeps_its_bits_cold_and_warm(amp):
    # (a + b)(b - a) / 2: the a.b coefficients cancel to an exact zero
    ket = FockKet(TRIPLE, {(1, 0, 1, 0, 0, 0): amp})
    expected = bits(expansion_path_apply(bs_5050(TRIPLE, "a", "b"), ket))
    assert (1, 0, 1, 0, 0, 0) not in [occ for occ, _, _ in expected]
    transform = bs_5050(TRIPLE, "a", "b")
    assert bits(transform.apply(ket)) == expected
    assert bits(transform.apply(ket)) == expected


@pytest.mark.parametrize(
    "terms",
    [
        {(5, 0, 5, 0, 6, 0): 1.0},
        {(5, 1, 4, 0, 0, 6): complex(0.6, -0.0), (1, 0, 1, 0, 0, 0): complex(-0.0, 0.8)},
        {(7, 0, 2, 0, 0, 9): -0.0 + 1j, (0, 0, 0, 0, 0, 0): 0.5},
    ],
)
def test_terms_past_the_cap_take_the_checked_path(terms):
    # more than MAX_OCCUPANCY photons in a term, none of them above the cap
    # in any one output mode: the checked constructor accepts the result
    ket = FockKet(TRIPLE, terms)
    transform = bs_5050(TRIPLE, "a", "b")
    expected = bits(expansion_path_apply(transform, ket))
    assert bits(transform.apply(ket)) == expected
    assert bits(transform.apply(ket)) == expected
    # only a batch with a term past the cap checks its outputs, and it marks
    # exactly the outputs that pass it
    batch = transform._batches[tuple(terms)]
    assert batch._invalid is not None
    assert batch._invalid.tolist() == [max(occ) > MAX_OCCUPANCY for occ in batch.outputs]


@pytest.mark.parametrize("occ", [(8, 0, 8, 0, 0, 0), (9, 0, 9, 0, 0, 0), (0, 8, 0, 8, 1, 0)])
def test_output_past_the_cap_raises_cold_and_warm(occ):
    ket = FockKet.basis(TRIPLE, occ)
    with pytest.raises(CapacityError):
        expansion_path_apply(bs_5050(TRIPLE, "a", "b"), ket)
    transform = bs_5050(TRIPLE, "a", "b")
    for _ in range(2):
        with pytest.raises(CapacityError):
            transform.apply(ket)


@pytest.mark.parametrize("postselect", [None, {"c": 0}])
def test_a_circuit_raises_at_the_element_whose_output_passes_the_cap(postselect):
    # the first splitter puts 16 photons into one mode; the second never runs
    ket = FockKet.basis(TRIPLE, (8, 0, 8, 0, 0, 0))
    first, second = bs_5050(TRIPLE, "a", "b"), bs_5050(TRIPLE, "a", "c")
    with pytest.raises(CapacityError):
        apply_circuit(ket, (first, second), postselect)
    assert first._batches and not second._batches
    with pytest.raises(CapacityError):
        apply_circuit(ket, (first,), postselect)


def test_a_warm_circuit_finds_later_batches_by_keep_mask(monkeypatch):
    ket = FockKet(TRIPLE, {(1, 0, 1, 0, 0, 0): 0.6, (2, 0, 0, 0, 1, 0): 0.8})
    elements = (bs_5050(TRIPLE, "a", "b"), bs_5050(TRIPLE, "a", "c"))
    expected = bits(apply_circuit(ket, elements))
    looked_up = []
    lookup = ModeTransform._batch

    def counting_lookup(self, occupations):
        looked_up.append(elements.index(self))
        return lookup(self, occupations)

    monkeypatch.setattr(ModeTransform, "_batch", counting_lookup)
    assert bits(apply_circuit(ket, elements)) == expected
    # only the first element looks its signature up; the second is the first batch's successor
    assert looked_up == [0]


def test_a_shared_batch_does_not_keep_later_elements_alive():
    shared = bs_5050(TRIPLE, "a", "b")
    ket = FockKet(TRIPLE, {(1, 0, 1, 0, 0, 0): 1.0})
    later = polarization_rotation(TRIPLE, "b", 0.3)
    apply_circuit(ket, (shared, later))
    gone = weakref.ref(later)
    del later
    gc.collect()
    assert gone() is None


PIPE = ModeRegister.polarized("a", "b", "c0", "c1", "c2", "c3", "d0", "d1", "d2", "d3")


def expansion_path_psi_theta(theta: float) -> tuple[FockKet, float]:
    """The preparation on freshly built elements, each applied by the expansion path."""
    ket = expand_bilinear_power(singlet_form(PIPE), 3, PIPE).normalized()
    for element in (
        polarization_rotation(PIPE, "b", theta),
        bs_unbalanced(PIPE, "a", "c1", "c0", 2.0 / 3.0),
        bs_unbalanced(PIPE, "b", "d1", "d0", 2.0 / 3.0),
        bs_unbalanced(PIPE, "c0", "c3", "c2", 0.5),
        bs_unbalanced(PIPE, "d0", "d3", "d2", 0.5),
    ):
        ket = expansion_path_apply(element, ket)
    projected, probability = ket.project({s: 1 for s in SCHEME_SPATIALS})
    return projected.restricted(SCHEME_SPATIALS), probability


def test_psi_theta_builds_its_splitters_once(monkeypatch):
    schemes._preparation.cache_clear()
    built = []
    init = ModeTransform.__init__

    def counting_init(self, register, matrix):
        built.append(register)
        init(self, register, matrix)

    monkeypatch.setattr(ModeTransform, "__init__", counting_init)
    per_call = []
    for theta in (0.3, 0.3, 1.1, math.pi / 2):
        before = len(built)
        build_psi_theta(theta)
        per_call.append(len(built) - before)
    # four splitters and the rotation, then only the rotation
    assert per_call == [5, 1, 1, 1]
    assert built == [PIPE] * 8


def test_ghz_readouts_build_their_taps_once(monkeypatch):
    state = build_psi_theta(math.pi / 2).state
    schemes._taps.cache_clear()
    built = []
    init = ModeTransform.__init__

    def counting_init(self, register, matrix):
        built.append(len(register))
        init(self, register, matrix)

    monkeypatch.setattr(ModeTransform, "__init__", counting_init)
    GhzReadout(state, 20.0, 0.2)
    taps = list(built)
    GhzReadout(state, 40.0, 0.1)
    # six taps on the path-extended register, then none
    assert taps.count(len(state.register) + 6) == 6
    assert built[len(taps):].count(len(state.register) + 6) == 0


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.1, math.pi / 2])
def test_psi_theta_on_shared_splitters_matches_the_expansion_path(theta):
    build_psi_theta(0.7)  # the shared splitters hold batches before the check
    result = build_psi_theta(theta)
    state, probability = expansion_path_psi_theta(theta)
    assert bits(result.state) == bits(state)
    assert struct.pack("<d", result.postselect_probability) == struct.pack("<d", probability)


# angles whose sine or cosine is a rounding residue below the prune threshold
PRUNING_ANGLES = (math.pi / 2, -math.pi / 2, math.pi, 3 * math.pi / 2)
SPATIALS = ("a", "b", "c")


@st.composite
def circuits(draw):
    """Factories of fresh elements on TRIPLE, one to four of them."""
    makers = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("merge", "splitter", "rotation")))
        spatials = draw(st.permutations(SPATIALS))
        if kind == "merge":
            makers.append(partial(bs_5050, TRIPLE, *spatials[:2]))
        elif kind == "splitter":
            transmission = draw(st.floats(0.01, 0.99))
            makers.append(partial(bs_unbalanced, TRIPLE, *spatials, transmission))
        else:
            theta = draw(st.one_of(st.sampled_from(PRUNING_ANGLES), st.floats(-math.pi, math.pi)))
            makers.append(partial(polarization_rotation, TRIPLE, spatials[0], theta))
    return makers


# counts by mode label or by spatial name; 18 is more photons than any term holds
patterns = st.dictionaries(
    st.sampled_from(TRIPLE.labels + TRIPLE.spatials),
    st.one_of(st.integers(0, 3), st.just(18)),
    max_size=3,
)


@st.composite
def heavy_kets(draw):
    """Kets as ``kets`` draws them, some with a term past MAX_OCCUPANCY photons."""
    ket = draw(kets(TRIPLE, max_photons=4))
    if draw(st.integers(0, 3)):
        return ket
    photons = draw(st.integers(MAX_OCCUPANCY + 1, MAX_OCCUPANCY + 2))
    i, j = draw(st.permutations(range(len(TRIPLE))))[:2]
    occ = [0] * len(TRIPLE)
    occ[i] = draw(st.integers(photons - MAX_OCCUPANCY, MAX_OCCUPANCY))
    occ[j] = photons - occ[i]
    return ket + FockKet(TRIPLE, {tuple(occ): 0.25})


def outcome(run) -> tuple:
    """The result's terms in order with their bits, or the CapacityError raised."""
    try:
        result = run()
    except CapacityError as exc:
        return "CapacityError", str(exc)
    if isinstance(result, FockKet):
        return "ket", bits(result)
    projected, probability = result
    kept = None if projected is None else bits(projected)
    return "projected", kept, struct.pack("<d", probability)


@settings(deadline=None, max_examples=120)
@given(makers=circuits(), ket=heavy_kets(), pattern=patterns, other=patterns)
def test_postselected_circuit_matches_the_chained_expansion_path(makers, ket, pattern, other):
    def chained() -> FockKet:
        out = ket
        for make in makers:
            out = expansion_path_apply(make(), out)
        return out

    elements = [make() for make in makers]
    assert outcome(lambda: apply_circuit(ket, elements)) == outcome(chained)
    for select in (pattern, pattern, other):  # cold, warm, then a second pattern
        expected = outcome(lambda: chained().project(select))
        assert outcome(lambda: apply_circuit(ket, elements, postselect=select)) == expected


class YieldingExpansions(dict):
    """An expansion table that lets other threads run before it stores an expansion, and counts stores.

    CPython 3.11 does not switch threads inside the few bytecodes that
    store an expansion, so without this a missing lock would go unseen.
    """

    def __init__(self):
        super().__init__()
        self.stores = Counter()

    def __setitem__(self, key, value):
        time.sleep(0)
        self.stores[key] += 1
        super().__setitem__(key, value)


class YieldingBatches(dict):
    """A batch table that lets other threads run for a while before it stores a batch, and counts stores."""

    def __init__(self):
        super().__init__()
        self.stores = Counter()

    def __setitem__(self, key, value):
        time.sleep(0.01)
        self.stores[key] += 1
        super().__setitem__(key, value)


def race(parts) -> None:
    """Two threads, each building ``psi_theta`` at its angles on the same cold splitters, give serial bits.

    Each splitter compiles each expansion and each batch once, however the
    threads interleave.
    """

    def snapshot(theta: float) -> tuple:
        result = build_psi_theta(theta)
        return bits(result.state), struct.pack("<d", result.postselect_probability)

    schemes._preparation.cache_clear()
    serial = {theta: snapshot(theta) for part in parts for theta in part}
    schemes._preparation.cache_clear()
    _, splitters = schemes._preparation()  # both threads share these, cold
    assert not any(splitter._batches for splitter in splitters)
    for splitter in splitters:
        splitter._expansions = YieldingExpansions()
        splitter._batches = YieldingBatches()
    threaded = {}
    start = threading.Barrier(2)

    def sweep(part):
        start.wait()
        for theta in part:
            threaded[theta] = snapshot(theta)

    workers = [threading.Thread(target=sweep, args=(part,)) for part in parts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        schemes._preparation.cache_clear()  # later tests get splitters with plain tables
    assert not any(worker.is_alive() for worker in workers)
    assert threaded == serial
    for splitter in splitters:
        for table in (splitter._expansions, splitter._batches):
            assert table.stores and set(table.stores.values()) == {1}


def test_shared_preparation_gives_serial_bits_under_threads():
    # the first angles differ in which terms the rotation keeps, so the two
    # threads start by compiling different occupations into the same splitters
    race(((0.0, 0.3, 1.1, 2.0), (math.pi / 2, 0.7, 2.5, 3.0)))


def test_threads_compiling_the_same_signature_cold_give_serial_bits():
    # both threads start at the same angle, so they reach every splitter with
    # the same input signature, cold, at once
    race(((0.3, 1.1, 0.0), (0.3, 0.0, 1.1)))
