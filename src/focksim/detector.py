"""Nondestructive symmetry detection for twin-beam six-photon states.

The detector is a balanced beam splitter across the two spatial arms, a
cross-Kerr wiring that advances the probe by a full Kerr phase per photon
in arm ``a`` and half per photon in arm ``b``, a fixed probe phase gate,
and an X-homodyne readout.  Components with equal photon number per arm
end at probe phase 0 ("symmetric"); the rest end at plus/minus one full
Kerr phase ("asymmetric") and are repaired with a measurement-dependent
phase shift on arm ``b``.

The splitter is built once per register and shared by every detection,
so its multinomial expansions are computed once per process: a cascade,
a sweep and a sampled run all reuse the same table.

The readouts that run many times build no intermediate ket:
:func:`decide_and_repair` phases and prunes an outcome's conditioned terms
in one loop, and a forced detection (a cascade step is one) tags, prunes,
weighs and keeps the splitter's output terms in another.  Each does the float operations of the
kets it replaces, in their order and through the same builtin ``sum``
calls, so no output bit changes.

Cascading the detector drives the two-parameter coefficient family through
the integer iteration matrix [[1, 3], [3, 1]], whose closed-form powers are
also provided here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from operator import mul
from typing import Mapping

import numpy as np

from .elements import ModeTransform, bs_5050
from .fock import PRUNE_THRESHOLD, CapacityError, FockKet, ModeRegister, _pruned
from .kerr import (
    _check_probe,
    _draw_homodyne,
    _turned,
    apply_cross_kerr,
    apply_probe_phase,
    attach_probe,
    midpoint_threshold,
    repair_phase,
)

PAIR_NORM_TOLERANCE = 1e-12

# register layout shared by the whole twin-beam family
TWIN_SPATIALS = ("a", "b")
twin_beam_register = ModeRegister.polarized(*TWIN_SPATIALS)
_ARM_B = twin_beam_register.spatial_indices("b")  # the modes whose photons the repair phase turns

# probe-phase weights in half-theta units: theta per photon in arm a,
# theta/2 per photon in arm b, followed by a fixed gate of -9 half-units
KERR_WEIGHTS = (2, 2, 1, 1)
PROBE_GATE = -9

MAX_CASCADE_STEPS = 30


@dataclass(frozen=True)
class CoefficientPair:
    """Parameters (m, n) of the twin-beam six-photon coefficient family."""

    m: float
    n: float

    @property
    def is_normalized(self) -> bool:
        return abs(self.m**2 + self.n**2 - 0.5) < PAIR_NORM_TOLERANCE

    def normalized(self) -> "CoefficientPair":
        scale = math.sqrt(0.5 / (self.m**2 + self.n**2))
        return CoefficientPair(self.m * scale, self.n * scale)


@dataclass(frozen=True)
class DetectorOutcome:
    branch: str  # "symmetric" | "asymmetric"
    state: FockKet
    probability: float
    measured_x: float | None = None


def twin_beam_state(pair: CoefficientPair) -> FockKet:
    """Six-photon ket m(|3,0;0,3> - |0,3;3,0>) + n(|1,2;2,1> - |2,1;1,2>)."""
    if not pair.is_normalized:
        raise ValueError("coefficient pair must satisfy m^2 + n^2 = 1/2")
    return FockKet(
        twin_beam_register,
        {
            (3, 0, 0, 3): pair.m,
            (0, 3, 3, 0): -pair.m,
            (1, 2, 2, 1): pair.n,
            (2, 1, 1, 2): -pair.n,
        },
    )


def apply_phase_correction(state: FockKet, phi: float, spatial: str) -> FockKet:
    """Multiply each term by exp(i phi/2) per photon in one spatial arm."""
    indices = state.register.spatial_indices(spatial)
    return FockKet._from_valid(state.register, _turned(state.items(), 0.5 * phi, indices))


def decide_and_repair(conditional: Mapping, x: float, alpha: float, theta: float) -> tuple[str, Mapping]:
    """Branch read from outcome ``x``, and the conditional terms repaired for it.

    ``conditional`` maps occupations on the twin-beam register to amplitudes
    and is empty when conditioning left no term.  Only ``x`` above the
    midpoint threshold reads "symmetric", and the terms come back as they
    are.  An asymmetric outcome's phase, taken modulo 2 pi, is undone on arm
    ``b``: the terms come back as a dict, pruned as
    :func:`apply_phase_correction` prunes its ket.
    """
    if x > midpoint_threshold(alpha, theta):
        return "symmetric", conditional
    phi = repair_phase(alpha, theta, x) % (2.0 * math.pi)
    return "asymmetric", _pruned(_turned(conditional.items(), 0.5 * phi, _ARM_B))


@cache
def _splitter(register: ModeRegister) -> ModeTransform:
    """The detector's balanced splitter across arms ``a`` and ``b``, built once per register."""
    return bs_5050(register, "a", "b")


def detector_probe_state(state: FockKet, alpha: float, theta: float):
    """Probe-tagged state after the splitter, Kerr wiring, and phase gate."""
    mixed = _splitter(state.register).apply(state)
    tagged = attach_probe(mixed, alpha, theta)
    tagged = apply_cross_kerr(tagged, KERR_WEIGHTS)
    return apply_probe_phase(tagged, PROBE_GATE)


def _forced(state: FockKet, branch: str) -> tuple[FockKet, float]:
    """State and probability of ``detect(state, alpha, theta, force=branch)``, for any valid probe.

    One loop over the shared splitter's output does the work of the three
    tagged states of :func:`detector_probe_state` and of the kept branch.  Each
    term gets its probe-phase index (exact in integers) and is pruned; the
    ``0.0 +`` of :func:`apply_cross_kerr` would change no bit, since the
    splitter's batch sums each output part from ``0.0`` with ``np.bincount``
    (``test_bincount_adds_each_bin_in_input_order_from_zero``), so no part it
    returns is ``-0.0``.  The index-0 terms add ``|amplitude|**2`` to a
    running sum, as ``group_weights`` does.  The branch's terms (index 0 for
    "symmetric", the rest for "asymmetric") are kept and normalized as
    ``branch(0)`` is.
    """
    symmetric = branch == "symmetric"
    p_symmetric = 0.0
    kept = {}
    for occ, amp in _splitter(state.register).apply(state.normalized()).items():
        at_zero = sum(map(mul, KERR_WEIGHTS, occ)) + PROBE_GATE == 0
        if at_zero and not abs(amp) < PRUNE_THRESHOLD:
            p_symmetric += abs(amp) ** 2
        if at_zero == symmetric and not abs(amp) < PRUNE_THRESHOLD:
            kept[occ] = amp
    if not kept:
        raise ValueError(f"state has no {branch} component")
    # the asymmetric branch is read at its peak centre: the repair phase
    # vanishes, and opposite-phase branches merge with unit relative phase
    return FockKet._from_valid(state.register, kept).normalized(), p_symmetric if symmetric else 1.0 - p_symmetric


def detect(
    state: FockKet,
    alpha: float,
    theta: float,
    *,
    force: str | None = None,
    rng=None,
) -> DetectorOutcome:
    """Run the symmetry detector on a twin-beam six-photon ket.

    ``force`` selects the ideal-threshold branch ("symmetric" or
    "asymmetric") algebraically, with the asymmetric repair phase taken at
    its peak centre.  Without ``force``, a homodyne outcome is drawn from
    ``rng`` and the branch is decided by the midpoint threshold, so
    misassignment occurs with the discrimination-error probability.
    """
    if state.register != twin_beam_register:
        raise ValueError("detector expects a ket on the twin-beam register")
    if state.photon_numbers() != {6}:
        raise ValueError("detector accepts exactly six-photon states")
    if force not in (None, "symmetric", "asymmetric"):
        raise ValueError(f"unknown forced outcome {force!r}")

    if force is not None:
        _check_probe(alpha, theta)
        return DetectorOutcome(force, *_forced(state, force))
    tagged = detector_probe_state(state.normalized(), alpha, theta)
    p_symmetric = tagged.group_weights().get(0, 0.0)
    if rng is None:
        raise ValueError("sampled detection needs an rng or seed")
    x, _, terms = _draw_homodyne(tagged, rng)
    branch, repaired = decide_and_repair(terms, x, alpha, theta)
    probability = p_symmetric if branch == "symmetric" else 1.0 - p_symmetric
    return DetectorOutcome(branch, FockKet._from_valid(tagged.register, repaired), probability, x)


# -- cascade analysis ---------------------------------------------------


def _cascade_depth(k: int) -> int:
    """``k`` as an int, checked to be a cascade depth: 0 to :data:`MAX_CASCADE_STEPS`."""
    k = int(k)
    if k < 0:
        raise ValueError(f"k={k} must be non-negative")
    if k > MAX_CASCADE_STEPS:
        raise CapacityError(f"k={k} exceeds max cascade depth {MAX_CASCADE_STEPS}")
    return k


def a_matrix_power(k: int) -> np.ndarray:
    """k-th power of the iteration matrix [[1, 3], [3, 1]], exactly.

    Diagonal entries are (4^k + (-2)^k)/2 and off-diagonal entries
    (4^k - (-2)^k)/2, evaluated in integer arithmetic before conversion.
    """
    k = _cascade_depth(k)
    diag = (4**k + (-2) ** k) // 2
    off = (4**k - (-2) ** k) // 2
    return np.array([[diag, off], [off, diag]], dtype=float)


@dataclass(frozen=True)
class CascadeStep:
    m_k: float
    n_k: float
    ratio: float
    c_k: float

    @property
    def normalized_pair(self) -> CoefficientPair:
        scale = 1.0 / math.sqrt(self.c_k)
        return CoefficientPair(self.m_k * scale, self.n_k * scale)

    @property
    def fidelity_with_target(self) -> float:
        """Squared overlap with the equal-coefficient six-photon state."""
        return (self.m_k + self.n_k) ** 2 / self.c_k


def cascade_closed_form(pair0: CoefficientPair, k: int) -> CascadeStep:
    """Closed-form coefficients after ``k`` successful symmetric detections.

    Returns the unnormalized pair, their ratio (signed infinity when the
    second coefficient vanishes) and the normalization constant
    ``C_k = 2^(2k-1) (4^k + 1) + 2^(2k+1) (4^k - 1) m0 n0``.
    """
    matrix = a_matrix_power(k)  # validates k range
    m0, n0 = pair0.m, pair0.n
    m_k = matrix[0, 0] * m0 + matrix[0, 1] * n0
    n_k = matrix[1, 0] * m0 + matrix[1, 1] * n0
    if n_k == 0.0:
        ratio = math.copysign(math.inf, m_k) if m_k else math.nan
    else:
        ratio = m_k / n_k
    c_k = 2.0 ** (2 * k - 1) * (4.0**k + 1.0) + 2.0 ** (2 * k + 1) * (4.0**k - 1.0) * m0 * n0
    return CascadeStep(m_k, n_k, ratio, c_k)


@dataclass(frozen=True)
class CascadeRun:
    state: FockKet
    step_probabilities: tuple[float, ...]
    cumulative_probability: float


def cascade_simulate(pair0: CoefficientPair, k: int) -> CascadeRun:
    """Push a twin-beam state through ``k`` detectors, keeping symmetric outcomes.

    Each step is ``detect(state, alpha, theta, force="symmetric")``, whose
    state and probability are the same for every valid probe, so the
    simulation takes none.  The state is a six-photon twin-beam ket by
    construction, so the steps check nothing.
    """
    k = _cascade_depth(k)
    state = twin_beam_state(pair0.normalized())
    probabilities: list[float] = []
    cumulative = 1.0
    for _ in range(k):
        state, probability = _forced(state, "symmetric")
        probabilities.append(probability)
        cumulative *= probability
    return CascadeRun(state, tuple(probabilities), cumulative)


def symmetric_success_probability(pair: CoefficientPair) -> float:
    """Probability of the symmetric branch for a normalized pair: (5 + 12 m n)/8."""
    return (5.0 + 12.0 * pair.m * pair.n) / 8.0
