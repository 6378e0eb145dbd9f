"""Exact sparse state algebra over multimode photon-number bases.

States are stored as associative maps from occupation vectors to complex
amplitudes over an ordered mode register.  All values are immutable after
construction; every operation returns a new state, so kets can be shared
freely across threads.

Occupations are validated once, where they enter from outside: the public
``FockKet(register, terms)``, :meth:`FockKet.basis` and
:func:`expand_bilinear_power` check every term's length and range and
convert every amplitude to a Python ``complex``.  A ket built from the
terms of valid kets (every operation here, the elements and the readouts)
goes through :meth:`FockKet._from_valid`, which trusts both and only
prunes.  Either way every stored amplitude is a Python ``complex``, and a
ket's norm squared is summed once, on first use, and kept.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import compress
from typing import Iterable, Iterator, Mapping

MAX_OCCUPANCY = 15
PRUNE_THRESHOLD = 1e-14
NORM_TOLERANCE = 1e-12


@cache
def _sqrt_factorials(m: int) -> tuple[float, ...]:
    """sqrt(k!) for k = 0..m; ``_SQRT_FACT`` is the table up to a term's cap plus one."""
    return tuple(math.sqrt(math.factorial(k)) for k in range(m + 1))


_SQRT_FACT = _sqrt_factorials(MAX_OCCUPANCY + 1)

_POLARIZATIONS = ("H", "V")


class CapacityError(ValueError):
    """A requested size exceeds a hard limit of the simulator."""


class ModeRegister:
    """Ordered list of optical modes, each a (spatial name, polarization) pair.

    Mode order is significant and fixed for the life of any state that
    references the register.  Labels (``spatial + polarization``, e.g.
    ``"aH"``) must be unique.
    """

    __slots__ = ("_modes", "_index")

    def __init__(self, modes: Iterable[tuple[str, str]]):
        modes = tuple((str(s), str(p)) for s, p in modes)
        for spatial, pol in modes:
            if pol not in _POLARIZATIONS:
                raise ValueError(f"polarization must be H or V, got {pol!r}")
            if not spatial:
                raise ValueError("spatial name must be non-empty")
        labels = [s + p for s, p in modes]
        if len(set(labels)) != len(labels):
            raise ValueError("mode labels must be unique within a register")
        self._modes = modes
        self._index = {lab: i for i, lab in enumerate(labels)}

    @classmethod
    def polarized(cls, *spatials: str) -> "ModeRegister":
        """Register with an H and a V mode for each spatial name, in order."""
        return cls((s, p) for s in spatials for p in _POLARIZATIONS)

    @property
    def modes(self) -> tuple[tuple[str, str], ...]:
        return self._modes

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s + p for s, p in self._modes)

    @property
    def spatials(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for s, _ in self._modes:
            seen.setdefault(s)
        return tuple(seen)

    def index(self, spatial: str, pol: str | None = None) -> int:
        """Position of a mode, addressed as ``index("aH")`` or ``index("a", "H")``."""
        label = spatial if pol is None else spatial + pol
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"no mode {label!r} in register {self.labels}") from None

    def has_mode(self, spatial: str, pol: str) -> bool:
        return spatial + pol in self._index

    def spatial_indices(self, spatial: str) -> tuple[int, ...]:
        found = tuple(i for i, (s, _) in enumerate(self._modes) if s == spatial)
        if not found:
            raise ValueError(f"no spatial mode {spatial!r} in register")
        return found

    def __len__(self) -> int:
        return len(self._modes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModeRegister) and self._modes == other._modes

    def __hash__(self) -> int:
        return hash(self._modes)

    def __repr__(self) -> str:
        return f"ModeRegister({' '.join(self.labels)})"


def _check_occupation(register: ModeRegister, occ: tuple[int, ...]) -> tuple[int, ...]:
    occ = tuple(int(n) for n in occ)
    if len(occ) != len(register):
        raise ValueError(
            f"occupation length {len(occ)} does not match register size {len(register)}"
        )
    for n in occ:
        if n < 0:
            raise ValueError("occupation numbers must be non-negative")
        if n > MAX_OCCUPANCY:
            raise CapacityError(f"occupation {n} exceeds per-mode cap {MAX_OCCUPANCY}")
    return occ


def _pruned(terms: Mapping | Iterable[tuple]) -> dict:
    """The terms without those below :data:`PRUNE_THRESHOLD`; a NaN amplitude is kept.

    ``terms`` is a dict or an iterable of ``(key, amplitude)`` pairs.
    """
    pairs = terms.items() if isinstance(terms, dict) else terms
    return {key: amp for key, amp in pairs if not abs(amp) < PRUNE_THRESHOLD}


def _significant(terms: Mapping) -> dict:
    """The terms as Python ``complex``, pruned as by :func:`_pruned`.

    The conversion matters: amplitudes given as numpy scalars would
    otherwise carry numpy arithmetic into the next operation.
    """
    return _pruned({key: complex(amp) for key, amp in terms.items()})


def _norm_squared(terms: Mapping) -> float:
    """Builtin ``sum`` of each amplitude's ``abs`` squared, in term order."""
    return sum(abs(a) ** 2 for a in terms.values())


def _inner(terms: Mapping, other: Mapping) -> complex:
    """``<terms|other>``: builtin ``sum`` over the shorter side's shared occupations, in its order."""
    if len(terms) <= len(other):
        return sum(
            amp.conjugate() * other_amp for occ, amp in terms.items() if (other_amp := other.get(occ)) is not None
        )
    return sum(terms[occ].conjugate() * other_amp for occ, other_amp in other.items() if occ in terms)


def _fidelity(terms: Mapping, other: "FockKet") -> float:
    """:meth:`FockKet.fidelity` of a ket with ``terms`` (on ``other``'s register, unchecked), without that ket."""
    denom = _norm_squared(terms) * other.norm_squared
    if denom == 0.0:
        return 0.0
    return abs(_inner(terms, other._terms)) ** 2 / denom


class _Selection:
    """An occupancy pattern (see :meth:`FockKet.project`) compiled for one register.

    ``key`` holds one ``(mode indices, wanted total)`` group per pattern
    entry: a mode label names its one index, a spatial name every
    polarization it has.  :meth:`keeps` keeps a term when each group holds
    its total.  :meth:`FockKet.project` and the post-selecting
    :func:`focksim.elements.apply_circuit` both test terms with
    :meth:`keeps` and finish with :meth:`projected`, so the two give the
    same bits, and a caller can remember by ``key`` which terms it keeps.
    """

    __slots__ = ("key", "_register")

    def __init__(self, register: ModeRegister, pattern: Mapping[str, int]):
        self.key = tuple(
            ((register.index(key),) if key in register._index else register.spatial_indices(key), int(count))
            for key, count in pattern.items()
        )
        self._register = register

    def keeps(self, occ: tuple[int, ...]) -> bool:
        return all(sum(occ[i] for i in indices) == count for indices, count in self.key)

    def projected(
        self, total: float, kept: dict[tuple[int, ...], complex]
    ) -> tuple["FockKet | None", float]:
        """The kept terms renormalized, and their weight over ``total``.

        ``total`` is the norm squared of the ket the terms were kept from,
        summed as :attr:`FockKet.norm_squared` sums it: builtin ``sum`` over
        the terms in order (CPython 3.12 compensates that sum, so a plain
        running total would not match it).  A zero total or weight gives
        ``(None, 0.0)``.
        """
        if total == 0.0:
            return None, 0.0
        weight = _norm_squared(kept)
        if weight == 0.0:
            return None, 0.0
        scale = 1.0 / math.sqrt(weight)
        projected = FockKet._from_valid(self._register, {o: a * scale for o, a in kept.items()})
        return projected, weight / total


class FockKet:
    """Sparse superposition of occupation-number basis states.

    Amplitudes with magnitude below :data:`PRUNE_THRESHOLD` are dropped at
    construction, so every stored term is significant at double precision.
    """

    __slots__ = ("_register", "_terms", "_norm_squared")

    def __init__(self, register: ModeRegister, terms: Mapping[tuple[int, ...], complex]):
        self._register = register
        self._terms = {
            _check_occupation(register, occ): amp for occ, amp in _significant(terms).items()
        }
        self._norm_squared: float | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_valid(
        cls,
        register: ModeRegister,
        terms: Mapping[tuple[int, ...], complex] | Iterable[tuple[tuple[int, ...], complex]],
    ) -> "FockKet":
        """Ket from terms whose occupations are valid by construction.

        The terms are a dict or ``(occupation, amplitude)`` pairs with
        distinct occupations.  Every occupation must be a tuple of ints of
        the register's length, each in ``0..MAX_OCCUPANCY``, as the keys of
        any ket on that register are, and every amplitude a Python
        ``complex``, as the products and sums of any ket's amplitudes are;
        nothing is checked or converted.  Amplitudes are pruned as in the
        public constructor.
        """
        ket = cls.__new__(cls)
        ket._register = register
        ket._terms = _pruned(terms)
        ket._norm_squared = None
        return ket

    @classmethod
    def vacuum(cls, register: ModeRegister) -> "FockKet":
        return cls(register, {(0,) * len(register): 1.0})

    @classmethod
    def basis(cls, register: ModeRegister, occupation: Iterable[int]) -> "FockKet":
        return cls(register, {tuple(occupation): 1.0})

    # -- inspection ---------------------------------------------------

    @property
    def register(self) -> ModeRegister:
        return self._register

    def items(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return iter(self._terms.items())

    def amplitude(self, occupation: Iterable[int]) -> complex:
        return self._terms.get(tuple(int(n) for n in occupation), 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def norm_squared(self) -> float:
        # the ket is immutable, so the sum is taken once (threads racing to
        # fill the slot write the same value)
        if self._norm_squared is None:
            self._norm_squared = _norm_squared(self._terms)
        return self._norm_squared

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_squared)

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm_squared - 1.0) < NORM_TOLERANCE

    def photon_numbers(self) -> set[int]:
        """Distinct total photon numbers present in the superposition."""
        return {sum(occ) for occ in self._terms}

    def photon_expectation(self) -> float:
        """Mean total photon number (state need not be normalized)."""
        n2 = self.norm_squared
        if n2 == 0.0:
            return 0.0
        return sum(sum(occ) * abs(a) ** 2 for occ, a in self._terms.items()) / n2

    def __repr__(self) -> str:
        return f"FockKet({len(self._terms)} terms on {self._register!r})"

    # -- algebra ------------------------------------------------------

    def _require_same_register(self, other: "FockKet") -> None:
        if self._register != other._register:
            raise ValueError("kets are defined on different registers")

    def __add__(self, other: "FockKet") -> "FockKet":
        self._require_same_register(other)
        out = dict(self._terms)
        for occ, amp in other._terms.items():
            out[occ] = out.get(occ, 0.0) + amp
        return FockKet._from_valid(self._register, out)

    def __sub__(self, other: "FockKet") -> "FockKet":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FockKet":
        scalar = complex(scalar)
        return FockKet._from_valid(self._register, {o: a * scalar for o, a in self._terms.items()})

    __rmul__ = __mul__

    def normalized(self) -> "FockKet":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero ket")
        return self * (1.0 / n)

    def inner(self, other: "FockKet") -> complex:
        """Inner product, conjugate-linear in ``self``."""
        self._require_same_register(other)
        return _inner(self._terms, other._terms)

    def fidelity(self, other: "FockKet") -> float:
        """Squared overlap of the two states after normalization."""
        self._require_same_register(other)
        return _fidelity(self._terms, other)

    # -- measurement --------------------------------------------------

    def project(
        self, pattern: Mapping[str, int]
    ) -> tuple["FockKet | None", float]:
        """Project onto an occupancy pattern and renormalize.

        Pattern keys are either full mode labels (``"aH"``: exact count in
        that mode) or spatial names (``"c1"``: exact total across the
        spatial mode's polarizations).  Returns the conditional ket and the
        Born probability of the pattern; a zero-probability pattern yields
        ``(None, 0.0)`` rather than an error.
        """
        selection = _Selection(self._register, pattern)
        kept = {occ: amp for occ, amp in self._terms.items() if selection.keeps(occ)}
        return selection.projected(self.norm_squared, kept)

    # -- register reshaping -------------------------------------------

    def restricted(self, spatials: Iterable[str]) -> "FockKet":
        """Drop all modes outside the given spatial names.

        Every term must have zero occupation in the dropped modes.
        """
        keep = set(spatials)
        kept_modes = [spatial in keep for spatial, _ in self._register.modes]
        out: dict[tuple[int, ...], complex] = {}
        for occ, amp in self._terms.items():
            kept = tuple(compress(occ, kept_modes))
            # occupations are non-negative, so a dropped mode is occupied if and only if photons go missing
            if sum(kept) != sum(occ):
                raise ValueError("cannot drop occupied modes from a ket")
            out[kept] = amp
        register = ModeRegister(compress(self._register.modes, kept_modes))
        return FockKet._from_valid(register, out)

    def extended(self, extra: Iterable[tuple[str, str]]) -> "FockKet":
        """Append vacuum modes to the register."""
        extra = tuple(extra)
        register = ModeRegister(self._register.modes + extra)
        pad = (0,) * len(extra)
        return FockKet._from_valid(register, {occ + pad: amp for occ, amp in self._terms.items()})


class BilinearForm:
    """Quadratic form in creation operators: sum of c_ij a_i^dag a_j^dag."""

    __slots__ = ("_coefficients",)

    def __init__(self, coefficients: Mapping[tuple[int, int], complex]):
        self._coefficients = {
            (int(i), int(j)): complex(c) for (i, j), c in coefficients.items()
        }

    @property
    def coefficients(self) -> dict[tuple[int, int], complex]:
        return dict(self._coefficients)

    def validate_for(self, register: ModeRegister) -> None:
        n = len(register)
        for i, j in self._coefficients:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"mode pair ({i}, {j}) out of range for register size {n}")


MAX_BILINEAR_POWER = 8


def expand_bilinear_power(form: BilinearForm, n: int, register: ModeRegister) -> FockKet:
    """Expand (bilinear form)^n applied to the vacuum, unnormalized.

    Repeated polynomial multiplication in the creation-operator monomial
    basis, then conversion of each monomial a^dag^p |0> to sqrt(p!) |p>.
    """
    n = int(n)
    if n < 0:
        raise ValueError("power must be non-negative")
    if n > MAX_BILINEAR_POWER:
        raise CapacityError(f"power n={n} exceeds max photon-pair order {MAX_BILINEAR_POWER}")
    form.validate_for(register)
    size = len(register)
    monomials: dict[tuple[int, ...], complex] = {(0,) * size: 1.0}
    for _ in range(n):
        grown: dict[tuple[int, ...], complex] = {}
        for powers, coeff in monomials.items():
            for (i, j), c in form._coefficients.items():
                lifted = list(powers)
                lifted[i] += 1
                lifted[j] += 1
                key = tuple(lifted)
                grown[key] = grown.get(key, 0.0) + coeff * c
        monomials = grown
    terms = {
        powers: coeff * math.prod(_SQRT_FACT[p] for p in powers)
        for powers, coeff in monomials.items()
    }
    return FockKet(register, terms)


def format_float(x: float) -> str:
    """Canonical 17-significant-digit rendering used in all output files."""
    return format(float(x), ".17g")
