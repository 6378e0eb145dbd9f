"""Parametric down-conversion emission models.

Covers the two-mode squeezed expansion over pair order, the singlet-like
2n-photon states it emits, and the three-component six-photon mixture
parameterized by the ratio of pump duration to photon coherence time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .fock import CapacityError, FockKet, ModeRegister, expand_bilinear_power

MAX_PAIR_ORDER = 5


def singlet_form(register: ModeRegister) -> dict[tuple[int, int], float]:
    """The antisymmetric pair-creation form aH^dag bV^dag - aV^dag bH^dag, as mode-index pairs."""
    return {
        (register.index("a", "H"), register.index("b", "V")): 1.0,
        (register.index("a", "V"), register.index("b", "H")): -1.0,
    }


def psi_n(n: int) -> FockKet:
    """Normalized 2n-photon state from the n-th power of the singlet form."""
    n = int(n)
    if not 0 <= n <= MAX_PAIR_ORDER:
        raise CapacityError(f"pair order n={n} outside supported range 0..{MAX_PAIR_ORDER}")
    register = ModeRegister.polarized("a", "b")
    return expand_bilinear_power(singlet_form(register), n, register).normalized()


@dataclass(frozen=True)
class SqueezedExpansion:
    """Amplitudes of the two-mode squeezed state over pair order n.

    ``weights[n] = sqrt(n+1) tanh(tau)^n / cosh(tau)^2``; the squared
    weights sum to 1 in the infinite-order limit.  The weights run up to
    the truncation order or stop short of it, before the first order at
    which ``tanh(tau)**n`` underflows to 0.0 (n = 1 at tau = 0).
    """

    tau: float
    weights: tuple[float, ...]

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(w * w for w in self.weights)

    @property
    def truncated_norm(self) -> float:
        return sum(self.probabilities)

    @property
    def mean_photons_per_arm(self) -> float:
        """Mean photon count in either spatial arm, 2 sinh(tau)^2.

        Each order-n term carries n photons per arm, so this equals the
        mean emission order; the mean total photon count is twice this.
        """
        return 2.0 * math.sinh(self.tau) ** 2


def squeezed_weights(tau: float, n_max: int) -> SqueezedExpansion:
    """The two-mode squeezed amplitudes at interaction ``tau``, truncated at order ``n_max``.

    Orders past the first one whose ``tanh(tau)**n`` is 0.0 are left out:
    the power only falls with n, so every later weight would be 0.0 too.
    Raises ``ValueError`` for a negative, infinite or NaN ``tau`` or a
    negative ``n_max``, and ``OverflowError`` once ``cosh(tau)**2`` overflows.
    """
    if not 0 <= tau < math.inf:  # NaN fails too
        raise ValueError(f"interaction parameter tau must be finite and non-negative, got {tau}")
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    try:
        sech2 = 1.0 / math.cosh(tau) ** 2
    except OverflowError:
        raise OverflowError(f"tau={tau} is too large: cosh(tau)**2 overflows a double") from None
    t = math.tanh(tau)
    orders = takewhile(lambda n: t**n != 0.0, range(n_max + 1))
    weights = tuple(math.sqrt(n + 1.0) * t**n * sech2 for n in orders)
    return SqueezedExpansion(tau=float(tau), weights=weights)


@dataclass(frozen=True)
class SixPhotonMixtureWeights:
    """Amplitudes of the three six-photon components at pulse ratio ``k``.

    Ordered as (single third-order process, second-order times first-order,
    three independent first-order processes).  For 1 < k < 2 the last
    closed-form radicand is negative, so amplitudes are stored complex (the
    affected one purely imaginary); the signed squares still sum to one
    identically.
    """

    amps: tuple[complex, complex, complex]

    @property
    def squared(self) -> tuple[float, float, float]:
        return tuple((a * a).real for a in self.amps)


def six_photon_mixture(k: float) -> SixPhotonMixtureWeights:
    k = float(k)
    if not k >= 1.0:  # NaN fails too
        raise ValueError(f"pulse-duration ratio k must be at least 1, got {k}")
    denom = (k + 1.0) * (k + 2.0)
    amps = (
        complex(np.sqrt(complex(6.0 / denom))),
        complex(np.sqrt(complex(6.0 * (k - 1.0) / denom))),
        complex(np.sqrt(complex((k - 1.0) * (k - 2.0) / denom))),
    )
    if not np.isfinite(amps).all():
        raise CapacityError(f"k={k} is too large: the mixture amplitudes are not finite")
    return SixPhotonMixtureWeights(amps=amps)
