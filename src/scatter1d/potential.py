"""The truncated exponential potential and its per-wavenumber parameters.

The potential is ``v(x) = z * exp(-2i k0 x)`` on ``[0, L]`` and zero
elsewhere, with ``k0 = m pi / L`` so that the profile is locally periodic
with ``m`` unit cells.  Everything downstream is driven by the three
dimensionless quantities

* ``gamma = k / k0``  (dimensionless wavenumber),
* ``a = sqrt(z) / k0``  (dimensionless coupling, principal square root),
* ``mu = (1 - exp(2 pi i m gamma)) / (2 i sin(pi gamma))``  (cell
  interference factor; its limit (-1)^(n+1) m at integer gamma = n),

plus the optical dictionary ``z = k^2 (1 - eps0)`` relating the coupling
to the permittivity at the left face of the slab.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError

#: |gamma - round(gamma)| below which gamma is declared integer: it is
#: replaced by that integer, and mu by its exact limit (-1)^(n+1) m
#: instead of the 0/0 ratio.
INTEGER_SNAP_EPS = 1e-9


def as_integer(name: str, value, minimum: int) -> int:
    """``value`` as an ``int`` if it is integral (2, 2.0, numpy.int64(2)).

    Anything else (2.5, "2", nan, None, True, numpy.False_) or a value
    below ``minimum`` raises :class:`DomainError`.
    """
    try:
        if (not isinstance(value, (bool, np.bool_))
                and int(value) == value and value >= minimum):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_wavenumber(k: float) -> None:
    """Raise :class:`DomainError` unless ``k`` is positive and finite."""
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError(f"k must be positive and finite, got {k!r}")


@dataclass(frozen=True)
class PotentialSpec:
    """Finite coupling z (units of k0^2), cell count m, support length L."""

    coupling: complex
    m: int
    L: float

    def __post_init__(self):
        m = as_integer("m", self.m, 1)
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise DomainError("L must be positive and finite")
        coupling = complex(self.coupling)
        if not cmath.isfinite(coupling):
            raise DomainError(f"coupling must be finite, got {coupling!r}")
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "L", float(self.L))

    @functools.cached_property
    def k0(self) -> float:
        return self.m * math.pi / self.L

    def conjugate_coupling(self) -> "PotentialSpec":
        """The family member with coupling z*.

        Not the pointwise conjugate potential: conj(v)(x) = z* e^{+2i k0 x}
        has the opposite chirality and equals this member reflected through
        the midpoint of the support.  Consequently the pointwise conjugate's
        right (left) reflection amplitude is this member's left (right) one,
        and the transmissions coincide.
        """
        return PotentialSpec(self.coupling.conjugate(), self.m, self.L)


@dataclass(frozen=True)
class WaveContext:
    """Derived per-wavenumber quantities for a (spec, k) pair."""

    spec: PotentialSpec
    k: float
    gamma: float  # k/k0 after snap_gamma: the Bessel order
    a_frak: complex
    mu: complex

    @property
    def gamma_integer(self) -> Optional[int]:
        """n when gamma snapped to the integer n, else None."""
        return int(self.gamma) if self.gamma.is_integer() else None

    @property
    def eps0(self) -> complex:
        return permittivity(self.spec, self.k).eps0


@dataclass(frozen=True)
class PermittivityProfile:
    """eps(x) = 1 + [eps0 - 1] e^{-2i k0 x} on [0, L], 1 elsewhere."""

    spec: PotentialSpec
    k: float
    eps0: complex

    def at(self, x: float) -> complex:
        if 0.0 <= x <= self.spec.L:
            return 1.0 + (self.eps0 - 1.0) * cmath.exp(-2j * self.spec.k0 * x)
        return complex(1.0)


def snap_gamma(gamma: float) -> float:
    """``gamma`` as a float, or the integer within INTEGER_SNAP_EPS of it.

    The package's one gamma rule: every closed form, design and singularity
    condition takes the snapped value as its Bessel order.  A ``gamma``
    that is not finite, or not positive once snapped, raises :class:`DomainError`.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite, got {gamma!r}")
    n = round(gamma)
    snapped = float(n) if abs(gamma - n) < INTEGER_SNAP_EPS else gamma
    if not snapped > 0.0:
        raise DomainError(f"gamma must be positive, got {gamma!r}" if snapped
                          else f"gamma must be positive: gamma={gamma!r} snapped to 0")
    return snapped


def mu_factor(gamma: float, m: int) -> complex:
    """(1 - e^{2 pi i m gamma}) / (2 i sin(pi gamma)), and its limit.

    Evaluated through the reductions eta = m gamma mod 1 and
    delta = gamma mod 1, which are exact for integer m and avoid the
    catastrophic cancellation of the naive quotient near kL in pi Z.
    At integer gamma = n (see :func:`snap_gamma`) the 0/0 form is replaced
    by its exact limit (-1)^(n+1) m; otherwise it returns exactly 0 when
    m gamma is (numerically) an integer.  Non-finite ``gamma``: DomainError.
    """
    if not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite, got {gamma!r}")
    n = round(gamma)
    delta = gamma - n
    if abs(delta) < INTEGER_SNAP_EPS:
        return complex(-m if n % 2 == 0 else m)
    eta = m * gamma - round(m * gamma)
    if abs(eta) < INTEGER_SNAP_EPS:
        return complex(0.0)
    sp = math.sin(math.pi * eta)
    numerator = complex(2.0 * sp * sp, -math.sin(2.0 * math.pi * eta))
    denominator = 2j * ((-1) ** (n & 1)) * math.sin(math.pi * delta)
    return numerator / denominator


def snap_gamma_array(gamma: np.ndarray) -> np.ndarray:
    """:func:`snap_gamma`'s snap elementwise, without raising.

    Where ``snap_gamma`` raises, the element comes back unchecked (snapped
    to 0.0, non-positive or non-finite), and the caller refuses it.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = np.rint(gamma)
    with np.errstate(invalid="ignore"):
        return np.where(np.abs(gamma - n) < INTEGER_SNAP_EPS, n, gamma)


def mu_factor_array(gamma: np.ndarray, m: int) -> np.ndarray:
    """:func:`mu_factor` elementwise, through the same reductions.

    The integer limit (-1)^(n+1) m and the exact zeros at m gamma in Z are
    masks.  Each element equals ``mu_factor`` of it bit for bit: the
    quotient by the purely imaginary 2i sin(pi delta) is taken part by
    part, as complex division reduces it.
    """
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        n = np.rint(gamma)
        delta = gamma - n
        eta = m * gamma - np.rint(m * gamma)
        sp = np.sin(np.pi * eta)
        den = 2.0 * np.where(n % 2 == 0, 1.0, -1.0) * np.sin(np.pi * delta)
        mu = -np.sin(2.0 * np.pi * eta) / den + 1j * (-(2.0 * sp * sp) / den)
        mu[np.abs(eta) < INTEGER_SNAP_EPS] = 0.0
        integer = np.abs(delta) < INTEGER_SNAP_EPS
    mu[integer] = np.where(n[integer] % 2 == 0, -m, m)
    return mu


def wave_context(spec: PotentialSpec, k: float) -> WaveContext:
    """Populate gamma, a and mu for the wavenumber ``k``."""
    check_wavenumber(k)
    gamma = snap_gamma(k * spec.L / (math.pi * spec.m))
    return WaveContext(spec=spec, k=k, gamma=gamma,
                       a_frak=cmath.sqrt(spec.coupling) / spec.k0,
                       mu=mu_factor(gamma, spec.m))


def evaluate_potential(spec: PotentialSpec, x: float) -> complex:
    """v(x) = z e^{-2i k0 x} on [0, L], zero outside."""
    if 0.0 <= x <= spec.L:
        return spec.coupling * cmath.exp(-2j * spec.k0 * x)
    return complex(0.0)


def permittivity(spec: PotentialSpec, k: float) -> PermittivityProfile:
    """Optical realization of the potential at wavenumber ``k``.

    Raises :class:`DomainError` naming ``k`` if eps0 = 1 - z/k^2 is not a
    finite complex (k so small that k^2 underflows or z/k^2 overflows).
    """
    check_wavenumber(k)
    try:
        eps0 = 1.0 - spec.coupling / (k * k)
    except ZeroDivisionError:  # k * k underflows to 0
        eps0 = complex(math.inf)
    if not cmath.isfinite(eps0):
        raise DomainError(f"k={k!r} is too small: eps0 = 1 - z/k^2 "
                          "is not a finite complex")
    return PermittivityProfile(spec=spec, k=k, eps0=eps0)


def from_permittivity(eps0: complex, k: float, m: int, L: float) -> PotentialSpec:
    """Spec with coupling z = k^2 (1 - eps0); inverse of :func:`permittivity`.

    Raises :class:`DomainError` naming ``k`` if eps0 != 1 but z underflows
    to zero or to a subnormal, which would lose the potential or most of
    its digits.
    """
    check_wavenumber(k)
    contrast = 1.0 - complex(eps0)
    coupling = k * k * contrast
    if contrast != 0 and abs(coupling) < sys.float_info.min:
        raise DomainError(f"k={k!r} is too small: the coupling k^2 (1 - eps0) "
                          "underflows")
    return PotentialSpec(coupling=coupling, m=m, L=L)
