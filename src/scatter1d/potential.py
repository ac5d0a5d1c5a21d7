"""The truncated exponential potential and its per-wavenumber parameters.

The potential is ``v(x) = z * exp(-2i k0 x)`` on ``[0, L]`` and zero
elsewhere, with ``k0 = m pi / L`` so that the profile is locally periodic
with ``m`` unit cells.  Everything downstream is driven by the three
dimensionless quantities

* ``gamma = k / k0``  (dimensionless wavenumber),
* ``a = sqrt(z) / k0``  (dimensionless coupling, principal square root),
* ``mu = (1 - exp(2 pi i m gamma)) / (2 i sin(pi gamma))``  (cell
  interference factor),

plus the optical dictionary ``z = k^2 (1 - eps0)`` relating the coupling
to the permittivity at the left face of the slab.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError

#: |gamma - round(gamma)| below which gamma is declared integer and mu is
#: set by its exact limit (-1)^(n+1) m instead of the 0/0 ratio.
INTEGER_SNAP_EPS = 1e-9


@dataclass(frozen=True)
class PotentialSpec:
    """Coupling z (units of k0^2), cell count m, support length L."""

    coupling: complex
    m: int
    L: float

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise DomainError("m must be a positive integer")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise DomainError("L must be positive and finite")
        object.__setattr__(self, "coupling", complex(self.coupling))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "L", float(self.L))

    @property
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
    gamma: float
    a_frak: complex
    mu: complex
    gamma_integer: Optional[int]  # set when gamma snapped to an integer

    @property
    def gamma_is_integer(self) -> bool:
        return self.gamma_integer is not None

    @property
    def eps0(self) -> complex:
        return 1.0 - self.spec.coupling / (self.k * self.k)


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


def mu_factor(gamma: float, m: int) -> complex:
    """(1 - e^{2 pi i m gamma}) / (2 i sin(pi gamma)) for non-integer gamma.

    Evaluated through the reductions eta = m gamma mod 1 and
    delta = gamma mod 1, which are exact for integer m and avoid the
    catastrophic cancellation of the naive quotient near kL in pi Z.
    Returns exactly 0 when m gamma is (numerically) an integer.
    """
    n = round(gamma)
    delta = gamma - n
    if abs(delta) < INTEGER_SNAP_EPS:
        raise DomainError("mu_factor is a 0/0 form at integer gamma; use the limit")
    eta = m * gamma - round(m * gamma)
    if abs(eta) < INTEGER_SNAP_EPS:
        return complex(0.0)
    sp = math.sin(math.pi * eta)
    numerator = complex(2.0 * sp * sp, -math.sin(2.0 * math.pi * eta))
    denominator = 2j * ((-1) ** (n & 1)) * math.sin(math.pi * delta)
    return numerator / denominator


def wave_context(spec: PotentialSpec, k: float) -> WaveContext:
    """Populate gamma, a and mu for the wavenumber ``k``."""
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError("k must be positive and finite")
    gamma = k * spec.L / (math.pi * spec.m)
    a_frak = cmath.sqrt(spec.coupling) / spec.k0
    n = round(gamma)
    if abs(gamma - n) < INTEGER_SNAP_EPS:
        if n < 1:
            raise DomainError("k is vanishingly small against k0 (gamma snapped to 0)")
        mu = complex(((-1) ** ((n + 1) & 1)) * spec.m)
        return WaveContext(spec=spec, k=k, gamma=gamma, a_frak=a_frak,
                           mu=mu, gamma_integer=int(n))
    return WaveContext(spec=spec, k=k, gamma=gamma, a_frak=a_frak,
                       mu=mu_factor(gamma, spec.m), gamma_integer=None)


def evaluate_potential(spec: PotentialSpec, x: float) -> complex:
    """v(x) = z e^{-2i k0 x} on [0, L], zero outside."""
    if 0.0 <= x <= spec.L:
        return spec.coupling * cmath.exp(-2j * spec.k0 * x)
    return complex(0.0)


def permittivity(spec: PotentialSpec, k: float) -> PermittivityProfile:
    """Optical realization of the potential at wavenumber ``k``."""
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError("k must be positive and finite")
    eps0 = 1.0 - spec.coupling / (k * k)
    return PermittivityProfile(spec=spec, k=k, eps0=eps0)


def from_permittivity(eps0: complex, k: float, m: int, L: float) -> PotentialSpec:
    """Spec with coupling z = k^2 (1 - eps0); inverse of :func:`permittivity`."""
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError("k must be positive and finite")
    return PotentialSpec(coupling=k * k * (1.0 - complex(eps0)), m=m, L=L)
