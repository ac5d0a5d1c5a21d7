"""Transfer matrix of an arbitrary finite-range potential by direct evolution.

Writing the wave as ``psi = A(x) e^{ikx} + B(x) e^{-ikx}`` with the usual
derivative constraint, the Schrodinger equation becomes a linear evolution
for the coefficient pair,

    d/dx (A, B)^T = v(x)/(2ik) [[1, e^{-2ikx}], [-e^{2ikx}, -1]] (A, B)^T,

and the transfer matrix is the propagator of this system across the
support.  The generator is trace-free, so det M = 1 up to integration
error.  Integration runs in the position variable throughout, which keeps
every auxiliary quantity single-valued however many times the phase
``e^{-2ikx}`` wraps the unit circle.

A potential that repeats with period d (``SampledPotential.cells`` > 1,
as for the truncated exponential with k0 = m pi / L) is integrated over one
cell only.  Translating the cell by d conjugates the generator by
P = diag(e^{-ikd}, e^{ikd}), so m cells give M = P^m (P^{-1} M1)^m, the
periodic-multilayer identity, with the power from
``numpy.linalg.matrix_power``.  The coefficient pair (S0, S1) behind
:func:`s_boundary` and :func:`left_reflection_integral` is still integrated
across the whole support, which keeps an independent check on the
composition.

Every evolution runs on scipy's ``solve_ivp`` with the 8th-order
Dormand-Prince pair DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.10), rtol = atol = 0.05 ``EVOLUTION_TOL``, through :func:`_evolve`,
the package's one DOP853 driver; it imports ``scipy.integrate`` on the
first solve.  The shooting oracle in :mod:`scatter1d.shooting` drives it,
at the same tolerance, and composes its cell through :func:`_cell_power`,
for a different equation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConvergenceError, DegenerateDenominatorError, DomainError,
                     NearZeroError, SpectralSingularityError)
from .potential import PotentialSpec, as_integer, check_wavenumber, evaluate_potential

#: |M22| below which a configuration is reported as a spectral singularity
#: (|T| above 1e8) instead of dividing: the one pole threshold of every route.
SINGULARITY_EPS = 1e-8
#: |R^r conj(R^r_{v*}) - 1| below which the time-reversal route to R_left fails.
TIME_REVERSAL_EPS = 1e-12
#: Local error target per step of every evolution.
EVOLUTION_TOL = 1e-10
#: rtol = atol of every DOP853 solve: the evolution, shooting and (S0, S1).
_STEP_TOL = 0.05 * EVOLUTION_TOL


@dataclass(frozen=True)
class TransferMatrix:
    m11: complex
    m12: complex
    m21: complex
    m22: complex
    k: float

    def determinant(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """(R_left, R_right, T), optionally with the conjugate potential's R_right.

    ``t_minus_1`` is T - 1.  A route that can form it without subtracting 1
    from T passes it in (the closed form and the perturbative series do);
    otherwise it is ``t - 1``.
    """

    r_left: complex
    r_right: complex
    t: complex
    r_right_conj_potential: Optional[complex] = None
    t_minus_1: Optional[complex] = None

    def __post_init__(self):
        if self.t_minus_1 is None:
            object.__setattr__(self, "t_minus_1", self.t - 1.0)


@dataclass(frozen=True)
class SampledPotential:
    """A finite-range potential given by its support and an evaluator.

    The evaluator is only consulted inside the support; callers promise
    v(x) = 0 outside it.  The support must be finite with a_lo < a_hi.
    ``cells`` declares that v repeats ``cells`` times over the support,
    with period d = (a_hi - a_lo) / cells; the transfer matrix and the
    shooting oracle then integrate one period only.  It follows the
    integer rule of ``PotentialSpec.m`` (2 and 2.0 give 2).
    """

    support: tuple[float, float]
    evaluate: Callable[[float], complex]
    cells: int = 1

    def __post_init__(self):
        a_lo, a_hi = self.support
        if not (math.isfinite(a_lo) and math.isfinite(a_hi) and a_lo < a_hi):
            raise DomainError(
                f"support must be finite with a_lo < a_hi, got {self.support!r}")
        object.__setattr__(self, "cells", as_integer("cells", self.cells, 1))

    @classmethod
    def from_spec(cls, spec: PotentialSpec) -> "SampledPotential":
        return cls(support=(0.0, spec.L),
                   evaluate=lambda x: evaluate_potential(spec, x),
                   cells=spec.m)

    def conjugate(self) -> "SampledPotential":
        ev = self.evaluate
        return SampledPotential(support=self.support,
                                evaluate=lambda x: ev(x).conjugate(),
                                cells=self.cells)


def _evolve(rhs: Callable[[float, np.ndarray], Sequence[complex]],
            x0: float, x1: float, y0: Sequence[complex], k: float,
            route: str) -> tuple[np.ndarray, np.ndarray]:
    """Accepted DOP853 points from x0 to x1 and the states there, one per column.

    Raises :class:`DomainError` naming ``route``, ``k`` and ``x0`` if the
    right-hand side is not finite at the start (``solve_ivp`` would shrink
    its step without end), and :class:`ConvergenceError` naming ``route``
    and ``k`` if the solve fails.
    """
    from scipy.integrate import solve_ivp
    y0 = np.array(y0, dtype=complex)
    with np.errstate(all="ignore"):
        start = rhs(x0, y0)
    if not np.isfinite(start).all():
        raise DomainError(
            f"{route} right-hand side is not finite at x0={x0!r} for k={k!r}")
    sol = solve_ivp(rhs, (x0, x1), y0, method="DOP853", rtol=_STEP_TOL, atol=_STEP_TOL)
    if not sol.success:
        raise ConvergenceError(f"{route} failed at k={k!r}: {sol.message}")
    return sol.t, sol.y


def _cell_power(cell: np.ndarray, cells: int, k: float, what: str) -> np.ndarray:
    """``cell``^``cells``; a :class:`ConvergenceError` if an entry is not finite."""
    with np.errstate(all="ignore"):
        power = np.linalg.matrix_power(cell, cells)
    if not np.isfinite(power).all():
        raise ConvergenceError(
            f"{what} entries are not finite at k={k!r} over {cells} cells")
    return power


def transfer_matrix(pot: SampledPotential, k: float) -> TransferMatrix:
    """M(k) from the coefficient evolution across one cell, composed over all.

    The evolution is integrated over the first period [a_lo, a_lo + d] only,
    giving M1.  Shifting the cell by d conjugates the generator by
    P = diag(e^{-ikd}, e^{ikd}), so the j-th cell's propagator is
    P^j M1 P^{-j} and the whole support gives M = P^m (P^{-1} M1)^m for
    m = ``pot.cells``.  Composing m cells scales the error of M1 by about
    m (|det M - 1| ~ m |det M1 - 1|).  The cell is solved at the one step
    tolerance ``_STEP_TOL``, as every other route is.

    Raises :class:`DomainError` if the potential is not finite at a_lo, and
    :class:`ConvergenceError` if the cell solve fails or the composed
    entries are not finite.
    """
    check_wavenumber(k)
    a_lo, a_hi = pot.support
    cells = pot.cells
    d = (a_hi - a_lo) / cells
    v = pot.evaluate
    two_ik = 2j * k

    def rhs(x: float, y: np.ndarray) -> tuple[complex, complex, complex, complex]:
        vx = v(x)
        if vx == 0:
            return (0j, 0j, 0j, 0j)
        c = vx / two_ik
        e = cmath.exp(-two_ik * x)
        u11, u12, u21, u22 = y.tolist()  # Python complex: faster arithmetic
        return (c * (u11 + e * u21),
                c * (u12 + e * u22),
                -c * (u11 / e + u21),
                -c * (u12 / e + u22))

    m1 = _evolve(rhs, a_lo, a_lo + d, (1, 0, 0, 1), k, "evolution")[1][:, -1].reshape(2, 2)
    p_inv = np.array([[cmath.exp(1j * k * d)], [cmath.exp(-1j * k * d)]])
    p_m = np.array([[cmath.exp(-1j * k * cells * d)], [cmath.exp(1j * k * cells * d)]])
    m = p_m * _cell_power(p_inv * m1, cells, k, "transfer matrix")
    m11, m12, m21, m22 = map(complex, m.ravel())
    return TransferMatrix(m11=m11, m12=m12, m21=m21, m22=m22, k=k)


def _refuse_pole(abs_m22: float) -> None:
    """Raise :class:`SpectralSingularityError` when |M22| < ``SINGULARITY_EPS``."""
    if abs_m22 < SINGULARITY_EPS:
        raise SpectralSingularityError(
            f"|M22|={abs_m22:.3e} below {SINGULARITY_EPS:.1e}: spectral singularity",
            abs_m22)


def amplitudes_from_matrix(M: TransferMatrix) -> ScatteringAmplitudes:
    """(R_left, R_right, T) from the matrix entries.

    Raises :class:`SpectralSingularityError` when |M22| < ``SINGULARITY_EPS``,
    which is the numerical detection hook for poles of T on the real k axis.
    """
    _refuse_pole(abs(M.m22))
    t = 1.0 / M.m22
    return ScatteringAmplitudes(r_left=-M.m21 / M.m22, r_right=M.m12 / M.m22, t=t)


def matrix_from_amplitudes(amps: ScatteringAmplitudes, k: float) -> TransferMatrix:
    """Inverse of :func:`amplitudes_from_matrix`; used as a consistency check."""
    t = amps.t
    return TransferMatrix(m11=t - amps.r_left * amps.r_right / t,
                          m12=amps.r_right / t,
                          m21=-amps.r_left / t,
                          m22=1.0 / t,
                          k=k)


def amplitudes_numeric(pot: SampledPotential, k: float) -> ScatteringAmplitudes:
    """Convenience wrapper: integrate, then convert the matrix."""
    return amplitudes_from_matrix(transfer_matrix(pot, k))


def left_reflection_via_conjugate(pot: SampledPotential, k: float) -> complex:
    """R_left through the time-reversal relation.

    Combines R_left = T^2 conj(R^r_{v*}) / (R^r conj(R^r_{v*}) - 1) from
    one evolution.  For real k the conjugate potential's matrix is
    sigma_x conj(M) sigma_x, so conj(R^r_{v*}) = M21/M11 and the relation
    gives -M21/(M22 det M), which is -M21/M22 exactly when det M = 1: the
    route checks det M = 1.  :func:`left_reflection_integral` is the
    independent left route.
    """
    M = transfer_matrix(pot, k)
    amps = amplitudes_from_matrix(M)
    rr_conj_star = M.m21 / M.m11
    denom = amps.r_right * rr_conj_star - 1.0
    if abs(denom) < TIME_REVERSAL_EPS:
        raise DegenerateDenominatorError(
            "R^r * conj(R^r_{v*}) - 1 vanishes; the relation's excluded case")
    return amps.t * amps.t * rr_conj_star / denom


def s_boundary(pot: SampledPotential, k: float) -> tuple[complex, complex]:
    """Boundary pair (S0, S1) of the auxiliary second-order system at a_plus.

    S0(x) and S1(x) track a solution S and its z-derivative along the phase
    contour z = e^{-2ikx}; in the position parametrization they obey
    S0' = -2ik z S1 and S1' = i v(x)/(2kz) S0 with S0(a_minus) = z(a_minus),
    S1(a_minus) = 1.  T = 1/S1(a_plus) and R^r = S0/S1(a_plus) - z(a_plus).
    """
    s0, s1, _ = _evolve_s(pot, k, want_integral=False)
    return s0, s1


def left_reflection_integral(pot: SampledPotential, k: float) -> complex:
    """R_left as the contour integral -int S''/(S S'^2) dz, in x form.

    After eliminating S'' through the defining equation the integrand is
    -i v(x) e^{2ikx} / (2k S1(x)^2), accumulated alongside the evolution
    of (S0, S1).  Raises :class:`NearZeroError`, located at the accepted x
    nearest the zero, if the path passes within 1e-10 of a zero of S0 or
    S1 (callers should fall back to :func:`left_reflection_via_conjugate`).
    """
    _, _, integral = _evolve_s(pot, k, want_integral=True)
    return integral


def _evolve_s(pot: SampledPotential, k: float,
              want_integral: bool) -> tuple[complex, complex, complex]:
    check_wavenumber(k)
    a_lo, a_hi = pot.support
    v = pot.evaluate
    two_ik = 2j * k

    def rhs(x: float, y: np.ndarray) -> tuple[complex, complex, complex]:
        z = cmath.exp(-two_ik * x)
        s0, s1, _ = y.tolist()
        ds0 = -two_ik * z * s1
        vx = v(x)
        ds1 = 0.5j * vx / (k * z) * s0
        if want_integral:
            dint = -0.5j * vx / (k * z * s1 * s1)
            return (ds0, ds1, dint)
        return (ds0, ds1, 0j)

    z_lo = cmath.exp(-two_ik * a_lo)
    xs, path = _evolve(rhs, a_lo, a_hi, (z_lo, 1, 0), k, "evolution")
    s0, s1, integral = map(complex, path[:, -1])
    if want_integral:
        # min(|S0|, |S1|) at each accepted x; it is 1 at the start, |z_lo| = 1
        closest = np.abs(path[:2]).min(axis=0)
        at = int(closest.argmin())
        if closest[at] < 1e-10:
            raise NearZeroError(
                f"integration path passed within {closest[at]:.1e} of a zero of S0/S1",
                location=float(xs[at]))
    return s0, s1, integral
