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
periodic-multilayer identity; the power is taken by binary exponentiation.
The coefficient pair (S0, S1) behind :func:`s_boundary` and
:func:`left_reflection_integral` is still integrated across the whole
support, which keeps an independent check on the composition.

The solver is an embedded Dormand-Prince 5(4) pair with a PI step
controller (safety 0.9), run on lists of Python complex numbers: for three
or four components that is several times faster than NumPy arrays.  An
independent shooting solver for the same amplitudes lives in
:mod:`scatter1d.shooting` and shares no code with this path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConvergenceError, DegenerateDenominatorError, DomainError,
                     NearZeroError, SpectralSingularityError)
from .potential import PotentialSpec, as_integer, evaluate_potential

#: |M22| below which a configuration is reported as a spectral singularity
#: (|T| above 1e8) instead of dividing: the one pole threshold of every route.
SINGULARITY_EPS = 1e-8
#: |R^r conj(R^r_{v*}) - 1| below which the time-reversal route to R_left fails.
TIME_REVERSAL_EPS = 1e-12
#: Local error target per step of every evolution; ``transfer_matrix``
#: alone takes another through its ``tol``.
EVOLUTION_TOL = 1e-10

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
# Difference between the 5th- and 4th-order weights (error estimator).
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


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
    """(R_left, R_right, T), optionally with the conjugate potential's R_right."""

    r_left: complex
    r_right: complex
    t: complex
    r_right_conj_potential: Optional[complex] = None


@dataclass(frozen=True)
class SampledPotential:
    """A finite-range potential given by its support and an evaluator.

    The evaluator is only consulted inside the support; callers promise
    v(x) = 0 outside it.  ``cells`` declares that v repeats ``cells`` times
    over the support, with period d = (a_hi - a_lo) / cells; the transfer
    matrix and the shooting oracle then integrate one period only.  It
    follows the integer rule of ``PotentialSpec.m`` (2 and 2.0 give 2).
    """

    support: tuple[float, float]
    evaluate: Callable[[float], complex]
    cells: int = 1

    def __post_init__(self):
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


def _integrate_rk45(rhs: Callable[[float, Sequence[complex]], Sequence[complex]],
                    x0: float, x1: float, y0: Sequence[complex],
                    rtol: float, atol: float,
                    on_accept: Optional[Callable[[float, list[complex]], None]] = None,
                    max_steps: int = 2_000_000) -> list[complex]:
    """Dormand-Prince 5(4) with a PI controller for complex vector ODEs.

    The state is a short list of Python complex numbers and ``rhs`` returns
    a sequence of the same length; for systems of a few components this
    runs several times faster than small NumPy arrays.
    """
    y = [complex(v) for v in y0]
    span = x1 - x0
    if span == 0.0:
        return y
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76)) = _DP_A[1:]
    _, c2, c3, c4, c5, _, _ = _DP_C  # c1 = 0, c6 = c7 = 1
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    n = len(y)
    x = x0
    h = 0.01 * span
    k1 = rhs(x, y)
    err_prev = 1.0
    for _ in range(max_steps):
        remaining = x1 - x
        if abs(h) >= abs(remaining):
            h = remaining
            last = True
        else:
            last = False
        b1 = h * a21
        k2 = rhs(x + c2 * h, [u + b1 * p1 for u, p1 in zip(y, k1)])
        b1, b2 = h * a31, h * a32
        k3 = rhs(x + c3 * h, [u + b1 * p1 + b2 * p2 for u, p1, p2 in zip(y, k1, k2)])
        b1, b2, b3 = h * a41, h * a42, h * a43
        k4 = rhs(x + c4 * h, [u + b1 * p1 + b2 * p2 + b3 * p3
                              for u, p1, p2, p3 in zip(y, k1, k2, k3)])
        b1, b2, b3, b4 = h * a51, h * a52, h * a53, h * a54
        k5 = rhs(x + c5 * h, [u + b1 * p1 + b2 * p2 + b3 * p3 + b4 * p4
                              for u, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
        b1, b2, b3, b4, b5 = h * a61, h * a62, h * a63, h * a64, h * a65
        k6 = rhs(x + h, [u + b1 * p1 + b2 * p2 + b3 * p3 + b4 * p4 + b5 * p5
                         for u, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
        b1, b3, b4, b5, b6 = h * a71, h * a73, h * a74, h * a75, h * a76
        y_new = [u + b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6
                 for u, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
        k7 = rhs(x + h, y_new)
        b1, b3, b4, b5, b6, b7 = h * e1, h * e3, h * e4, h * e5, h * e6, h * e7
        sq = 0.0
        for u, w, p1, p3, p4, p5, p6, p7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
            scale = atol + rtol * max(abs(u), abs(w))
            sq += abs((b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6 + b7 * p7)
                      / scale) ** 2
        err = math.sqrt(sq / n)
        if err <= 1.0:
            x += h
            y = y_new
            k1 = k7
            if on_accept is not None:
                on_accept(x, y)
            if last:
                return y
            factor = 0.9 * (err + 1e-300) ** -0.17 * err_prev ** 0.04
            err_prev = max(err, 1e-10)
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        h *= min(5.0, max(0.2, factor))
        if abs(h) < 1e-14 * abs(span):
            raise ConvergenceError(f"step-size underflow near x={x!r}")
    raise ConvergenceError("step budget exhausted")


_Mat = tuple[complex, complex, complex, complex]


def _matmul(p: _Mat, q: _Mat) -> _Mat:
    """Product of two 2x2 matrices stored row-major as 4-tuples."""
    p11, p12, p21, p22 = p
    q11, q12, q21, q22 = q
    return (p11 * q11 + p12 * q21, p11 * q12 + p12 * q22,
            p21 * q11 + p22 * q21, p21 * q12 + p22 * q22)


def _matpow(q: _Mat, n: int) -> _Mat:
    """q**n for n >= 1 by binary exponentiation (about 2 log2 n products).

    Products only, so no assumption on det q: the integrated cell matrix is
    unimodular only to the integration tolerance.
    """
    result = None
    while True:
        if n & 1:
            result = q if result is None else _matmul(result, q)
        n >>= 1
        if not n:
            return result
        q = _matmul(q, q)


def transfer_matrix(pot: SampledPotential, k: float,
                    tol: float = EVOLUTION_TOL) -> TransferMatrix:
    """M(k) from the coefficient evolution across one cell, composed over all.

    The evolution is integrated over the first period [a_lo, a_lo + d] only,
    giving M1.  Shifting the cell by d conjugates the generator by
    P = diag(e^{-ikd}, e^{ikd}), so the j-th cell's propagator is
    P^j M1 P^{-j} and the whole support gives M = P^m (P^{-1} M1)^m for
    m = ``pot.cells``.  ``tol`` is the local error target per step; the
    controller's margin keeps the error of M1 of the same order for cells
    up to a few thousand phase oscillations, and composing m cells scales
    it by about m (|det M - 1| ~ m |det M1 - 1|).

    Raises :class:`ConvergenceError` if the composed entries are not finite.
    """
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError("k must be positive and finite")
    if not 0.0 < tol <= 1e-3:
        raise DomainError("tol must lie in (0, 1e-3]")
    a_lo, a_hi = pot.support
    cells = pot.cells
    d = (a_hi - a_lo) / cells
    v = pot.evaluate
    two_ik = 2j * k

    def rhs(x: float, y: Sequence[complex]) -> _Mat:
        vx = v(x)
        if vx == 0:
            return (0j, 0j, 0j, 0j)
        c = vx / two_ik
        e = cmath.exp(-two_ik * x)
        u11, u12, u21, u22 = y
        return (c * (u11 + e * u21),
                c * (u12 + e * u22),
                -c * (u11 / e + u21),
                -c * (u12 / e + u22))

    m11, m12, m21, m22 = _integrate_rk45(rhs, a_lo, a_lo + d, (1, 0, 0, 1),
                                         rtol=0.05 * tol, atol=0.05 * tol)
    if cells > 1:
        p1, p2 = cmath.exp(1j * k * d), cmath.exp(-1j * k * d)  # diagonal of P^{-1}
        q11, q12, q21, q22 = _matpow((p1 * m11, p1 * m12, p2 * m21, p2 * m22), cells)
        p1, p2 = cmath.exp(-1j * k * cells * d), cmath.exp(1j * k * cells * d)  # of P^m
        m11, m12, m21, m22 = p1 * q11, p1 * q12, p2 * q21, p2 * q22
    if not all(map(cmath.isfinite, (m11, m12, m21, m22))):
        raise ConvergenceError(
            f"transfer matrix entries are not finite at k={k!r} over {cells} cells")
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

    Runs the evolution for the potential and for its complex conjugate and
    combines R_left = T^2 conj(R^r_{v*}) / (R^r conj(R^r_{v*}) - 1).
    """
    M = transfer_matrix(pot, k)
    amps = amplitudes_from_matrix(M)
    Mc = transfer_matrix(pot.conjugate(), k)
    rr_conj_star = (Mc.m12 / Mc.m22).conjugate()
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
    of (S0, S1).  Raises :class:`NearZeroError` if the path passes within
    1e-10 of a zero of S0 or S1 (callers should fall back to
    :func:`left_reflection_via_conjugate`).
    """
    _, _, integral = _evolve_s(pot, k, want_integral=True)
    return integral


def _evolve_s(pot: SampledPotential, k: float,
              want_integral: bool) -> tuple[complex, complex, complex]:
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError("k must be positive and finite")
    a_lo, a_hi = pot.support
    v = pot.evaluate
    two_ik = 2j * k

    def rhs(x: float, y: Sequence[complex]) -> tuple[complex, complex, complex]:
        z = cmath.exp(-two_ik * x)
        s0, s1 = y[0], y[1]
        ds0 = -two_ik * z * s1
        vx = v(x)
        ds1 = 0.5j * vx / (k * z) * s0
        if want_integral:
            dint = -0.5j * vx / (k * z * s1 * s1)
            return (ds0, ds1, dint)
        return (ds0, ds1, 0j)

    smallest = [math.inf]

    def watch(_x: float, y: Sequence[complex]) -> None:
        smallest[0] = min(smallest[0], abs(y[0]), abs(y[1]))

    z_lo = cmath.exp(-two_ik * a_lo)
    s0, s1, integral = _integrate_rk45(rhs, a_lo, a_hi, (z_lo, 1.0, 0.0),
                                       rtol=0.05 * EVOLUTION_TOL, atol=0.05 * EVOLUTION_TOL,
                                       on_accept=watch)
    if want_integral and smallest[0] < 1e-10:
        raise NearZeroError(
            f"integration path passed within {smallest[0]:.1e} of a zero of S0/S1",
            location=a_hi)
    return s0, s1, integral
