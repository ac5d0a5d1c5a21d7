"""Bessel functions of the first kind, real order, complex argument.

Self-contained evaluation of J_nu(w) together with derivatives, residuals
of the classical identities (which double as this module's internal
consistency oracle), real-axis zeros and the Hurwitz pair of purely
imaginary zeros.  The zero searches bracket sign changes of J_nu on the
real axis (``scipy.special.jv``) and of I_nu on the imaginary one
(``scipy.special.iv``) and refine them with ``scipy.optimize.brentq``.

Evaluation strategy
-------------------
* ascending power series with term-ratio truncation when ``|w| <= 12`` or
  when the argument lies close to the imaginary axis (``|w| - |Im w| <=
  12``), where the series terms stop alternating destructively;
* otherwise a backward (Miller) recurrence normalized through the
  Neumann-type sum ``(w/2)^f = sum_j (f+2j) Gamma(f+j)/j! * J_{f+2j}(w)``,
  descending below order zero by the three-term recurrence where needed.
  One recurrence yields every order f + p of the fractional family
  f = nu - floor(nu), so the last ``FAMILY_CACHE_SIZE`` families are kept
  and reused: the closed forms, the identities and J' ask for several
  orders of one or two families at one argument.  The memo keys on the
  exact f and w together with the signs of their zero components (J on
  the two sides of the cut, w = -x +- 0i, are conjugates, yet +0.0 and
  -0.0 compare equal), so a value never depends on what was computed
  before it.

The two regimes have complementary rounding behaviour: the series loses
roughly ``0.43 (|w| - |Im w|)`` digits to alternation, the Miller
normalization roughly ``0.43 |Im w|`` digits.  The resulting cancellation
floor is modelled a priori by :func:`relative_floor` and a requested
tolerance below it raises :class:`AccuracyError` instead of returning
silently degraded values.  On and near both coordinate axes (which is
where the scattering formulas, the zero searches and the identity suites
live) the floor stays within a few ulps.  No asymptotic expansions are
included; arguments beyond ``W_MAX`` are refused rather than evaluated
badly.

Derivatives use the standard identity ``J'_nu(w) = J_{nu-1}(w) -
(nu/w) J_nu(w)``.  (A variant with a stray factor of ``w`` on the first
term circulates in some references; it is not an identity and is
deliberately not reproduced here.)
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional

import numpy as np
from scipy.optimize import brentq
from scipy.special import iv, jv

from .errors import AccuracyError, ConvergenceError, DomainError

#: Largest |w| this module evaluates.  Everything the scattering formulas
#: need stays below ~45; the bound leaves headroom without entering the
#: regime where an asymptotic expansion would be mandatory.
W_MAX = 60.0

#: Largest |nu| accepted.  Keeps every Gamma(nu + j + 1) inside double range.
NU_MAX = 30.0

#: Crossover between the ascending series and the Miller recurrence.
SERIES_RADIUS = 12.0

#: Function-value bound accepted for a refined zero.
TOL_ZERO = 1e-10

#: Miller families (fractional order, argument) kept for reuse.  A closed
#: form or identity touches at most a handful of families at one argument.
FAMILY_CACHE_SIZE = 8

_EPS = 2.220446049250313e-16
_MAX_TERMS = 600


class ZeroKind(str, Enum):
    REAL_AXIS = "real-axis"
    IMAGINARY_AXIS = "imaginary-axis"


@dataclass(frozen=True)
class BesselZero:
    """A single refined zero of J_nu on one of the coordinate half-lines."""

    order: float
    location: complex
    kind: ZeroKind
    index: int


@dataclass(frozen=True)
class IdentityResiduals:
    """Absolute residuals of the four classical identities at (nu, w)."""

    continuation: float   # J_nu(e^{i pi} w) = e^{+-i pi nu} J_nu(w)
    cross_sum: float      # J_{nu+1}J_{-nu} + J_nu J_{-nu-1} = -2 sin(pi nu)/(pi w)
    cross_diff: float     # J_{nu+1}J_{1-nu} - J_{nu-1}J_{-nu-1} = 4 nu sin(pi nu)/(pi w^2)
    recurrence: float     # w J_{nu+1} = 2 nu J_nu - w J_{nu-1}


def sinpi(x: float) -> float:
    """sin(pi x) with exact mod-1 argument reduction.

    Full relative precision arbitrarily close to integers, where the naive
    sin(pi * x) loses everything to the rounding of pi * x.
    """
    n = round(x)
    s = math.sin(math.pi * (x - n))
    return -s if (int(n) & 1) else s


def _rgamma(x: float) -> float:
    """1/Gamma(x) for real x, exactly 0.0 at the poles."""
    if x >= 0.5:
        return 1.0 / math.gamma(x) if x < 171.0 else 0.0
    if x == math.floor(x):
        return 0.0
    return sinpi(x) * math.gamma(1.0 - x) / math.pi


def _cpow(base: complex, expo: float) -> complex:
    """Principal-branch base**expo, arg(base) in (-pi, pi]."""
    if base == 0:
        if expo > 0:
            return complex(0.0)
        if expo == 0:
            return complex(1.0)
        raise DomainError("0 raised to a negative power")
    return cmath.exp(expo * cmath.log(base))


def _use_series(w: complex) -> bool:
    wmag = abs(w)
    return wmag <= SERIES_RADIUS or wmag - abs(w.imag) <= SERIES_RADIUS


def relative_floor(w: complex) -> float:
    """A priori relative-error floor of the evaluation at argument ``w``.

    Models the cancellation of whichever method handles ``w``.  Near zeros
    of J the floor is relative to the natural scale e^{|Im w|}, not to the
    (possibly tiny) function value itself.
    """
    wmag, im = abs(w), abs(complex(w).imag)
    loss = max(0.0, wmag - im) if _use_series(w) else im
    return _EPS * 0.2 * math.exp(min(loss, 80.0))


def _series(nu: float, w: complex) -> complex:
    # Ascending series; nu must not be a negative integer (reflected upstream).
    half = 0.5 * w
    term = _cpow(half, nu) * _rgamma(nu + 1.0)
    total = term
    ratio = -(half * half)
    peak = abs(term)
    wmag = abs(w)
    for j in range(1, _MAX_TERMS):
        term = term * ratio / (j * (nu + j))
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        # For nu near a negative integer the terms pass through a deep
        # valley just before the reciprocal-Gamma pole at j ~ -nu and grow
        # again beyond it, so smallness alone must not stop the sum there.
        if (mag <= 0.25 * _EPS * (abs(total) + peak * _EPS) + 1e-300
                and 2 * j > wmag and j + nu > 0.5):
            break
    else:
        raise ConvergenceError(
            f"ascending Bessel series stalled at nu={nu}, |w|={wmag:.3g}")
    return total


@functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _miller_family(f: float, w: complex,
                   signs: tuple[float, float, float]) -> tuple[complex, tuple[complex, ...]]:
    """Backward recurrence for SERIES_RADIUS < |w| <= W_MAX, order family f + p.

    Returns ``(lam, vals)`` with J_{f+p}(w) = lam * vals[p].  ``signs`` holds
    the signs of f, Re w and Im w and only keys the memo: +0.0 and -0.0
    compare and hash alike.
    """
    wmag = abs(w)
    # The start order depends only on |w| (not on the target order), so all
    # orders of one fractional family come off the identical recurrence and
    # normalization; three-term identities between them then hold to machine
    # precision rather than to the normalization's cancellation floor.
    n_start = int(wmag + NU_MAX) + 46

    vals = [0j] * (n_start + 1)
    jp1 = 0j
    jp = 1e-30 + 0j
    vals[n_start] = jp
    for p in range(n_start, 0, -1):
        jm1 = (2.0 * (f + p) / w) * jp - jp1
        vals[p - 1] = jm1
        jp1, jp = jp, jm1
        if abs(jm1.real) > 1e250 or abs(jm1.imag) > 1e250:
            jp1 *= 1e-250
            jp *= 1e-250
            for q in range(p - 1, n_start + 1):
                vals[q] *= 1e-250

    # Normalization sum over even order offsets: c_0 = Gamma(f+1),
    # c_1 = (f+2) Gamma(f+1), then c_q = c_{q-1} (f+2q)(f+q-1)/((f+2q-2) q).
    g1 = math.gamma(f + 1.0)
    s = g1 * vals[0]
    if n_start >= 2:
        cq = (f + 2.0) * g1
        s += cq * vals[2]
        for q in range(2, n_start // 2 + 1):
            cq *= (f + 2 * q) * (f + q - 1.0) / ((f + 2 * q - 2.0) * q)
            s += cq * vals[2 * q]
    if s == 0:
        raise ConvergenceError(f"Miller normalization degenerate at f={f}, |w|={wmag:.3g}")
    return _cpow(0.5 * w, f) / s, tuple(vals)


def _miller(nu: float, w: complex) -> complex:
    n_low = math.floor(nu)
    f = nu - n_low
    signs = (math.copysign(1.0, f), math.copysign(1.0, w.real),
             math.copysign(1.0, w.imag))
    try:
        lam, vals = _miller_family(f, w, signs)
    except ConvergenceError:
        raise ConvergenceError(
            f"Miller normalization degenerate at nu={nu}, |w|={abs(w):.3g}") from None

    if n_low >= 0:
        return lam * vals[n_low]
    # Descend below order f.  Safe here: |w| > SERIES_RADIUS > |nu| keeps the
    # recurrence in its oscillatory regime.
    below, here = vals[1], vals[0]
    order = f
    for _ in range(-n_low):
        below, here = here, (2.0 * order / w) * here - below
        order -= 1.0
    return lam * here


def bessel_j(nu: float, w: complex, tol: float = 1e-10) -> complex:
    """J_nu(w) for real ``nu`` and complex ``w``.

    Relative error <= ``tol`` wherever |J_nu(w)| is not dominated by
    cancellation (i.e. away from zeros); continuous in ``nu`` across
    integers.  Raises :class:`DomainError` outside |w| <= W_MAX or for
    non-finite input, :class:`AccuracyError` if ``tol`` is unattainable.
    """
    nu = float(nu)
    w = complex(w)
    if not (math.isfinite(nu) and cmath.isfinite(w)):
        raise DomainError("bessel_j requires finite nu and w")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    if abs(nu) > NU_MAX:
        raise DomainError(f"|nu|={abs(nu):.3g} exceeds supported bound {NU_MAX}")
    wmag = abs(w)
    if wmag > W_MAX:
        raise DomainError(f"|w|={wmag:.3g} exceeds supported bound {W_MAX}")
    if w == 0:
        if nu == 0.0:
            return complex(1.0)
        if nu > 0.0 or nu == math.floor(nu):
            return complex(0.0)
        raise DomainError("J_nu(0) diverges for negative non-integer nu")
    floor = relative_floor(w)
    if tol < floor:
        raise AccuracyError(
            f"tol={tol:.1e} unattainable at w={w!r} (cancellation floor ~{floor:.1e})")
    if nu < 0.0 and nu == math.floor(nu):
        ell = int(-nu)
        val = bessel_j(float(ell), w, tol)
        return -val if ell % 2 else val
    if _use_series(w):
        return _series(nu, w)
    return _miller(nu, w)


def bessel_j_derivative(nu: float, w: complex) -> complex:
    """J'_nu(w) = J_{nu-1}(w) - (nu/w) J_nu(w)."""
    nu = float(nu)
    w = complex(w)
    if w == 0:
        if nu == 0.0:
            return complex(0.0)
        if nu == 1.0:
            return complex(0.5)
        raise DomainError("derivative at w=0 supported only for nu in {0, 1}")
    return bessel_j(nu - 1.0, w) - (nu / w) * bessel_j(nu, w)


def _bracketed_roots(func: Callable[[float], float],
                     grid: Iterable[float]) -> Iterator[float]:
    """Zeros of ``func`` along an increasing ``grid``, in increasing order.

    Yields a grid point where ``func`` is exactly 0, and the root of every
    other sign change between neighbouring grid points: Brent's estimate,
    which is only within 4 eps |x|, or the adjacent double if |func| is
    smaller there.  Lazy: the scan stops where the caller stops asking.
    """
    prev_t = prev_f = None
    for t in grid:
        ft = func(t)
        if ft == 0.0:
            yield t
        elif prev_f is not None and prev_f * ft < 0.0:
            root, info = brentq(func, prev_t, t, xtol=1e-300, rtol=4.0 * _EPS,
                                full_output=True, disp=False)
            if not info.converged:
                raise ConvergenceError(
                    f"Brent's method stalled on [{prev_t!r}, {t!r}]: {info.flag}")
            root = min((math.nextafter(root, -math.inf), root,
                        math.nextafter(root, math.inf)), key=lambda x: abs(func(x)))
            yield root
        prev_t, prev_f = t, ft


def real_zeros(nu: float, count: int) -> list[BesselZero]:
    """First ``count`` positive real-axis zeros of J_nu, in increasing order.

    J_nu on the real axis is taken from ``scipy.special.jv``.  Its sign
    changes are bracketed on a grid of step pi/4, small against the
    asymptotic ~pi spacing, from max(0.05, nu) (all positive zeros exceed
    nu for nu > 0) up to W_MAX - 1, and refined by Brent's method.  Each
    zero must also satisfy |bessel_j| <= TOL_ZERO.
    """
    nu = float(nu)
    if count < 1:
        raise DomainError("count must be >= 1")
    if not abs(nu) <= NU_MAX:
        raise DomainError(f"|nu|={abs(nu):.3g} exceeds supported bound {NU_MAX}")
    zeros: list[BesselZero] = []
    grid = np.arange(max(0.05, nu), W_MAX - 1.0, 0.25 * math.pi).tolist()
    for root in _bracketed_roots(lambda x: jv(nu, x), grid):
        if abs(bessel_j(nu, complex(root))) > TOL_ZERO:
            raise ConvergenceError(f"zero refinement of J_{nu} stalled near {root:.6f}")
        zeros.append(BesselZero(order=nu, location=complex(root),
                                kind=ZeroKind.REAL_AXIS, index=len(zeros) + 1))
        if len(zeros) >= count:
            return zeros
    raise ConvergenceError(
        f"zero #{len(zeros) + 1} of J_{nu} lies beyond the |w| bound {W_MAX}")


def in_hurwitz_band(nu: float) -> bool:
    """Whether J_nu possesses a purely imaginary conjugate pair of zeros.

    True exactly for non-integer nu in (-2p-2, -2p-1), p = 0, 1, 2, ...
    Raises :class:`DomainError` for a non-finite nu.
    """
    if not math.isfinite(nu):
        raise DomainError(f"order must be finite, got {nu!r}")
    if nu >= -1.0 or nu == math.floor(nu):
        return False
    return int(math.floor(-nu)) % 2 == 1


def imaginary_zeros(nu: float) -> Optional[tuple[BesselZero, BesselZero]]:
    """The +-iy pair of purely imaginary zeros of J_nu, or None.

    On the imaginary axis J_nu(iy)/(iy/2)^nu = I_nu(y)/(y/2)^nu, real and
    taken from ``scipy.special.iv``.  In a Hurwitz band this profile starts
    negative (1/Gamma(nu+1) < 0) and grows without bound, so its one zero
    is bracketed on the geometric grid y = 1e-4 * 1.25^i below y = 45 and
    refined by Brent's method.
    """
    nu = float(nu)
    if not in_hurwitz_band(nu):
        return None
    # i = 59 is the first grid point past y = 45; it closes the last bracket
    grid = (1e-4 * 1.25 ** i for i in range(60))
    for root in _bracketed_roots(lambda y: iv(nu, y) / (0.5 * y) ** nu, grid):
        loc = complex(0.0, root)
        plus = BesselZero(order=nu, location=loc,
                          kind=ZeroKind.IMAGINARY_AXIS, index=1)
        minus = BesselZero(order=nu, location=-loc,
                           kind=ZeroKind.IMAGINARY_AXIS, index=1)
        return (plus, minus)
    raise ConvergenceError(f"imaginary zero of J_{nu} not found below y=45")


def identity_residuals(nu: float, w: complex) -> IdentityResiduals:
    """Absolute residuals of the four classical identities at (nu, w).

    Requires w != 0.  The cross-product identities are informative for
    non-integer nu (both sides vanish identically at integers).
    """
    nu = float(nu)
    w = complex(w)
    if w == 0:
        raise DomainError("identity residuals need w != 0")
    j_nu = bessel_j(nu, w)
    j_p1 = bessel_j(nu + 1.0, w)
    j_m1 = bessel_j(nu - 1.0, w)
    j_neg = bessel_j(-nu, w)
    j_negm1 = bessel_j(-nu - 1.0, w)
    j_1mnu = bessel_j(1.0 - nu, w)

    # Continuation picks the sign keeping arg inside the principal branch.
    # The reflection e^{i pi} w must land at arg(w) +- pi in (-pi, pi]; for
    # real w the signed zero of -(x+0j) would fall on the wrong side of the
    # cut, so the imaginary part is pinned to +0.0 there.
    sign = 1.0 if cmath.phase(w) <= 0.0 else -1.0
    reflected = complex(-w.real, 0.0) if w.imag == 0.0 else -w
    continuation = abs(bessel_j(nu, reflected) - cmath.exp(1j * math.pi * nu * sign) * j_nu)

    sin_pn = sinpi(nu)
    cross_sum = abs(j_p1 * j_neg + j_nu * j_negm1 + 2.0 * sin_pn / (math.pi * w))
    cross_diff = abs(j_p1 * j_1mnu - j_m1 * j_negm1 - 4.0 * nu * sin_pn / (math.pi * w * w))
    recurrence = abs(w * j_p1 - 2.0 * nu * j_nu + w * j_m1)
    return IdentityResiduals(continuation=continuation, cross_sum=cross_sum,
                             cross_diff=cross_diff, recurrence=recurrence)
