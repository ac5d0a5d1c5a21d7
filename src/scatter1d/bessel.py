"""Bessel functions of the first kind, real order, complex argument.

J_nu(w) is ``scipy.special.jv`` (AMOS, Amos 1986, ACM TOMS 644) behind a
thin wrapper that keeps the package's domain.  Around it sit derivatives,
residuals of the classical identities (which double as this module's
internal consistency oracle), real-axis zeros and the Hurwitz pair of
purely imaginary zeros.  The zero searches bracket sign changes of J_nu on
the real axis (``scipy.special.jv``) and of I_nu on the imaginary one
(``scipy.special.iv``) and refine them with ``scipy.optimize.brentq``,
which :func:`_bracketed_roots` imports on its first refinement.

Wrapper rules
-------------
* Domain: finite nu and w with |nu| <= NU_MAX and |w| <= W_MAX, no
  J_nu(0) at negative non-integer nu, and w within the accuracy floor
  (else :class:`AccuracyError`): not both |Im w| > FLOOR_IM and
  |w| - |Im w| > 12, where the relative error would pass 1e-10.
* Positive real w goes to the real ``jv(nu, x)``: values there are real
  exactly, where the complex routine leaves imaginary parts ~1e-17.
* Im w < 0, or an imaginary part of -0.0, gives conj(jv(nu, conj w)):
  scipy puts -x - 0i on the upper side of the cut, which would break
  J_nu(-x - 0i) = conj J_nu(-x + 0i).
* AMOS reports overflow (nan) once |J| passes ~1e303, four decades short
  of the double range, at tiny |w| and large negative nu.  There J_nu is
  taken one step down the three-term recurrence from J_{nu+1} and
  J_{nu+2}; a value still not finite raises :class:`DomainError` naming
  nu and w.

:func:`bessel_j_array` applies the same rules to arrays, with one
``scipy.special.jv`` call per branch.  It marks what ``bessel_j`` would
refuse instead of raising.

Derivatives use the standard identity ``J'_nu(w) = J_{nu-1}(w) -
(nu/w) J_nu(w)``.  (A variant with a stray factor of ``w`` on the first
term circulates in some references; it is not an identity and is
deliberately not reproduced here.)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional

import numpy as np
from scipy.special import iv, jv

from .errors import AccuracyError, ConvergenceError, DomainError
from .potential import as_integer

#: Largest |w| accepted.  Everything the scattering formulas need stays
#: below ~45.
W_MAX = 60.0

#: Largest |nu| accepted.
NU_MAX = 30.0

#: Function-value bound accepted for a refined zero.
TOL_ZERO = 1e-10

_EPS = 2.220446049250313e-16

#: ln(1e-10 / (0.2 eps)) ~ 14.627: see :func:`_beyond_floor`.
FLOOR_IM = math.log(1e-10 / (0.2 * _EPS))


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


def _beyond_floor(w, wmag):
    """Whether ``w`` (modulus ``wmag``: a complex or an ndarray) is refused.

    Against mpmath ``jv`` keeps 50 f max(|J_nu|, |J_{nu+1}|), f = 0.2 eps
    e^{|w| - |Im w|} within 12 of the imaginary axis and 0.2 eps e^{|Im w|}
    beyond, except where AMOS flushes |J| < ~1e-290 to 0.  f passes 1e-10
    exactly here.  Arrays pass hypot: numpy's complex abs can differ in the
    last bit.
    """
    im = abs(w.imag)
    return (im > FLOOR_IM) & (wmag - im > 12.0)


def _jv(nu: float, w: complex) -> complex:
    """``scipy.special.jv`` with the side of the cut set by the sign of Im w."""
    if w.imag == 0.0 and w.real > 0.0:
        return complex(jv(nu, w.real))
    if math.copysign(1.0, w.imag) < 0.0:
        return complex(jv(nu, w.conjugate())).conjugate()
    return complex(jv(nu, w))


def bessel_j(nu: float, w: complex) -> complex:
    """J_nu(w) for real ``nu`` and complex ``w``, from ``scipy.special.jv``.

    Error within 5e-9 max(|J_nu|, |J_{nu+1}|) throughout the domain (see
    :func:`_beyond_floor`); continuous in ``nu`` across integers.  Raises :class:`DomainError` for non-finite input, outside
    |nu| <= NU_MAX and |w| <= W_MAX, for J_nu(0) at negative non-integer
    nu and for a value outside double range; :class:`AccuracyError`, naming
    w, where |Im w| > FLOOR_IM and |w| - |Im w| > 12.
    """
    nu = float(nu)
    w = complex(w)
    if not (math.isfinite(nu) and cmath.isfinite(w)):
        raise DomainError("bessel_j requires finite nu and w")
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
    if _beyond_floor(w, wmag):
        raise AccuracyError(f"w={w!r} lies beyond the accuracy floor of J "
                            f"(|Im w| > {FLOOR_IM:.3f} and |w| - |Im w| > 12)")
    val = _jv(nu, w)
    if not cmath.isfinite(val):
        # AMOS reports overflow once |J| passes ~1e303, four decades short
        # of the double range; there J_{nu+1} and J_{nu+2} are smaller by
        # factors ~|w|/|2 nu| and one recurrence step reaches J_nu.
        val = (2.0 * (nu + 1.0) / w) * _jv(nu + 1.0, w) - _jv(nu + 2.0, w)
    if not math.isfinite(math.hypot(val.real, val.imag)):
        raise DomainError(f"J_nu(w) at nu={nu!r}, w={w!r} lies outside double range")
    return val


def bessel_j_array(nu: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`bessel_j` elementwise over broadcast arrays.

    Returns (J, refused) and raises nothing.  ``refused`` marks each
    element where ``bessel_j`` raises, and each element whose J is not
    finite here, where ``bessel_j`` may still reach a value by its
    recurrence step: evaluate those through ``bessel_j``.  J is
    unspecified there.  Every other element equals ``bessel_j``'s value
    bit for bit, because the same cut rules pick the same
    ``scipy.special.jv`` call (see the module docstring).
    """
    nu, w = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(w, dtype=complex))
    out = np.empty(w.shape, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        real = (w.imag == 0.0) & (w.real > 0.0)
        lower = np.signbit(w.imag) & ~real
        upper = ~(real | lower)
        out[real] = jv(nu[real], w.real[real])
        out[lower] = jv(nu[lower], w[lower].conj()).conj()
        out[upper] = jv(nu[upper], w[upper])
        at_zero = w == 0
        out[at_zero] = np.where(nu[at_zero] == 0.0, 1.0, 0.0)
        wmag = np.hypot(w.real, w.imag)
        refused = (~(np.isfinite(nu) & np.isfinite(w)) | (np.abs(nu) > NU_MAX)
                   | (wmag > W_MAX) | _beyond_floor(w, wmag)
                   | (at_zero & (nu < 0.0) & (nu != np.floor(nu)))
                   | ~np.isfinite(out))
    return out, refused


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
            from scipy.optimize import brentq
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
    zero must also satisfy |bessel_j| <= TOL_ZERO.  ``count`` follows the
    integer rule of ``PotentialSpec.m`` (2 and 2.0 give 2).
    """
    nu = float(nu)
    count = as_integer("count", count, 1)
    if not math.isfinite(nu):
        raise DomainError(f"order must be finite, got {nu!r}")
    if abs(nu) > NU_MAX:
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
    negative (1/Gamma(nu+1) < 0), grows without bound and has exactly one
    positive zero (Hurwitz 1889; Watson, sec. 15.27), so the window
    1e-4 <= y <= W_MAX is one bracket, refined by Brent's method.
    """
    nu = float(nu)
    if not in_hurwitz_band(nu):
        return None
    for root in _bracketed_roots(lambda y: iv(nu, y) / (0.5 * y) ** nu, (1e-4, W_MAX)):
        loc = complex(0.0, root)
        plus = BesselZero(order=nu, location=loc,
                          kind=ZeroKind.IMAGINARY_AXIS, index=1)
        minus = BesselZero(order=nu, location=-loc,
                           kind=ZeroKind.IMAGINARY_AXIS, index=1)
        return (plus, minus)
    raise ConvergenceError(f"imaginary zero of J_{nu} not found in [1e-4, {W_MAX}]")


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
