"""Closed-form scattering amplitudes for the truncated exponential potential.

For non-integer gamma the boundary values of the auxiliary solution are

    S0(L) = 1 - i pi a mu* J_gamma(a) J_{-gamma-1}(a),
    S1(L) = 1 - (i pi a^2 mu / 2 gamma) J_{gamma+1}(a) J_{-gamma+1}(a),

and the amplitudes follow as

    R^r = -i pi a^2 mu* J_{-gamma-1}(a) J_{gamma+1}(a) / D,
    T   = 2 gamma / D,                 D = 2 gamma - i pi a^2 mu J_{-gamma+1} J_{gamma+1},
    conj(R^r_{v*}) = i pi a^2 mu J_{-gamma+1}(a) J_{gamma-1}(a)
                     / (2 gamma + i pi a^2 mu* J_{-gamma+1} J_{gamma+1}),

with R_left recovered from the time-reversal relation
R^l = T^2 conj(R^r_{v*}) / (R^r conj(R^r_{v*}) - 1).  The mu*/mu asymmetry
between numerators and denominators is genuine (mu is complex for generic
gamma); the a^2 power in the reflection numerators is fixed by the
integer-gamma limit and confirmed against the direct evolution solver to
1e-13.  Integer gamma = n uses the exact limits (mu -> (-1)^(n+1) m and
J_{-l} = (-1)^l J_l):

    R^r = -i pi m a^2 J_{n+1}^2 / D_n,     T = 2n / D_n,
    R^l = -i pi m a^2 J_{n-1}^2 / D_n,     D_n = 2n - i pi m a^2 J_{n-1} J_{n+1},
    conj(R^r_{v*}) = i pi m a^2 J_{n-1}^2 / (2n + i pi m a^2 J_{n-1} J_{n+1}).

Near-integer gamma needs no special casing beyond the snap in
``wave_context``: mu is evaluated through compensated mod-1 reductions, so
the 0/0 structure never surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import bessel_j
from .errors import DegenerateDenominatorError, DomainError
from .potential import WaveContext
from .transfer import TIME_REVERSAL_EPS, ScatteringAmplitudes, _refuse_pole

_PI = math.pi


@dataclass(frozen=True)
class BoundaryValues:
    """S0 and S1 of the auxiliary system evaluated at x = L."""

    s0_L: complex
    s1_L: complex


def boundary_values(ctx: WaveContext) -> BoundaryValues:
    """Closed-form (S0(L), S1(L)); non-integer gamma only."""
    if ctx.gamma_is_integer:
        raise DomainError("boundary_values requires non-integer gamma; "
                          "amplitudes_analytic handles the integer limit")
    if ctx.spec.coupling == 0:
        return BoundaryValues(s0_L=complex(1.0), s1_L=complex(1.0))
    a = ctx.a_frak
    g = ctx.gamma
    mu = ctx.mu
    s0 = 1.0 - 1j * _PI * a * mu.conjugate() * bessel_j(g, a) * bessel_j(-g - 1.0, a)
    s1 = 1.0 - (1j * _PI * a * a * mu / (2.0 * g)) \
        * bessel_j(g + 1.0, a) * bessel_j(-g + 1.0, a)
    return BoundaryValues(s0_L=s0, s1_L=s1)


def amplitudes_analytic(ctx: WaveContext) -> ScatteringAmplitudes:
    """Exact (R_left, R_right, T) plus R^r of the conjugate potential.

    Refuses poles on |M22| = |D|/(2 gamma) as ``amplitudes_from_matrix`` does.
    """
    if ctx.spec.coupling == 0:
        return ScatteringAmplitudes(r_left=complex(0.0), r_right=complex(0.0),
                                    t=complex(1.0), r_right_conj_potential=complex(0.0))
    a = ctx.a_frak
    a2 = a * a
    if ctx.gamma_is_integer:
        n = ctx.gamma_integer
        m = ctx.spec.m
        jm = bessel_j(n - 1.0, a)
        jp = bessel_j(n + 1.0, a)
        c = 1j * _PI * m * a2
        den = 2.0 * n - c * jm * jp
        _refuse_pole(abs(den) / (2.0 * n))
        r_right = -c * jp * jp / den
        t = 2.0 * n / den
        r_left = -c * jm * jm / den
        rr_conj_star = c * jm * jm / (2.0 * n + c * jm * jp)
        return ScatteringAmplitudes(r_left=r_left, r_right=r_right, t=t,
                                    r_right_conj_potential=rr_conj_star.conjugate())

    g = ctx.gamma
    mu = ctx.mu
    if mu == 0:
        # kL in pi Z with gamma non-integer: bidirectionally invisible.
        return ScatteringAmplitudes(r_left=complex(0.0), r_right=complex(0.0),
                                    t=complex(1.0), r_right_conj_potential=complex(0.0))
    j_p = bessel_j(g + 1.0, a)
    j_m = bessel_j(-g + 1.0, a)
    j_mm = bessel_j(-g - 1.0, a)
    j_pm = bessel_j(g - 1.0, a)
    c = 1j * _PI * a2
    den = 2.0 * g - c * mu * j_m * j_p
    _refuse_pole(abs(den) / (2.0 * g))
    r_right = -c * mu.conjugate() * j_mm * j_p / den
    t = 2.0 * g / den
    den_c = 2.0 * g + c * mu.conjugate() * j_m * j_p
    rr_conj_star = c * mu * j_m * j_pm / den_c
    t1_den = r_right * rr_conj_star - 1.0
    if abs(t1_den) < TIME_REVERSAL_EPS:
        raise DegenerateDenominatorError(
            "R^r conj(R^r_{v*}) - 1 vanishes; left amplitude undefined by this route")
    r_left = t * t * rr_conj_star / t1_den
    return ScatteringAmplitudes(r_left=r_left, r_right=r_right, t=t,
                                r_right_conj_potential=rr_conj_star.conjugate())


def amplitudes_perturbative(ctx: WaveContext) -> ScatteringAmplitudes:
    """Leading small-coupling terms at integer gamma = n.

    In powers of w = z/k0^2 = a^2:
        R^r   = -i pi m w^{n+2} / (2^{2n+3} n ((n+1)!)^2),
        T - 1 =  i pi m w^{n+1} / (2^{2n+1} n! (n+1)!),
        R^l   = -i pi m w^{n}   / (2^{2n-1} n ((n-1)!)^2).
    """
    if not ctx.gamma_is_integer:
        raise DomainError("perturbative amplitudes are defined at integer gamma only")
    n = ctx.gamma_integer
    if n < 1:
        raise DomainError("n must be a positive integer")
    m = ctx.spec.m
    w = ctx.a_frak ** 2
    r_right = -1j * _PI * m * w ** (n + 2) / (2 ** (2 * n + 3) * n * math.factorial(n + 1) ** 2)
    t = 1.0 + 1j * _PI * m * w ** (n + 1) / (2 ** (2 * n + 1) * math.factorial(n) * math.factorial(n + 1))
    r_left = -1j * _PI * m * w ** n / (2 ** (2 * n - 1) * n * math.factorial(n - 1) ** 2)
    return ScatteringAmplitudes(r_left=r_left, r_right=r_right, t=t)


def invisibility_quality(ctx: WaveContext) -> tuple[float, float]:
    """Effectiveness ratios (|R^r/R^l|, |(T-1)/R^l|) from exact amplitudes.

    Leading behavior |a|^4/(16 n^2 (n+1)^2) and |a|^2/(4 n (n+1)): both
    independent of m and decreasing in n.
    """
    amps = amplitudes_analytic(ctx)
    mag = abs(amps.r_left)
    if mag < 1e-14:
        raise DegenerateDenominatorError("R_left is numerically zero; ratios undefined")
    return abs(amps.r_right) / mag, abs(amps.t - 1.0) / mag
