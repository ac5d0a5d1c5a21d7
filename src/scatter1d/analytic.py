"""Closed-form scattering amplitudes for the truncated exponential potential.

With gamma = k/k0, a = sqrt(z)/k0 and the interference factor mu of
:func:`scatter1d.potential.mu_factor`, the boundary values of the auxiliary
solution are

    S0(L) = 1 - i pi a mu* J_gamma(a) J_{-gamma-1}(a),
    S1(L) = 1 - (i pi a^2 mu / 2 gamma) J_{gamma+1}(a) J_{-gamma+1}(a),

and the amplitudes follow as

    T   = 2 gamma / D,                 D = 2 gamma - i pi a^2 mu J_{-gamma+1} J_{gamma+1},
    R^r = -i pi a^2 mu* J_{-gamma-1}(a) J_{gamma+1}(a) / D,
    R^l = -i pi a^2 mu  J_{-gamma+1}(a) J_{gamma-1}(a) / D,
    conj(R^r_{v*}) = i pi a^2 mu J_{-gamma+1}(a) J_{gamma-1}(a)
                     / (2 gamma + i pi a^2 mu* J_{-gamma+1} J_{gamma+1}).

The mu*/mu asymmetry between numerators and denominators is genuine (mu
is complex for generic gamma); the a^2 power in the reflection numerators
is confirmed against the direct evolution solver to 1e-13, and R^l
satisfies the time-reversal relation
R^l = T^2 conj(R^r_{v*}) / (R^r conj(R^r_{v*}) - 1), which the validate
suite checks rather than uses.

The same formulas hold at every gamma.  Integer gamma = n is only the
limit mu -> (-1)^(n+1) m, which ``wave_context`` puts into the context
together with the snapped order gamma = n; with J_{-l} = (-1)^l J_l this
is the familiar D_n = 2n - i pi m a^2 J_{n-1} J_{n+1}.  Near-integer gamma
needs nothing more: mu is evaluated through compensated mod-1 reductions,
so the 0/0 structure never surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j, bessel_j_array
from .errors import DegenerateDenominatorError, DomainError
from .potential import WaveContext
from .transfer import SINGULARITY_EPS, ScatteringAmplitudes, _refuse_pole

_PI = math.pi


@dataclass(frozen=True)
class BoundaryValues:
    """S0 and S1 of the auxiliary system evaluated at x = L."""

    s0_L: complex
    s1_L: complex


def boundary_values(ctx: WaveContext) -> BoundaryValues:
    """Closed-form (S0(L), S1(L)); integer gamma through the limit of mu."""
    if ctx.spec.coupling == 0:
        return BoundaryValues(s0_L=complex(1.0), s1_L=complex(1.0))
    a = ctx.a_frak
    g = ctx.gamma
    mu = ctx.mu
    s0 = 1.0 - 1j * _PI * a * mu.conjugate() * bessel_j(g, a) * bessel_j(-g - 1.0, a)
    s1 = 1.0 - (1j * _PI * a * a * mu / (2.0 * g)) \
        * bessel_j(g + 1.0, a) * bessel_j(-g + 1.0, a)
    return BoundaryValues(s0_L=s0, s1_L=s1)


def _denominator(g, a, mu, j_m, j_p):
    """(c, D) with c = i pi a^2 and D = 2 gamma - c mu J_{1-gamma} J_{gamma+1}.

    Python numbers and arrays of them alike, as is :func:`_amplitudes`.
    """
    c = 1j * _PI * (a * a)
    return c, 2.0 * g - c * mu * j_m * j_p


def _amplitudes(g, c, mu, den, j_p, j_m, j_mm, j_pm):
    """(R^l, R^r, T) over the denominator D of :func:`_denominator`."""
    r_left = -c * mu * j_m * j_pm / den
    r_right = -c * mu.conjugate() * j_mm * j_p / den
    return r_left, r_right, 2.0 * g / den


def amplitudes_analytic(ctx: WaveContext) -> ScatteringAmplitudes:
    """Exact (R_left, R_right, T) plus R^r of the conjugate potential.

    One formula for every gamma (see the module docstring).  Refuses poles
    on |M22| = |D|/(2 gamma) as ``amplitudes_from_matrix`` does.
    """
    mu = ctx.mu
    if ctx.spec.coupling == 0 or mu == 0:
        # No potential, or kL in pi Z with gamma non-integer: bidirectionally
        # invisible.
        return ScatteringAmplitudes(r_left=complex(0.0), r_right=complex(0.0),
                                    t=complex(1.0), r_right_conj_potential=complex(0.0))
    a = ctx.a_frak
    g = ctx.gamma
    j_p = bessel_j(g + 1.0, a)
    j_m = bessel_j(-g + 1.0, a)
    j_mm = bessel_j(-g - 1.0, a)
    j_pm = bessel_j(g - 1.0, a)
    c, den = _denominator(g, a, mu, j_m, j_p)
    _refuse_pole(abs(den) / (2.0 * g))
    r_left, r_right, t = _amplitudes(g, c, mu, den, j_p, j_m, j_mm, j_pm)
    rr_conj_star = c * mu * j_m * j_pm / (2.0 * g + c * mu.conjugate() * j_m * j_p)
    return ScatteringAmplitudes(r_left=r_left, r_right=r_right, t=t,
                                r_right_conj_potential=rr_conj_star.conjugate())


def amplitudes_analytic_array(coupling, gamma, a, mu):
    """:func:`amplitudes_analytic` over broadcast arrays of context fields.

    ``coupling``, ``gamma``, ``a`` and ``mu`` are what ``wave_context``
    would put into ``spec.coupling``, ``gamma``, ``a_frak`` and ``mu``.
    Returns (R^l, R^r, T, refused) and raises nothing.  ``refused`` marks
    each element where ``amplitudes_analytic`` raises (a Bessel refusal or
    a pole) and each element whose array J is not finite, where
    ``bessel_j`` may still reach a value: evaluate those through
    ``amplitudes_analytic``.  The amplitudes are unspecified there, and
    equal to its amplitudes bit for bit everywhere else.
    """
    coupling, g, a, mu = np.broadcast_arrays(np.asarray(coupling, dtype=complex),
                                             np.asarray(gamma, dtype=float),
                                             np.asarray(a, dtype=complex),
                                             np.asarray(mu, dtype=complex))
    free = (coupling == 0) | (mu == 0)
    (j_p, bad_p), (j_m, bad_m), (j_mm, bad_mm), (j_pm, bad_pm) = (
        bessel_j_array(nu, a) for nu in (g + 1.0, -g + 1.0, -g - 1.0, g - 1.0))
    # Object arrays of Python floats and complex numbers, so that each
    # element goes through the very arithmetic of amplitudes_analytic.
    # NumPy's complex products and quotients round differently, and
    # |T - 1| = |2 gamma/D - 1| would magnify that by 1/|T - 1|.
    g_o, a_o, mu_o, j_p, j_m, j_mm, j_pm = (
        x.astype(object) for x in (g, a, mu, j_p, j_m, j_mm, j_pm))
    c, den = _denominator(g_o, a_o, mu_o, j_m, j_p)
    den = den.astype(complex)
    with np.errstate(all="ignore"):
        pole = np.hypot(den.real, den.imag) / (2.0 * g) < SINGULARITY_EPS
    den[den == 0] = np.nan  # a pole; Python's complex division would raise
    r_left, r_right, t = (x.astype(complex) for x in _amplitudes(
        g_o, c, mu_o, den.astype(object), j_p, j_m, j_mm, j_pm))
    r_left[free] = r_right[free] = 0.0
    t[free] = 1.0
    refused = ~free & (bad_p | bad_m | bad_mm | bad_pm | pole)
    return r_left, r_right, t, refused


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
