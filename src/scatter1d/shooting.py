"""Independent scattering oracle: second-order Schrodinger shooting.

Integrates -psi'' + v psi = k^2 psi across the support with scipy's DOP853
and matches plane waves at the edges.  Deliberately shares no code with the
coefficient-evolution path in :mod:`scatter1d.transfer`; the two must agree
to integration tolerance and are cross-checked in the validation suites.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConvergenceError, DomainError
from .transfer import SampledPotential, ScatteringAmplitudes

#: Relative and absolute tolerances of the DOP853 integration.
RTOL, ATOL = 1e-11, 1e-13


def shooting_amplitudes(pot: SampledPotential, k: float) -> ScatteringAmplitudes:
    """(R_left, R_right, T) by shooting and plane-wave matching."""
    if not (k > 0.0 and math.isfinite(k)):
        raise DomainError("k must be positive and finite")
    a_lo, a_hi = pot.support
    v = pot.evaluate

    def rhs(x, y):
        return [y[1], (v(x) - k * k) * y[0]]

    # Left-incident: psi = e^{ikx} beyond a_hi, integrate backwards.
    psi = cmath.exp(1j * k * a_hi)
    sol = solve_ivp(rhs, (a_hi, a_lo), np.array([psi, 1j * k * psi]),
                    method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise ConvergenceError(f"backward shooting failed: {sol.message}")
    p, dp = sol.y[0, -1], sol.y[1, -1]
    a_coef = cmath.exp(-1j * k * a_lo) * (1j * k * p + dp) / (2j * k)
    b_coef = cmath.exp(1j * k * a_lo) * (1j * k * p - dp) / (2j * k)
    t = 1.0 / a_coef
    r_left = b_coef / a_coef

    # Right-incident: psi = e^{-ikx} below a_lo, integrate forwards.
    psi = cmath.exp(-1j * k * a_lo)
    sol = solve_ivp(rhs, (a_lo, a_hi), np.array([psi, -1j * k * psi]),
                    method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise ConvergenceError(f"forward shooting failed: {sol.message}")
    p, dp = sol.y[0, -1], sol.y[1, -1]
    c_coef = cmath.exp(-1j * k * a_hi) * (1j * k * p + dp) / (2j * k)
    d_coef = cmath.exp(1j * k * a_hi) * (1j * k * p - dp) / (2j * k)
    return ScatteringAmplitudes(r_left=r_left, r_right=c_coef / d_coef, t=t)
