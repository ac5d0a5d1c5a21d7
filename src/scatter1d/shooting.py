"""Independent scattering oracle: second-order Schrodinger shooting.

Integrates -psi'' + v psi = k^2 psi over one period [a_lo, a_lo + d],
d = (a_hi - a_lo) / ``cells``, for the fundamental matrix Phi that carries
(psi, psi') across the cell.  The equation is invariant under a shift by d
when v is, so the whole support is crossed by Phi^m, m = ``cells``, with no
phase correction; one 4-component solve then serves both incidence
directions, matched to plane waves at the edges.  The DOP853 driver (the
package's own stepper on Python complex scalars, with scipy's tableau and
step control), its one step tolerance and the matrix power come from
:mod:`scatter1d.transfer` (``_evolve`` and ``_cell_power``).  This route's
independence of the coefficient evolution lies in its equation (psi and
psi' here, the coefficient pair (A, B) there) and in its plane-wave
matching.  The two must agree to integration tolerance and are
cross-checked in the validation suites.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import ConvergenceError
from .potential import check_wavenumber
from .transfer import SampledPotential, ScatteringAmplitudes, _cell_power, _evolve


def shooting_amplitudes(pot: SampledPotential, k: float) -> ScatteringAmplitudes:
    """(R_left, R_right, T) by shooting one cell and plane-wave matching.

    Raises :class:`DomainError` if the potential is not finite at a_lo, and
    :class:`ConvergenceError` if the cell solve fails or the composed
    propagator Phi^m is not finite or not invertible.
    """
    check_wavenumber(k)
    a_lo, a_hi = pot.support
    cells = pot.cells
    v = pot.evaluate
    k2 = k * k

    def rhs(x, y):
        p1, p2, dp1, dp2 = y
        q = v(x) - k2
        return (dp1, dp2, q * p1, q * p2)

    # Phi = [[psi_1, psi_2], [psi_1', psi_2']], row-major, from the identity
    cell = _evolve(rhs, a_lo, a_lo + (a_hi - a_lo) / cells, (1, 0, 0, 1), k,
                   "shooting")[1][:, -1].reshape(2, 2)
    phi = _cell_power(cell, cells, k, "shooting propagator")

    # Left-incident: psi = e^{ikx} beyond a_hi, so Phi^m s_lo = s_hi.
    # Right-incident: psi = e^{-ikx} below a_lo, so s_hi = Phi^m s_lo.
    left_hi = cmath.exp(1j * k * a_hi) * np.array([1, 1j * k])
    right_lo = cmath.exp(-1j * k * a_lo) * np.array([1, -1j * k])
    with np.errstate(all="ignore"):
        right_hi = phi @ right_lo
    if not np.isfinite(right_hi).all():
        raise ConvergenceError(
            f"shooting propagator entries are not finite at k={k!r} over {cells} cells")
    try:
        left_lo = np.linalg.solve(phi, left_hi)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"shooting propagator is singular at k={k!r} over {cells} cells") from exc

    p, dp = map(complex, left_lo)
    a_coef = cmath.exp(-1j * k * a_lo) * (1j * k * p + dp) / (2j * k)
    b_coef = cmath.exp(1j * k * a_lo) * (1j * k * p - dp) / (2j * k)
    p, dp = map(complex, right_hi)
    c_coef = cmath.exp(-1j * k * a_hi) * (1j * k * p + dp) / (2j * k)
    d_coef = cmath.exp(1j * k * a_hi) * (1j * k * p - dp) / (2j * k)
    return ScatteringAmplitudes(r_left=b_coef / a_coef, r_right=c_coef / d_coef,
                                t=1.0 / a_coef)
