"""Invisibility classification and design for the truncated exponential slab.

A configuration (spec, k) is

* bidirectionally invisible  iff mu = 0, i.e. kL is a multiple of pi but
  gamma = k/k0 is not an integer;
* unidirectionally right-invisible iff a = sqrt(z)/k0 is a zero of
  J_{gamma+1} (then R^r = 0 and T = 1 while R^l != 0);
* unidirectionally left-invisible iff a is a zero of J_{-gamma+1}.

"Invisible from the left" here means R^l = 0 and T = 1; the raw witness
magnitudes are kept on the verdict so the opposite naming convention can
be applied without recomputation.  The classifier evaluates both the
zero-structure predicate and the closed-form amplitudes; a disagreement
(which would indicate either a numerical fault or a common zero of
J_{gamma+1} and J_{-gamma+1}, conjectured not to exist) is attached to
the verdict as a structured report rather than raised.  Designs, like
verdicts, take gamma from :func:`scatter1d.potential.snap_gamma`.

Note the convention: a is normalized against k0, not against k.  With the
k-normalization the design equations below would not reproduce their own
worked example; the k0 form is also what the amplitude formulas verify
against the direct solver.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .analytic import amplitudes_analytic, amplitudes_analytic_array
from .bessel import bessel_j, check_order, imaginary_zeros, real_zeros
from .errors import (DomainError, NoSolutionError, Scatter1dError,
                     SpectralSingularityError)
from .potential import (PotentialSpec, WaveContext, as_integer, from_permittivity,
                        mu_factor_array, snap_gamma, snap_gamma_array, wave_context)

#: Amplitude magnitude below which a channel counts as extinguished.
VERDICT_EPS_ANALYTIC = 1e-9
#: |J_nu/J_{nu+1}| (the Newton step of the entire J_nu(a)/a^nu) below which a is a zero.
ZERO_PREDICATE_EPS = 1e-8

FIG1_GAMMA = 2.0062
FIG1_M = 243
FIG1_L_UM = 260.0

SWEEP_CSV_HEADER = ("lambda_nm", "abs_R_left", "abs_R_right", "abs_T_minus_1")


class VerdictKind(str, Enum):
    BIDIRECTIONAL = "bidirectional"
    LEFT_ONLY = "left_only"
    RIGHT_ONLY = "right_only"
    VISIBLE = "visible"


class Mechanism(str, Enum):
    MU_ZERO = "mu_zero"
    BESSEL_ZERO_RIGHT = "bessel_zero_right"
    BESSEL_ZERO_LEFT = "bessel_zero_left"
    NONE = "none"


@dataclass(frozen=True)
class InvisibilityVerdict:
    kind: VerdictKind
    mechanism: Mechanism
    abs_r_left: float
    abs_r_right: float
    abs_t_minus_1: float
    inconsistency: Optional[dict] = None

    @property
    def witnesses(self) -> tuple[float, float, float]:
        return (self.abs_r_left, self.abs_r_right, self.abs_t_minus_1)


@dataclass(frozen=True)
class DesignPoint:
    a_frak: complex
    eps0: complex
    gamma: float
    side: str


@dataclass(frozen=True)
class SweepData:
    lambda_nm: np.ndarray
    abs_r_left: np.ndarray
    abs_r_right: np.ndarray
    abs_t_minus_1: np.ndarray

    def csv_text(self) -> str:
        """RFC 4180 text: CRLF line endings and 17 significant digits, so the
        file round-trips doubles exactly and reruns are byte-identical."""
        values = np.column_stack((self.lambda_nm, self.abs_r_left,
                                  self.abs_r_right, self.abs_t_minus_1))
        rows = ("%.17g,%.17g,%.17g,%.17g\r\n" * len(values)) % tuple(values.ravel().tolist())
        return ",".join(SWEEP_CSV_HEADER) + "\r\n" + rows

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())


def _expected_kind(mechanism: Mechanism) -> VerdictKind:
    return {
        Mechanism.MU_ZERO: VerdictKind.BIDIRECTIONAL,
        Mechanism.BESSEL_ZERO_RIGHT: VerdictKind.RIGHT_ONLY,
        Mechanism.BESSEL_ZERO_LEFT: VerdictKind.LEFT_ONLY,
        Mechanism.NONE: VerdictKind.VISIBLE,
    }[mechanism]


def classify(ctx: WaveContext) -> InvisibilityVerdict:
    """Classify (spec, k) and corroborate the predicate with amplitudes."""
    if ctx.spec.coupling == 0:
        raise DomainError("classification needs a nonzero coupling")

    g, a = ctx.gamma, ctx.a_frak
    j_right, j_left = bessel_j(g + 1.0, a), bessel_j(1.0 - g, a)
    # J_{gamma+2} by the recurrence, so no order passes gamma + 1
    j_right_next = 2.0 * (g + 1.0) / a * j_right - bessel_j(g, a)
    zero_right = abs(j_right) < ZERO_PREDICATE_EPS * abs(j_right_next)
    zero_left = abs(j_left) < ZERO_PREDICATE_EPS * abs(bessel_j(2.0 - g, a))
    if ctx.mu == 0:
        mechanism = Mechanism.MU_ZERO
    elif zero_right and not zero_left:
        mechanism = Mechanism.BESSEL_ZERO_RIGHT
    elif zero_left and not zero_right:
        mechanism = Mechanism.BESSEL_ZERO_LEFT
    else:
        mechanism = Mechanism.NONE

    try:
        amps = amplitudes_analytic(ctx)
        rl, rr, t1 = abs(amps.r_left), abs(amps.r_right), abs(amps.t_minus_1)
    except SpectralSingularityError:
        rl = rr = t1 = math.inf

    eps = VERDICT_EPS_ANALYTIC
    left_ok, right_ok, trans_ok = (v < eps for v in (rl, rr, t1))
    if left_ok and right_ok and trans_ok:
        kind = VerdictKind.BIDIRECTIONAL
    elif left_ok and trans_ok:
        kind = VerdictKind.LEFT_ONLY
    elif right_ok and trans_ok:
        kind = VerdictKind.RIGHT_ONLY
    else:
        kind = VerdictKind.VISIBLE

    inconsistency = None
    if zero_left and zero_right and ctx.mu != 0:
        # Would be a common zero of J_{gamma+1} and J_{-gamma+1}: report it,
        # never assert.
        inconsistency = {
            "type": "common_zero_candidate",
            "gamma": ctx.gamma,
            "a_re": ctx.a_frak.real,
            "a_im": ctx.a_frak.imag,
            "abs_j_right": abs(j_right),
            "abs_j_left": abs(j_left),
            "witnesses": [rl, rr, t1],
        }
    elif kind != _expected_kind(mechanism):
        # Only escalate when the witnesses are decisively on the wrong side.
        if all(v < eps or v > 10.0 * eps for v in (rl, rr, t1)):
            inconsistency = {
                "type": "predicate_witness_mismatch",
                "gamma": ctx.gamma,
                "a_re": ctx.a_frak.real,
                "a_im": ctx.a_frak.imag,
                "mechanism": mechanism.value,
                "witness_kind": kind.value,
                "witnesses": [rl, rr, t1],
            }

    return InvisibilityVerdict(kind=kind, mechanism=mechanism,
                               abs_r_left=rl, abs_r_right=rr, abs_t_minus_1=t1,
                               inconsistency=inconsistency)


def design_unidirectional(gamma: float, side: str,
                          zero_selector: Union[int, str] = 1) -> DesignPoint:
    """Coupling and permittivity that make the slab invisible from ``side``.

    ``zero_selector`` is either a 1-based index into the positive real-axis
    zeros of the relevant Bessel function, or ``"imaginary_pair"`` for the
    purely imaginary pair (left side, gamma in (2p, 2p+1) with p >= 1, the
    case realizable with an ordinary eps0 > 1 material), at
    ``snap_gamma(gamma)``.  A gamma that rule refuses, or with
    gamma + 1 > NU_MAX (any design's amplitudes need J_{gamma+1}), raises
    :class:`DomainError`.
    """
    gamma = snap_gamma(gamma)
    check_order(gamma + 1.0, "gamma", gamma)
    if side not in ("left", "right"):
        raise DomainError("side must be 'left' or 'right'")
    order = -gamma + 1.0 if side == "left" else gamma + 1.0
    if zero_selector == "imaginary_pair":
        y = imaginary_zeros(order)
        if y is None:
            raise NoSolutionError(
                f"J_{order:g} has no purely imaginary zeros; for side='left' "
                "they require gamma in (2p, 2p+1) with p >= 1")
        rho = complex(0.0, y)
    elif (isinstance(zero_selector, numbers.Integral)
          and not isinstance(zero_selector, bool)):
        if zero_selector < 1:
            raise DomainError("zero index must be >= 1")
        rho = complex(real_zeros(order, int(zero_selector))[-1])
    else:
        raise DomainError("zero_selector must be a positive index or 'imaginary_pair'")
    eps0 = 1.0 - rho * rho / (gamma * gamma)
    return DesignPoint(a_frak=rho, eps0=eps0, gamma=gamma, side=side)


def fig1_design_point() -> DesignPoint:
    """The worked left-invisible example: gamma = 2.0062, imaginary pair."""
    return design_unidirectional(FIG1_GAMMA, "left", "imaginary_pair")


def fig1_design_wavelength_nm(gamma: float = FIG1_GAMMA, m: int = FIG1_M,
                              L_um: float = FIG1_L_UM) -> float:
    """Vacuum wavelength (nm) at which k = gamma * k0 for the slab."""
    return 2000.0 * L_um / (gamma * m)


def wavelength_sweep(eps0: complex, m: int, L_um: float,
                     lambdas_nm: np.ndarray,
                     coupling: Optional[complex] = None) -> SweepData:
    """|R^l|, |R^r|, |T-1| over a wavelength grid for a fixed material.

    With ``coupling`` given, the coupling is held fixed instead of the
    permittivity (eps0 is then ignored).

    The grid runs in one array pass of the closed form
    (:func:`scatter1d.analytic.amplitudes_analytic_array`), and each row
    equals ``amplitudes_analytic(wave_context(spec, k))`` bit for bit.
    The sweep refuses exactly what that scalar path refuses: the samples
    the array pass flags, and those whose array J is not finite, go
    through the scalar path in order, so the first refused wavelength
    raises its error, prefixed ``lambda = ... nm:``.
    """
    lambdas_nm = np.asarray(lambdas_nm, dtype=float)
    fixed = PotentialSpec(coupling=0.0 if coupling is None else coupling, m=m, L=L_um)
    with np.errstate(all="ignore"):
        k = 2000.0 * math.pi / lambdas_nm  # rad per micrometer
        z = fixed.coupling if coupling is not None else k * k * (1.0 - complex(eps0))
        gamma = snap_gamma_array(k * fixed.L / (math.pi * fixed.m))
        # sqrt(z)/k0 part by part, as Python divides a complex by a float
        root = np.sqrt(np.asarray(z, dtype=complex))
        a = root.real / fixed.k0 + 1j * (root.imag / fixed.k0)
        r_left, r_right, t_minus_1, refused = amplitudes_analytic_array(
            z, gamma, a, mu_factor_array(gamma, fixed.m))
        rows = np.column_stack([np.hypot(v.real, v.imag) for v in (r_left, r_right, t_minus_1)])
    refused |= ~((k > 0.0) & np.isfinite(k)) | (gamma == 0.0) | ~np.isfinite(rows).all(axis=1)
    for i in np.flatnonzero(refused):
        rows[i] = _scalar_sample(eps0, coupling, fixed, float(k[i]), float(lambdas_nm[i]))
    return SweepData(lambda_nm=lambdas_nm.copy(), abs_r_left=rows[:, 0],
                     abs_r_right=rows[:, 1], abs_t_minus_1=rows[:, 2])


def _scalar_sample(eps0: complex, coupling: Optional[complex], fixed: PotentialSpec,
                   k: float, lam_nm: float) -> tuple[float, float, float]:
    """One sweep row through ``amplitudes_analytic``; errors name ``lam_nm``."""
    try:
        spec = fixed if coupling is not None else from_permittivity(eps0, k, fixed.m, fixed.L)
        amps = amplitudes_analytic(wave_context(spec, k))
    except Scatter1dError as exc:
        exc.args = (f"lambda = {lam_nm:.6f} nm: {exc.args[0]}",) + exc.args[1:]
        raise
    return abs(amps.r_left), abs(amps.r_right), abs(amps.t_minus_1)


def fig1_sweep(lambda_min_nm: float = 1050.0, lambda_max_nm: float = 1080.0,
               samples: int = 2000, eps0: Optional[complex] = None,
               m: int = FIG1_M, L_um: float = FIG1_L_UM) -> SweepData:
    """The unidirectional-invisibility sweep around the design wavelength.

    When ``eps0`` is omitted it is refined from the exact imaginary Bessel
    zero rather than taken from the rounded literature value, which pushes
    the residual reflection at the design wavelength to the 1e-13 level.
    """
    samples = as_integer("samples", samples, 2)
    if eps0 is None:
        eps0 = fig1_design_point().eps0
    lambdas = np.linspace(lambda_min_nm, lambda_max_nm, samples)
    return wavelength_sweep(eps0, m, L_um, lambdas)
