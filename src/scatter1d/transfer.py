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
composition.  The time-reversal route to R_left adds no evolution of its
own: for real k its relation reduces to -M21/(M22 det M), the direct
R_left over det M.

Every evolution runs the 8th-order Dormand-Prince pair DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.10) at rtol = atol =
``_STEP_TOL`` through :func:`_evolve`, the package's one DOP853 driver,
within a step budget set by |k| and the span.  Its stepper,
:func:`_dop853`, works on n-tuples of Python complex (n = 4 for the
coefficient and shooting propagators, 3 for (S0, S1) and the integral)
and repeats the steps of scipy's ``solve_ivp(method="DOP853")``: the
same tableau, the same initial step and the same step-size controller.
Each step is straight-line code, :func:`_step`, generated once per n on
the first solve from the nonzero entries of scipy's tableau, which this
module holds as literals, with the tolerance passed in per call.  No
numpy enters the step: numpy's complex multiply and ``abs`` round
differently from Python's (fused multiply-add), and every step size
depends on the last bit of the error estimate.  The shooting oracle in
:mod:`scatter1d.shooting` drives it, at the same tolerance, and composes
its cell through :func:`_cell_power`, for a different equation.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConvergenceError, DomainError, NearZeroError,
                     SpectralSingularityError)
from .potential import PotentialSpec, as_integer, check_wavenumber, evaluate_potential

#: |M22| below which a configuration is reported as a spectral singularity
#: (|T| above 1e8) instead of dividing: the one pole threshold of every route.
SINGULARITY_EPS = 1e-8
#: rtol = atol of every DOP853 solve, the double 0.05 * 1e-10 (every step depends on it).
_STEP_TOL = 5.0000000000000005e-12
#: Accepted steps a solve may take per unit of 1 + |k| span: every solve
#: measured stays below 1/50 of it (156 steps at |k| span = 2.7 come closest).
_STEP_BUDGET = 2500


@dataclass(frozen=True)
class TransferMatrix:
    """M, which maps (A, B) left of the support to (A, B) right of it; k is the caller's."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

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
                   evaluate=functools.partial(evaluate_potential, spec),
                   cells=spec.m)

    def conjugate(self) -> "SampledPotential":
        ev = self.evaluate
        return SampledPotential(support=self.support,
                                evaluate=lambda x: ev(x).conjugate(),
                                cells=self.cells)


#: scipy's DOP853 tableau (``scipy.integrate._ivp.dop853_coefficients``, from
#: Hairer's dop853.f), the 12 stages the step uses, each entry the repr of
#: scipy's double: nodes C, stage weights A (row s holds A[s, :s]), the
#: 8th-order weights B and the error weights E5 and E3, whose 13th entry,
#: on f(x + h, y_new), is zero.  Written out so that no solve loads
#: ``scipy.integrate``; a test compares them with scipy's arrays bit for bit.
_DOP853_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0
)

_DOP853_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
)

_DOP853_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259
)

_DOP853_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294
)

_DOP853_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082
)


@functools.cache
def _step(n: int) -> Callable:
    """The straight-line DOP853 step for n-component states, generated once per n.

    ``step(rhs, x, h, y, f, tol)`` returns (y_new, err5, err3): the 8th-order
    state at x + h and the squared err5 and err3 sums of scipy's error
    norm, each component scaled by tol + max(|y|, |y_new|) tol.  Its
    source holds one line per stage and per sum, written out from the
    nonzero entries of the ``_DOP853_*`` tableau.  Every weight is a
    complex constant w + 0j: a float weight would first try
    ``float.__mul__``, which returns NotImplemented, and then form the
    same complex product with the same bits.  Each sum starts at 0j and
    adds its terms in stage order, as a loop over the tableau would.
    """
    def names(prefix: str) -> str:
        return ", ".join(f"{prefix}{i}" for i in range(n))

    def weighted(weights, i: int) -> str:
        return " + ".join(["0j"] + [f"{complex(w)!r} * k{j}_{i}"
                                    for j, w in enumerate(weights) if w])

    lines = ["def step(rhs, x, h, y, f, tol):",
             f"    {names('y')}, = y",
             f"    {names('k0_')}, = f"]
    for s in range(1, len(_DOP853_C)):
        args = ", ".join(f"y{i} + ({weighted(_DOP853_A[s], i)}) * h" for i in range(n))
        lines.append(f"    {names(f'k{s}_')}, = rhs(x + {_DOP853_C[s]!r} * h, ({args},))")
    for i in range(n):
        lines += [f"    n{i} = y{i} + h * ({weighted(_DOP853_B, i)})",
                  f"    p{i} = {weighted(_DOP853_E5, i)}",
                  f"    q{i} = {weighted(_DOP853_E3, i)}"]
    lines.append("    err5 = err3 = 0.0")
    for i in range(n):
        lines += [f"    a = abs(y{i})",
                  f"    b = abs(n{i})",
                  "    s = tol + (b if b > a else a) * tol",  # max(a, b), NaN included
                  f"    re = p{i}.real / s",
                  f"    im = p{i}.imag / s",
                  "    err5 += re * re + im * im",
                  f"    re = q{i}.real / s",
                  f"    im = q{i}.imag / s",
                  "    err3 += re * re + im * im"]
    lines.append(f"    return ({names('n')},), err5, err3")
    namespace: dict = {}
    exec(compile("\n".join(lines) + "\n", f"<dop853 step, n={n}>", "exec"), namespace)
    return namespace["step"]


def _rms(v: Sequence[complex], scale: Sequence[float]) -> float:
    """scipy's RMS norm of v / scale."""
    sq = 0.0
    for c, s in zip(v, scale):
        re, im = c.real / s, c.imag / s
        sq += re * re + im * im
    return math.sqrt(sq) / len(v) ** 0.5


def _dop853(rhs: Callable[[float, tuple], tuple], x0: float, x1: float,
            y: tuple, f: tuple, n: int, max_steps: float) -> tuple[list, list]:
    """Accepted DOP853 points from x0 to x1 > x0 and the n-tuple states there.

    Each step is the straight-line :func:`_step` for n components, at the
    tolerance ``_STEP_TOL`` holds when the solve starts.  The step control
    is scipy's ``DOP853`` at rtol = atol = that tolerance:
    ``select_initial_step`` of order 7, safety 0.9, factors within
    [0.2, 10], exponent -1/8, the err5/err3 norm over the n components,
    and no growth on the step that follows a rejection.  ``f`` is
    rhs(x0, y); f(x, y) at a new point is formed only once its step is
    accepted.  Raises :class:`ConvergenceError` once h falls below 10 ulp
    of x, or once ``max_steps`` accepted steps have not reached x1.
    """
    step = _step(n)
    tol = _STEP_TOL
    scale = [tol + abs(c) * tol for c in y]
    span = x1 - x0
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = rhs(x0 + h0, tuple(c + h0 * g for c, g in zip(y, f)))
    d2 = _rms([p - q for p, q in zip(f1, f)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, span)

    x, xs, ys = x0, [x0], [y]
    while x < x1:
        if len(xs) > max_steps:
            raise ConvergenceError(f"{len(xs) - 1} accepted steps reached only x={x!r}")
        min_step = 10 * (math.nextafter(x, math.inf) - x)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also a NaN step
                raise ConvergenceError(f"step size fell below 10 ulp of x={x!r}")
            x_new = min(x + h_abs, x1)
            h = h_abs = x_new - x
            y_new, err5, err3 = step(rhs, x, h, y, f, tol)
            if err5 == 0 and err3 == 0:
                norm = 0.0
            else:
                norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * n)
            if norm < 1:
                factor = 10.0 if norm == 0 else min(10.0, 0.9 * norm ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * norm ** -0.125)
            rejected = True
        x, y = x_new, y_new
        xs.append(x)
        ys.append(y)
        if x < x1:
            f = rhs(x, y)
    return xs, ys


def _evolve(rhs: Callable[[float, tuple], tuple],
            x0: float, x1: float, y0: Sequence[complex], k: float,
            route: str) -> tuple[np.ndarray, np.ndarray]:
    """Accepted DOP853 points from x0 to x1 and the states there, one per column.

    ``rhs(x, y)`` takes and returns n-tuples of Python complex, n =
    ``len(y0)``.  Raises :class:`DomainError` naming ``route``, ``k`` and
    ``x0`` if the right-hand side is not finite at the start, and
    :class:`ConvergenceError` naming ``route`` and ``k`` if the solve
    overflows, divides by zero, shrinks its step below 10 ulp of x or
    spends ``_STEP_BUDGET`` (1 + |k| (x1 - x0)) accepted steps short of x1.
    """
    y = tuple(map(complex, y0))
    try:
        f = rhs(x0, y)
        if not all(map(cmath.isfinite, f)):
            raise DomainError(
                f"{route} right-hand side is not finite at x0={x0!r} for k={k!r}")
        xs, ys = _dop853(rhs, x0, x1, y, f, len(y),
                         _STEP_BUDGET * (1.0 + abs(k) * (x1 - x0)))
    except (OverflowError, ZeroDivisionError, ConvergenceError) as exc:
        raise ConvergenceError(f"{route} failed at k={k!r}: {exc}") from exc
    return np.array(xs), np.array(ys, dtype=complex).T


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

    def rhs(x: float, y: tuple) -> tuple[complex, complex, complex, complex]:
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

    m1 = _evolve(rhs, a_lo, a_lo + d, (1, 0, 0, 1), k, "evolution")[1][:, -1].reshape(2, 2)
    p_inv = np.array([[cmath.exp(1j * k * d)], [cmath.exp(-1j * k * d)]])
    p_m = np.array([[cmath.exp(-1j * k * cells * d)], [cmath.exp(1j * k * cells * d)]])
    m = p_m * _cell_power(p_inv * m1, cells, k, "transfer matrix")
    m11, m12, m21, m22 = map(complex, m.ravel())
    return TransferMatrix(m11=m11, m12=m12, m21=m21, m22=m22)


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


def matrix_from_amplitudes(amps: ScatteringAmplitudes) -> TransferMatrix:
    """Inverse of :func:`amplitudes_from_matrix`; used as a consistency check.

    The entries follow from (R_left, R_right, T) alone, with det M = 1.
    """
    t = amps.t
    return TransferMatrix(m11=t - amps.r_left * amps.r_right / t,
                          m12=amps.r_right / t,
                          m21=-amps.r_left / t,
                          m22=1.0 / t)


def left_reflection_via_conjugate(pot: SampledPotential, k: float) -> complex:
    """R_left through the time-reversal relation: -M21/(M22 det M).

    For real k the conjugate potential's matrix is sigma_x conj(M) sigma_x,
    so conj(R^r_{v*}) = M21/M11 and the relation
    R_left = T^2 conj(R^r_{v*}) / (R^r conj(R^r_{v*}) - 1) is the direct
    R_left over det M (its denominator is -det M/(M11 M22)).  Poles are
    refused as in :func:`amplitudes_from_matrix`.
    :func:`left_reflection_integral` is the independent left route.
    """
    M = transfer_matrix(pot, k)
    return amplitudes_from_matrix(M).r_left / M.determinant()


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
    S1 (callers should fall back to the direct R_left of
    :func:`amplitudes_from_matrix`).
    """
    _, _, integral = _evolve_s(pot, k, want_integral=True)
    return integral


def _evolve_s(pot: SampledPotential, k: float,
              want_integral: bool) -> tuple[complex, complex, complex]:
    check_wavenumber(k)
    a_lo, a_hi = pot.support
    v = pot.evaluate
    two_ik = 2j * k

    def rhs(x: float, y: tuple) -> tuple[complex, complex, complex]:
        z = cmath.exp(-two_ik * x)
        s0, s1, _ = y
        ds0 = -two_ik * z * s1
        vx = v(x)
        ds1 = 0.5j * vx / (k * z) * s0
        if want_integral:
            return (ds0, ds1, -0.5j * vx / (k * z * s1 * s1))
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
