"""Spectral singularities of the truncated exponential slab.

A spectral singularity is a real wavenumber where M22 vanishes, i.e. the
transmission amplitude has a pole (the lasing-threshold condition of the
optical realization).  From the closed-form denominator this happens
exactly when

    a^2 J_{-gamma+1}(a) J_{gamma+1}(a) = 4 gamma sin(pi gamma)
                                         / (pi (1 - e^{2 pi i m gamma}))
                                       = -2i gamma / (pi mu),

solved here by Newton's method in the complex coupling parameter a, at
the gamma of :func:`scatter1d.potential.snap_gamma`.  Each solver refuses
up front, naming gamma, n or p, a condition that needs J beyond NU_MAX.  The
condition is even in a, so a and -a are one singularity; roots are
reported with Re a >= 0 and told apart by their coupling a^2.  Every gamma
uses this one condition: integer gamma = n is the limit
mu -> (-1)^(n+1) m that :func:`scatter1d.potential.mu_factor` returns
(the right-hand side becomes (-1)^n 2in/(pi m), and with
J_{1-n} = (-1)^(n-1) J_{n-1} the familiar a^2 J_{n-1} J_{n+1} = -2in/(pi m)).
A good integer-gamma seed is a ~ 2 [n!(n+1)!/(2 pi i m)]^{1/(2n+2)} with
the root branch chosen so that Re eps0 > 1.

Half-integer gamma = p + 1/2 admits a trigonometric closed form; following
the published reduction this module solves

    4 a^3 j_{p+1}(a) j_{-p}(a) = (-1)^p (2p + 1)

(spherical Bessel j), evaluated as 2 pi a^2 J_{gamma+1}(a) J_{1-gamma}(a)
through j_n(w) = sqrt(pi/(2w)) J_{n+1/2}(w) (DLMF 10.47.3).  CAUTION: at
gamma = p + 1/2 and odd m the general condition above is
pi a^2 J_{gamma+1}(a) J_{1-gamma}(a) = (-1)^p (2p + 1), so the printed form
is off by exactly a factor 2, and only the general roots drive the
integrated |M22| to zero.  ``solve_half_integer`` keeps the printed
equation so its p = 0 solution reproduces the tabulated eps0 = 4.127542;
``solve_general`` at gamma = p + 1/2 yields the ODE-validated root instead
(eps0 = 5.265622 at p = 0, m = 1).

``scan_singularities`` Newton-solves from a grid of seeds and returns the
roots with |a| <= SCAN_RADIUS whose integrated |M22| is below
SINGULARITY_EPS.  Every Newton solve runs before any (costly) ODE check:
a root reached from several seeds is integrated once, roots beyond the
disc never, and a scan that raises from a seed has integrated nothing.
The condition does have roots beyond the disc (``solve_integer_gamma``
finds them from n = 12 at m = 1), but in the scans checked
(0.1 < gamma <= 29, m up to 1000) none the scan reached there validated,
and no kept root lay beyond |a| = 6.6.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .bessel import W_MAX, _bracketed_roots, bessel_j, check_order
from .errors import AccuracyError, ConvergenceError, DomainError, NoSolutionError
from .potential import PotentialSpec, as_integer, mu_factor, snap_gamma
from .transfer import SINGULARITY_EPS, SampledPotential, transfer_matrix

#: Defining-equation residual required of every returned root.
RESIDUAL_TOL = 1e-10
#: Distance in the coupling a^2 below which two roots are considered the
#: same (the condition is even in a, so a and -a are one singularity).
DEDUP_TOL = 1e-6
#: Seed box 0 < Re a <= SCAN_RE_MAX, |Im a| <= SCAN_IM_MAX, SCAN_GRID seeds.
SCAN_RE_MAX = SCAN_IM_MAX = 2.0
SCAN_GRID = (6, 7)
#: The scan keeps roots with |a| <= SCAN_RADIUS only; Newton roots beyond it
#: are dropped before the ODE check.
SCAN_RADIUS = 8.0

_MAX_NEWTON = 100

#: ((f, f') evaluator, Newton scale) of one singularity condition; see ``_condition``.
_Condition = tuple[Callable[[complex], tuple[complex, complex]], float]


@dataclass(frozen=True)
class SingularitySolution:
    a_frak: complex
    eps0: complex
    gamma: float
    m: int
    residual: float

    def as_record(self) -> dict:
        return {
            "gamma": self.gamma,
            "m": self.m,
            "a_re": self.a_frak.real,
            "a_im": self.a_frak.imag,
            "eps0_re": self.eps0.real,
            "eps0_im": self.eps0.imag,
            "residual": self.residual,
        }


def _eps0_of(a: complex, gamma: float) -> complex:
    return 1.0 - a * a / (gamma * gamma)


def _newton(f_df: Callable[[complex], tuple[complex, complex]],
            seed: complex, scale: float) -> tuple[complex, float]:
    a = complex(seed)
    trail = [a]
    for _ in range(_MAX_NEWTON):
        fa, d = f_df(a)
        if abs(fa) < 1e-13 * scale:
            return a, abs(fa)
        if abs(d) < 1e-14:
            raise ConvergenceError(f"Newton derivative vanished at a={a!r}")
        step = fa / d
        a = a - step
        trail.append(a)
        if abs(step) < 5e-16 * (1.0 + abs(a)):
            return a, abs(f_df(a)[0])
    raise ConvergenceError(
        f"Newton did not converge; trajectory tail "
        f"{[format(t, '.6g') for t in trail[-4:]]}")


def _canonical(a: complex) -> complex:
    if a.real < 0 or (a.real == 0 and a.imag < 0):
        return -a
    return a


def _condition(gamma: float, m: int) -> _Condition:
    """(f, f') at a of f(a) = a^2 J_{1-gamma}(a) J_{gamma+1}(a) - rhs, and Newton's scale.

    rhs = 4 gamma sin(pi gamma) / (pi (1 - e^{2 pi i m gamma})) = -2i gamma / (pi mu),
    with mu from :func:`mu_factor`, so an integer ``gamma`` (already
    snapped) takes its limit there.  Four J evaluations per point: J_lo,
    J_hi and J'_nu = J_{nu-1} - (nu/a) J_nu.
    """
    mu = mu_factor(gamma, m)
    if mu == 0:
        raise NoSolutionError(
            "kL is a multiple of pi with non-integer gamma (mu = 0): T = 1 "
            "identically, no spectral singularity exists there")
    lo, hi = -gamma + 1.0, gamma + 1.0
    rhs = -2j * gamma / (math.pi * mu)
    scale = max(abs(rhs), 1e-6)

    def f_df(a: complex) -> tuple[complex, complex]:
        j_lo = bessel_j(lo, a)
        j_hi = bessel_j(hi, a)
        d_lo = bessel_j(lo - 1.0, a) - (lo / a) * j_lo
        d_hi = bessel_j(hi - 1.0, a) - (hi / a) * j_hi
        a2 = a * a
        return (a2 * j_lo * j_hi - rhs,
                2.0 * a * j_lo * j_hi + a2 * d_lo * j_hi + a2 * j_lo * d_hi)

    return f_df, scale


def _solve_from_seed(condition: _Condition, gamma: float, m: int,
                     seed: complex) -> SingularitySolution:
    """Newton-refine ``seed`` on a ``_condition`` and check the residual.

    A :class:`ConvergenceError` names ``gamma``, ``m`` and ``seed``.
    """
    f_df, scale = condition
    where = f"gamma={gamma!r}, m={m}, seed={seed!r}"
    try:
        root, residual = _newton(f_df, seed, scale)
    except ConvergenceError as exc:
        exc.args = (f"{where}: {exc.args[0]}",) + exc.args[1:]
        raise
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"{where}: root residual {residual:.2e} above {RESIDUAL_TOL:.1e}")
    root = _canonical(root)
    return SingularitySolution(a_frak=root, eps0=_eps0_of(root, gamma),
                               gamma=gamma, m=m, residual=residual)


def _order(gamma: float) -> float:
    """``gamma`` after :func:`snap_gamma`, refused if J_{gamma+1} passes NU_MAX."""
    g = snap_gamma(gamma)
    check_order(g + 1.0, "gamma", g)
    return g


def solve_general(gamma: float, m: int, seed: complex) -> SingularitySolution:
    """Newton solve of the full singularity condition from ``seed``, at any gamma > 0.

    Raises :class:`DomainError` for a gamma :func:`_order` refuses or a seed
    where the condition cannot be evaluated, and :class:`ConvergenceError` if
    Newton fails or leaves the Bessel domain; these two name gamma, m and seed.
    """
    m = as_integer("m", m, 1)
    g = _order(gamma)
    f_df, scale = _condition(g, m)
    where = f"gamma={g!r}, m={m}, seed={seed!r}"
    try:
        f_df(complex(seed))
    except (DomainError, AccuracyError, ZeroDivisionError) as exc:
        raise DomainError(f"{where}: condition not evaluable at the seed: {exc}") from exc
    try:
        return _solve_from_seed((f_df, scale), g, m, seed)
    except (DomainError, AccuracyError) as exc:
        raise ConvergenceError(f"{where}: Newton left the Bessel domain: {exc}") from exc


def _integer_order(n: int) -> int:
    """``n`` as an int; the condition's J_{n+1} refuses n + 1 > NU_MAX."""
    n = as_integer("n", n, 1)
    check_order(n + 1, "n", n)
    return n


def _integer_seeds(n: int, m: int) -> list[complex]:
    """Leading-order roots a ~ 2 [n!(n+1)!/(2 pi i m)]^{1/(2n+2)} with Re eps0 > 1."""
    order = 2 * n + 2
    # log n!(n+1)!, which overflows a float as a product from n ~ 100 on
    log_base = math.lgamma(n + 1) + math.lgamma(n + 2) - math.log(2.0 * math.pi * m)
    radius = 2.0 * math.exp(log_base / order)
    # arg of n!(n+1)!/(2 pi i m) is -pi/2
    seeds = (radius * cmath.exp(1j * (-0.5 * math.pi + 2.0 * math.pi * j) / order)
             for j in range(order))
    return [seed for seed in seeds if _eps0_of(seed, float(n)).real > 1.0]


def solve_integer_gamma(n: int, m: int) -> SingularitySolution:
    """Singularity at gamma = n from a^2 J_{n-1}(a) J_{n+1}(a) = -2in/(pi m).

    This is the general condition at the integer limit of mu.

    Seeds every (2n+2)-th root branch of the leading-order solution, keeps
    the branches with Re eps0 > 1, Newton-refines each and returns the
    smallest-residual root, ties going to the smaller Re a, then Im a
    (canonicalized to Re a >= 0; the condition is even in a).  Different
    branches can reach different singularities, so the root returned is
    chosen by residual alone: it need not be the one Newton reaches from
    :func:`seed_integer_gamma`, and from n = 2 on it often is not.  A
    branch whose Newton iterates stall or leave the Bessel domain is
    skipped.  An n with n + 1 > NU_MAX raises :class:`DomainError`.
    """
    n, m = _integer_order(n), as_integer("m", m, 1)
    condition = _condition(float(n), m)
    candidates = []
    for seed in _integer_seeds(n, m):
        try:
            candidates.append(_solve_from_seed(condition, float(n), m, seed))
        except (ConvergenceError, DomainError, AccuracyError):
            continue
    if not candidates:
        raise ConvergenceError(f"no branch converged for n={n}, m={m}")
    return min(candidates, key=lambda s: (s.residual, s.a_frak.real, s.a_frak.imag))


def seed_integer_gamma(n: int, m: int) -> complex:
    """Leading-order seed with the branch fixed by Re eps0 > 1, Re a >= 0."""
    n, m = _integer_order(n), as_integer("m", m, 1)
    seeds = [_canonical(seed) for seed in _integer_seeds(n, m)]
    if not seeds:
        raise NoSolutionError(f"no seed branch with Re eps0 > 1 for n={n}, m={m}")
    return max(seeds, key=lambda seed: seed.real)


def half_integer_residual(p: int, a: complex) -> complex:
    """LHS - RHS of the printed half-integer reduction at gamma = p + 1/2."""
    return 2.0 * math.pi * a * a * bessel_j(p + 1.5, a) * bessel_j(0.5 - p, a) \
        - (-1.0) ** p * (2 * p + 1)


def solve_half_integer(p: int, m: int) -> SingularitySolution:
    """Real-permittivity root of the printed half-integer closed form.

    Requires odd m (for even m the interference factor makes the condition
    unsatisfiable).  On a = ib the residual is real and
    eps0 = 1 + b^2/gamma^2 > 1.  The orders reachable (p + 3/2 <= NU_MAX)
    are p = 0...28: every even p has exactly one root on this axis in
    1e-3 <= b <= W_MAX, so that window is one bracket refined by Brent's
    method, and every odd p has none (same-sign ends) and raises
    :class:`NoSolutionError`.  The real-a segment below gamma
    (0 < eps0 < 1) holds no root for any of them.  See the module
    docstring for the factor-2 caveat against the general condition.
    """
    p, m = as_integer("p", p, 0), as_integer("m", m, 1)
    if m % 2 == 0:
        raise DomainError("the half-integer closed form requires odd m")
    check_order(p + 1.5, "p", p)
    gamma = p + 0.5
    for b in _bracketed_roots(lambda b: half_integer_residual(p, 1j * b).real,
                              (1e-3, W_MAX)):
        root = 1j * b
        residual = abs(half_integer_residual(p, root))
        if residual > RESIDUAL_TOL:
            raise ConvergenceError(f"half-integer root residual {residual:.2e}")
        return SingularitySolution(a_frak=root, eps0=_eps0_of(root, gamma),
                                   gamma=gamma, m=m, residual=residual)
    raise NoSolutionError(
        f"no real positive-eps0 solution of the half-integer form for p={p} "
        f"within the scanned window (0, {W_MAX})")


def validate_root_ode(sol: SingularitySolution) -> float:
    """|M22| from the coefficient evolution at the root's configuration.

    One unit cell is integrated and composed over the m cells (see
    :func:`scatter1d.transfer.transfer_matrix`).
    """
    L = math.pi * sol.m  # k0 = 1 in these units
    spec = PotentialSpec(coupling=sol.a_frak ** 2, m=sol.m, L=L)
    M = transfer_matrix(SampledPotential.from_spec(spec), k=sol.gamma)
    return abs(M.m22)


def _scan_candidates(condition: _Condition, g: float, m: int,
                     grid: tuple[int, int]) -> list[SingularitySolution]:
    """Newton roots from the ``grid`` seeds, one per coupling a^2, in seed order.

    A seed whose Newton solve fails (:class:`ConvergenceError`,
    :class:`NoSolutionError`, :class:`DomainError`) is skipped; an
    :class:`AccuracyError` propagates, prefixed with the scan's snapped
    gamma ``g``, ``m`` and the seed.  Roots with |a| outside [1e-8,
    SCAN_RADIUS] are dropped, and a root whose coupling lies within
    DEDUP_TOL of an earlier candidate's is dropped as a repeat.
    """
    seen: list[complex] = []  # couplings a^2
    candidates: list[SingularitySolution] = []
    n_re, n_im = grid
    for i in range(n_re):
        re = SCAN_RE_MAX * (i + 1) / n_re
        for j in range(n_im):
            im = -SCAN_IM_MAX + 2.0 * SCAN_IM_MAX * j / max(n_im - 1, 1)
            seed = complex(re, im)
            try:
                sol = _solve_from_seed(condition, g, m, seed)
            except (ConvergenceError, NoSolutionError, DomainError):
                continue
            except AccuracyError as exc:
                exc.args = (f"scan_singularities(gamma={g!r}, m={m}) from seed "
                            f"{seed!r}: {exc.args[0]}",) + exc.args[1:]
                raise
            # Written so that a NaN |a| is dropped too.
            if not 1e-8 <= abs(sol.a_frak) <= SCAN_RADIUS:
                continue
            coupling = sol.a_frak * sol.a_frak
            if any(abs(coupling - c) < DEDUP_TOL for c in seen):
                continue
            seen.append(coupling)
            candidates.append(sol)
    return candidates


def scan_singularities(gamma: float, m: int,
                       grid: tuple[int, int] = SCAN_GRID) -> list[SingularitySolution]:
    """Grid-seeded sweep for roots of the singularity condition.

    Runs in two phases.  First Newton is seeded from every ``grid`` point
    (an argument so that perfbench's tracer can count them) in the
    SCAN_RE_MAX by SCAN_IM_MAX box.  Newton may end anywhere; a root with
    |a| > SCAN_RADIUS (or |a| < 1e-8) is dropped, since none reached by a
    scan checked (0.1 < gamma <= 29, m up to 1000) validated, and the rest
    are deduplicated on their coupling a^2 (a and -a are one singularity).
    Then each remaining candidate is integrated once, and those whose
    |M22| is below SINGULARITY_EPS are kept; an evolution that raises
    :class:`ConvergenceError` (a failed cell solve, entries that overflow)
    or gives NaN rejects only its own candidate.  Deterministic ordering by
    (Re a, Im a), with Re a rounded to 12 decimals so that roots on the
    imaginary axis, whose real parts are rounding noise, are ordered by
    Im a.

    A gamma :func:`_order` refuses raises :class:`DomainError`, and an
    :class:`AccuracyError` from a Newton iterate that leaves the Bessel
    accuracy domain propagates, prefixed with the scan's ``gamma``, ``m``
    and the seed.  Every Newton solve runs before any ODE check, so a scan
    that raises has integrated nothing.
    """
    m = as_integer("m", m, 1)
    g = _order(gamma)
    try:
        condition = _condition(g, m)
    except NoSolutionError:
        return []

    solutions: list[SingularitySolution] = []
    for sol in _scan_candidates(condition, g, m, grid):
        try:
            m22 = validate_root_ode(sol)
        except ConvergenceError:  # the evolution failed or overflowed
            continue
        # Written so that a NaN |M22| counts as not validated.
        if m22 < SINGULARITY_EPS:
            solutions.append(sol)
    solutions.sort(key=lambda s: (round(s.a_frak.real, 12), s.a_frak.imag))
    return solutions


def table1_rows(ms: tuple[int, ...] = (100, 250, 500)) -> list[SingularitySolution]:
    """The n = 1 singularity for each requested cell count."""
    return [solve_integer_gamma(1, m) for m in ms]
