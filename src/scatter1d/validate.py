"""Seeded property suites, runnable from the CLI and reused by the tests.

Each suite evaluates a fixed list of properties over deterministic grids
plus an RNG-seeded ensemble and reports one pass/fail record per property.
The conjectural no-common-zero probe is recorded, never asserted: a
violation would be a finding, not a bug.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic, bessel, potential, shooting, transfer
from .errors import DomainError

DEFAULT_SEED = 0x5EED

#: Random configurations drawn by ``transfer_suite``.
TRANSFER_ENSEMBLE = 30


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


@dataclass
class SuiteReport:
    suite: str
    seed: int
    results: list[PropertyResult] = field(default_factory=list)
    records: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.results.append(PropertyResult(name, bool(passed), detail))


def _identity_grid() -> list[tuple[float, complex]]:
    orders = [-9.7, -5.5, -2.3, -1.0062, -0.6, 0.3, 0.5, 1.25, 2.5, 4.8, 7.3, 9.9]
    radii = [0.4, 1.7, 5.0, 9.0, 11.9]
    phases = [0.0, 0.6, 1.2, math.pi / 2, 2.3, math.pi, -0.8, -math.pi / 2, -2.6]
    return [(nu, r * complex(math.cos(p), math.sin(p)))
            for nu in orders for r in radii for p in phases]


def _recurrence_grid() -> list[tuple[float, complex]]:
    orders = [-9.5, -4.2, -1.5, 0.0, 0.5, 2.0, 3.7, 6.0, 10.0]
    radii = [0.7, 3.0, 11.0, 14.0, 22.0, 30.0]
    phases = [0.0, 0.5, 1.0, math.pi / 2, 2.2, math.pi, -0.7, -2.0]
    return [(nu, r * complex(math.cos(p), math.sin(p)))
            for nu in orders for r in radii for p in phases]


def bessel_suite(seed: int = DEFAULT_SEED) -> SuiteReport:
    rep = SuiteReport(suite="bessel", seed=seed)
    J = bessel.bessel_j

    worst = 0.0
    for nu, w in _identity_grid():
        res = bessel.identity_residuals(nu, w)
        scale = max(abs(J(nu + 1, w) * J(-nu, w)), abs(J(nu, w) * J(-nu - 1, w)), 1.0)
        worst = max(worst, res.cross_sum / scale, res.cross_diff / scale,
                    res.continuation / max(abs(J(nu, w)), 1.0))
    rep.add("identity-residuals-moderate-args", worst < 1e-10,
            f"worst scaled residual {worst:.2e} (bound 1e-10)")

    worst = 0.0
    for nu, w in _recurrence_grid():
        if w == 0:
            continue
        jm, j0, jp = J(nu - 1, w), J(nu, w), J(nu + 1, w)
        scale = max(abs(jm), abs(j0), abs(jp), 1.0)
        worst = max(worst, abs(w * jp - 2 * nu * j0 + w * jm) / scale)
    rep.add("recurrence-residual-large-grid", worst < 1e-10,
            f"worst scaled residual {worst:.2e} over |w| <= 30 (bound 1e-10)")

    rng = np.random.default_rng(seed)
    worst_c = worst_r = 0.0
    for _ in range(60):
        nu = float(rng.uniform(-8, 8))
        w = complex(rng.uniform(-9, 9), rng.uniform(-9, 9))
        if abs(w) < 1e-3:
            continue
        a, b = J(nu, w.conjugate()), J(nu, w).conjugate()
        worst_c = max(worst_c, abs(a - b) / max(abs(b), 1.0))
        ell = int(rng.integers(0, 7))
        worst_r = max(worst_r, abs(J(-ell, w) - (-1) ** ell * J(ell, w)))
    rep.add("conjugation-symmetry", worst_c < 1e-12, f"worst {worst_c:.2e}")
    rep.add("integer-reflection", worst_r < 1e-12, f"worst {worst_r:.2e}")

    worst = math.inf
    for nu in (-1.5, -0.3, 0.0, 0.5, 1.0, 2.0062, 3.5):
        for z in bessel.real_zeros(nu, 5):
            worst = min(worst, abs(bessel.bessel_j_derivative(nu, z.location)))
    pair = bessel.imaginary_zeros(-1.0062)
    assert pair is not None
    worst = min(worst, abs(bessel.bessel_j_derivative(-1.0062, pair[0].location)))
    rep.add("zero-simplicity", worst > 1e-6, f"min |J'| at zeros {worst:.2e}")

    sep = math.inf
    for nu in np.linspace(-5.0, 5.0, 21):
        nu = float(nu)
        if nu == 0.0:
            # Degenerate point: J_{-1} = -J_1, the adjacent orders share
            # every zero and the separation claim does not apply.
            continue
        for z in bessel.real_zeros(nu - 1.0, 10):
            sep = min(sep, abs(J(nu + 1.0, z.location)))
    rep.add("adjacent-orders-share-no-zeros", sep > 1e-6,
            f"min |J_(nu+1)| at zeros of J_(nu-1) is {sep:.2e}")

    # Conjectural probe: recorded, not asserted.
    probe_min = math.inf
    probe_at = None
    for nu in np.linspace(0.25, 5.0, 20):
        nu = float(nu)
        for z in bessel.real_zeros(nu + 1.0, 10):
            val = abs(J(1.0 - nu, z.location))
            if val < probe_min:
                probe_min, probe_at = val, (nu, z.location.real)
    rep.records["no_common_zero_probe"] = {
        "min_abs_j": probe_min,
        "at_nu": probe_at[0],
        "at_zero": probe_at[1],
        "violation": probe_min <= 1e-8,
    }
    rep.add("no-common-zero-probe-ran", True,
            f"min |J_(1-nu)| over probe grid {probe_min:.2e} (recorded only)")
    return rep


def _random_config(rng: np.random.Generator) -> tuple[potential.PotentialSpec, float]:
    m = int(rng.integers(1, 6))
    gamma = float(rng.uniform(0.1, 5.0))
    if abs(gamma - round(gamma)) < 1e-3:
        gamma += 2e-3
    mag = float(rng.uniform(0.05, 2.0))
    phase = float(rng.uniform(-math.pi, math.pi))
    a = mag * complex(math.cos(phase), math.sin(phase))
    L = math.pi
    spec = potential.PotentialSpec(coupling=(a * m) ** 2, m=m, L=L)  # k0 = m
    return spec, gamma * spec.k0


def transfer_suite(seed: int = DEFAULT_SEED) -> SuiteReport:
    rep = SuiteReport(suite="transfer", seed=seed)
    rng = np.random.default_rng(seed)
    configs = [_random_config(rng) for _ in range(TRANSFER_ENSEMBLE)]

    worst_det = 0.0
    worst_osc = 0.0
    worst_recon = 0.0
    # The evolution's amplitudes, reused by the checks below.
    evolved = []
    for spec, k in configs:
        pot = transfer.SampledPotential.from_spec(spec)
        M = transfer.transfer_matrix(pot, k)
        worst_det = max(worst_det, abs(M.determinant() - 1.0))
        amps = transfer.amplitudes_from_matrix(M)
        evolved.append(amps)
        ana = analytic.amplitudes_analytic(potential.wave_context(spec, k))
        worst_osc = max(worst_osc, abs(amps.r_left - ana.r_left),
                        abs(amps.r_right - ana.r_right), abs(amps.t - ana.t))
        M2 = transfer.matrix_from_amplitudes(amps, k)
        worst_recon = max(worst_recon,
                          abs(M2.m11 - M.m11), abs(M2.m12 - M.m12),
                          abs(M2.m21 - M.m21), abs(M2.m22 - M.m22))
    rep.add("unit-determinant", worst_det < 1e-10, f"worst |det-1| {worst_det:.2e}")
    rep.add("closed-form-equivalence", worst_osc < 1e-7,
            f"worst amplitude deviation {worst_osc:.2e} over {TRANSFER_ENSEMBLE} configs")
    rep.add("matrix-amplitude-roundtrip", worst_recon < 1e-10,
            f"worst entry deviation {worst_recon:.2e}")

    worst_shoot = 0.0
    for (spec, k), a1 in zip(configs[:10], evolved):
        a2 = shooting.shooting_amplitudes(transfer.SampledPotential.from_spec(spec), k)
        worst_shoot = max(worst_shoot, abs(a1.r_left - a2.r_left),
                          abs(a1.r_right - a2.r_right), abs(a1.t - a2.t))
    rep.add("shooting-equivalence", worst_shoot < 1e-6,
            f"worst deviation {worst_shoot:.2e} over 10 configs")

    worst_routes = 0.0
    for (spec, k), amps in zip(configs[:8], evolved):
        pot = transfer.SampledPotential.from_spec(spec)
        direct = amps.r_left
        via_conj = transfer.left_reflection_via_conjugate(pot, k)
        integral = transfer.left_reflection_integral(pot, k)
        worst_routes = max(worst_routes, abs(direct - via_conj), abs(direct - integral))
    rep.add("left-reflection-route-consistency", worst_routes < 1e-6,
            f"worst route disagreement {worst_routes:.2e}")
    return rep


def analytic_suite(seed: int = DEFAULT_SEED) -> SuiteReport:
    rep = SuiteReport(suite="analytic", seed=seed)
    rng = np.random.default_rng(seed)

    # Transparency exactly at zeros of J_(n+1).
    worst = 0.0
    for n in (1, 2):
        for z in bessel.real_zeros(n + 1.0, 3):
            spec = potential.PotentialSpec(coupling=z.location ** 2, m=1, L=math.pi)
            amps = analytic.amplitudes_analytic(potential.wave_context(spec, float(n)))
            worst = max(worst, abs(amps.t_minus_1), abs(amps.r_right))
    rep.add("transparent-at-right-invisible-points", worst < 1e-9,
            f"worst |T-1|, |R^r| = {worst:.2e}")

    worst = 0.0
    for n in (1, 2, 3):
        for m in (1, 3):
            spec = potential.PotentialSpec(coupling=(0.35 * m) ** 2 * (0.6 + 0.8j),
                                           m=m, L=math.pi)
            at_n = analytic.amplitudes_analytic(potential.wave_context(spec, float(n * m)))
            near = analytic.amplitudes_analytic(
                potential.wave_context(spec, (n + 1e-6) * m))
            worst = max(worst, abs(at_n.r_left - near.r_left),
                        abs(at_n.r_right - near.r_right), abs(at_n.t - near.t))
    rep.add("integer-limit-continuity", worst < 1e-3,
            f"worst jump across gamma=n at offset 1e-6: {worst:.2e}")

    worst = 0.0
    for _ in range(25):
        spec, k = _random_config(rng)
        amps = analytic.amplitudes_analytic(potential.wave_context(spec, k))
        rc = amps.r_right_conj_potential.conjugate()
        residual = abs(amps.r_left * (amps.r_right * rc - 1.0) - amps.t ** 2 * rc)
        worst = max(worst, residual)
    rep.add("time-reversal-combination", worst < 1e-10,
            f"worst residual {worst:.2e}")

    # The pointwise conjugate potential is the conjugate-coupling member
    # reflected through L/2, so R^r_{v*} = e^{-2ikL} R^l of that member
    # (reflection swaps sides, the off-center pivot adds the translation
    # phase); and the time-reversal matrix relation gives conj(R^l_{v*})
    # from the original amplitudes alone.
    worst_m = 0.0
    worst_t = 0.0
    for _ in range(25):
        spec, k = _random_config(rng)
        a1 = analytic.amplitudes_analytic(potential.wave_context(spec, k))
        a2 = analytic.amplitudes_analytic(
            potential.wave_context(spec.conjugate_coupling(), k))
        phase = cmath.exp(-2j * k * spec.L)
        worst_m = max(worst_m, abs(a1.r_right_conj_potential - phase * a2.r_left))
        rl_vstar_conj = -a1.r_right / (a1.t * a1.t - a1.r_left * a1.r_right)
        worst_t = max(worst_t, abs(rl_vstar_conj - phase * a2.r_right.conjugate()))
    rep.add("conjugate-potential-duality", worst_m < 1e-10,
            f"worst |R^r_(v*) mismatch| {worst_m:.2e}")
    rep.add("time-reversal-entry-swap", worst_t < 1e-10,
            f"worst |conj(R^l_(v*)) mismatch| {worst_t:.2e}")

    worst = 0.0
    for n in (1, 2):
        for m in (1, 3):
            spec = potential.PotentialSpec(coupling=(0.1 * n * m) ** 2 * 1j, m=m, L=math.pi)
            ctx = potential.wave_context(spec, float(n * m))
            exact = analytic.amplitudes_analytic(ctx)
            lead = analytic.amplitudes_perturbative(ctx)
            worst = max(worst,
                        abs(exact.r_left - lead.r_left) / abs(lead.r_left),
                        abs(exact.r_right - lead.r_right) / abs(lead.r_right),
                        abs(exact.t_minus_1 - lead.t_minus_1) / abs(lead.t_minus_1))
    rep.add("leading-order-consistency", worst < 0.05,
            f"worst relative deviation {worst:.2e} at |a| = 0.1 n m / (n m)")
    return rep


#: Suite name -> suite function, in the order ``"all"`` runs them.
_SUITE_RUNNERS = {"bessel": bessel_suite, "transfer": transfer_suite,
                  "analytic": analytic_suite}
SUITES = tuple(_SUITE_RUNNERS)


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[SuiteReport]:
    if name == "all":
        return [run(seed) for run in _SUITE_RUNNERS.values()]
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return [_SUITE_RUNNERS[name](seed)]
