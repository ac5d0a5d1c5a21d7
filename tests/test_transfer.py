import cmath
import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate

from conftest import make_spec
from scatter1d import transfer, validate
from scatter1d.analytic import amplitudes_analytic
from scatter1d.errors import (ConvergenceError, DomainError, NearZeroError,
                              SpectralSingularityError)
from scatter1d.potential import PotentialSpec, wave_context
from scatter1d.shooting import shooting_amplitudes
from scatter1d.singularity import solve_integer_gamma
from scatter1d.transfer import (EVOLUTION_TOL, _STEP_TOL, SampledPotential,
                                ScatteringAmplitudes, TransferMatrix,
                                amplitudes_from_matrix, left_reflection_integral,
                                left_reflection_via_conjugate,
                                matrix_from_amplitudes, s_boundary,
                                transfer_matrix)

FREE = SampledPotential(support=(0.0, 1.0), evaluate=lambda x: 0j)


def failing_stepper(*args):
    # the stepper's own failure: its step fell below 10 ulp of x
    raise ConvergenceError("stub")


def accepted_path(xs, states):
    # a stepper that returns the given accepted points and 4-component states
    def stepper(*args):
        return list(xs), [tuple(map(complex, y)) for y in states]
    return stepper


def recorded_solves(monkeypatch) -> list:
    # (rhs, x0, x1, y0, n, xs, ys) of every DOP853 solve made after this call
    seen, stepper = [], transfer._dop853

    def recording(rhs, x0, x1, y, f, n):
        xs, ys = stepper(rhs, x0, x1, y, f, n)
        seen.append((rhs, x0, x1, y, n, xs, ys))
        return xs, ys

    monkeypatch.setattr(transfer, "_dop853", recording)
    return seen


def scipy_path(rhs, x0, x1, y0, n):
    # the same solve on scipy's solve_ivp, over the first n components
    def fun(x, y):
        return rhs(x, tuple(y.tolist()) + (0j,) * (4 - n))[:n]

    sol = scipy.integrate.solve_ivp(fun, (x0, x1), np.array(y0[:n]), method="DOP853",
                                    rtol=_STEP_TOL, atol=_STEP_TOL)
    assert sol.success
    return sol.t, sol.y


def whole(pot: SampledPotential) -> SampledPotential:
    # the same potential integrated across its full support, uncomposed
    return dataclasses.replace(pot, cells=1)


def bump(amplitude: complex = 0.8) -> SampledPotential:
    # real smooth bump, exercises the generic (non-exponential) path
    return SampledPotential(support=(0.0, math.pi),
                            evaluate=lambda x: amplitude * math.sin(x) ** 2)


def three_bumps() -> SampledPotential:
    # the bump repeated over three cells
    return dataclasses.replace(bump(), support=(0.0, 3 * math.pi), cells=3)


def evaluator_calls(route, m: int) -> int:
    # the same cell [0, pi] with k0 = 1, repeated m times: a route that
    # integrates one cell costs the evaluator as many calls at m = 100 as at 1
    pot = SampledPotential.from_spec(
        PotentialSpec(coupling=(0.17 + 0.44j) ** 2, m=m, L=m * math.pi))
    calls = [0]

    def counting(x):
        calls[0] += 1
        return pot.evaluate(x)

    route(dataclasses.replace(pot, evaluate=counting), k=1.3)
    return calls[0]


def opaque_barrier() -> SampledPotential:
    # each of the 100 cells amplifies the evanescent wave by ~e^10
    return SampledPotential(support=(0.0, 100.0), evaluate=lambda x: 100 + 0j, cells=100)


class TestTransferMatrix:
    def test_free_potential_is_identity(self):
        M = transfer_matrix(FREE, k=1.3)
        assert abs(M.m11 - 1) < 1e-14 and abs(M.m22 - 1) < 1e-14
        assert abs(M.m12) < 1e-14 and abs(M.m21) < 1e-14

    def test_unit_determinant_ensemble(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            m = int(rng.integers(1, 6))
            gamma = float(rng.uniform(0.15, 4.5))
            a = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            spec = make_spec(a, m)
            M = transfer_matrix(SampledPotential.from_spec(spec), gamma * spec.k0)
            assert abs(M.determinant() - 1.0) < 1e-10

    def test_matches_closed_form(self):
        spec = make_spec(0.3, m=1)
        k = 1.37 * spec.k0
        num = amplitudes_from_matrix(transfer_matrix(SampledPotential.from_spec(spec), k))
        ana = amplitudes_analytic(wave_context(spec, k))
        assert abs(num.r_left - ana.r_left) < 1e-8
        assert abs(num.r_right - ana.r_right) < 1e-8
        assert abs(num.t - ana.t) < 1e-8

    def test_two_cell_composition(self):
        # the second unit cell is the first translated by L/2, so the full
        # matrix is D M_cell D^{-1} M_cell with D = diag(e^{-ikd}, e^{ikd})
        spec = make_spec(0.4 - 0.7j, m=2)
        k = 0.83 * spec.k0
        d = spec.L / 2
        full = transfer_matrix(whole(SampledPotential.from_spec(spec)), k)
        cell_pot = SampledPotential(support=(0.0, d), evaluate=lambda x:
                                    spec.coupling * cmath.exp(-2j * spec.k0 * x))
        C = transfer_matrix(cell_pot, k).as_array()
        D = np.diag([cmath.exp(-1j * k * d), cmath.exp(1j * k * d)])
        expected = D @ C @ np.linalg.inv(D) @ C
        assert np.max(np.abs(full.as_array() - expected)) < 1e-8

    def test_tolerance_precondition(self):
        # the step tolerance is fixed; only k is the caller's to get wrong
        with pytest.raises(DomainError):
            transfer_matrix(FREE, k=-1.0)
        with pytest.raises(TypeError):
            transfer_matrix(FREE, k=1.0, tol=1e-10)

    def test_solver_failure_is_convergence_error(self, monkeypatch):
        monkeypatch.setattr(transfer, "_dop853", failing_stepper)
        with pytest.raises(ConvergenceError, match=r"^evolution failed at k=1\.3: stub$"):
            transfer_matrix(three_bumps(), k=1.3)


class TestCellComposition:
    @staticmethod
    def assert_close(composed: TransferMatrix, full: TransferMatrix):
        a, b = composed.as_array(), full.as_array()
        assert np.max(np.abs(a - b)) < 1e-9 * max(1.0, np.max(np.abs(b)))

    def test_exponential_slab_matches_full_support(self):
        rng = np.random.default_rng(7)
        configs = [(0.7 + 0.45j, 7, gamma) for gamma in (0.37, 1.0, 2.61)]
        for _ in range(12):
            a = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            configs.append((a, int(rng.integers(2, 6)), float(rng.uniform(0.15, 4.5))))
        for a, m, gamma in configs:
            pot = SampledPotential.from_spec(make_spec(a, m))
            k = gamma * m  # k0 = m on L = pi
            self.assert_close(transfer_matrix(pot, k), transfer_matrix(whole(pot), k))

    def test_periodic_bump(self):
        pot = three_bumps()
        for k in (0.45, 1.1, 2.3):
            self.assert_close(transfer_matrix(pot, k), transfer_matrix(whole(pot), k))

    def test_cells_from_spec_kept_by_conjugate(self):
        pot = SampledPotential.from_spec(make_spec(0.3 + 0.2j, m=4))
        assert pot.cells == 4 and pot.conjugate().cells == 4

    @pytest.mark.parametrize("cells", [0, -2, 2.5, "3", True, False, np.True_])
    def test_cells_must_be_positive_integer(self, cells):
        with pytest.raises(DomainError):
            SampledPotential(support=(0.0, 1.0), evaluate=lambda x: 0j, cells=cells)

    def test_integral_float_cell_count_accepted(self):
        # the same integer rule as PotentialSpec.m
        cells = SampledPotential(support=(0.0, 1.0), evaluate=lambda x: 0j, cells=2.0).cells
        assert cells == 2 and type(cells) is int

    def test_one_cell_integrated_whatever_the_count(self):
        assert evaluator_calls(transfer_matrix, 100) == evaluator_calls(transfer_matrix, 1) > 0

    def test_non_finite_composition_raises(self):
        with pytest.raises(ConvergenceError, match=r"k=1\.0 .*100 cells"):
            transfer_matrix(opaque_barrier(), k=1.0)


class TestShootingComposition:
    @staticmethod
    def assert_close(composed: ScatteringAmplitudes, full: ScatteringAmplitudes):
        for attr in ("r_left", "r_right", "t"):
            a, b = getattr(composed, attr), getattr(full, attr)
            assert type(a) is complex
            assert abs(a - b) < 1e-9 * max(1.0, abs(b))

    def test_exponential_slab_matches_full_support(self):
        rng = np.random.default_rng(7)
        configs = [(0.7 + 0.45j, 7, gamma) for gamma in (0.37, 1.0, 2.61)]
        for _ in range(15):
            a = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            configs.append((a, int(rng.integers(2, 6)), float(rng.uniform(0.15, 4.5))))
        for a, m, gamma in configs:
            spec = make_spec(a, m)
            pot = SampledPotential.from_spec(spec)
            k = gamma * m  # k0 = m on L = pi
            composed = shooting_amplitudes(pot, k)
            self.assert_close(composed, shooting_amplitudes(whole(pot), k))
            # and both directions against the closed form
            ana = amplitudes_analytic(wave_context(spec, k))
            for attr in ("r_left", "r_right", "t"):
                assert abs(getattr(composed, attr) - getattr(ana, attr)) < 1e-7

    def test_periodic_bump(self):
        pot = three_bumps()
        for k in (0.45, 1.1, 2.3):
            self.assert_close(shooting_amplitudes(pot, k),
                              shooting_amplitudes(whole(pot), k))

    def test_one_cell_integrated_whatever_the_count(self):
        assert (evaluator_calls(shooting_amplitudes, 100)
                == evaluator_calls(shooting_amplitudes, 1) > 0)

    def test_non_finite_composition_raises(self):
        with pytest.raises(ConvergenceError, match=r"k=1\.0 .*100 cells"):
            shooting_amplitudes(opaque_barrier(), k=1.0)

    @pytest.mark.parametrize("success,final,match", [
        (False, (1, 0, 0, 1), "shooting failed"),
        (True, (1, 2, 2, 4), r"singular at k=1\.3 over 3 cells"),
    ])
    def test_solver_failures_are_convergence_errors(self, monkeypatch, success, final, match):
        stub = accepted_path([0.0, math.pi], [(1, 0, 0, 1), final])
        monkeypatch.setattr(transfer, "_dop853", stub if success else failing_stepper)
        with pytest.raises(ConvergenceError, match=match):
            shooting_amplitudes(three_bumps(), k=1.3)


class TestAmplitudes:
    def test_identity_matrix(self):
        amps = amplitudes_from_matrix(TransferMatrix(1, 0, 0, 1))
        assert amps.r_left == 0 and amps.r_right == 0 and amps.t == 1

    def test_rounded_singular_config_has_small_m22(self):
        # six-digit rounding of the tabulated lasing point leaves |M22| < 1e-4
        spec = make_spec(0.174004 + 0.435309j, m=100)
        M = transfer_matrix(SampledPotential.from_spec(spec), spec.k0)
        assert abs(M.m22) < 1e-4

    def test_exact_singular_config_raises(self):
        sol = solve_integer_gamma(1, 100)
        spec = make_spec(sol.a_frak, m=100)
        M = transfer_matrix(SampledPotential.from_spec(spec), spec.k0)
        with pytest.raises(SpectralSingularityError):
            amplitudes_from_matrix(M)

    def test_matrix_amplitude_roundtrip(self):
        spec = make_spec(0.6 + 0.2j, m=2)
        k = 1.21 * spec.k0
        M = transfer_matrix(SampledPotential.from_spec(spec), k)
        M2 = matrix_from_amplitudes(amplitudes_from_matrix(M))
        for attr in ("m11", "m12", "m21", "m22"):
            assert abs(getattr(M, attr) - getattr(M2, attr)) < 1e-10

    def test_shooting_agrees(self):
        for a, m, gamma in [(0.5 + 0.3j, 1, 0.7), (1.1 - 0.4j, 3, 2.31),
                            (0.9j, 2, 1.0)]:
            spec = make_spec(a, m)
            pot = SampledPotential.from_spec(spec)
            k = gamma * spec.k0
            n1 = amplitudes_from_matrix(transfer_matrix(pot, k))
            n2 = shooting_amplitudes(pot, k)
            assert abs(n1.r_left - n2.r_left) < 1e-6
            assert abs(n1.r_right - n2.r_right) < 1e-6
            assert abs(n1.t - n2.t) < 1e-6


class TestLeftReflectionRoutes:
    def test_conjugate_potential_matrix_is_algebra(self):
        # M(v*) = sigma_x conj(M(v)) sigma_x for real k, so the conjugate
        # route's second evolution adds no information beyond det M = 1
        rng = np.random.default_rng(validate.DEFAULT_SEED)
        sigma_x = np.array([[0, 1], [1, 0]])
        for _ in range(validate.TRANSFER_ENSEMBLE):
            spec, k = validate._random_config(rng)
            pot = SampledPotential.from_spec(spec)
            M = transfer_matrix(pot, k).as_array()
            Mc = transfer_matrix(pot.conjugate(), k).as_array()
            expected = sigma_x @ M.conj() @ sigma_x
            assert np.max(np.abs(Mc - expected)) < 1e-12 * np.max(np.abs(M))

    def test_conjugate_route_runs_one_evolution(self):
        assert (evaluator_calls(left_reflection_via_conjugate, 3)
                == evaluator_calls(transfer_matrix, 3) > 0)

    def test_conjugate_route_is_the_determinant_form(self):
        # with conj(R^r_{v*}) = M21/M11 the relation is -M21/(M22 det M)
        rng = np.random.default_rng(validate.DEFAULT_SEED)
        for _ in range(validate.TRANSFER_ENSEMBLE):
            spec, k = validate._random_config(rng)
            pot = SampledPotential.from_spec(spec)
            M = transfer_matrix(pot, k)
            expected = -M.m21 / (M.m22 * M.determinant())
            assert abs(left_reflection_via_conjugate(pot, k) - expected) < 1e-13 * abs(expected)

    def test_real_potential_conjugate_route(self):
        pot = bump()
        k = 1.1
        direct = amplitudes_from_matrix(transfer_matrix(pot, k)).r_left
        assert abs(left_reflection_via_conjugate(pot, k) - direct) < 1e-8

    def test_vanishing_conjugate_reflection_forces_zero(self):
        # at a left-invisible design point R^r of the conjugate potential
        # vanishes, and with it the left reflection
        spec = make_spec(0.15723562022890071j, m=3)
        k = 2.0062 * spec.k0
        pot = SampledPotential.from_spec(spec)
        Mc = transfer_matrix(pot.conjugate(), k)
        assert abs(Mc.m12 / Mc.m22) < 1e-8
        assert abs(left_reflection_via_conjugate(pot, k)) < 1e-8

    def test_integer_gamma_closed_form(self):
        spec = make_spec(0.2, m=1)
        k = spec.k0
        a2 = complex(0.04)
        jm = _j(0.0, 0.2)
        jp = _j(2.0, 0.2)
        expected = -1j * math.pi * 1 * a2 * jm * jm / (2 - 1j * math.pi * a2 * jm * jp)
        got = left_reflection_via_conjugate(SampledPotential.from_spec(spec), k)
        assert abs(got - expected) < 1e-8

    def test_integral_route_free_potential(self):
        assert abs(left_reflection_integral(FREE, k=0.9)) < 1e-12

    def test_integral_route_matches_conjugate_route(self):
        spec = make_spec(0.3, m=1)
        k = 0.7 * spec.k0
        pot = SampledPotential.from_spec(spec)
        assert abs(left_reflection_integral(pot, k)
                   - left_reflection_via_conjugate(pot, k)) < 1e-6

    def test_integral_route_leading_order(self):
        spec = make_spec(0.2, m=1)
        k = spec.k0
        got = left_reflection_integral(SampledPotential.from_spec(spec), k)
        leading = -1j * math.pi * spec.m * spec.coupling / (2 * spec.k0 ** 2)
        assert abs(got - leading) / abs(leading) < 0.1

    def test_path_near_a_zero_of_s1(self, monkeypatch):
        # one accepted point with |S1| = 1e-11 between the ends of the path;
        # the states are (S0, S1, integral, padding)
        path = [(1, 1, 0, 0), (0.5, 1e-11, 0.2, 0), (-0.3, 0.8, 0.4, 0)]
        monkeypatch.setattr(transfer, "_dop853", accepted_path([0, 1.3, math.pi], path))
        with pytest.raises(NearZeroError, match="within 1.0e-11") as exc:
            left_reflection_integral(bump(), k=1.1)
        assert exc.value.location == 1.3
        assert s_boundary(bump(), k=1.1) == (-0.3, 0.8)

    def test_boundary_state_initial_condition(self):
        s0, s1 = s_boundary(FREE, k=1.7)
        # free case: S stays the straight line S(z) = z
        assert abs(s0 - cmath.exp(-2j * 1.7 * 1.0)) < 1e-10
        assert abs(s1 - 1.0) < 1e-10


class TestEvolveDriver:
    @pytest.mark.parametrize("route", [transfer_matrix, shooting_amplitudes, s_boundary])
    def test_every_route_solves_at_the_one_step_tolerance(self, monkeypatch, route):
        # one solve, on the accepted points of solve_ivp at rtol = atol = _STEP_TOL
        seen = recorded_solves(monkeypatch)
        route(three_bumps(), k=1.3)
        assert len(seen) == 1
        rhs, x0, x1, y0, n, xs, _ = seen[0]
        assert len(xs) == len(scipy_path(rhs, x0, x1, y0, n)[0])
        assert _STEP_TOL == 0.05 * EVOLUTION_TOL
        # and the stepper reads its tolerance from that one constant
        monkeypatch.setattr(transfer, "_STEP_TOL", 1e-6)
        route(three_bumps(), k=1.3)
        assert len(seen) == 2 and len(seen[1][5]) < len(xs)

    def test_steps_match_scipy_dop853(self, monkeypatch):
        # the evolution, shooting and (S0, S1, integral) right-hand sides over
        # validate's ensemble: solve_ivp's accepted point count and final state.
        # The x grids agree only to ~1e-6 relative: the error estimate cancels
        # to ~1e-7 of its terms, so the summation order of numpy's dot moves
        # every later step size by rounding.
        rng = np.random.default_rng(validate.DEFAULT_SEED)
        pots = [(SampledPotential.from_spec(spec), k) for spec, k in
                (validate._random_config(rng) for _ in range(validate.TRANSFER_ENSEMBLE))]
        pots.append((three_bumps(), 1.3))
        seen = recorded_solves(monkeypatch)
        for pot, k in pots:
            transfer_matrix(pot, k)
            shooting_amplitudes(pot, k)
            try:
                left_reflection_integral(pot, k)
            except NearZeroError:
                pass
        assert len(seen) == 3 * len(pots)
        for rhs, x0, x1, y0, n, xs, ys in seen:
            ref_x, ref_y = scipy_path(rhs, x0, x1, y0, n)
            assert len(xs) == len(ref_x)
            assert np.abs(np.array(xs) - ref_x).max() <= 1e-5 * max(1.0, abs(x1))
            final = np.array(ys[-1][:n])
            assert np.abs(final - ref_y[:, -1]).max() <= 1e-12 * max(1.0, np.abs(final).max())

    # An overflowing cell is the documented ConvergenceError, with no
    # RuntimeWarning on the way (the suite turns warnings into errors).
    @pytest.mark.parametrize("value", [1e300 + 0j, 1e154 * (1 + 1j)])
    @pytest.mark.parametrize("route,label", [(transfer_matrix, "evolution"),
                                             (shooting_amplitudes, "shooting"),
                                             (s_boundary, "evolution")])
    def test_overflow_is_convergence_error(self, route, label, value):
        pot = SampledPotential(support=(0.0, 1.0), evaluate=lambda x: value)
        with pytest.raises(ConvergenceError, match=rf"^{label} failed at k=1\.0: "):
            route(pot, k=1.0)

    # A potential that is not finite where a solve starts would make the
    # stepper shrink its step until it fails; each route refuses it up front.
    @pytest.mark.parametrize("value", [complex("nan"), complex("inf")])
    @pytest.mark.parametrize("route,label", [(transfer_matrix, "evolution"),
                                             (shooting_amplitudes, "shooting"),
                                             (s_boundary, "evolution")])
    def test_potential_not_finite_at_the_start(self, route, label, value):
        pot = SampledPotential(support=(0.5, 2.0),
                               evaluate=lambda x: value if x == 0.5 else 0.3j)
        with pytest.raises(DomainError, match=rf"^{label} right-hand side is not finite "
                                              r"at x0=0\.5 for k=1\.3$"):
            route(pot, k=1.3)

    @pytest.mark.parametrize("support", [(math.nan, 1.0), (0.0, math.inf),
                                         (1.0, 1.0), (1.0, 0.0)])
    def test_support_must_be_a_finite_interval(self, support):
        with pytest.raises(DomainError, match="support must be finite with a_lo < a_hi"):
            SampledPotential(support=support, evaluate=lambda x: 0j)


def _j(nu, w):
    from scatter1d.bessel import bessel_j
    return bessel_j(nu, complex(w))
