import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest

from scatter1d import bessel, singularity
from scatter1d.bessel import W_MAX, bessel_j
from scatter1d.errors import (AccuracyError, ConvergenceError, DomainError,
                              NoSolutionError)
from scatter1d.singularity import (half_integer_residual, scan_singularities,
                                   seed_integer_gamma, solve_general,
                                   solve_half_integer, solve_integer_gamma,
                                   validate_root_ode)
from scatter1d.transfer import SINGULARITY_EPS

# published six-decimal values for the n = 1 lasing points
TABLE1 = {
    100: (0.174004 + 0.435309j, 1.159217 - 0.151491j),
    250: (0.140574 + 0.347262j, 1.100830 - 0.097632j),
    500: (0.119168 + 0.292458j, 1.071331 - 0.069704j),
}


def denominator(sol):
    n = round(sol.gamma)
    a = sol.a_frak
    return abs(2 * n - 1j * math.pi * sol.m * a * a
               * bessel_j(n - 1.0, a) * bessel_j(n + 1.0, a))


class TestCondition:
    CASES = [(1.0, 100), (3.0, 7), (0.8, 3), (2.5, 1)]

    @pytest.mark.parametrize("gamma,m", CASES)
    def test_one_evaluation_is_four_bessel_calls(self, monkeypatch, gamma, m):
        f_df, _ = singularity._condition(gamma, m)
        orders = []
        jv = bessel._jv

        def counting(nu, w):
            orders.append(nu)
            return jv(nu, w)

        monkeypatch.setattr(bessel, "_jv", counting)
        f_df(0.7 + 0.4j)
        assert len(orders) == 4

    @pytest.mark.parametrize("gamma,m", CASES)
    def test_derivative_matches_central_difference(self, gamma, m):
        f_df, _ = singularity._condition(gamma, m)
        a, h = 0.7 + 0.4j, 1e-6
        fd = (f_df(a + h)[0] - f_df(a - h)[0]) / (2 * h)
        assert abs(f_df(a)[1] - fd) <= 1e-7 * abs(fd)


class TestIntegerGamma:
    @pytest.mark.parametrize("m", [100, 250, 500])
    def test_published_values(self, m):
        sol = solve_integer_gamma(1, m)
        a_ref, eps_ref = TABLE1[m]
        assert abs(sol.a_frak - a_ref) < 1e-5
        assert abs(sol.eps0 - eps_ref) < 1e-5
        assert sol.residual < 1e-10

    @pytest.mark.parametrize("m", [100, 500])
    def test_root_kills_transmission_denominator_and_m22(self, m):
        sol = solve_integer_gamma(1, m)
        assert denominator(sol) < 1e-9
        assert validate_root_ode(sol) < 1e-6

    def test_eps0_consistency(self):
        sol = solve_integer_gamma(2, 50)
        assert abs(sol.eps0 - (1 - sol.a_frak ** 2 / sol.gamma ** 2)) < 1e-14
        assert sol.eps0.real > 1.0

    def test_seed_error_decreases_with_m(self):
        errs = []
        for m in (100, 250, 500):
            sol = solve_integer_gamma(1, m)
            errs.append(abs(seed_integer_gamma(1, m) - sol.a_frak) / abs(sol.a_frak))
        assert errs[0] > errs[1] > errs[2]

    def test_canonical_half_plane(self):
        for n, m in [(1, 100), (2, 30), (3, 10)]:
            sol = solve_integer_gamma(n, m)
            assert sol.a_frak.real >= 0

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            solve_integer_gamma(0, 10)
        with pytest.raises(DomainError):
            solve_integer_gamma(1, 0)

    @pytest.mark.parametrize("n,m", [(2.0, 30), (np.int64(2), 30), (2, 30.0)])
    def test_integral_values_accepted(self, n, m):
        assert solve_integer_gamma(n, m) == solve_integer_gamma(2, 30)
        assert seed_integer_gamma(n, m) == seed_integer_gamma(2, 30)

    @pytest.mark.parametrize("n,m", [(2.5, 30), ("2", 30), (2, math.nan),
                                     (None, 30), (0, 10), (1, 0),
                                     (True, 30), (2, True), (np.True_, 30),
                                     (True, True)])
    def test_non_integral_or_small_rejected(self, n, m):
        with pytest.raises(DomainError):
            solve_integer_gamma(n, m)
        with pytest.raises(DomainError):
            seed_integer_gamma(n, m)

    @pytest.mark.parametrize("m", [1, 2, 3, 100, 250, 500])
    def test_unit_order_root_is_the_seed_branch_root(self, m):
        # at n = 1 the smallest-residual branch is the one Newton reaches
        # from seed_integer_gamma; from n = 2 on it often is not
        assert solve_integer_gamma(1, m) == solve_general(1, m, seed_integer_gamma(1, m))

    def test_branch_leaving_the_domain_is_skipped(self):
        # one seed branch of n = 7, m = 1 steps out to |w| ~ 3e3 (DomainError);
        # another converges to this root
        sol = solve_integer_gamma(7, 1)
        assert abs(sol.a_frak - (0.4325 + 5.2874j)) < 1e-4
        assert validate_root_ode(sol) < SINGULARITY_EPS

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_reachable_order_returns_a_root(self, m):
        # branches that wander off raise DomainError (m = 1, 2, 3) or
        # AccuracyError (m = 3) inside Newton; neither may reach the caller
        for n in range(1, 30):
            assert solve_integer_gamma(n, m).residual <= singularity.RESIDUAL_TOL

    def test_large_order_reaches_the_bessel_order_bound(self):
        with pytest.raises(DomainError, match="nu"):
            solve_integer_gamma(200, 1)

    @pytest.mark.parametrize("n", [30, 10**6, 1e300])
    def test_order_beyond_the_bound_is_refused_up_front(self, n, monkeypatch):
        # the condition needs J_{n+1}: n + 1 > NU_MAX is refused before any
        # of the 2n + 2 seed branches is enumerated
        def enumerate_seeds(*args):
            raise AssertionError("seed branches enumerated")
        monkeypatch.setattr(singularity, "_integer_seeds", enumerate_seeds)
        for solve in (solve_integer_gamma, seed_integer_gamma):
            with pytest.raises(DomainError, match=re.escape(f"n={n:.6g} needs the Bessel order")):
                solve(n, 1)

    def test_large_order_seed_is_the_leading_order_root(self):
        # |a| = 2 [n!(n+1)!/(2 pi m)]^{1/(2n+2)} at the largest n with
        # n + 1 <= NU_MAX
        n = 29
        base = mp.factorial(n) * mp.factorial(n + 1) / (2 * mp.pi)
        radius = float(2 * base ** (mp.mpf(1) / (2 * n + 2)))
        assert abs(abs(seed_integer_gamma(n, 1)) - radius) < 1e-12 * radius


class TestGeneralGamma:
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_is_a_domain_error(self, gamma):
        with pytest.raises(DomainError, match=f"gamma must be finite, got {gamma!r}"):
            solve_general(gamma, 1, 0.5)
        with pytest.raises(DomainError, match=f"gamma must be finite, got {gamma!r}"):
            scan_singularities(gamma, 1)

    @pytest.mark.parametrize("solve", [
        lambda g: solve_general(g, 1, 0.5 + 0.5j),
        lambda g: scan_singularities(g, 1),
        lambda g: solve_integer_gamma(g, 1),
    ], ids=["solve_general", "scan_singularities", "solve_integer_gamma"])
    @pytest.mark.parametrize("gamma", [-0.7, -1, 0.0])
    def test_non_positive_gamma_is_refused_up_front(self, solve, gamma):
        with pytest.raises(DomainError,
                           match=r"gamma must be positive|n must be an integer >= 1"):
            solve(gamma)

    @pytest.mark.parametrize("solve,gamma", [
        (lambda g: scan_singularities(g, 1), 29.5),
        (lambda g: solve_general(g, 1, 0.5 + 0.5j), 35),
    ], ids=["scan_singularities", "solve_general"])
    def test_order_beyond_the_bound_is_refused_up_front(self, solve, gamma):
        # the condition needs J_{gamma+1}; before this refusal the scan
        # skipped every seed and returned [], and solve_general blamed the seed
        with pytest.raises(DomainError, match=rf"^gamma={gamma:g} needs the Bessel "
                                              rf"order nu = {gamma + 1:g}, beyond"):
            solve(gamma)

    def test_condition_is_even_in_a(self):
        gamma, m = 0.8, 3
        rhs = 4 * gamma * math.sin(math.pi * gamma) \
            / (math.pi * (1 - cmath.exp(2j * math.pi * m * gamma)))
        a = 0.7 + 0.4j

        def f(x):
            return x * x * bessel_j(-gamma + 1, x) * bessel_j(gamma + 1, x) - rhs

        assert abs(f(a) - f(-a)) < 1e-14

    def test_residual_postcondition(self):
        sol = solve_general(0.8, 3, seed=1.0 + 0.5j)
        gamma, m = 0.8, 3
        rhs = 4 * gamma * math.sin(math.pi * gamma) \
            / (math.pi * (1 - cmath.exp(2j * math.pi * m * gamma)))
        a = sol.a_frak
        assert abs(a * a * bessel_j(0.2, a) * bessel_j(1.8, a) - rhs) < 1e-10
        assert validate_root_ode(sol) < 1e-6

    def test_seed_at_zero_is_a_domain_error(self):
        with pytest.raises(DomainError):
            solve_general(0.7, 1, seed=0)

    @pytest.mark.parametrize("gamma,seed,message", [
        (0.7, 0, "J_nu(0) diverges"),
        (1.0, 0, "complex division by zero"),
        (0.7, 100, "|w|=100 exceeds supported bound"),
        (0.7, 30 + 16j, "w=(30+16j) lies beyond the accuracy floor"),
    ])
    def test_seed_outside_the_domain_is_a_domain_error(self, gamma, seed, message):
        with pytest.raises(DomainError) as exc:
            solve_general(gamma, 1, seed)
        text = str(exc.value)
        assert text.startswith(f"gamma={gamma!r}, m=1, seed={seed!r}: ")
        assert message in text

    def test_newton_leaving_the_domain_is_a_convergence_error(self):
        with pytest.raises(ConvergenceError) as exc:
            solve_general(2.5, 1, 0.5 + 0.5j)
        text = str(exc.value)
        assert text.startswith("gamma=2.5, m=1, seed=(0.5+0.5j): ")
        assert "|w|=166 exceeds supported bound 60.0" in text

    def test_random_sample_raises_only_convergence_errors(self):
        # 60 draws gamma in (0.1, 5), m in 1..10 from the CLI's default
        # seed: each returns a root or raises ConvergenceError naming its
        # input (before, 34 out-of-domain DomainErrors and 4 AccuracyErrors)
        rng = np.random.default_rng(20261019)
        roots = 0
        for gamma, m in zip(rng.uniform(0.1, 5.0, 60), rng.integers(1, 11, 60)):
            gamma, m = float(gamma), int(m)
            try:
                sol = solve_general(gamma, m, 0.5 + 0.5j)
            except ConvergenceError as exc:
                assert str(exc).startswith(f"gamma={gamma!r}, m={m}, seed=(0.5+0.5j): ")
                continue
            assert sol.residual < 1e-10
            roots += 1
        assert roots == 22

    @pytest.mark.parametrize("f_df,message", [
        (lambda a: (1.0, 0.0), "Newton derivative vanished"),
        (lambda a: (1.0, 1e-3), "Newton did not converge"),
        (lambda a: (1e-9, 1e9), "root residual 1.00e-09 above"),
    ], ids=["flat", "wandering", "residual"])
    def test_convergence_errors_name_gamma_m_and_seed(self, monkeypatch, f_df, message):
        monkeypatch.setattr(singularity, "_condition", lambda gamma, m: (f_df, 1.0))
        with pytest.raises(ConvergenceError,
                           match=re.escape(f"gamma=0.7, m=2, seed=(0.5+0.5j): {message}")):
            solve_general(0.7, 2, seed=0.5 + 0.5j)

    def test_half_integer_even_m_has_no_solution(self):
        with pytest.raises(NoSolutionError):
            solve_general(0.5, 2, seed=1j)

    def test_integer_gamma_seeded_at_the_integer_root(self):
        # one condition for every gamma: at gamma = n the general solver
        # keeps the root of a^2 J_{n-1} J_{n+1} = -2in/(pi m)
        for n, m in [(1, 100), (2, 10), (3, 10), (4, 7)]:
            ref = solve_integer_gamma(n, m)
            sol = solve_general(float(n), m, seed=ref.a_frak)
            assert abs(sol.a_frak - ref.a_frak) <= 1e-12 * abs(ref.a_frak)
            assert sol.gamma == n and sol.residual < 1e-10

    def test_half_integer_odd_m_root_is_ode_validated(self):
        sol = solve_general(0.5, 1, seed=1.0j)
        assert sol.residual < 1e-10
        assert validate_root_ode(sol) < 1e-6
        # the ODE-validated half-integer lasing point sits at eps0 ~ 5.2656,
        # not at the printed 4.127542 (see the module docstring)
        assert abs(sol.eps0 - 5.2656216283035) < 1e-6

    @pytest.mark.xfail(reason="the printed half-integer reduction carries a "
                              "factor-2 slip against the general condition; "
                              "its root does not satisfy the latter",
                       strict=True)
    def test_cross_route_agreement_with_printed_form(self):
        general = solve_general(0.5, 1, seed=1.0j)
        printed = solve_half_integer(0, 1)
        assert abs(general.a_frak - printed.a_frak) < 1e-9


class TestHalfIntegerPrintedForm:
    def test_published_eps0(self):
        sol = solve_half_integer(0, 1)
        assert abs(sol.eps0 - 4.127542) < 1e-5
        assert sol.eps0.imag == 0.0
        assert sol.residual < 1e-10

    def test_reduced_trig_identity_at_root(self):
        # at p = 0 the printed form is a sin(2a) + cos(2a) = 1/2
        sol = solve_half_integer(0, 1)
        a = sol.a_frak
        assert abs(a * cmath.sin(2 * a) + cmath.cos(2 * a) - 0.5) < 1e-9
        # and equivalently via a = i gamma sqrt(eps0 - 1) from the returned eps0
        a2 = 1j * 0.5 * cmath.sqrt(sol.eps0 - 1.0)
        assert abs(a2 * cmath.sin(2 * a2) + cmath.cos(2 * a2) - 0.5) < 1e-9

    def test_parity_guard(self):
        with pytest.raises(DomainError):
            solve_half_integer(0, 2)
        with pytest.raises(DomainError):
            solve_half_integer(-1, 1)
        # from p = 29 on the form needs J_{p+3/2} beyond NU_MAX = 30,
        # refused by p before any Bessel call
        for p in (29, 30):
            with pytest.raises(DomainError, match=f"^p={p} needs the Bessel order"):
                solve_half_integer(p, 1)

    def test_integral_values_accepted(self):
        assert solve_half_integer(0.0, 1) == solve_half_integer(0, 1)
        assert solve_half_integer(np.int64(0), 1.0) == solve_half_integer(0, 1)
        for p, m in [(0.5, 1), (0, 1.5), ("0", 1), (False, 1), (0, True),
                     (np.False_, 1), (False, True)]:
            with pytest.raises(DomainError):
                solve_half_integer(p, m)

    def test_residual_helper_is_real_on_axes(self):
        assert abs(half_integer_residual(0, 1.3j).imag) < 1e-12
        assert abs(half_integer_residual(1, 0.9j).imag) < 1e-12

    @pytest.mark.parametrize("a", [0.9, 2.3, 7.5, 1.3j, 0.8j, 1.1 + 0.7j,
                                   -0.8 + 1.9j, 2.0 - 0.5j])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_residual_matches_trig_forms(self, p, a):
        # 4 a^3 j_{p+1}(a) j_{-p}(a) from the explicit spherical Bessel forms
        a = complex(a)
        s, c = cmath.sin(a), cmath.cos(a)
        j_up = {1: s / a ** 2 - c / a,
                2: (3 / a ** 2 - 1) * s / a - 3 * c / a ** 2,
                3: (15 / a ** 3 - 6 / a) * s / a - (15 / a ** 2 - 1) * c / a}
        j_down = {0: s / a, -1: c / a, -2: -c / a ** 2 - s / a}
        lhs = 4 * a ** 3 * j_up[p + 1] * j_down[-p]
        got = half_integer_residual(p, a) + (-1) ** p * (2 * p + 1)
        assert abs(got - lhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("p", range(0, 29, 2))
    def test_higher_orders_solve_the_printed_form(self, p):
        # every even p the solver reaches has its root on the imaginary
        # axis; an upward spherical Bessel recurrence loses every digit near
        # a = 0 at the higher orders, and the roots from p = 18 on (12.7411i
        # and up) lie beyond |a| = 12; check the root against mpmath's
        # J_{p+3/2} J_{1/2-p}
        sol = solve_half_integer(p, 1)
        assert sol.a_frak.real == 0.0 and sol.a_frak.imag > 0.0
        assert sol.eps0.imag == 0.0 and sol.eps0.real > 1.0
        a = mp.mpc(sol.a_frak)
        lhs = 2 * mp.pi * a ** 2 * mp.besselj(p + 1.5, a) * mp.besselj(0.5 - p, a)
        assert abs(complex(lhs) - (-1) ** p * (2 * p + 1)) < 1e-10

    @pytest.mark.parametrize("p", range(29))
    def test_window_holds_one_sign_change_for_even_p(self, p):
        # the solver brackets its whole window [1e-3, W_MAX] at once; on the
        # 0.03-step grid it used to walk (closed at W_MAX) the residual along
        # a = ib changes sign exactly once for even p and never for odd p
        grid = np.append(np.arange(1e-3, W_MAX, 0.03), W_MAX)
        signs = np.sign([half_integer_residual(p, 1j * b).real for b in grid])
        assert np.all(signs != 0)
        assert np.count_nonzero(signs[1:] != signs[:-1]) == (1 if p % 2 == 0 else 0)

    @pytest.mark.parametrize("p", range(1, 28, 2))
    def test_odd_orders_have_no_real_root(self, p):
        with pytest.raises(NoSolutionError):
            solve_half_integer(p, 1)

    def test_residual_at_zero_is_its_limit(self):
        assert half_integer_residual(0, 0) == -1.0


class TestScan:
    def test_finds_published_root_on_integer_line(self):
        sols = scan_singularities(1.0, 100)
        a_ref = TABLE1[100][0]
        assert any(abs(s.a_frak - a_ref) < 1e-5 for s in sols)
        for s in sols:
            assert validate_root_ode(s) < 1e-6
            assert abs(s.a_frak) > 1e-8

    def test_no_singularity_where_mu_vanishes(self):
        # gamma = 1/2, m = 2: kL is a multiple of pi, T = 1 identically
        assert scan_singularities(0.5, 2) == []

    def test_deterministic_ordering(self):
        sols = scan_singularities(1.0, 100)
        keys = [(s.a_frak.real, s.a_frak.imag) for s in sols]
        assert keys == sorted(keys)

    def test_each_root_validated_once(self, monkeypatch):
        # at (2, 100) Newton reaches 6.3801-0.0056i, which the evolution
        # rejects at |M22| ~ 3e-6, from three seeds; a rejected root counts
        # as seen, so it is integrated once
        solve = singularity._solve_from_seed
        produced, validated = [], []

        def producing(*args):
            sol = solve(*args)
            produced.append(sol.a_frak)
            return sol

        def counting(sol):
            m22 = validate_root_ode(sol)
            validated.append((sol.a_frak, m22))
            return m22

        monkeypatch.setattr(singularity, "_solve_from_seed", producing)
        monkeypatch.setattr(singularity, "validate_root_ode", counting)
        sols = scan_singularities(2.0, 100)
        assert len(validated) > len(sols)  # some root was rejected
        rejected = [a for a, m22 in validated if not m22 < SINGULARITY_EPS]
        assert any(sum(abs(b * b - a * a) < singularity.DEDUP_TOL for b in produced) >= 2
                   for a in rejected)  # ... and reached from two seeds or more
        for i, (a, _) in enumerate(validated):
            assert all(abs(a - b) >= singularity.DEDUP_TOL for b, _ in validated[:i])

    @pytest.mark.parametrize("gamma,m", [(1.0, 1), (0.7, 1), (0.7, 2)])
    def test_roots_beyond_the_radius_are_not_validated(self, monkeypatch, gamma, m):
        # Newton ends beyond |a| = 8 from some seed in each of these scans
        # (8.28-0.24i, 14.41-0.035i, 14.41+0.016i); those roots are dropped
        # before the ODE check
        validated = []

        def recording(sol):
            validated.append(sol.a_frak)
            return validate_root_ode(sol)

        monkeypatch.setattr(singularity, "validate_root_ode", recording)
        scan_singularities(gamma, m)
        assert validated and all(abs(a) <= singularity.SCAN_RADIUS for a in validated)

    def test_far_root_no_longer_aborts_the_scan(self):
        # at (6, 100) Newton reaches 22.22 from an early seed and its
        # evolution overflows ("transfer matrix entries are not finite");
        # beyond the radius it is not integrated, and the scan returns the
        # two roots inside the disc
        sols = scan_singularities(6.0, 100)
        refs = (1.046577 + 3.363936j, 2.410589 + 2.766765j)
        assert len(sols) == 2
        for sol, a_ref in zip(sols, refs):
            assert abs(sol.a_frak - a_ref) < 1e-5
            assert validate_root_ode(sol) < SINGULARITY_EPS

    def test_accuracy_error_names_the_scan_and_seed(self):
        # an undamped Newton step from one seed leaves the Bessel accuracy domain
        with pytest.raises(AccuracyError, match=re.escape(
                "scan_singularities(gamma=2.5, m=1) from seed (0.6666666666666666"
                "-0.6666666666666667j): w=(")) as info:
            scan_singularities(2.5, 1)
        assert "lies beyond the accuracy floor of J" in str(info.value)

    @pytest.mark.parametrize("gamma,m", [(2.5, 1), (2.0, 1)])
    def test_raising_scan_runs_no_ode_check(self, monkeypatch, gamma, m):
        # both scans reach roots inside the disc before a later seed's
        # Newton leaves the Bessel accuracy domain; every Newton solve runs
        # before any ODE check, so none of those roots is integrated
        solve = singularity._solve_from_seed
        produced, calls = [], []

        def producing(*args):
            sol = solve(*args)
            produced.append(sol.a_frak)
            return sol

        def counting(sol):
            calls.append(sol.a_frak)
            return validate_root_ode(sol)

        monkeypatch.setattr(singularity, "_solve_from_seed", producing)
        monkeypatch.setattr(singularity, "validate_root_ode", counting)
        with pytest.raises(AccuracyError, match=re.escape(
                f"scan_singularities(gamma={gamma!r}, m={m}) from seed (")):
            scan_singularities(gamma, m)
        assert any(abs(a) <= singularity.SCAN_RADIUS for a in produced)
        assert calls == []

    def test_ode_check_failure_drops_only_that_root(self, monkeypatch):
        # an evolution that overflows ("transfer matrix entries are not
        # finite") rejects its own root, as a NaN |M22| does, and the scan
        # goes on to validate the rest
        expected = scan_singularities(1.0, 1)
        assert len(expected) == 5
        failing = expected[2].a_frak

        def overflowing(sol):
            if sol.a_frak == failing:
                raise ConvergenceError("transfer matrix entries are not finite")
            return validate_root_ode(sol)

        monkeypatch.setattr(singularity, "validate_root_ode", overflowing)
        sols = scan_singularities(1.0, 1)
        assert [s.a_frak for s in sols] == [s.a_frak for s in expected
                                            if s.a_frak != failing]

    def test_nan_validation_drops_root(self, monkeypatch):
        calls = []

        def nan_m22(sol):
            calls.append(sol.a_frak)
            return math.nan

        monkeypatch.setattr(singularity, "validate_root_ode", nan_m22)
        assert scan_singularities(1.0, 1) == []
        assert calls

    def test_roots_resolved_below_the_threshold(self):
        # two genuine roots at (0.7, 1) that the evolution at tol 1e-10 must
        # resolve to |M22| below SINGULARITY_EPS for the scan to keep them
        sols = scan_singularities(0.7, 1)
        for a_ref in (4.882128 - 0.101293j, 5.880225 + 0.083898j):
            sol = next(s for s in sols if abs(s.a_frak - a_ref) < 1e-5)
            assert validate_root_ode(sol) < SINGULARITY_EPS

    def test_imaginary_pair_ordered_by_imaginary_part(self, monkeypatch):
        # two roots on the imaginary axis whose real parts are rounding noise
        # of either sign (+-ib would be one singularity, see below)
        noisy = [complex(-1e-17, 1.2), complex(2e-17, -0.858895),
                 complex(0.954906, 0.0)]
        seeds = iter(noisy)

        def from_list(condition, gamma, m, seed):
            a = next(seeds, None)
            if a is None:
                raise NoSolutionError("stub")
            return singularity.SingularitySolution(a, 1.0, gamma, m, 0.0)

        monkeypatch.setattr(singularity, "_solve_from_seed", from_list)
        monkeypatch.setattr(singularity, "validate_root_ode", lambda sol: 0.0)
        sols = scan_singularities(0.3, 5)
        assert [s.a_frak for s in sols] == [noisy[1], noisy[0], noisy[2]]

    @pytest.mark.parametrize("gamma,m,a_ref", [(0.3, 5, 0.858895j), (0.5, 1, 1.032669j)])
    def test_each_singularity_reported_once(self, gamma, m, a_ref):
        # the condition is even in a: a root and its negative share the
        # coupling a^2 and are one singularity, whatever their rounding noise
        couplings = [s.a_frak ** 2 for s in scan_singularities(gamma, m)]
        assert sum(abs(c - a_ref ** 2) < 1e-5 for c in couplings) == 1
        for i, c in enumerate(couplings):
            assert all(abs(c - d) >= singularity.DEDUP_TOL for d in couplings[:i])

    def test_free_configuration_is_not_singular(self):
        # the zero-coupling slab transmits perfectly: M22 = 1 at any k
        from scatter1d.potential import PotentialSpec
        from scatter1d.transfer import SampledPotential, transfer_matrix
        spec = PotentialSpec(coupling=0.0, m=3, L=math.pi)
        M = transfer_matrix(SampledPotential.from_spec(spec), 1.37 * spec.k0)
        assert abs(M.m22 - 1.0) < 1e-12


class TestRecordShape:
    def test_json_record_fields(self):
        rec = solve_integer_gamma(1, 100).as_record()
        assert set(rec) == {"gamma", "m", "a_re", "a_im",
                            "eps0_re", "eps0_im", "residual"}
