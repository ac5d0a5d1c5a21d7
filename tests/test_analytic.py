import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_spec
from scatter1d.analytic import (amplitudes_analytic, amplitudes_perturbative,
                                boundary_values, invisibility_quality)
from scatter1d.bessel import real_zeros
from scatter1d.errors import (DegenerateDenominatorError, DomainError,
                              SpectralSingularityError)
from scatter1d.potential import PotentialSpec, from_permittivity, wave_context
from scatter1d.singularity import solve_general, solve_integer_gamma
from scatter1d.transfer import (SINGULARITY_EPS, SampledPotential,
                                amplitudes_from_matrix, s_boundary,
                                transfer_matrix)


class TestBoundaryValues:
    def test_free_case(self):
        spec = PotentialSpec(coupling=0.0, m=1, L=math.pi)
        s0_L, s1_L = boundary_values(wave_context(spec, 0.7))
        assert s0_L == 1.0 and s1_L == 1.0

    def test_mu_zero_case(self):
        # kL in pi Z with non-integer gamma: both boundary values collapse to 1
        spec = make_spec(0.8 - 0.1j, m=2)
        s0_L, s1_L = boundary_values(wave_context(spec, 1.5 * spec.k0))
        assert abs(s0_L - 1.0) < 1e-14
        assert abs(s1_L - 1.0) < 1e-14

    def test_matches_direct_evolution(self):
        spec = make_spec(0.5, m=1)
        k = 0.7 * spec.k0
        s0_L, s1_L = boundary_values(wave_context(spec, k))
        s0, s1 = s_boundary(SampledPotential.from_spec(spec), k)
        assert abs(s0_L - s0) < 1e-8
        assert abs(s1_L - s1) < 1e-8

    def test_integer_gamma_matches_direct_evolution(self):
        # the limit mu -> (-1)^(n+1) m carries the same closed form to gamma = n
        spec = make_spec(0.5, m=1)
        for n in (1, 2, 3):
            k = n * spec.k0
            s0_L, s1_L = boundary_values(wave_context(spec, k))
            s0, s1 = s_boundary(SampledPotential.from_spec(spec), k)
            assert abs(s0_L - s0) < 1e-10
            assert abs(s1_L - s1) < 1e-10


class TestAmplitudes:
    def test_free_space(self):
        spec = PotentialSpec(coupling=0.0, m=1, L=math.pi)
        amps = amplitudes_analytic(wave_context(spec, 1.3))
        assert (amps.r_left, amps.r_right, amps.t) == (0, 0, 1)

    def test_mu_zero_bidirectional(self):
        spec = make_spec(1.2 + 0.4j, m=3)
        amps = amplitudes_analytic(wave_context(spec, (4.0 / 3.0) * spec.k0))
        assert (amps.r_left, amps.r_right, amps.t) == (0, 0, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_direct_evolution(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        gamma = float(rng.uniform(0.1, 5.0))
        a = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        spec = make_spec(a, m)
        k = gamma * spec.k0
        ana = amplitudes_analytic(wave_context(spec, k))
        num = amplitudes_from_matrix(transfer_matrix(SampledPotential.from_spec(spec), k))
        assert abs(ana.r_left - num.r_left) < 1e-7
        assert abs(ana.r_right - num.r_right) < 1e-7
        assert abs(ana.t - num.t) < 1e-7

    def test_transmission_leading_term(self):
        spec = make_spec(0.2, m=1)
        amps = amplitudes_analytic(wave_context(spec, spec.k0))
        lead = 1j * math.pi * spec.m * spec.coupling ** 2 / (16 * spec.k0 ** 4)
        assert abs((amps.t - 1.0) - lead) / abs(lead) < 0.1

    def test_worked_left_invisible_point(self):
        # rounded published inputs: eps0 = 1.006142617, gamma = 2.0062, m = 243
        m, L = 243, 260.0
        k = 2.0062 * m * math.pi / L
        spec = from_permittivity(1.006142617, k, m, L)
        amps = amplitudes_analytic(wave_context(spec, k))
        assert abs(amps.r_left) < 1e-5
        assert abs(amps.t - 1.0) < 1e-5
        assert abs(amps.r_right) > 1e-3

    def test_transparency_at_bessel_zero(self):
        # gamma = n and a at a zero of J_{n+1}: T = 1 and R^r = 0 together
        for n in (1, 2):
            rho = real_zeros(n + 1.0, 1)[0]
            spec = make_spec(rho, m=1)
            amps = amplitudes_analytic(wave_context(spec, n * spec.k0))
            assert abs(amps.t - 1.0) < 1e-9
            assert abs(amps.r_right) < 1e-9
            assert abs(amps.r_left) > 1e-6

    def test_integer_limit_consistency(self):
        spec = make_spec(0.45 - 0.8j, m=2)
        for n in (1, 2):
            at = amplitudes_analytic(wave_context(spec, n * spec.k0))
            for side in (-1e-6, 1e-6):
                near = amplitudes_analytic(wave_context(spec, (n + side) * spec.k0))
                for attr in ("r_left", "r_right", "t"):
                    assert abs(getattr(at, attr) - getattr(near, attr)) < 1e-3

    def test_time_reversal_combination_residual(self):
        spec = make_spec(0.9 + 0.5j, m=4)
        amps = amplitudes_analytic(wave_context(spec, 2.33 * spec.k0))
        rc = amps.r_right_conj_potential.conjugate()
        assert abs(amps.r_left * (amps.r_right * rc - 1) - amps.t ** 2 * rc) < 1e-10

    def test_conjugate_potential_amplitude_two_routes(self):
        # R^r of the pointwise conjugate, from the closed form vs from the
        # mirrored conjugate-coupling member (translation phase e^{-2ikL})
        import cmath
        spec = make_spec(0.7 - 0.25j, m=2)
        k = 1.83 * spec.k0
        a1 = amplitudes_analytic(wave_context(spec, k))
        a2 = amplitudes_analytic(wave_context(spec.conjugate_coupling(), k))
        phase = cmath.exp(-2j * k * spec.L)
        assert abs(a1.r_right_conj_potential - phase * a2.r_left) < 1e-10

    def test_singularity_signal(self):
        sol = solve_integer_gamma(1, 100)
        spec = make_spec(sol.a_frak, m=100)
        with pytest.raises(SpectralSingularityError):
            amplitudes_analytic(wave_context(spec, spec.k0))


def closed_form_mp(gamma, a: complex, m: int):
    """((R^l, R^r, T), cancellation factor of D, |D|/(2 gamma)) at 40 digits.

    ``gamma`` is an mpf; at an integer value mu takes its limit.
    """
    with mp.workdps(40):
        a = mp.mpc(a)
        if gamma == mp.nint(gamma):
            mu = mp.mpf((-1) ** (int(gamma) + 1) * m)
        else:
            mu = (1 - mp.expj(2 * mp.pi * m * gamma)) / (2j * mp.sin(mp.pi * gamma))
        j_p, j_m, j_mm, j_pm = (mp.besselj(nu, a) for nu in
                                (gamma + 1, 1 - gamma, -gamma - 1, gamma - 1))
        c = 1j * mp.pi * a * a
        den = 2 * gamma - c * mu * j_m * j_p
        amps = (-c * mu * j_m * j_pm / den, -c * mp.conj(mu) * j_mm * j_p / den,
                2 * gamma / den)
        cond = (2 * gamma + abs(c * mu * j_m * j_p)) / abs(den)
        return amps, float(cond), float(abs(den) / (2 * gamma))


class TestClosedFormAgainstMpmath:
    """``amplitudes_analytic`` against the closed form at 40 digits.

    The kinds of gamma: generic, exact integer n, n +- 1e-10 (snapped to n)
    and j/m with j not a multiple of m (kL in pi Z, mu = 0).  The reference
    takes generic gamma as the context holds it and the others at their
    exact intended value.
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["generic", "integer", "snapped", "mu_zero"]),
           m=st.integers(min_value=1, max_value=8),
           u=st.floats(min_value=0.0, max_value=1.0),
           n=st.integers(min_value=1, max_value=5),
           side=st.sampled_from([-1e-10, 1e-10]),
           re=st.floats(min_value=-3.0, max_value=3.0),
           im=st.floats(min_value=-3.0, max_value=3.0))
    @example(kind="generic", m=5, u=(0.1013 - 0.05) / 4.95, n=1, side=1e-10,
             re=2.756, im=-2.859)   # T ~ 1e-4: R^l must not go through T^2
    def test_matches_mpmath(self, kind, m, u, n, side, re, im):
        a = complex(re, im)
        if abs(a) < 0.1:
            return
        if kind == "generic":
            gamma = 0.05 + 4.95 * u
        elif kind == "integer":
            gamma = float(n)
        elif kind == "snapped":
            gamma = n + side
        else:
            if m == 1:
                return
            j = n * m + 1 + int(u * (m - 2))      # not a multiple of m
            gamma = j / m
        spec = make_spec(a, m)
        ctx = wave_context(spec, gamma * spec.k0)
        if kind == "generic":
            exact = mp.mpf(ctx.gamma)
        elif kind == "mu_zero":
            exact = mp.mpf(j) / m
            assert ctx.mu == 0
        else:
            exact = mp.mpf(n)
            assert ctx.gamma == n and ctx.mu == (-1) ** (n + 1) * m
        ref, cond, m22 = closed_form_mp(exact, ctx.a_frak, m)
        try:
            amps = amplitudes_analytic(ctx)
        except SpectralSingularityError:
            assert m22 < 2 * SINGULARITY_EPS
            return
        for got, want in zip((amps.r_left, amps.r_right, amps.t), ref):
            assert abs(got - complex(want)) <= 1e-12 * cond * (1.0 + abs(complex(want)))


class TestPoleThreshold:
    """Closed forms and evolution refuse the same poles: |M22| < SINGULARITY_EPS."""

    @staticmethod
    def routes(sol, offset):
        spec = make_spec(sol.a_frak * (1.0 + offset), m=sol.m)
        k = sol.gamma * spec.k0
        return (lambda: amplitudes_analytic(wave_context(spec, k)),
                lambda: amplitudes_from_matrix(
                    transfer_matrix(SampledPotential.from_spec(spec), k)))

    @pytest.mark.parametrize("sol", [solve_integer_gamma(1, 1),
                                     solve_general(0.5, 1, seed=1.0j)],
                             ids=["integer", "half_integer"])
    def test_both_routes_share_the_threshold(self, sol):
        # a(1 + 1e-9) leaves |M22| ~ 5e-9, a(1 + 3e-9) ~ 1.4e-8
        magnitudes = []
        for route in self.routes(sol, 1e-9):
            with pytest.raises(SpectralSingularityError) as exc:
                route()
            magnitudes.append(exc.value.magnitude)
        assert all(3e-9 < mag < SINGULARITY_EPS for mag in magnitudes)
        assert magnitudes[0] == pytest.approx(magnitudes[1], rel=1e-3)
        inverse_t = [1.0 / abs(route().t) for route in self.routes(sol, 3e-9)]
        assert all(SINGULARITY_EPS < v < 2e-8 for v in inverse_t)
        assert inverse_t[0] == pytest.approx(inverse_t[1], rel=1e-3)


class TestPerturbative:
    def test_left_reflection_leading_value(self):
        # n = 1, m = 1, z/k0^2 = 0.01 gives R^l ~ -i pi 0.01 / 2
        spec = PotentialSpec(coupling=0.01, m=1, L=math.pi)
        lead = amplitudes_perturbative(wave_context(spec, spec.k0))
        assert lead.r_left == pytest.approx(-0.015707963267948967j, rel=1e-12)

    def test_free_limit(self):
        spec = PotentialSpec(coupling=0.0, m=1, L=math.pi)
        lead = amplitudes_perturbative(wave_context(spec, spec.k0))
        assert lead.r_left == 0 and lead.r_right == 0 and lead.t == 1

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [1, 3])
    def test_leading_order_accuracy(self, n, m):
        spec = make_spec(0.1, m=m)
        ctx = wave_context(spec, n * spec.k0)
        exact = amplitudes_analytic(ctx)
        lead = amplitudes_perturbative(ctx)
        assert abs(exact.r_left - lead.r_left) / abs(lead.r_left) < 0.05
        assert abs(exact.r_right - lead.r_right) / abs(lead.r_right) < 0.05
        assert abs((exact.t - 1) - (lead.t - 1)) / abs(lead.t - 1) < 0.05

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 3])
    def test_t_minus_1_is_the_series_term(self, n, m):
        # T - 1 = i pi m w^{n+1} / (2^{2n+1} n! (n+1)!), w = a^2; at
        # a = 1e-3 it lies far below the rounding of T = 1 + (T - 1)
        a = 1e-3 * (0.6 + 0.8j)
        lead = amplitudes_perturbative(wave_context(make_spec(a, m=m), n * m * 1.0))
        w = mp.mpc(a) ** 2
        term = 1j * mp.pi * m * w ** (n + 1) / (2 ** (2 * n + 1) * mp.factorial(n)
                                                * mp.factorial(n + 1))
        assert abs(lead.t_minus_1 - complex(term)) <= 1e-14 * abs(complex(term))
        assert lead.t == 1.0 + lead.t_minus_1

    def test_requires_integer_gamma(self):
        spec = make_spec(0.1, m=1)
        with pytest.raises(DomainError):
            amplitudes_perturbative(wave_context(spec, 0.7 * spec.k0))


class TestQualityRatios:
    def test_transparency_ratio_value(self):
        # |a|^2 = 0.01 at n = 1: |(T-1)/R^l| ~ 0.01/8
        spec = make_spec(0.1, m=1)
        _, ratio_t = invisibility_quality(wave_context(spec, spec.k0))
        assert ratio_t == pytest.approx(0.00125, rel=0.1)

    def test_m_independence(self):
        spec1 = make_spec(0.1, m=1)
        spec7 = make_spec(0.1, m=7)
        r1 = invisibility_quality(wave_context(spec1, spec1.k0))
        r7 = invisibility_quality(wave_context(spec7, spec7.k0))
        assert r1[0] == pytest.approx(r7[0], rel=0.15)
        assert r1[1] == pytest.approx(r7[1], rel=0.15)

    def test_ratios_decrease_with_n(self):
        spec = make_spec(0.1, m=1)
        r1 = invisibility_quality(wave_context(spec, 1 * spec.k0))
        r3 = invisibility_quality(wave_context(spec, 3 * spec.k0))
        assert r3[0] < r1[0]
        assert r3[1] < r1[1]

    def test_degenerate_when_left_reflection_vanishes(self):
        spec = make_spec(1.0, m=2)
        with pytest.raises(DegenerateDenominatorError):
            invisibility_quality(wave_context(spec, 1.5 * spec.k0))
