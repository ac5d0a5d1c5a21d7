import cmath
import math

import numpy as np
import pytest

from conftest import make_spec
from scatter1d.errors import DomainError
from scatter1d.potential import (PotentialSpec, evaluate_potential,
                                 from_permittivity, mu_factor, mu_factor_array,
                                 permittivity, snap_gamma, snap_gamma_array,
                                 wave_context)
from scatter1d.shooting import shooting_amplitudes
from scatter1d.transfer import SampledPotential, s_boundary, transfer_matrix


class TestSpec:
    def test_k0_relation(self):
        spec = PotentialSpec(coupling=1.0, m=3, L=2.0)
        assert spec.k0 * spec.L == pytest.approx(3 * math.pi, abs=0)

    def test_validation(self):
        with pytest.raises(DomainError):
            PotentialSpec(coupling=1.0, m=0, L=1.0)
        with pytest.raises(DomainError):
            PotentialSpec(coupling=1.0, m=1, L=-2.0)

    @pytest.mark.parametrize("coupling", [complex("nan"), complex("inf"), complex(1.0, math.inf)])
    def test_non_finite_coupling_refused(self, coupling):
        # such a coupling made every integrating route hang inside solve_ivp
        with pytest.raises(DomainError, match=r"coupling must be finite, got \("):
            PotentialSpec(coupling=coupling, m=1, L=math.pi)

    def test_cell_count_takes_integral_values(self):
        assert PotentialSpec(coupling=1.0, m=2.0, L=1.0).m == 2
        assert type(PotentialSpec(coupling=1.0, m=np.int64(2), L=1.0).m) is int
        for m in (2.5, "2", math.nan, math.inf, None, True, False, np.True_):
            with pytest.raises(DomainError):
                PotentialSpec(coupling=1.0, m=m, L=1.0)

    def test_free_space_allowed(self):
        spec = PotentialSpec(coupling=0.0, m=1, L=1.0)
        assert spec.coupling == 0


SPEC = PotentialSpec(coupling=0.3 + 0.1j, m=2, L=1.0)


class TestWavenumber:
    @pytest.mark.parametrize("entry", [
        lambda k: wave_context(SPEC, k),
        lambda k: permittivity(SPEC, k),
        lambda k: from_permittivity(1.2, k, 2, 1.0),
        lambda k: transfer_matrix(SampledPotential.from_spec(SPEC), k),
        lambda k: s_boundary(SampledPotential.from_spec(SPEC), k),
        lambda k: shooting_amplitudes(SampledPotential.from_spec(SPEC), k),
    ], ids=["wave_context", "permittivity", "from_permittivity",
            "transfer_matrix", "s_boundary", "shooting_amplitudes"])
    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
    def test_rejected_and_named(self, entry, k):
        with pytest.raises(DomainError, match=f"k must be positive and finite, got {k!r}$"):
            entry(k)


class TestMu:
    def test_kl_multiple_of_pi_gives_exact_zero(self):
        # m = 2, L = pi, k = 0.5 k0: gamma = 1/2, kL = pi
        spec = PotentialSpec(coupling=1.0 + 0.5j, m=2, L=math.pi)
        ctx = wave_context(spec, 0.5 * spec.k0)
        assert ctx.mu == 0
        assert ctx.gamma_integer is None

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 5), (2, 4), (3, 2)])
    def test_integer_limit(self, n, m):
        spec = PotentialSpec(coupling=0.3, m=m, L=math.pi)
        ctx = wave_context(spec, n * spec.k0)
        assert ctx.gamma_integer == n
        assert ctx.mu == (-1) ** (n + 1) * m

    def test_continuity_into_integer_limit(self):
        for n in (1, 2, 3):
            for m in (1, 4):
                spec = PotentialSpec(coupling=0.3, m=m, L=math.pi)
                mu = wave_context(spec, (n + 1e-6) * spec.k0).mu
                assert abs(mu - (-1) ** (n + 1) * m) < 1e-3 * m

    def test_worked_kl_value(self):
        # m = 243, L = 260 um, gamma = 2.0062 gives kL = 1531.547
        spec = PotentialSpec(coupling=1.0, m=243, L=260.0)
        k = 2.0062 * spec.k0
        assert abs(k * spec.L - 1531.547) < 1e-3

    def test_mu_factor_integer_limit(self):
        # the 0/0 form at gamma = n is replaced by its limit (-1)^(n+1) m,
        # also within INTEGER_SNAP_EPS of n
        for n, m in [(1, 1), (1, 5), (2, 3), (3, 2), (4, 7)]:
            limit = (-1) ** (n + 1) * m
            for gamma in (float(n), n - 1e-10, n + 1e-10):
                assert mu_factor(gamma, m) == limit
            assert abs(mu_factor(n + 1e-7, m) - limit) < 1e-5 * m

    def test_snap_gamma(self):
        assert snap_gamma(2.0 + 5e-10) == 2.0 and snap_gamma(3 - 5e-10) == 3.0
        assert snap_gamma(2.0 + 2e-9) == 2.0 + 2e-9
        assert snap_gamma(0.5) == 0.5
        for gamma in (0.0, 5e-10, -5e-10):
            with pytest.raises(DomainError, match="snapped to 0"):
                snap_gamma(gamma)

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
    def test_non_finite_gamma_is_a_domain_error(self, gamma):
        with pytest.raises(DomainError, match=f"gamma must be finite, got {gamma!r}"):
            snap_gamma(gamma)
        with pytest.raises(DomainError, match=f"gamma must be finite, got {gamma!r}"):
            mu_factor(gamma, 2)

    def test_array_forms_match_scalar(self):
        gammas = [0.3, 2.0, 2.0 + 5e-10, 3 - 5e-10, 2.0 + 2e-9, 1.5, 4 / 3, 2 / 3,
                  0.5, 2.0062, 7.25, 1e-12, -5e-10]
        snapped = snap_gamma_array(np.array(gammas))
        for gamma, got in zip(gammas, snapped.tolist()):
            try:
                assert got == snap_gamma(gamma)
            except DomainError:
                assert got == 0.0
        orders = snapped[snapped != 0.0]
        for m in (1, 2, 3, 243):
            expected = [mu_factor(g, m) for g in orders.tolist()]
            assert mu_factor_array(orders, m).tolist() == expected

    def test_half_integer_odd_m(self):
        assert mu_factor(0.5, 1) == pytest.approx(-1j)
        assert mu_factor(0.5, 3) == pytest.approx(-1j)


class TestEvaluate:
    def test_unit_cell_phases(self):
        z = 0.7 - 0.2j
        spec = PotentialSpec(coupling=z, m=4, L=2.0)
        assert evaluate_potential(spec, 0.0) == z
        cell = spec.L / spec.m
        assert evaluate_potential(spec, cell) == pytest.approx(z, rel=1e-14)
        assert evaluate_potential(spec, cell / 4) == pytest.approx(-1j * z, rel=1e-13)

    def test_zero_outside_support(self):
        spec = PotentialSpec(coupling=1.0, m=1, L=1.0)
        assert evaluate_potential(spec, -0.1) == 0
        assert evaluate_potential(spec, 1.1) == 0


class TestPermittivity:
    def test_free_space(self):
        spec = from_permittivity(1.0, k=2.0, m=1, L=1.0)
        assert spec.coupling == 0

    def test_worked_left_invisible_coupling(self):
        # eps0 = 1.006142617 at gamma = 2.0062 gives a = 0.157236i
        m, L = 243, 260.0
        k = 2.0062 * m * math.pi / L
        spec = from_permittivity(1.006142617, k, m, L)
        ctx = wave_context(spec, k)
        assert abs(ctx.a_frak - 0.157236j) < 1e-5

    def test_table_coupling(self):
        # eps0 = 1.159217 - 0.151491i at gamma = 1 gives a = 0.174004 + 0.435309i
        m, L = 100, math.pi
        k = 1.0 * m
        spec = from_permittivity(1.159217 - 0.151491j, k, m, L)
        ctx = wave_context(spec, k)
        assert abs(ctx.a_frak - (0.174004 + 0.435309j)) < 1e-5

    def test_round_trip(self):
        spec = PotentialSpec(coupling=0.8 - 1.3j, m=5, L=2.5)
        k = 1.7 * spec.k0
        prof = permittivity(spec, k)
        again = from_permittivity(prof.eps0, k, spec.m, spec.L)
        assert abs(again.coupling - spec.coupling) <= 1e-14 * abs(spec.coupling)

    def test_profile_shape(self):
        spec = PotentialSpec(coupling=0.5 + 0.1j, m=2, L=1.0)
        k = 1.3 * spec.k0
        prof = permittivity(spec, k)
        ctx = wave_context(spec, k)
        assert prof.eps0 == pytest.approx(1 - ctx.a_frak ** 2 / ctx.gamma ** 2, rel=1e-12)
        assert prof.at(-0.5) == 1.0
        assert prof.at(2.0) == 1.0
        x = 0.37
        expected = 1 + (prof.eps0 - 1) * cmath.exp(-2j * spec.k0 * x)
        assert prof.at(x) == pytest.approx(expected, rel=1e-14)

    def test_eps0_on_context(self):
        spec = PotentialSpec(coupling=0.5 + 0.1j, m=2, L=1.0)
        k = 1.3 * spec.k0
        assert wave_context(spec, k).eps0 == permittivity(spec, k).eps0

    @pytest.mark.parametrize("k", [1e-150, 1.3])
    def test_finite_eps0_is_the_expression(self, k):
        spec = PotentialSpec(coupling=1 + 1j, m=3, L=1.0)
        assert permittivity(spec, k).eps0 == 1.0 - spec.coupling / (k * k)

    @pytest.mark.parametrize("k", [1e-170, 1e-160])
    def test_tiny_k_refused_and_named(self, k):
        # k * k underflows to 0 at 1e-170, and z/k^2 overflows at 1e-160
        with pytest.raises(DomainError, match=f"^k={k!r} is too small"):
            permittivity(PotentialSpec(coupling=1 + 1j, m=3, L=1.0), k)
        # a support this long keeps gamma = kL/(pi m) clear of the snap to 0
        ctx = wave_context(PotentialSpec(coupling=1 + 1j, m=1, L=1e170), k)
        with pytest.raises(DomainError, match=f"^k={k!r} is too small"):
            ctx.eps0


class TestBranch:
    def test_sqrt_branch_consistency(self):
        # a^2 = z/k0^2 and a = i gamma sqrt(eps0 - 1) must agree
        for a_target in (0.5 + 0.3j, -0.2 + 0.9j, 1.5, 0.157236j):
            spec = make_spec(a_target, m=3)
            k = 1.23 * spec.k0
            ctx = wave_context(spec, k)
            assert abs(ctx.a_frak ** 2 - spec.coupling / spec.k0 ** 2) <= 1e-12
            alt = 1j * ctx.gamma * cmath.sqrt(ctx.eps0 - 1.0)
            assert min(abs(ctx.a_frak - alt), abs(ctx.a_frak + alt)) <= 1e-12
            assert ctx.a_frak.real > 0 or (ctx.a_frak.real == 0 and ctx.a_frak.imag >= 0)

    def test_invalid_wavenumber(self):
        spec = PotentialSpec(coupling=1.0, m=1, L=1.0)
        with pytest.raises(DomainError):
            wave_context(spec, 0.0)
        with pytest.raises(DomainError):
            permittivity(spec, -1.0)
