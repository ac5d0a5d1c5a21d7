import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_spec
from scatter1d import invisibility
from scatter1d.analytic import amplitudes_analytic
from scatter1d.bessel import bessel_j, bessel_j_array, real_zeros
from scatter1d.errors import DomainError, NoSolutionError, Scatter1dError
from scatter1d.invisibility import (FIG1_L_UM, FIG1_M, Mechanism,
                                    SWEEP_CSV_HEADER, VerdictKind,
                                    classify, design_unidirectional,
                                    fig1_design_point,
                                    fig1_design_wavelength_nm, fig1_sweep,
                                    wavelength_sweep)
from scatter1d.potential import PotentialSpec, from_permittivity, wave_context


class TestClassify:
    def test_bidirectional_from_interference(self):
        # kL = 3 pi with gamma = 3/2 on a two-cell slab
        spec = make_spec(0.9 - 0.2j, m=2)
        verdict = classify(wave_context(spec, 1.5 * spec.k0))
        assert verdict.kind is VerdictKind.BIDIRECTIONAL
        assert verdict.mechanism is Mechanism.MU_ZERO
        assert max(verdict.witnesses) < 1e-9
        assert verdict.inconsistency is None

    def test_left_only_worked_example(self):
        point = fig1_design_point()
        spec = make_spec(point.a_frak, m=243, L=260.0)
        verdict = classify(wave_context(spec, 2.0062 * spec.k0))
        assert verdict.kind is VerdictKind.LEFT_ONLY
        assert verdict.mechanism is Mechanism.BESSEL_ZERO_LEFT
        assert verdict.abs_r_right >= 1e-3

    def test_right_only_from_real_zero(self):
        rho = real_zeros(2.0, 1)[0].location.real
        spec = make_spec(rho, m=1)
        verdict = classify(wave_context(spec, spec.k0))
        assert verdict.kind is VerdictKind.RIGHT_ONLY
        assert verdict.mechanism is Mechanism.BESSEL_ZERO_RIGHT

    def test_generic_config_is_visible(self):
        spec = make_spec(0.3, m=1)
        verdict = classify(wave_context(spec, spec.k0))
        assert verdict.kind is VerdictKind.VISIBLE
        assert verdict.mechanism is Mechanism.NONE
        # |R^r| is two perturbative orders down (~2e-5 here); visibility is
        # carried by the reflection and transmission witnesses
        assert verdict.abs_r_left > 1e-3
        assert verdict.abs_t_minus_1 > 1e-3
        assert verdict.abs_r_right > 1e-9

    def test_common_zero_report_reuses_predicate_values(self, monkeypatch):
        # with the predicate threshold raised both zero predicates fire, so
        # the verdict carries a common-zero report built from the two J
        # values the predicate already computed
        monkeypatch.setattr(invisibility, "ZERO_PREDICATE_EPS", 1e3)
        orders = []

        def counting(nu, w, *args):
            orders.append(nu)
            return bessel_j(nu, w, *args)

        monkeypatch.setattr(invisibility, "bessel_j", counting)
        ctx = wave_context(make_spec(0.3 - 0.1j, m=1), 1.3)
        verdict = classify(ctx)
        rl, rr, t1 = verdict.witnesses
        assert orders == [ctx.gamma + 1.0, -ctx.gamma + 1.0]
        assert verdict.inconsistency == {
            "type": "common_zero_candidate",
            "gamma": ctx.gamma,
            "a_re": ctx.a_frak.real,
            "a_im": ctx.a_frak.imag,
            "abs_j_right": abs(bessel_j(ctx.gamma + 1.0, ctx.a_frak)),
            "abs_j_left": abs(bessel_j(-ctx.gamma + 1.0, ctx.a_frak)),
            "witnesses": [rl, rr, t1],
        }

    def test_rejects_free_space(self):
        spec = PotentialSpec(coupling=0.0, m=1, L=math.pi)
        with pytest.raises(DomainError):
            classify(wave_context(spec, 1.0))

    def test_mirror_duality_with_conjugate_potential(self):
        # the pointwise conjugate of a left-invisible slab is right-invisible;
        # its witnesses are those of the conjugate-coupling member swapped
        point = fig1_design_point()
        spec = make_spec(point.a_frak, m=243, L=260.0)
        k = 2.0062 * spec.k0
        v = classify(wave_context(spec, k))
        u = amplitudes_analytic(wave_context(spec.conjugate_coupling(), k))
        # (|R^l|, |R^r|, |T-1|) of the conjugate potential, via the mirror map
        star_witnesses = (abs(u.r_right), abs(u.r_left), abs(u.t - 1.0))
        assert v.kind is VerdictKind.LEFT_ONLY
        # mirrored verdict: right-invisible
        assert star_witnesses[1] < 1e-9 and star_witnesses[2] < 1e-9
        assert star_witnesses[0] > 1e-6


class TestTheorems:
    def test_interference_invisibility_grid(self):
        rng = np.random.default_rng(11)
        hits = 0
        for m in range(1, 5):
            for j in range(1, 4 * m + 1):
                if j % m == 0:
                    continue  # integer gamma
                gamma = j / m
                a = complex(rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0))
                spec = make_spec(a, m)
                amps = amplitudes_analytic(wave_context(spec, gamma * spec.k0))
                assert max(abs(amps.r_left), abs(amps.r_right),
                           abs(amps.t - 1)) < 1e-9
                hits += 1
        assert hits >= 20

    def test_control_grid_is_visible(self):
        rng = np.random.default_rng(12)
        for m in range(1, 5):
            for _ in range(6):
                gamma = float(rng.uniform(0.15, 3.8))
                # stay away from the interference condition and from integers
                if abs(gamma * m - round(gamma * m)) < 0.05:
                    continue
                a = complex(rng.uniform(0.4, 1.2), rng.uniform(0.2, 0.8))
                if _near_bessel_zero(gamma, a):
                    continue
                spec = make_spec(a, m)
                amps = amplitudes_analytic(wave_context(spec, gamma * spec.k0))
                assert max(abs(amps.r_left), abs(amps.r_right),
                           abs(amps.t - 1)) > 1e-6

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 1.7, 2.5])
    def test_right_invisibility_at_real_zeros(self, gamma):
        for z in real_zeros(gamma + 1.0, 5):
            spec = make_spec(z.location.real, m=1)
            amps = amplitudes_analytic(wave_context(spec, gamma * spec.k0))
            assert abs(amps.t - 1.0) < 1e-9
            assert abs(amps.r_right) < 1e-9
            assert abs(amps.r_left) > 1e-6

    @pytest.mark.parametrize("gamma", [0.3, 0.7])
    def test_left_invisibility_at_real_zeros(self, gamma):
        # J_{1-gamma} has positive real zeros for these orders
        for z in real_zeros(1.0 - gamma, 3):
            spec = make_spec(z.location.real, m=1)
            amps = amplitudes_analytic(wave_context(spec, gamma * spec.k0))
            assert abs(amps.t - 1.0) < 1e-9
            assert abs(amps.r_left) < 1e-9
            assert abs(amps.r_right) > 1e-6


def _near_bessel_zero(gamma: float, a: complex) -> bool:
    return (abs(bessel_j(gamma + 1.0, a)) < 0.1
            or abs(bessel_j(-gamma + 1.0, a)) < 0.1)


class TestDesign:
    def test_left_imaginary_pair_worked_example(self):
        point = design_unidirectional(2.0062, "left", "imaginary_pair")
        assert abs(point.eps0 - 1.006142617) < 1e-6
        assert abs(point.a_frak - 0.157236j) < 1e-5
        assert point.eps0.imag == 0.0

    def test_right_negative_permittivity(self):
        point = design_unidirectional(1.0, "right", 1)
        assert abs(point.a_frak.real - 5.135622301840683) < 1e-8
        assert point.eps0.real == pytest.approx(1 - 5.135622301840683 ** 2, rel=1e-10)
        assert point.eps0.real < 1

    def test_outside_hurwitz_band(self):
        with pytest.raises(NoSolutionError):
            design_unidirectional(0.5, "left", "imaginary_pair")
        with pytest.raises(NoSolutionError):
            design_unidirectional(1.0, "right", "imaginary_pair")

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            design_unidirectional(1.0, "up", 1)
        with pytest.raises(DomainError):
            design_unidirectional(-1.0, "left", 1)
        with pytest.raises(DomainError):
            design_unidirectional(math.nan, "left", "imaginary_pair")
        with pytest.raises(DomainError):
            design_unidirectional(1.0, "left", 0)
        with pytest.raises(DomainError):
            design_unidirectional(1.0, "left", "sideways")
        for selector in (True, 2.0, np.int64(0)):
            with pytest.raises(DomainError):
                design_unidirectional(0.8, "right", selector)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_gamma_must_be_positive_and_finite(self, gamma, side):
        with pytest.raises(DomainError,
                           match=re.escape(f"gamma must be positive and finite, got {gamma!r}")):
            design_unidirectional(gamma, side, "imaginary_pair")

    @pytest.mark.parametrize("gamma,side", [(40.5, "left"), (29.5, "right")])
    def test_refuses_gamma_beyond_the_bessel_bound(self, gamma, side):
        # classify needs J_{gamma+1}, so a design past NU_MAX - 1 is refused
        # up front rather than returned unclassifiable
        with pytest.raises(DomainError, match=re.escape(f"gamma={gamma:g} needs")):
            design_unidirectional(gamma, side, "imaginary_pair" if side == "left" else 1)

    @pytest.mark.parametrize("gamma,side,selector,kind", [
        (28.5, "left", "imaginary_pair", VerdictKind.LEFT_ONLY),
        (29.0, "right", 1, VerdictKind.RIGHT_ONLY),
    ])
    def test_designs_at_the_bessel_bound_classify(self, gamma, side, selector, kind):
        point = design_unidirectional(gamma, side, selector)
        if side == "left":
            assert abs(point.a_frak - 18.418j) < 1e-3
        spec = make_spec(point.a_frak, m=3)
        assert classify(wave_context(spec, gamma * spec.k0)).kind is kind

    def test_numpy_integer_zero_index(self):
        assert design_unidirectional(0.8, "right", np.int64(2)) \
            == design_unidirectional(0.8, "right", 2)

    def test_designed_points_classify_correctly(self):
        left = design_unidirectional(2.0062, "left", "imaginary_pair")
        spec = make_spec(left.a_frak, m=5)
        assert classify(wave_context(spec, 2.0062 * spec.k0)).kind \
            is VerdictKind.LEFT_ONLY
        right = design_unidirectional(0.8, "right", 2)
        spec = make_spec(right.a_frak, m=2)
        assert classify(wave_context(spec, 0.8 * spec.k0)).kind \
            is VerdictKind.RIGHT_ONLY


class TestSweep:
    def test_design_wavelength_value(self):
        assert fig1_design_wavelength_nm() == pytest.approx(1066.6522258, abs=1e-4)

    def test_dip_at_design_wavelength(self):
        # wavelengths with kL in pi Z are bidirectionally invisible, so
        # |R^l| also vanishes there; the one-sided dip is the minimum among
        # samples where the right reflection survives
        data = fig1_sweep(samples=400)
        lam_star = fig1_design_wavelength_nm()
        mask = data.abs_r_right > 1e-3
        dip = data.lambda_nm[mask][int(np.argmin(data.abs_r_left[mask]))]
        assert abs(dip - lam_star) < 0.1  # grid spacing is 0.075 nm here

    def test_design_point_depth(self):
        point = fig1_design_point()
        lam_star = fig1_design_wavelength_nm()
        at_design = wavelength_sweep(point.eps0, 243, 260.0, np.array([lam_star]))
        data = fig1_sweep(samples=200)
        assert at_design.abs_r_left[0] < 1e-4 * float(np.max(data.abs_r_left))
        assert at_design.abs_t_minus_1[0] < 1e-8
        assert at_design.abs_r_right[0] > 1e-3

    def test_oscillatory_envelope_off_design(self):
        # each curve oscillates between exact zeros (kL in pi Z) and an
        # envelope set by its own perturbative order in the weak coupling
        data = fig1_sweep(samples=400)
        assert float(np.max(data.abs_r_left)) > 0.02
        assert float(np.max(data.abs_r_right)) > 1e-3
        assert float(np.max(data.abs_t_minus_1)) > 1e-5
        for curve in (data.abs_r_left, data.abs_r_right, data.abs_t_minus_1):
            assert float(np.max(curve)) > 100.0 * float(np.min(curve))

    def test_t_minus_1_matches_mpmath_at_40_digits(self):
        # |T - 1| = |P/(2 gamma - P)| with P = i pi a^2 mu J_{1-gamma} J_{gamma+1},
        # from the same double k and coupling the sweep starts from.  Taken
        # as 2 gamma/D - 1 it was off by 1.2e-8 next to the design point.
        eps0 = fig1_design_point().eps0
        data = fig1_sweep()
        worst = 0.0
        with mp.workdps(40):
            k0 = FIG1_M * mp.pi / mp.mpf(FIG1_L_UM)
            for lam, got in zip(data.lambda_nm, data.abs_t_minus_1):
                k = 2000.0 * math.pi / float(lam)
                z = k * k * (1.0 - eps0)
                g = mp.mpf(k) / k0
                a = mp.sqrt(mp.mpc(z.real, z.imag)) / k0
                mu = (1 - mp.expj(2 * mp.pi * FIG1_M * g)) / (2j * mp.sin(mp.pi * g))
                p = 1j * mp.pi * a * a * mu * mp.besselj(1 - g, a) * mp.besselj(g + 1, a)
                ref = abs(p / (2 * g - p))
                worst = max(worst, float(abs(got - ref) / ref))
        assert worst <= 2e-10

    def test_free_space_sweep_is_identically_zero(self):
        data = fig1_sweep(samples=50, eps0=1.0)
        assert not np.any(data.abs_r_left)
        assert not np.any(data.abs_r_right)
        assert not np.any(data.abs_t_minus_1)

    @pytest.mark.parametrize("samples", [2.5, 1, "3", None])
    def test_sample_count_must_be_an_integer_of_at_least_2(self, samples):
        with pytest.raises(DomainError, match="samples must be an integer >= 2"):
            fig1_sweep(samples=samples)

    def test_integral_sample_count_accepted(self):
        assert fig1_sweep(samples=3.0).lambda_nm.tolist() == [1050.0, 1065.0, 1080.0]

    def test_empty_wavelength_grid(self):
        data = wavelength_sweep(1.006, 243, 260.0, np.array([]))
        assert data.abs_r_left.shape == data.abs_t_minus_1.shape == (0,)
        assert data.csv_text() == ",".join(SWEEP_CSV_HEADER) + "\r\n"

    def test_csv_format(self, tmp_path):
        data = fig1_sweep(samples=5)
        path = tmp_path / "sweep.csv"
        data.write_csv(str(path))
        raw = path.read_bytes()
        lines = raw.split(b"\r\n")
        assert lines[0].decode() == ",".join(SWEEP_CSV_HEADER)
        assert len(lines) == 7 and lines[-1] == b""
        # 17 significant digits round-trip the doubles exactly
        first = lines[1].decode().split(",")
        assert float(first[1]) == data.abs_r_left[0]


def scalar_row(eps0, coupling, m, L, lam):
    """One sweep row the scalar way: spec, wave_context, amplitudes_analytic."""
    k = 2000.0 * math.pi / float(lam)
    spec = (PotentialSpec(coupling, m, L) if coupling is not None
            else from_permittivity(eps0, k, m, L))
    amps = amplitudes_analytic(wave_context(spec, k))
    return abs(amps.r_left), abs(amps.r_right), abs(amps.t_minus_1)


def sweep_rows(data):
    return np.column_stack((data.abs_r_left, data.abs_r_right, data.abs_t_minus_1))


class TestSweepArrayPass:
    """``wavelength_sweep``'s array pass against the scalar path, sample by sample.

    Slabs hold eps0 fixed (a = gamma s), or the coupling fixed at a = s or
    at real positive a (the real ``jv`` branch).  The kinds of gamma:
    generic, exact integer n, n +- 1e-10 (snapped to n) and j/m with j not
    a multiple of m (kL in pi Z, mu = 0).  L = pi, so k0 = m.
    """

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(slab=st.sampled_from(["eps0", "coupling", "real_a"]),
           m=st.integers(min_value=1, max_value=8),
           re=st.floats(min_value=-3.0, max_value=3.0),
           im=st.floats(min_value=-3.0, max_value=3.0),
           points=st.lists(st.tuples(
               st.sampled_from(["generic", "integer", "snapped", "mu_zero"]),
               st.floats(min_value=0.0, max_value=1.0),
               st.integers(min_value=1, max_value=5),
               st.sampled_from([-1e-10, 1e-10])), min_size=1, max_size=6))
    def test_matches_scalar_path(self, slab, m, re, im, points):
        s = complex(re, im)
        if abs(s) < 0.1:
            return
        gammas = []
        for kind, u, n, side in points:
            if kind == "integer":
                gammas.append(float(n))
            elif kind == "snapped":
                gammas.append(n + side)
            elif kind == "mu_zero" and m > 1:
                gammas.append((n * m + 1 + int(u * (m - 2))) / m)
            else:
                gammas.append(0.05 + 4.95 * u)
        lambdas = 2000.0 * math.pi / (np.array(gammas) * m)
        eps0, coupling = {"eps0": (1.0 - s * s, None),
                          "coupling": (0.0, (s * m) ** 2),
                          "real_a": (0.0, (abs(s) * m) ** 2)}[slab]
        expected = []
        for lam in lambdas:
            try:
                expected.append(scalar_row(eps0, coupling, m, math.pi, lam))
            except Scatter1dError as exc:
                with pytest.raises(type(exc)) as info:
                    wavelength_sweep(eps0, m, math.pi, lambdas, coupling=coupling)
                assert str(info.value) == f"lambda = {lam:.6f} nm: {exc}"
                return
        got = sweep_rows(wavelength_sweep(eps0, m, math.pi, lambdas, coupling=coupling))
        assert np.all(np.abs(got - expected) <= 1e-12 * np.array(expected) + 1e-300)

    def test_first_failing_wavelength_is_named(self):
        point = fig1_design_point()
        with pytest.raises(DomainError, match=r"^lambda = -5\.000000 nm: k must be positive"):
            wavelength_sweep(point.eps0, 243, 260.0, np.array([1060.0, -5.0, -7.0]))

    def test_fixed_coupling_beyond_w_max_names_its_first_wavelength(self):
        # a = 61 on a two-cell slab (k0 = 2); gamma = 3/2 has mu = 0 and is
        # not refused, gamma = 1.45 and 1.4 are
        lambdas = 2000.0 * math.pi / np.array([3.0, 2.9, 2.8])
        with pytest.raises(DomainError, match=r"^lambda = 2166\.615623 nm: \|w\|=61 exceeds"):
            wavelength_sweep(0.0, 2, math.pi, lambdas, coupling=122.0 ** 2)

    def test_overflowing_array_j_takes_the_recurrence(self):
        # At gamma = 28.5 and a = 1e-9 (1 + 1e-9 i), J_{-29.5} passes AMOS's
        # overflow bound; bessel_j reaches it one recurrence step down
        a = complex(1e-9, 1e-18)
        assert bessel_j_array(-29.5, a)[1]
        lambdas = 2000.0 * math.pi / np.array([28.5, 3.3])
        got = sweep_rows(wavelength_sweep(0.0, 1, math.pi, lambdas, coupling=a * a))
        expected = [scalar_row(0.0, a * a, 1, math.pi, lam) for lam in lambdas]
        assert np.all(np.isfinite(got)) and np.array_equal(got, expected)
