import math

import numpy as np
import pytest

from conftest import make_spec
from scatter1d import invisibility
from scatter1d.analytic import amplitudes_analytic
from scatter1d.bessel import bessel_j, real_zeros
from scatter1d.errors import DomainError, NoSolutionError
from scatter1d.invisibility import (Mechanism, SWEEP_CSV_HEADER, VerdictKind,
                                    classify, design_unidirectional,
                                    fig1_design_point,
                                    fig1_design_wavelength_nm, fig1_sweep,
                                    wavelength_sweep)
from scatter1d.potential import PotentialSpec, wave_context


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

    def test_free_space_sweep_is_identically_zero(self):
        data = fig1_sweep(samples=50, eps0=1.0)
        assert not np.any(data.abs_r_left)
        assert not np.any(data.abs_r_right)
        assert not np.any(data.abs_t_minus_1)

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
