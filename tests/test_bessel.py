import cmath
import math
import random
import types
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.optimize
from scipy.special import iv
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scatter1d import bessel
from scatter1d.bessel import (FLOOR_IM, TOL_ZERO, W_MAX, ZeroKind, bessel_j,
                              bessel_j_array, bessel_j_derivative,
                              identity_residuals, imaginary_zeros,
                              in_hurwitz_band, real_zeros)
from scatter1d.errors import (AccuracyError, ConvergenceError, DomainError,
                              Scatter1dError)

mp.mp.dps = 40


def mp_j(nu: float, w: complex) -> complex:
    # mpf(float) converts exactly; parsing repr() would shift near-pole
    # orders by ~1e-16, which changes J by percent amounts there
    return complex(mp.besselj(mp.mpf(float(nu)), mp.mpc(w)))


def reference_floor(w: complex) -> float:
    # The relative accuracy floor of scipy's jv as a formula: e^{|w| - |Im w|}
    # growth within 12 of the imaginary axis, e^{|Im w|} beyond.  bessel_j
    # refuses exactly where it passes 1e-10.
    wmag, im = abs(w), abs(complex(w).imag)
    loss = max(0.0, wmag - im) if wmag - im <= 12.0 else im
    return 2.220446049250313e-16 * 0.2 * math.exp(min(loss, 80.0))


class TestValues:
    def test_at_origin(self):
        assert bessel_j(0.0, 0j) == 1.0
        assert bessel_j(2.0, 0j) == 0.0
        assert bessel_j(-3.0, 0j) == 0.0
        with pytest.raises(DomainError):
            bessel_j(-0.5, 0j)

    def test_near_imaginary_zero_of_hurwitz_order(self):
        # 0.157236i is (to six digits) an imaginary zero of J_{-1.0062}
        assert abs(bessel_j(-1.0062, 0.157236j)) < 1e-5

    def test_frozen_high_precision_point(self):
        # 40-digit series evaluation of J_{3/2}(2)
        ref = 0.4912937786871623450
        val = bessel_j(1.5, 2.0 + 0j)
        assert abs(val - ref) <= 1e-12 * abs(ref)
        assert abs(val.imag) == 0.0

    @pytest.mark.parametrize("nu", [-7.5, -2.3, -1.0, 0.0, 0.5, 1.0, 3.25, 9.0])
    @pytest.mark.parametrize("r", [0.3, 2.0, 9.5, 14.0, 27.0])
    @pytest.mark.parametrize("phase", [0.0, 0.8, math.pi / 2, 2.7, math.pi, -1.2])
    def test_against_independent_series_oracle(self, nu, r, phase):
        w = r * cmath.exp(1j * phase)
        tol = max(1e-12, 2.0 * reference_floor(w))
        val = bessel_j(nu, w)
        ref = mp_j(nu, w)
        scale = max(abs(ref), abs(mp_j(nu + 1.0, w)))
        assert abs(val - ref) <= 50.0 * tol * scale

    @pytest.mark.parametrize("nu", [-1.9999999999999982, -8.999999999999998,
                                    -9.999999999999998, -3.0000000000000004])
    def test_orders_a_few_ulps_from_negative_integers(self, nu):
        # regression: the series must not stop in the term valley before the
        # reciprocal-Gamma pole, and sin(pi nu) needs exact mod-1 reduction
        for w in (1j, 0.8 + 0.3j, 3.0 + 0j):
            ref = mp_j(nu, w)
            assert abs(bessel_j(nu, w) - ref) <= 1e-12 * max(abs(ref), 1e-30)

    def test_continuous_across_integer_order(self):
        for w in (0.7 + 0.2j, 5.0 - 1.0j, 15.5 + 0.5j):
            mid = bessel_j(2.0, w)
            lo = bessel_j(2.0 - 1e-9, w)
            hi = bessel_j(2.0 + 1e-9, w)
            scale = max(abs(mid), 1.0)
            assert abs(lo - mid) < 1e-6 * scale
            assert abs(hi - mid) < 1e-6 * scale

    def test_domain_and_accuracy_errors(self):
        with pytest.raises(DomainError):
            bessel_j(0.0, complex(W_MAX + 5.0))
        with pytest.raises(DomainError):
            bessel_j(float("nan"), 1.0 + 0j)
        with pytest.raises(AccuracyError, match=r"w=\(30\+16j\)"):
            bessel_j(0.0, 30.0 + 16j)


class TestContract:
    def test_against_mpmath_on_a_seeded_ensemble(self):
        # AccuracyError exactly where the floor passes 1e-10, mpmath agreement
        # to 50 times the floor (at least 1e-14) everywhere else
        rng = random.Random(20261018)
        refused = 0
        for _ in range(400):
            nu = rng.uniform(-30.0, 30.0)
            r = 60.0 * rng.uniform(1e-4, 1.0)
            axis = rng.random()
            if axis < 0.15:
                w = complex(r, 0.0)
            elif axis < 0.3:
                w = complex(0.0, r)
            elif axis < 0.4:
                w = complex(-r, 0.0)
            else:
                w = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            tol = max(1e-14, reference_floor(w))
            if tol > 1e-10:
                refused += 1
                with pytest.raises(AccuracyError):
                    bessel_j(nu, w)
                continue
            val = bessel_j(nu, w)
            ref = mp_j(nu, w)
            scale = max(abs(ref), abs(mp_j(nu + 1.0, w)))
            assert abs(val - ref) <= 50.0 * tol * scale, (nu, w, tol)
        assert 20 < refused < 380

    def test_scan_iterate_beyond_the_floor(self):
        # the Newton iterate on which scan_singularities(2, 1) stops
        with pytest.raises(AccuracyError):
            bessel_j(2.0, 26.767 + 23.4665j)

    def test_refusals_follow_the_floor_formula(self):
        # AccuracyError, and the array form's refusal, exactly where
        # reference_floor passes 1e-10: over the disc |w| <= 60, within
        # 1e-12 of |Im w| = ln(1e-10 / (0.2 eps)) ~ 14.627 and of
        # |w| - |Im w| = 12, and on the 50 doubles either side of both
        def doubles_around(x):
            below, above = [x], [x]
            for _ in range(50):
                below.append(math.nextafter(below[-1], -math.inf))
                above.append(math.nextafter(above[-1], math.inf))
            return np.array(below[:0:-1] + above)

        rng = np.random.default_rng(0x5EED)
        n = 3000
        edge = math.log(1e-10 / (0.2 * 2.220446049250313e-16))
        sign = rng.choice([-1.0, 1.0], size=(3, n))
        disc = 60.0 * np.sqrt(rng.uniform(size=n)) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        im = edge + rng.uniform(-1e-12, 1e-12, n)
        across_im = sign[0] * rng.uniform(0.0, 58.0, n) + 1j * sign[1] * im
        im = rng.uniform(14.0, 30.0, n)
        re = np.sqrt((12.0 + im + rng.uniform(-1e-12, 1e-12, n)) ** 2 - im * im)
        across_12 = sign[2] * re + 1j * sign[0] * im
        next_to_edge = 40.0 + 1j * doubles_around(edge)
        im = rng.uniform(15.0, 30.0, 20)
        re = np.sqrt((12.0 + im) ** 2 - im * im)
        next_to_12 = np.concatenate([doubles_around(x) + 1j * y
                                     for x, y in zip(re.tolist(), im.tolist())])
        w = np.concatenate([disc, across_im, across_12, next_to_edge, next_to_12])
        expected = [reference_floor(x) > 1e-10 for x in w.tolist()]
        assert 0.1 * len(w) < sum(expected) < 0.9 * len(w)
        for x, beyond in zip(w.tolist(), expected):
            try:
                bessel_j(0.5, x)
            except AccuracyError:
                assert beyond, x
            else:
                assert not beyond, x
        assert bessel_j_array(0.5, w)[1].tolist() == expected

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"nu=-29\.5"):
            bessel_j(-29.5, 1e-12)
        with pytest.raises(DomainError, match=r"nu=-24\.5"):
            bessel_j(-24.5, 1e-15j)

    @pytest.mark.parametrize("w", [8.26e-10j, complex(-8.26e-10, 0.0), 6e-10 + 5e-10j])
    def test_values_amos_reports_as_overflow(self, w):
        # |J| ~ 1e306: inside double range, beyond what AMOS returns
        ref = mp_j(-29.5, w)
        assert abs(ref) > 1e305
        assert abs(bessel_j(-29.5, w) - ref) <= 1e-13 * abs(ref)


class TestArrayForm:
    # Both sides of the cut, the real branch, the origin, and one point per
    # refusal: |nu|, |w|, J_nu(0) at negative non-integer nu, the floor,
    # non-finite input, AMOS overflow that the recurrence recovers and
    # overflow that it does not
    POINTS = [(2.3, 1.7), (2.3, -1.7), (-1.4, complex(-2.0, 0.0)),
              (-1.4, complex(-2.0, -0.0)), (0.6, 0.9 + 1.2j), (0.6, 0.9 - 1.2j),
              (-2.5, 3j), (-2.5, -3j), (0.0, 0j), (2.0, 0j), (-2.0, 0j), (-2.5, 0j),
              (31.0, 1.0), (1.0, 61.0), (0.5, 30 + 16j), (math.nan, 1.0),
              (1.0, complex(math.inf, 0.0)), (-29.5, 8.26e-10j), (-29.5, 1e-12)]

    def test_matches_bessel_j(self):
        nu, w = zip(*self.POINTS)
        values, refused = bessel_j_array(np.array(nu), np.array(w, dtype=complex))
        for point, value, refuse in zip(self.POINTS, values.tolist(), refused):
            try:
                expected = bessel_j(*point)
            except Scatter1dError:
                assert refuse, point
                continue
            if refuse:  # only where AMOS overflows and bessel_j recurs
                assert not cmath.isfinite(value), point
            else:
                assert value == expected, point

    def test_refuses_where_relative_floor_exceeds_the_default_tolerance(self):
        w = np.array([30 + 16j, 30 + 14j])
        assert [reference_floor(x) > 1e-10 for x in w.tolist()] == [True, False]
        assert bessel_j_array(0.5, w)[1].tolist() == [True, False]


class TestDerivative:
    def test_order_zero_is_minus_j1(self):
        for x in (1e-3, 0.3, 2.5):
            lhs = bessel_j_derivative(0.0, complex(x))
            rhs = -bessel_j(1.0, complex(x))
            assert abs(lhs - rhs) <= 1e-12

    def test_finite_difference(self):
        h = 1e-5
        fd = (bessel_j(1.0, 1.0 + h) - bessel_j(1.0, 1.0 - h)) / (2 * h)
        assert abs(bessel_j_derivative(1.0, 1.0 + 0j) - fd) < 1e-8

    def test_simple_zero_has_nonzero_derivative(self):
        nu = 3.0062
        z = real_zeros(nu, 1)[0]
        assert abs(bessel_j_derivative(nu, z.location)) > 1e-3

    def test_at_origin(self):
        assert bessel_j_derivative(0.0, 0j) == 0.0
        assert bessel_j_derivative(1.0, 0j) == 0.5
        with pytest.raises(DomainError):
            bessel_j_derivative(2.0, 0j)


class TestRealZeros:
    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.0062, 4.5, 7.3])
    def test_first_ten_against_mpmath(self, nu):
        zs = real_zeros(nu, 10)
        assert [z.index for z in zs] == list(range(1, 11))
        for z in zs:
            ref = float(mp.besseljzero(mp.mpf(nu), z.index))
            assert abs(z.location.real - ref) <= 5e-13 * ref
            assert z.location.imag == 0.0

    def test_integral_float_count(self):
        assert len(real_zeros(0.0, 2.0)) == 2

    def test_j2_first_zero(self):
        z = real_zeros(2.0, 1)[0]
        assert abs(z.location.real - 5.135622301840683) < 1e-8
        assert z.kind is ZeroKind.REAL_AXIS

    @pytest.mark.parametrize("nu", [-1.5, -0.5, 0.0, 0.3, 1.0, 2.0062, 4.5])
    def test_zero_invariants(self, nu):
        zs = real_zeros(nu, 6)
        locs = [z.location.real for z in zs]
        assert locs == sorted(locs)
        for z in zs:
            assert abs(bessel_j(nu, z.location)) <= TOL_ZERO
            assert abs(bessel_j_derivative(nu, z.location)) > 1e-6

    @pytest.mark.parametrize("nu", [0.5, 1.3, 2.5, 4.0, -2.5])
    def test_adjacent_orders_never_share_zeros(self, nu):
        for z in real_zeros(nu - 1.0, 10):
            assert abs(bessel_j(nu + 1.0, z.location)) > 1e-6

    def test_count_validation(self):
        with pytest.raises(DomainError):
            real_zeros(0.0, 0)
        for count in (2.5, "3", math.nan, None):
            with pytest.raises(DomainError, match="count must be an integer >= 1"):
                real_zeros(1.0, count)
        with pytest.raises(DomainError, match="order must be finite, got nan"):
            real_zeros(math.nan, 1)


class TestImaginaryZeros:
    def test_hurwitz_band_predicate(self):
        assert in_hurwitz_band(-1.0062)
        assert in_hurwitz_band(-1.5)
        assert in_hurwitz_band(-3.5)
        assert not in_hurwitz_band(0.5)
        assert not in_hurwitz_band(-0.5)
        assert not in_hurwitz_band(-2.5)
        assert not in_hurwitz_band(-2.0)

    def test_published_pair(self):
        pair = imaginary_zeros(-1.0062)
        assert pair is not None
        plus, minus = pair
        assert abs(plus.location - 0.157236j) < 1e-5
        assert minus.location == -plus.location
        assert plus.kind is ZeroKind.IMAGINARY_AXIS
        assert abs(bessel_j(-1.0062, plus.location)) <= TOL_ZERO
        assert abs(bessel_j_derivative(-1.0062, plus.location)) > 1e-6

    def test_nan_order_is_a_domain_error(self):
        with pytest.raises(DomainError):
            in_hurwitz_band(math.nan)
        with pytest.raises(DomainError):
            imaginary_zeros(math.nan)

    def test_outside_band_is_empty(self):
        assert imaginary_zeros(0.5) is None
        assert imaginary_zeros(-2.5) is None
        assert imaginary_zeros(-3.0) is None

    @pytest.mark.parametrize("nu", [-1.5 - 2.0 * p for p in range(15)] + [-69.9])
    def test_window_is_one_bracket(self, nu):
        # one order per Hurwitz band down to (-30, -29), and one beyond
        # NU_MAX: the profile has opposite signs at the window's ends, and
        # the one zero between them matches the root of the 30-digit
        # Gamma(nu+1) I_nu(y)/(y/2)^nu = 0F1(; nu+1; y^2/4)
        def profile(y):
            return iv(nu, y) / (0.5 * y) ** nu

        assert profile(1e-4) < 0.0 < profile(W_MAX)
        y = imaginary_zeros(nu)[0].location.imag
        with mp.workdps(30):
            ref = mp.findroot(lambda t: mp.hyp0f1(nu + 1, t * t / 4), mp.mpf(y),
                              verify=False)
            assert abs(y - ref) <= 1e-15 * ref

    def test_window_reaches_past_45(self):
        plus, _ = imaginary_zeros(-69.9)
        assert plus.location.real == 0.0
        assert abs(plus.location.imag - 46.1931) < 1e-4

    @pytest.mark.parametrize("nu", [-1.0062, -1.5, -1.9999, -3.2, -5.7])
    def test_against_dense_scan_oracle(self, nu):
        # independent check: high-precision scan of |J_nu(iy)| on a grid,
        # then bisection on the scaled profile computed with mpmath
        pair = imaginary_zeros(nu)
        assert pair is not None

        def profile(y):
            return float((mp.besselj(nu, 1j * mp.mpf(y)) / (1j * mp.mpf(y) / 2) ** nu).real)

        ys = [0.01 * 1.2 ** j for j in range(60) if 0.01 * 1.2 ** j < 5.0]
        bracket = None
        for lo, hi in zip(ys, ys[1:]):
            if profile(lo) * profile(hi) < 0:
                bracket = (lo, hi)
                break
        assert bracket is not None
        lo, hi = bracket
        f_lo = profile(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f_mid = profile(mid)
            if f_lo * f_mid <= 0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        assert abs(pair[0].location.imag - 0.5 * (lo + hi)) < 1e-13


class TestBracketedRoots:
    def test_exact_grid_zero_yielded_once(self):
        assert list(bessel._bracketed_roots(lambda x: x - 1.0,
                                            [0.0, 0.5, 1.0, 1.5, 2.0])) == [1.0]

    def test_no_sign_change_yields_nothing(self):
        assert list(bessel._bracketed_roots(lambda x: x * x + 1.0,
                                            [-2.0, -1.0, 0.0, 1.0, 2.0])) == []

    def test_roots_in_grid_order(self):
        roots = list(bessel._bracketed_roots(math.sin, [0.5 + 0.5 * i for i in range(20)]))
        assert roots == [math.pi, 2.0 * math.pi, 3.0 * math.pi]

    def test_stalled_brent_is_a_convergence_error(self, monkeypatch):
        def stalled(f, a, b, **kwargs):
            return 0.5 * (a + b), types.SimpleNamespace(converged=False,
                                                        flag="convergence error")

        monkeypatch.setattr(scipy.optimize, "brentq", stalled)
        with pytest.raises(ConvergenceError, match="Brent"):
            real_zeros(0.0, 1)


class TestIdentities:
    def test_all_residuals_small_at_moderate_argument(self):
        res = identity_residuals(0.3, 1.7 + 0j)
        assert res.continuation < 1e-12
        assert res.cross_sum < 1e-12
        assert res.cross_diff < 1e-12
        assert res.recurrence < 1e-12

    def test_half_integer_closed_forms_oracle(self):
        # J_{1/2}, J_{-1/2}, J_{3/2}, J_{-3/2} have explicit sin/cos forms;
        # evaluate the product identity from them directly.
        w = 2.0
        c = math.sqrt(2.0 / (math.pi * w))
        j_half = c * math.sin(w)
        j_mhalf = c * math.cos(w)
        j_3half = c * (math.sin(w) / w - math.cos(w))
        j_m3half = c * (-math.cos(w) / w - math.sin(w))
        explicit = j_3half * j_mhalf + j_half * j_m3half + 2 * math.sin(math.pi * 0.5) / (math.pi * w)
        assert abs(explicit) < 1e-12
        assert identity_residuals(0.5, complex(w)).cross_sum < 1e-12

    def test_reflection_phase_at_quarter_order(self):
        res = identity_residuals(0.25, 1.3 + 0j)
        assert res.continuation < 1e-12

    def test_requires_nonzero_argument(self):
        with pytest.raises(DomainError):
            identity_residuals(0.3, 0j)


def bits(z: complex) -> tuple[str, str]:
    # float.hex tells +0.0 from -0.0, which == does not
    return (z.real.hex(), z.imag.hex())


class TestFamilyMemo:
    """A value never depends on what was evaluated before it."""

    @pytest.mark.parametrize("nu", [-7.3, -2.5, 0.3, 3.7])
    @pytest.mark.parametrize("r", [14.0, 30.0, 59.0])
    @pytest.mark.parametrize("phase", [0.0, 0.1, -0.1, math.pi - 0.1, math.pi])
    def test_cold_and_warm_values_bit_equal(self, nu, r, phase):
        w = r * cmath.exp(1j * phase)
        rng = random.Random(f"{nu}/{r}/{phase}")
        orders = [nu - 1.0, nu, nu + 1.0, -nu, -nu - 1.0]
        cold = {order: bits(bessel_j(order, w)) for order in orders}
        for order in orders:
            siblings = [o for o in orders if o != order]
            rng.shuffle(siblings)
            for o in siblings:
                assert bits(bessel_j(o, w)) == cold[o]
            assert bits(bessel_j(order, w)) == cold[order]

    @pytest.mark.parametrize("nu", [-2.5, 0.3, 3.7])
    @pytest.mark.parametrize("x", [14.5, 20.0, 30.0])
    def test_signed_zero_sides_of_the_cut(self, nu, x):
        # -x+0j and -x-0j compare and hash alike but lie on opposite sides
        # of the cut, where J takes conjugate values
        above, below = complex(-x, 0.0), complex(-x, -0.0)
        cold_above = bessel_j(nu, above)
        cold_below = bessel_j(nu, below)
        assert abs(cold_above.imag) > 1e-3
        assert bits(cold_below) == bits(cold_above.conjugate())
        sides = ((above, cold_above), (below, cold_below))
        for (w1, ref1), (w2, ref2) in (sides, sides[::-1]):
            got1 = bessel_j(nu, w1)
            got2 = bessel_j(nu, w2)
            assert bits(got1) == bits(ref1)
            assert bits(got2) == bits(ref2)


coords = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(nu=st.floats(min_value=-8, max_value=8), re=coords, im=coords)
    def test_conjugation_symmetry(self, nu, re, im):
        w = complex(re, im)
        if abs(w) < 1e-3:
            return
        a = bessel_j(nu, w.conjugate())
        b = bessel_j(nu, w).conjugate()
        assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(ell=st.integers(min_value=0, max_value=8), re=coords, im=coords)
    def test_integer_reflection(self, ell, re, im):
        w = complex(re, im)
        if abs(w) < 1e-6:
            return
        assert abs(bessel_j(float(-ell), w) - (-1.0) ** ell * bessel_j(float(ell), w)) \
            <= 1e-12 * max(abs(bessel_j(float(ell), w)), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(nu=st.floats(min_value=-9, max_value=9), re=coords, im=coords)
    def test_recurrence_residual(self, nu, re, im):
        # The identity links orders exactly 1 apart; at nu = -7.999999999999999
        # nu - 1 rounds to -9.0, which would test it at orders that are not.
        assume(Fraction(nu - 1.0) == Fraction(nu) - 1
               and Fraction(nu + 1.0) == Fraction(nu) + 1)
        w = complex(re, im)
        if abs(w) < 1e-3:
            return
        jm = bessel_j(nu - 1.0, w)
        j0 = bessel_j(nu, w)
        jp = bessel_j(nu + 1.0, w)
        scale = max(abs(jm), abs(j0), abs(jp), 1.0)
        assert abs(w * jp - 2.0 * nu * j0 + w * jm) <= 1e-10 * scale
