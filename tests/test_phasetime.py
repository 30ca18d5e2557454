import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gamma, gammainc

from tunneltime import phasetime
from tunneltime.phasetime import (
    MomentTable,
    model_density,
    model_density_argmax,
    moments_closed_form,
    moments_quadrature,
    expansion_coefficients,
    phase_time_moments,
    phase_time_spm,
    s_coefficients,
    transit_velocity,
)
from tunneltime.quadrature import integrate_adaptive
from tunneltime.transmission import modulus_phase
from tunneltime.units import DimensionlessParams

mp.mp.dps = 40


def params_from_a(a: float, lam: float) -> DimensionlessParams:
    return DimensionlessParams(W=math.sqrt(1.0 + a * a), lam=lam)


# Independent rational-arithmetic route for the closed-form moments and the
# moment phase time (exact in Fraction, no float cancellation).

def _moments_fraction(a: Fraction, lam: Fraction) -> list[Fraction]:
    return [
        Fraction(math.factorial(n + 2))
        / lam ** (n + 3)
        * (1 + 2 * a * lam / (n + 2) + (a * lam) ** 2 * Fraction(1, (n + 2) * (n + 1)))
        for n in range(5)
    ]


def _phase_time_fraction(a: Fraction, lam: Fraction) -> Fraction:
    s = _moments_fraction(a, lam)
    A = s[1] ** 2 - s[0] * s[2]
    B = s[1] * s[2] - s[0] * s[3]
    C = s[2] ** 2 - s[0] * s[4]
    return (2 * (1 + a * a) * B + 4 * a * A) / (C + 4 * a * B + 4 * a * a * A)


# the three consumers of a moment table, each taking the table alone
CONSUMERS = (phase_time_moments, model_density_argmax, lambda m: model_density(m, 1.0))


class TestMoments:
    def test_reduction_at_a_zero(self):
        table = moments_closed_form(DimensionlessParams(W=1.0, lam=100.0))
        assert table.s0 == pytest.approx(2e-6, rel=1e-13)
        for n, s in enumerate(table.values):
            assert s == pytest.approx(math.factorial(n + 2) / 100.0 ** (n + 3), rel=1e-13)

    def test_n0_closed_form_is_infinite_limit_integral(self):
        # s(0) = 2/lam^3 + 2a/lam^2 + a^2/lam, exactly
        params = params_from_a(1.0, 50.0)
        a, lam = params.a, params.lam
        table = moments_closed_form(params)
        assert table.s0 == pytest.approx(2 / lam**3 + 2 * a / lam**2 + a**2 / lam, rel=1e-13)
        numeric = mp.quad(lambda r: (r + a) ** 2 * mp.e ** (-r * lam), [0, mp.inf])
        assert table.s0 == pytest.approx(float(numeric), rel=1e-12)

    def test_direct_value_a1_lam100_n2(self):
        table = moments_closed_form(params_from_a(1.0, 100.0))
        expected = (24.0 / 100.0**5) * (1.0 + 200.0 / 4.0 + 10000.0 / 12.0)
        assert table.s2 == pytest.approx(expected, rel=1e-12)

    def test_fraction_oracle_agreement(self):
        table = moments_closed_form(params_from_a(0.5, 80.0))
        exact = _moments_fraction(Fraction(1, 2), Fraction(80))
        for s_float, s_frac in zip(table.values, exact):
            assert s_float == pytest.approx(float(s_frac), rel=1e-11)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            moments_closed_form(DimensionlessParams(W=1.0, lam=0.0))
        with pytest.raises(ValueError):
            moments_quadrature(DimensionlessParams(W=1.0, lam=0.0))

    def test_quadrature_matches_incomplete_gamma(self):
        # finite upper limit R: Int_0^R rho^m e^{-lam rho} = Gamma(m+1) P(m+1, lam R)/lam^{m+1}
        # (measured: at most 1.0e-14 relative, at W = 1, lam = 0.01)
        grid = [(1.0, 10.0), (1.5, 40.0), (3.0, 25.0), (1.0, 500.0), (2.0, 100.0),
                (1.0, 1e5), (1.0, 0.01)]
        for W, lam in grid:
            params = DimensionlessParams(W=W, lam=lam)
            a, R = params.a, W - params.a
            table = moments_quadrature(params)

            def part(m):
                return gamma(m + 1) * gammainc(m + 1, lam * R) / lam ** (m + 1)

            for n, s in enumerate(table.values):
                closed = part(n + 2) + 2 * a * part(n + 1) + a * a * part(n)
                assert s == pytest.approx(closed, rel=1e-12)

    def test_quadrature_refines_one_integrand_for_all_five_moments(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate_adaptive(*args, **kwargs)

        monkeypatch.setattr(phasetime, "integrate_adaptive", counting)
        moments_quadrature(DimensionlessParams(W=2.0, lam=100.0))
        assert len(calls) == 1

    def test_quadrature_vs_closed_form_tail(self):
        # relative gap is the truncated tail ~ e^{-lam R} with a prefactor
        # that grows like (lam R)^n; below the quadrature tolerance the gap
        # is unobservable, hence the 2e-9 floor
        for W, lam in [(1.0, 10.0), (1.0, 100.0), (math.sqrt(2.0), 100.0)]:
            params = DimensionlessParams(W=W, lam=lam)
            lam_r = lam * (W - params.a)
            exact = moments_quadrature(params)
            closed = moments_closed_form(params)
            for n, (s_e, s_c) in enumerate(zip(exact.values, closed.values)):
                bound = 100.0 * math.exp(-lam_r) * max(1.0, lam_r) ** n
                assert abs(s_e - s_c) / s_c <= max(bound, 2e-9)

    def test_decay_hierarchy(self):
        # s(n+1) < s(n) in the opaque regime, with the coarse ratio bound
        for a in (0.0, 0.5, 1.0):
            for lam in (10.0, 50.0, 300.0):
                table = moments_closed_form(params_from_a(a, lam))
                s = table.values
                for n in range(4):
                    assert s[n + 1] < s[n]
                    # equality holds at a = 0, where the bracket ratio is 1
                    assert s[n + 1] / s[n] <= (n + 3) / lam * (1.0 + a * lam) * (1.0 + 1e-12)

    def test_all_moments_positive_enforced(self):
        with pytest.raises(ValueError):
            MomentTable(1.0, 1.0, 0.0, 1.0, 1.0, DimensionlessParams(W=1.0, lam=1.0))
        for bad in (math.inf, math.nan):  # `s > 0` alone lets inf through
            with pytest.raises(ValueError, match="finite"):
                MomentTable(1.0, 1.0, 1.0, 1.0, bad, DimensionlessParams(W=1.0, lam=1.0))

    @pytest.mark.parametrize("lam", [1e50, 1e-50, 1e-44])
    @pytest.mark.parametrize("w", [1.0, 2.0])
    def test_closed_form_out_of_float_range_names_lam(self, w, lam):
        # lam ** (n + 3) overflows (1e50) or underflows to 0 (1e-50); at
        # 1e-44 it is subnormal and s4 comes out inf
        with pytest.raises(ValueError, match=re.escape(f"lam = {lam:g}")):
            moments_closed_form(DimensionlessParams(W=w, lam=lam))

    @pytest.mark.parametrize(
        "w, lam",
        [(w, lam) for w in (1.0, 2.0) for lam in (1e-40, 1e-34, 1e-32)] + [(2e16, 4e-31)],
    )
    def test_combination_overflow_names_lam(self, w, lam):
        # the moments are finite, but s0 * s4 is inf (A, B, C inf or nan), or
        # at W = 2e16 the numerator 2 W^2 B is -inf and tau would be inf;
        # every consumer of the combinations raises the same error
        moments = moments_closed_form(DimensionlessParams(W=w, lam=lam))
        for consumer in CONSUMERS:
            with pytest.raises(ValueError) as exc:
                consumer(moments)
            message = str(exc.value)
            assert f"lam = {lam:g}" in message and "overflow" in message
            assert "nan" not in message

    @pytest.mark.parametrize("lam", [1.2e31, 3e32, 1e35, 1e44])
    def test_combination_underflow_names_lam(self, lam):
        # the moments are positive normal floats, but C = s2^2 - s0 s4 is
        # subnormal from lam ~ 1.2e31 at W = 1 and has lost its digits: at
        # 3e32 tau would come out 2.1 % high, and from 1e33 C rounds to 0
        moments = moments_closed_form(DimensionlessParams(W=1.0, lam=lam))
        for consumer in CONSUMERS:
            with pytest.raises(ValueError, match=re.escape(f"W = 1, lam = {lam:g}")):
                consumer(moments)

    def test_largest_lam_in_range_still_has_the_edge_limit(self):
        # just below the underflow boundary every combination is normal
        tau = phase_time_moments(moments_closed_form(DimensionlessParams(W=1.0, lam=1e31)))
        assert tau == pytest.approx((2.0 / 9.0) * 1e31, rel=1e-15)

    @pytest.mark.parametrize("w", [1.0, 2.0])
    def test_smallest_lam_in_range_still_has_a_phase_time(self, w):
        params = DimensionlessParams(W=w, lam=1e-30)
        tau = phase_time_moments(moments_closed_form(params))
        assert 0.0 < tau < math.inf


class TestSCoefficients:
    def test_alpha_beta_zeros(self):
        params = params_from_a(0.8, 30.0)
        a = params.a
        assert s_coefficients(params, 1.0 / a)[0] == pytest.approx(0.0, abs=1e-15)
        assert s_coefficients(params, a)[1] == pytest.approx(0.0, abs=1e-15)

    def test_alpha_constant_at_a_zero(self):
        params = DimensionlessParams(W=1.0, lam=30.0)
        assert s_coefficients(params, 0.0)[0] == -2.0
        assert s_coefficients(params, 123.0)[0] == -2.0


class TestModelDensity:
    def test_direct_substitution_tau0_a1(self):
        params = params_from_a(1.0, 100.0)
        table = moments_closed_form(params)
        A, B, C = table.combinations()
        expected = table.s0**2 + 4.0 * A + 4.0 * B + C
        assert model_density(table, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_reduces_to_pure_edge_expression_at_a_zero(self):
        # a = 0: alpha = -2 constant, S = s0^2 + 4A - 4 tau B + tau^2 C
        params = DimensionlessParams(W=1.0, lam=60.0)
        table = moments_closed_form(params)
        A, B, C = table.combinations()
        for tau in (0.0, 5.0, 13.0):
            expected = table.s0**2 + 4.0 * A - 4.0 * tau * B + tau * tau * C
            assert model_density(table, tau) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_with_negative_leading_coefficient(self):
        for a in (0.0, 0.4, 1.3):
            params = params_from_a(a, 120.0)
            table = moments_closed_form(params)
            A, B, C = table.combinations()
            lead = 4.0 * a * a * A + 4.0 * a * B + C
            assert lead < 0.0
            # second difference of a quadratic is constant = 2 * lead
            s = [model_density(table, t) for t in (1.0, 2.0, 3.0, 4.0)]
            d2a = s[2] - 2 * s[1] + s[0]
            d2b = s[3] - 2 * s[2] + s[1]
            assert d2a == pytest.approx(2.0 * lead, rel=1e-6)
            assert d2b == pytest.approx(d2a, rel=1e-6)

    def test_argmax_matches_three_point_parabola(self):
        # the vertex of a parabola through any three samples is exact for quadratics
        for a, lam in [(0.0, 100.0), (0.3, 100.0), (1.0, 70.0), (1.7, 250.0)]:
            params = params_from_a(a, lam)
            table = moments_closed_form(params)
            t_hat = model_density_argmax(table)
            t0, t1, t2 = 0.5 * t_hat, t_hat + 1.0, 2.0 * t_hat + 3.0
            f0, f1, f2 = (model_density(table, t) for t in (t0, t1, t2))
            # vertex of the interpolating parabola
            denom = (t0 - t1) * (t0 - t2) * (t1 - t2)
            a2 = (t2 * (f1 - f0) + t1 * (f0 - f2) + t0 * (f2 - f1)) / denom
            b1 = (t2**2 * (f0 - f1) + t1**2 * (f2 - f0) + t0**2 * (f1 - f2)) / denom
            vertex = -b1 / (2.0 * a2)
            assert t_hat == pytest.approx(vertex, rel=1e-9)
            # and a dense scan cannot beat it
            grid = np.linspace(0.2 * t_hat, 3.0 * t_hat, 4001)
            vals = [model_density(table, t) for t in grid]
            assert abs(grid[int(np.argmax(vals))] - t_hat) <= grid[1] - grid[0]


class TestPhaseTimeMoments:
    def test_edge_limit_identity_at_a_zero(self):
        # tau = (2/9) W^2 lam exactly under the closed-form moments
        for lam in (10.0, 100.0, 1000.0):
            params = DimensionlessParams(W=1.0, lam=lam)
            tau = phase_time_moments(moments_closed_form(params))
            assert tau == pytest.approx((2.0 / 9.0) * params.W**2 * lam, rel=1e-12)

    def test_matches_argmax_exactly_at_a_zero(self):
        params = DimensionlessParams(W=1.0, lam=100.0)
        table = moments_closed_form(params)
        assert phase_time_moments(table) == pytest.approx(
            model_density_argmax(table), rel=1e-12
        )

    def test_close_to_argmax_at_positive_a(self):
        # the closed form drops an O(aC) numerator term: small, quantified gap
        for a, lam in [(0.3, 100.0), (1.0, 100.0), (1.7, 50.0)]:
            params = params_from_a(a, lam)
            table = moments_closed_form(params)
            t_closed = phase_time_moments(table)
            t_exact = model_density_argmax(table)
            assert abs(t_closed - t_exact) / t_exact < 1e-2
            assert t_closed != t_exact

    def test_stationary_phase_recovery_at_a_one(self):
        vals = []
        for lam in (100.0, 200.0, 400.0, 800.0):
            params = params_from_a(1.0, lam)
            vals.append(phase_time_moments(moments_closed_form(params)) * params.a)
        for v in vals:
            assert 0.9 <= v <= 1.1
        gaps = [abs(v - 1.0) for v in vals]
        assert gaps == sorted(gaps, reverse=True)

    def test_fraction_oracle_midrange(self):
        # a = 0.3, lam = 100, pinned by exact rational arithmetic
        oracle = float(_phase_time_fraction(Fraction(3, 10), Fraction(100)))
        assert oracle == pytest.approx(3.128004656369904, rel=1e-12)
        params = params_from_a(0.3, 100.0)
        tau = phase_time_moments(moments_closed_form(params))
        assert tau == pytest.approx(oracle, rel=1e-10)

    def test_positive_over_parameter_sweep(self):
        for a in np.linspace(0.0, 2.0, 9):
            for lam in (10.0, 100.0, 1000.0):
                params = params_from_a(float(a), lam)
                tau = phase_time_moments(moments_closed_form(params))
                assert tau > 0.0

    @pytest.mark.parametrize("w", [1.0, 1.2, 1.5, 2.0])
    @pytest.mark.parametrize("lam", [100.0, 500.0])
    def test_quadrature_table_feeds_the_same_times(self, w, lam):
        # the finite upper limit's tail is e^{-lam (W - a)}: at these points
        # the two tables give the same times to the quadrature tolerance
        # (measured: at most 3.2e-10 relative, at W = 2, lam = 100)
        params = DimensionlessParams(W=w, lam=lam)
        quad, closed = moments_quadrature(params), moments_closed_form(params)
        for consumer in (phase_time_moments, model_density_argmax):
            assert consumer(quad) == pytest.approx(consumer(closed), rel=1e-9)

    @pytest.mark.parametrize("w", [1.0, 1.2, 1.5, 2.0])
    @pytest.mark.parametrize("lam", [5.0, 20.0])
    def test_range_check_accepts_quadrature_tables_of_thin_barriers(self, w, lam):
        # here the finite limit moves tau by up to 62 % (W = 1, lam = 5),
        # but every combination is still a negative normal float
        table = moments_quadrature(DimensionlessParams(W=w, lam=lam))
        for consumer in (phase_time_moments, model_density_argmax):
            assert 0.0 < consumer(table) < math.inf


class TestPhaseTimeSpm:
    def test_opaque_values(self):
        assert phase_time_spm(params_from_a(1.0, 100.0)) == pytest.approx(1.0, rel=1e-12)
        assert phase_time_spm(params_from_a(0.5, 100.0)) == pytest.approx(2.0, rel=1e-12)

    def test_diverges_at_matched_energies(self):
        with pytest.raises(ValueError, match="diverges"):
            phase_time_spm(DimensionlessParams(W=1.0, lam=100.0))


class TestTransitVelocity:
    def test_edge_limit_velocity(self):
        lam = 100.0
        params = DimensionlessParams(W=1.0, lam=lam)
        assert transit_velocity(2.0 * lam / 9.0, params) == pytest.approx(4.5, rel=1e-14)

    def test_reference_table_values(self):
        params = DimensionlessParams(W=1.0, lam=100.0)
        assert transit_velocity(21.41, params) == pytest.approx(4.6715, rel=1e-3)
        params = DimensionlessParams(W=1.0, lam=500.0)
        assert transit_velocity(108.53, params) == pytest.approx(4.6072, rel=1e-3)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            transit_velocity(0.0, DimensionlessParams(W=1.0, lam=1.0))


class TestExpansionCoefficients:
    def test_energy_series_loses_linear_term_at_a_zero(self):
        phi_c, e_c = expansion_coefficients(DimensionlessParams(W=1.0, lam=100.0))
        assert e_c == (1.0, 0.0, -1.0)
        assert phi_c[0] == pytest.approx(math.pi / 2.0)

    def test_phi_linear_coefficient_is_minus_two(self):
        for a in (0.0, 0.5, 1.0, 1.8):
            phi_c, _ = expansion_coefficients(params_from_a(a, 100.0))
            assert phi_c[1] == -2.0
            assert phi_c[2] == pytest.approx(-a, rel=1e-12)

    def test_finite_difference_phase_slope(self):
        # dphi/dq at q_M from the exact amplitude matches -2/k_M within 2%
        params = params_from_a(1.0, 100.0)
        a, W = params.a, params.W
        h = 1e-5
        kappas = np.array([math.sqrt(W * W - (a + h) ** 2), math.sqrt(W * W - (a - h) ** 2)])
        _, phases = modulus_phase(kappas, params)
        slope = (phases[0] - phases[1]) / (2.0 * h)
        assert slope == pytest.approx(-2.0, rel=0.02)
