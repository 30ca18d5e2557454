import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunneltime.phasetime import amplitude_opaque, stationary_time_full
from tunneltime.transmission import _kernel, modulus_phase
from tunneltime.units import DimensionlessParams
from tunneltime.wavepacket import _chart

mp.mp.dps = 40


def _reference_modulus_phase(kappa, W, lam):
    """High-precision direct evaluation of the transmitted amplitude."""
    k = mp.mpf(kappa)
    w = mp.mpf(W)
    q = mp.sqrt(w * w - k * k)
    u = q * lam
    denom = mp.cosh(u) - 1j * (2 * k * k - w * w) / (2 * k * q) * mp.sinh(u)
    t = 1 / denom
    return float(abs(t)), float(mp.atan((2 * k * k - w * w) * mp.tanh(u) / (2 * k * q)))


def test_zero_width_barrier_is_transparent():
    params = DimensionlessParams(W=1.3, lam=0.0)
    for kappa in (0.1, 0.5, 1.0):
        mod, phase = modulus_phase(kappa, params)
        assert mod == 1.0
        assert phase == 0.0


def test_phase_zero_at_2k2_equals_w2():
    # kappa = W/sqrt(2): arctan argument vanishes, modulus = 1/cosh(qL)
    W, lam = 1.2, 5.0
    kappa = W / math.sqrt(2.0)
    params = DimensionlessParams(W=W, lam=lam)
    mod, phase = modulus_phase(kappa, params)
    q = math.sqrt(W * W - kappa * kappa)
    assert phase == pytest.approx(0.0, abs=1e-15)
    assert mod == pytest.approx(1.0 / math.cosh(q * lam), rel=1e-13)
    ref_mod, ref_ph = _reference_modulus_phase(kappa, W, lam)
    assert mod == pytest.approx(ref_mod, rel=1e-13)
    assert phase == pytest.approx(ref_ph, abs=1e-13)


def test_removable_singularity_at_cutoff():
    # kappa = W = 1 means q = 0; sinh(qL)/q -> L gives 1/sqrt(1 + (lam/2)^2)
    params = DimensionlessParams(W=1.0, lam=100.0)
    mod, phase = modulus_phase(1.0, params)
    assert mod == pytest.approx(1.0 / math.sqrt(1.0 + 2500.0), rel=1e-14)
    assert phase == pytest.approx(math.atan(50.0), rel=1e-14)


@pytest.mark.parametrize("W,lam", [(1.0, 1.0), (1.0, 100.0), (1.5, 10.0), (2.0, 100.0), (30.0, 1.0)])
def test_angle_form_matches_the_kappa_form(W, lam):
    # the engine's coordinate: kappa = W sin(theta), t = theta_M - theta with
    # theta_M = atan2(1, a), so q = W cos(theta) = a cos t + sin t.  With t
    # the angle of an exact kappa (mpmath, rounded once), the x form (x =
    # lam (q - a) from the engine's chart of t) gives the kappa form's |T|
    # times e^{a lam}, and its phase (measured: at most 2.8e-14 relative, the
    # rounding of the kappa form's u = lam q at lam = 100)
    params = DimensionlessParams(W=W, lam=lam)
    kappas = np.linspace(0.02, 0.98, 49)
    a = mp.sqrt(mp.mpf(W) ** 2 - 1)
    t = np.array([float(mp.atan2(1, a) - mp.asin(mp.mpf(k) / W)) for k in kappas])
    mod, phase = modulus_phase(kappas, params)
    mod_t, phase_t = modulus_phase(kappas, params, x=lam * _chart(t, params.a)[1])
    np.testing.assert_allclose(mod_t, mod * math.exp(params.a * lam), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(phase_t, phase, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("u", [1e-8, 1e-6, 2e-5, 9e-5, 1.1e-4, 1e-3, 29.9, 30.1, 300.0])
def test_branch_continuity_through_small_qL(u):
    # one formula for every u: high-precision agreement to 1e-10 through
    # q -> 0, around u = 30 and deep in the opaque regime
    b = 0.73
    mod, ph = _kernel(np.array([u]), np.array([b]))
    ref_mod = float(1 / mp.sqrt(mp.cosh(u) ** 2 + (b * mp.sinh(u) / u) ** 2))
    ref_ph = float(mp.atan(b * mp.tanh(u) / u))
    assert mod[0] == pytest.approx(ref_mod, rel=1e-10)
    assert ph[0] == pytest.approx(ref_ph, rel=1e-10)


def test_exact_amplitude_against_reference_points():
    for kappa, W, lam in [(0.5, 1.0, 100.0), (0.7, 1.4, 10.0), (0.99, 1.0, 30.0), (0.3, 2.0, 7.0)]:
        params = DimensionlessParams(W=W, lam=lam)
        mod, phase = modulus_phase(kappa, params)
        ref_mod, ref_ph = _reference_modulus_phase(kappa, W, lam)
        assert mod == pytest.approx(ref_mod, rel=1e-12)
        assert phase == pytest.approx(ref_ph, rel=1e-12)


def test_phase_continuous_across_sign_change():
    # the arctan argument changes sign at 2 kappa^2 = W^2
    W, lam = 1.2, 8.0
    params = DimensionlessParams(W=W, lam=lam)
    k0 = W / math.sqrt(2.0)
    phases = [modulus_phase(k0 + d, params)[1] for d in (-1e-7, 0.0, 1e-7)]
    assert phases[0] < phases[1] < phases[2]
    assert abs(phases[2] - phases[0]) < 1e-5


@pytest.mark.parametrize("W", [1.0, 1.2, 2.0])
@pytest.mark.parametrize("lam", [1e2, 1e4, 1e6])
def test_accurate_within_1e_10_of_w(W, lam):
    # W^2 - kappa^2 written as a difference cancels as kappa -> W
    params = DimensionlessParams(W=W, lam=lam)
    for kappa in (W - 1e-10, W - 3e-11):
        (mod,), (ph,) = modulus_phase(np.array([kappa]), params)
        ref_mod, ref_ph = _reference_modulus_phase(kappa, W, lam)
        assert mod == pytest.approx(ref_mod, rel=1e-13, abs=0.0)
        assert ph == pytest.approx(ref_ph, rel=1e-13, abs=0.0)


def test_no_overflow_deep_in_opaque_regime():
    params = DimensionlessParams(W=1.0, lam=500.0)
    mod, ph = modulus_phase(np.linspace(1e-3, 1.0, 64), params)
    assert np.all(np.isfinite(mod)) and np.all(np.isfinite(ph))
    assert np.all(mod >= 0.0) and np.all(mod <= 1.0)


def test_rescaled_modulus_matches_direct():
    params = DimensionlessParams(W=math.sqrt(2.0), lam=20.0)
    kap = np.linspace(0.05, 1.0, 33)
    plain, _ = modulus_phase(kap, params)
    rise = np.sqrt((params.W - kap) * (params.W + kap)) - params.a
    scaled, _ = modulus_phase(kap, params, x=params.lam * rise)
    assert scaled == pytest.approx(plain * math.exp(params.a * params.lam), rel=1e-12)


def test_kappa_domain_validation():
    params = DimensionlessParams(W=1.0, lam=1.0)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            modulus_phase(bad, params)
    with pytest.raises(ValueError):
        amplitude_opaque(1.2, params)


def test_kappa_domain_check_rejects_nan():
    # nan fails every comparison, so no node of nan passes the domain check
    params = DimensionlessParams(W=1.0, lam=100.0)
    with pytest.raises(ValueError, match=r"kappa must lie in \(0, W\]"):
        modulus_phase(np.array([np.nan, 0.5]), params)
    with pytest.raises(ValueError, match=r"kappa must lie in \(0, 1\]"):
        amplitude_opaque(np.array([0.5, np.nan]), params)


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(1e-3, 1.0),
    W=st.floats(1.0, 3.0),
    lam=st.floats(1e-3, 500.0),
    factor=st.floats(1.01, 4.0),
)
def test_modulus_bounded_and_monotone_in_width(kappa, W, lam, factor):
    thin, _ = modulus_phase(kappa, DimensionlessParams(W=W, lam=lam))
    thick, _ = modulus_phase(kappa, DimensionlessParams(W=W, lam=lam * factor))
    assert 0.0 <= thin <= 1.0
    assert thin < 1.0
    assert thick < thin or thin == 0.0


def test_opaque_modulus_values():
    params = DimensionlessParams(W=1.0, lam=100.0)
    assert amplitude_opaque(1.0, params) == 0.0
    expected = 4 * 0.5 * math.sqrt(0.75) * math.exp(-100 * math.sqrt(0.75))
    assert amplitude_opaque(0.5, params) == pytest.approx(expected, rel=1e-14)
    assert modulus_phase(0.5, params)[0] == pytest.approx(expected, rel=0.01)


def test_opaque_within_one_percent_beyond_qL_of_three():
    # |exact - opaque| / exact <= 1% whenever qL >= 3
    kappas = np.linspace(0.01, 0.99, 50)
    for lam in np.linspace(5.0, 500.0, 20):
        for W in (1.0, 1.2, math.sqrt(2.0), 2.0):
            params = DimensionlessParams(W=W, lam=float(lam))
            qL = lam * np.sqrt(W * W - kappas**2)
            mask = qL >= 3.0
            if not mask.any():
                continue
            exact, _ = modulus_phase(kappas[mask], params)
            approx = amplitude_opaque(kappas[mask], params)
            ok = exact > 0.0
            if not ok.any():
                continue  # both sides underflow beyond qL ~ 700
            rel = np.abs(exact[ok] - approx[ok]) / exact[ok]
            assert rel.max() <= 0.01


class TestStationaryTimeFull:
    def _phase_derivative_time(self, kappa, W, lam):
        """Independent oracle: tau from (k/2) dphi/dk at high precision."""

        def phi(k):
            q = mp.sqrt(W * W - k * k)
            return mp.atan((2 * k * k - W * W) * mp.tanh(q * lam) / (2 * k * q))

        k = mp.mpf(kappa)
        return float(k / 2 * mp.diff(phi, k) / (k * k))

    @pytest.mark.parametrize(
        "kappa,W,lam",
        [(0.7, 1.0, 3.0), (0.3, 1.4, 10.0), (0.99, 1.0, 100.0), (0.5, 1.2, 0.01), (0.5, 1.0, 100.0)],
    )
    def test_matches_phase_derivative(self, kappa, W, lam):
        params = DimensionlessParams(W=W, lam=lam)
        oracle = self._phase_derivative_time(kappa, mp.mpf(W), mp.mpf(lam))
        assert stationary_time_full(kappa, params) == pytest.approx(oracle, rel=1e-11)

    def test_opaque_limit_at_cutoff(self):
        # qL >> 1 at kappa = 1, W = sqrt(2): E_M t/hbar -> k_M/q_M = 1
        params = DimensionlessParams(W=math.sqrt(2.0), lam=50.0)
        assert stationary_time_full(1.0, params) == pytest.approx(1.0, rel=1e-12)

    def test_thin_barrier_linear_in_width(self):
        # lam -> 0: tau -> lam (W^2 + 2 kappa^2) / (4 kappa) / kappa^2
        kappa, W = 0.5, 1.2
        for lam in (1e-3, 1e-5):
            params = DimensionlessParams(W=W, lam=lam)
            expected = lam * (W * W + 2 * kappa * kappa) / (4 * kappa) / kappa**2
            assert stationary_time_full(kappa, params) == pytest.approx(expected, rel=1e-4)

    def test_opaque_consistency_bound(self):
        # deviation from the opaque value decays like e^{-2qL}; the prefactor
        # grows linearly with qL (the 2k^2(w^2-2k^2) qL term), and below
        # ~1e-14 only double roundoff is left
        for W in (1.0, math.sqrt(2.0), 2.0):
            for lam in (20.0, 100.0, 400.0):
                for kappa in (0.3, 0.6, 0.9):
                    if kappa >= W:
                        continue
                    g = math.sqrt(W * W - kappa * kappa)
                    qL = lam * g
                    if qL < 5.0:
                        continue
                    params = DimensionlessParams(W=W, lam=lam)
                    opaque = 1.0 / (kappa * g)
                    rel = abs(stationary_time_full(kappa, params) - opaque) / opaque
                    assert rel <= max(10.0 * (1.0 + qL) * math.exp(-2.0 * qL), 1e-14)

    @staticmethod
    def _direct(kappa, W, lam):
        """The unscaled closed form in mpmath (call it inside mp.workdps, 60 digits or more)."""
        k, W, lam = mp.mpf(kappa), mp.mpf(W), mp.mpf(lam)
        q = mp.sqrt(W * W - k * k)
        u, W4 = q * lam, W**4
        num = k * (W4 * mp.sinh(2 * u) + 2 * k * k * (W * W - 2 * k * k) * u)
        return num / (q * (W4 * mp.cosh(2 * u) + 8 * k * k * q * q - W4)) / (k * k)

    def test_accurate_as_kappa_approaches_w(self):
        # kappa = W (1 - 10^-r): W^2 - kappa^2 written as a difference cancels,
        # and below u = 1e-2 so would the numerator's O(u) terms
        worst = 0.0
        with mp.workdps(60):
            for W in (1.0, 1.2, 2.0, 5.0, 10.0):
                for lam in (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4):
                    params = DimensionlessParams(W=W, lam=lam)
                    for r in range(1, 13):
                        kappa = W * (1.0 - 10.0**-r)
                        oracle = self._direct(kappa, W, lam)
                        err = abs((stationary_time_full(kappa, params) - oracle) / oracle)
                        worst = max(worst, float(err))
        assert worst <= 1e-14

    @pytest.mark.parametrize("kappa", [1e-160, 1e-300])
    def test_accurate_at_tiny_kappa(self, kappa):
        # kappa^2 is subnormal below kappa ~ 1.5e-154 and 0 below ~1.6e-162,
        # so the time must not be divided by it
        params = DimensionlessParams(W=1.0, lam=10.0)
        with mp.workdps(60):
            oracle = float(self._direct(kappa, 1.0, 10.0))
        assert stationary_time_full(kappa, params) == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("W", [1e20, 1e77, 1e78, 1e100, 1e150, 1.3e154])
    def test_accurate_at_large_w(self, W):
        # W^4 overflows from W ~ 1.2e77, while W^2 stays finite up to the
        # largest W DimensionlessParams accepts; at lam = 1e-300 the reference's
        # cosh(2u) - 1 needs u^2 ~ 1e-560 resolved, hence 700 digits
        with mp.workdps(700):
            for lam in (1e-300, 1e-160, 1e-100, 1e-20, 1.0):
                params = DimensionlessParams(W=W, lam=lam)
                for kappa in (1e-3, 0.5, 0.999):
                    oracle = float(self._direct(kappa, W, lam))
                    assert stationary_time_full(kappa, params) == pytest.approx(oracle, rel=1e-14)

    def test_time_beyond_the_float_range_raises(self):
        # the time ~ 1 / kappa overflows at the smallest subnormal kappa
        with pytest.raises(ValueError, match="float range at kappa = 5e-324"):
            stationary_time_full(5e-324, DimensionlessParams(W=1.0, lam=10.0))

    def test_rejects_kappa_at_or_beyond_w(self):
        params = DimensionlessParams(W=1.0, lam=10.0)
        for bad in (0.0, 1.0, 1.3):
            with pytest.raises(ValueError):
                stationary_time_full(bad, params)

    def test_no_overflow_at_large_qL(self):
        params = DimensionlessParams(W=1.0, lam=500.0)
        tau = stationary_time_full(0.1, params)
        assert math.isfinite(tau)
        # saturated opaque value 1/(kappa * q/k_M)
        assert tau == pytest.approx(1.0 / (0.1 * math.sqrt(1 - 0.01)), rel=1e-10)
