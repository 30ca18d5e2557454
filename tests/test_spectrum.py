import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunneltime import wavepacket
from tunneltime.quadrature import QuadratureSettings, integrate_adaptive
from tunneltime.spectrum import Spectrum, evaluate, mean_k_opaque, support_cut
from tunneltime.units import DimensionlessParams
from tunneltime.wavepacket import transmitted_integral, transmitted_mean_k

# Int kappa g^2 |T|^2 / Int g^2 |T|^2 at lam = 100 (kappa0 = 0.5, delta = 10),
# with |T|^2 = 1 / (cosh^2 u + b^2 sinh^2(u) / u^2), by mpmath Gauss-Legendre
# at 30 digits on [0, 1] split into 20 even pieces, 1/400-wide pieces on
# [0.9, 1] and [1 - 10^-e, 1] for e <= 8.  Doubling the fine pieces and the
# maximum degree moves neither value in its first 21 digits; tanh-sinh on
# the same pieces agrees to 20 digits at W = 1 and to 2e-14 at W = sqrt(2)
MEAN_K_W1_LAM100 = 0.9997810908913221
MEAN_K_WSQRT2_LAM100 = 0.9931559479621906


def test_evaluate_examples():
    spec = Spectrum(kappa0=0.5, delta=10.0)
    assert evaluate(spec, 0.5) == 1.0
    assert evaluate(spec, 1.5) == 0.0
    assert evaluate(spec, -0.1) == 0.0
    assert evaluate(spec, 1.0) == pytest.approx(math.exp(-6.25), rel=1e-14)


def test_evaluate_vectorized_support():
    spec = Spectrum()
    kappa = np.array([-1.0, 0.0, 0.5, 1.0, 1.0001])
    vals = evaluate(spec, kappa)
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_evaluate_passes_nan_through():
    # nan is no kappa outside the support, so it must not read as a weight of 0
    vals = evaluate(Spectrum(), np.array([0.5, np.nan, -np.inf, np.inf]))
    assert vals[0] == 1.0 and math.isnan(vals[1])
    assert vals[2] == 0.0 and vals[3] == 0.0
    assert math.isnan(evaluate(Spectrum(), math.nan))


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(kappa0=0.0)
    with pytest.raises(ValueError):
        Spectrum(kappa0=1.0)
    with pytest.raises(ValueError):
        Spectrum(delta=0.0)
    with pytest.raises(ValueError):
        Spectrum(delta=float("inf"))
    with pytest.raises(ValueError, match="delta"):  # g squares delta
        Spectrum(delta=1e200)
    for bad in (-1.0, math.nan, math.inf):  # nan and inf would refine a nan integrand
        with pytest.raises(ValueError, match="norm"):
            Spectrum(norm=bad)
    assert Spectrum(norm=0.0).norm == 0.0


def test_mean_k_transparent_barrier_is_spectrum_mean():
    # lam = 0: |T| = 1 and the [0, 1] window is symmetric around kappa0 = 0.5
    spec = Spectrum(kappa0=0.5, delta=10.0)
    mk = transmitted_mean_k(spec, DimensionlessParams(W=1.0, lam=0.0))
    assert mk == pytest.approx(0.5, abs=1e-10)


def test_mean_k_filter_effect_against_trapezoid_oracle():
    spec = Spectrum()
    mk = transmitted_mean_k(spec, DimensionlessParams(W=1.0, lam=100.0))
    assert mk == pytest.approx(MEAN_K_W1_LAM100, rel=1e-10)
    assert mk > 0.99
    mk2 = transmitted_mean_k(spec, DimensionlessParams(W=math.sqrt(2.0), lam=100.0))
    assert mk2 == pytest.approx(MEAN_K_WSQRT2_LAM100, rel=1e-10)


def test_mean_k_refines_one_integrand_for_both_integrals(monkeypatch):
    # one engine call, at time 0 (one seed panel), and no refinement of its
    # own: the one refinement is the engine's, on the support [kappa_c, 1]
    waves, refinements = [], []

    def engine(*args, **kwargs):
        waves.append(args)
        return transmitted_integral(*args, **kwargs)

    def counting(*args, **kwargs):
        refinements.append((args, kwargs))
        return integrate_adaptive(*args, **kwargs)

    params = DimensionlessParams(W=1.0, lam=100.0)
    monkeypatch.setattr(wavepacket, "transmitted_integral", engine)
    monkeypatch.setattr(wavepacket, "integrate_adaptive", counting)
    transmitted_mean_k(Spectrum(), params)
    assert len(waves) == 1 and waves[0][2] == 0.0
    assert len(refinements) == 1
    (_, lo, hi, _), kwargs = refinements[0]
    cut = support_cut(Spectrum(), params)
    assert (lo, hi, kwargs["initial_panels"]) == (cut, 1.0, 1)
    assert 0.8 < cut < 1.0  # 0.811


def mean_k_gap_oracle(W: float, lam: float) -> mp.mpf:
    """1 - mean_k of the default spectrum, by mpmath at 20 digits over all of [0, 1].

    |T|^2 e^{2 a lam} = 4 e^{2 (a lam - u)} / ((1 + e^{-2u})^2 + (b s)^2), with
    u = lam q, s = (1 - e^{-2u}) / u (2 as q -> 0 at kappa = W = 1) and
    b = (2 kappa^2 - W^2) lam / (2 kappa), as in `transmission._kernel`.
    Breakpoints: kappa_c (so the mass the cut drops is counted, not
    assumed) and 1 - j h for j = 1/16, 1/8, ..., with h = a / lam (h =
    1/lam^2 at W = 1), the scale on which the weight falls below the
    cutoff.  Without them tanh-sinh is 3 % off at W = 1, lam = 1e5.
    """
    with mp.workdps(20):
        W_, lam_ = mp.mpf(W), mp.mpf(lam)
        a = mp.sqrt((W_ - 1) * (W_ + 1))

        def weight(k):
            u = lam_ * mp.sqrt((W_ - k) * (W_ + k))
            s = 2 if u == 0 else -mp.expm1(-2 * u) / u
            b = (2 * k * k - W_ * W_) * lam_ / (2 * k)
            g = mp.exp(-((k - mp.mpf(0.5)) ** 2) * 25)  # kappa0 = 0.5, delta = 10
            return 4 * g * g * mp.exp(2 * (a * lam_ - u)) / ((1 + mp.exp(-2 * u)) ** 2 + (b * s) ** 2)

        cut = support_cut(Spectrum(), DimensionlessParams(W=W, lam=lam))
        h = a / lam_ if a > 0 else 1 / lam_**2
        steps = [1 - mp.mpf(2) ** e * h for e in range(-4, 64) if 1 - mp.mpf(2) ** e * h > cut]
        points = sorted({mp.mpf(0), mp.mpf(cut), *steps, mp.mpf(1)})
        return mp.quad(lambda k: (1 - k) * weight(k), points) / mp.quad(weight, points)


@pytest.mark.parametrize(
    "w, lam",
    # a refinement on [0, 1] from one panel underflows on every node at the
    # first four and misses the strip below the cutoff at the last two
    [(1.0, 1e4), (1.0, 1e5), (1.5, 1e6), (2.0, 1e6), (1.0, 9669.25), (1.5, 594311.0)],
)
def test_mean_k_gap_against_mpmath_at_large_lam(w, lam):
    # measured: at most 1.3e-7 relative (W = 1, lam = 1e5, where one ulp of
    # mean_k is 5e-7 of the gap); 2.1e-9 at W = 1, lam = 1e4
    gap = 1.0 - transmitted_mean_k(Spectrum(), DimensionlessParams(W=w, lam=lam))
    assert gap == pytest.approx(float(mean_k_gap_oracle(w, lam)), rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.0, max_value=2.0), st.floats(min_value=0.0, max_value=1e6))
def test_mean_k_lies_in_the_spectrum_range(w, lam):
    mk = transmitted_mean_k(Spectrum(), DimensionlessParams(W=w, lam=lam))
    assert 0.0 < mk <= 1.0


def test_support_within_double_rounding_of_the_cutoff_raises_in_both_integrals():
    # at W = 1, lam = 1e10 the cut kappa_c rounds to 1: one rule, one message
    params = DimensionlessParams(W=1.0, lam=1e10)
    messages = []
    for integral in (lambda: transmitted_mean_k(Spectrum(), params),
                     lambda: transmitted_integral(Spectrum(), params, 10.0)):
        with pytest.raises(ValueError, match="within double rounding of kappa = 1") as exc:
            integral()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_mean_k_degenerate_spectrum_raises():
    spec = Spectrum(norm=0.0)
    with pytest.raises(ValueError, match="vanishing denominator"):
        transmitted_mean_k(spec, DimensionlessParams(W=1.0, lam=10.0))


def test_mean_k_invariant_under_rescaling():
    params = DimensionlessParams(W=1.0, lam=50.0)
    mk1 = transmitted_mean_k(Spectrum(norm=1.0), params)
    mk2 = transmitted_mean_k(Spectrum(norm=3.7), params)
    assert mk2 == pytest.approx(mk1, rel=1e-12)


def test_mean_k_nondecreasing_in_width():
    spec = Spectrum()
    vals = [
        transmitted_mean_k(spec, DimensionlessParams(W=1.0, lam=lam))
        for lam in (1.0, 10.0, 50.0, 100.0, 500.0)
    ]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_mean_k_opaque_examples():
    assert mean_k_opaque(DimensionlessParams(W=1.0, lam=100.0)) == 1.0
    assert mean_k_opaque(DimensionlessParams(W=math.sqrt(2.0), lam=100.0)) == pytest.approx(0.995, rel=1e-12)


def test_mean_k_opaque_approaches_one():
    a_fixed = math.sqrt(2.0)
    W = math.sqrt(1 + a_fixed**2)
    gaps = [1.0 - mean_k_opaque(DimensionlessParams(W=W, lam=lam)) for lam in (1e2, 1e4, 1e6)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 1e-6


def test_mean_k_opaque_close_to_exact_in_opaque_regime():
    # oracle-checked gap: 0.0018 at lam=100, smaller beyond
    spec = Spectrum()
    W = math.sqrt(2.0)
    for lam in (100.0, 200.0, 500.0):
        params = DimensionlessParams(W=W, lam=lam)
        exact = transmitted_mean_k(spec, params)
        assert abs(mean_k_opaque(params) - exact) <= 0.01


def test_mean_k_underflow_guard_deep_opaque():
    # weight ~ e^{-2 a lam} = e^{-1000}: only the rescaled integrand survives
    spec = Spectrum()
    mk = transmitted_mean_k(spec, DimensionlessParams(W=math.sqrt(2.0), lam=500.0), QuadratureSettings())
    assert 0.99 < mk < 1.0
