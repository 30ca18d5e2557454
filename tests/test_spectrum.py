import math

import numpy as np
import pytest

from tunneltime.quadrature import QuadratureSettings
from tunneltime.spectrum import Spectrum, evaluate, mean_k_opaque, transmitted_mean_k
from tunneltime.units import DimensionlessParams

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
