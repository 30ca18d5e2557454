import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erf

from tunneltime.quadrature import (
    QuadratureError,
    QuadratureSettings,
    _gl_nodes,
    integrate_adaptive,
)


def test_settings_validation():
    with pytest.raises(ValueError):
        QuadratureSettings(nodes_per_panel=4)
    with pytest.raises(ValueError):
        QuadratureSettings(max_panels=0)
    with pytest.raises(ValueError):
        QuadratureSettings(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSettings(rel_tol=math.inf)


def _legendre_rule_mp(n, guesses):
    """Roots of P_n on [-1, 1] by Newton from guesses, and their weights, in mpmath."""

    def p_and_slope(x):
        p0, p1 = mp.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    nodes, weights = [], []
    for guess in guesses:
        x = mp.mpf(guess)
        for _ in range(3):  # quadratic convergence from a double-precision root
            p, slope = p_and_slope(x)
            x -= p / slope
        slope = p_and_slope(x)[1]
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * slope * slope))
    return nodes, weights


# measured errors of the [0, 1] rule against mpmath: nodes <= 2.0e-16
# absolute; weights 2.2e-15, 8.9e-15, 1.4e-13 and 5.4e-13 relative at
# n = 8, 32, 64, 128 (numpy's leggauss: 1.3e-12 at 64, 1.4e-11 at 128);
# weight sums within 1.1e-15 of 1.  The bounds leave about 5x on the nodes,
# 10x on the weights and 4x on the sum.
@pytest.mark.parametrize("n,weight_rel", [(8, 2e-14), (32, 1e-13), (64, 1.5e-12), (128, 5e-12)])
def test_gauss_legendre_rule_against_mpmath(n, weight_rel):
    x01, w01 = _gl_nodes(n)
    with mp.workdps(30):
        nodes, weights = _legendre_rule_mp(n, 2.0 * x01 - 1.0)
        node_err = max(abs((x + 1) / 2 - mp.mpf(a)) for a, x in zip(x01, nodes))
        weight_err = max(abs(mp.mpf(a) / (w / 2) - 1) for a, w in zip(w01, weights))
    assert np.all(np.diff(x01) > 0.0) and 0.0 < x01[0] and x01[-1] < 1.0
    assert node_err <= 1e-15
    assert weight_err <= weight_rel
    assert abs(w01.sum() - 1.0) <= 4e-15


@pytest.mark.parametrize("n", [8, 32, 64, 128])
def test_polynomial_exact(n):
    # an n-node Gauss-Legendre panel integrates degree 2n - 1 exactly
    settings = QuadratureSettings(nodes_per_panel=n)
    res = integrate_adaptive(lambda x: x ** (2 * n - 1), 0.0, 1.0, settings)
    assert res.value.real == pytest.approx(1.0 / (2 * n), rel=1e-14)
    assert res.value.imag == 0.0


def test_gaussian_against_erf():
    res = integrate_adaptive(lambda x: np.exp(-25.0 * (x - 0.5) ** 2), 0.0, 1.0)
    closed = math.sqrt(math.pi / 25.0) * erf(2.5)
    assert res.value.real == pytest.approx(closed, rel=1e-10)


def test_oscillatory_complex_exponential():
    omega = 37.0
    res = integrate_adaptive(lambda x: np.exp(1j * omega * x), 0.0, 1.0, initial_panels=8)
    closed = (np.exp(1j * omega) - 1.0) / (1j * omega)
    assert abs(res.value - closed) / abs(closed) < 1e-9


def test_boundary_layer_refinement():
    # sharp layer at x = 1 of width 1e-4: needs local bisection, not a fine grid
    settings = QuadratureSettings(rel_tol=1e-10)
    res = integrate_adaptive(lambda x: np.exp(-1e4 * (1.0 - x)), 0.0, 1.0, settings)
    assert res.value.real == pytest.approx((1.0 - math.exp(-1e4)) / 1e4, rel=1e-9)
    assert res.panels < 400


def test_zero_integrand_converges_immediately():
    res = integrate_adaptive(lambda x: np.zeros_like(x), 0.0, 1.0)
    assert res.value == 0.0


def test_max_panels_exhaustion_raises():
    settings = QuadratureSettings(nodes_per_panel=8, max_panels=8, rel_tol=1e-14)
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x: np.exp(-1e8 * (1.0 - x) ** 2) + np.sin(200 * x), 0.0, 1.0, settings)


def test_initial_panels_beyond_cap_raises():
    settings = QuadratureSettings(max_panels=16)
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x: x, 0.0, 1.0, settings, initial_panels=64)


def test_interval_validation():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)


def test_panel_count_reported():
    res = integrate_adaptive(lambda x: x, 0.0, 1.0, initial_panels=4)
    assert res.panels >= 4
    assert res.evaluations >= res.panels * 32


def test_accepted_panels_tile_interval_and_integrate_f():
    def f(x):
        return np.exp(1j * 37.0 * x) + np.sqrt(1.0 - x)  # chirp-like plus a cusp

    exact = (np.exp(37j) - 1.0) / 37j + 2.0 / 3.0
    rule = integrate_adaptive(f, 0.0, 1.0, initial_panels=8)
    order = np.argsort(rule.lo)
    assert rule.lo[order][0] == 0.0 and rule.hi[order][-1] == 1.0
    assert np.array_equal(rule.lo[order][1:], rule.hi[order][:-1])
    assert rule.panels == rule.lo.size == rule.hi.size == rule.values.size
    x, w = rule.nodes()
    assert x.size == rule.panels * 32
    assert np.all((x > 0.0) & (x < 1.0))
    # the samples are f on the very nodes of the rule, bit for bit
    assert rule.samples.dtype == complex
    np.testing.assert_array_equal(rule.samples, f(x))
    assert rule.value == complex(rule.values.sum())
    assert rule.value == pytest.approx(exact, rel=1e-8)
    assert np.sum(w * rule.samples) == pytest.approx(exact, rel=1e-8)


def test_results_compare_and_hash_by_identity():
    first, second = (integrate_adaptive(np.cos, 0.0, 1.0) for _ in range(2))
    assert first != second
    assert first == first
    assert hash(first) != hash(second)
