import math
import re

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
    # one sweep may hold 2^21 nodes; only the bound is built
    assert QuadratureSettings(nodes_per_panel=128, max_panels=16384).max_panels == 16384
    with pytest.raises(ValueError, match="max_panels .* nodes_per_panel"):
        QuadratureSettings(nodes_per_panel=128, max_panels=16385)
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


def test_a_panel_that_cannot_be_halved_raises():
    # a step 43 ulps below 1 on [1 - 64 ulp, 1]: once a halving reaches two
    # adjacent doubles, mid is one end of the panel, so one half is empty and
    # the other is its parent, and their zero difference passes any budget.
    # Accepting such panels returned 1.2 % off the exact 43 ulps, with no error
    ulp = np.finfo(float).epsneg  # the spacing of the doubles just below 1
    step = 1.0 - 43 * ulp
    with pytest.raises(QuadratureError, match="cannot be halved in double precision") as exc:
        integrate_adaptive(lambda x: (x >= step).astype(float), 1.0 - 64 * ulp, 1.0,
                           QuadratureSettings(rel_tol=1e-8))
    lo, hi = map(float, re.findall(r"[0-9.e+-]+(?=[,\]])", str(exc.value)))
    assert np.nextafter(lo, 2.0) == hi and lo < step <= hi


def test_initial_panels_beyond_cap_raises():
    settings = QuadratureSettings(max_panels=16)
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x: x, 0.0, 1.0, settings, initial_panels=64)


def test_interval_validation():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)


@pytest.mark.parametrize("lo, hi", [(math.nan, 1), (0, math.inf), (-math.inf, 0), (0, math.nan)])
def test_non_finite_bounds_are_rejected_before_any_evaluation(lo, hi):
    # nan passes a bare hi <= lo test, and refining an infinite interval
    # would end as a spent panel budget, which blames the wrong cause
    def never(x):
        raise AssertionError("integrand evaluated")

    with pytest.raises(ValueError, match=re.escape(f"[{lo!r}, {hi!r}]")) as exc:
        integrate_adaptive(never, lo, hi)
    assert not isinstance(exc.value, QuadratureError)


def test_panel_count_reported():
    res = integrate_adaptive(lambda x: x, 0.0, 1.0, initial_panels=4)
    assert res.panels >= 4
    assert res.evaluations >= res.panels * 32


def test_accepted_panels_tile_interval_and_integrate_f():
    n = 32
    x01, w01 = _gl_nodes(n)
    # chirp-like plus a cusp, complex and real
    for f, exact, dtype in [
        (lambda x: np.exp(1j * 37.0 * x) + np.sqrt(1.0 - x),
         (np.exp(37j) - 1.0) / 37j + 2.0 / 3.0, complex),
        (lambda x: np.cos(37.0 * x) + np.sqrt(1.0 - x), math.sin(37.0) / 37.0 + 2.0 / 3.0, float),
    ]:
        rule = integrate_adaptive(f, 0.0, 1.0, initial_panels=8)
        assert rule.x.shape == rule.w.shape == rule.samples.shape == (rule.panels * n,)
        assert np.all((rule.x > 0.0) & (rule.x < 1.0))
        # each panel's ends, recovered from its n nodes and weights: the
        # weights are width * w01 and the nodes lo + width * x01
        x, w = rule.x.reshape(-1, n), rule.w.reshape(-1, n)
        width = w[:, 0] / w01[0]
        np.testing.assert_allclose(w, width[:, None] * w01, rtol=1e-15, atol=0.0)
        lo = x[:, 0] - width * x01[0]
        np.testing.assert_allclose(x, lo[:, None] + width[:, None] * x01, rtol=0.0, atol=2e-16)
        order = np.argsort(lo)
        lo, hi = lo[order], (lo + width)[order]
        # the panels tile [0, 1]: no gap and no overlap beyond rounding
        tol = 4 * np.finfo(float).eps
        assert abs(lo[0]) <= tol and abs(hi[-1] - 1.0) <= tol
        np.testing.assert_allclose(lo[1:], hi[:-1], rtol=0.0, atol=tol)
        # the samples are f on the very nodes of the rule, bit for bit, and
        # a real integrand keeps real samples
        assert rule.samples.dtype == dtype
        np.testing.assert_array_equal(rule.samples, f(rule.x))
        # value is the sum of the accepted panel integrals, within rel_tol of f's
        panel_integrals = (w * rule.samples.reshape(-1, n)).sum(axis=1)
        assert rule.value == pytest.approx(panel_integrals.sum(), rel=1e-14)
        assert rule.value == pytest.approx(exact, rel=1e-8)
        assert np.sum(rule.w * rule.samples) == pytest.approx(exact, rel=1e-8)


def test_results_compare_and_hash_by_identity():
    first, second = (integrate_adaptive(np.cos, 0.0, 1.0) for _ in range(2))
    assert first != second
    assert first == first
    assert hash(first) != hash(second)
