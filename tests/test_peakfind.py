import functools
import math

import mpmath as mp
import numpy as np
import pytest
import sympy

from tunneltime import phasetime, transmission, wavepacket
from tunneltime import spectrum as spectrum_mod
from tunneltime.experiments import build_config, compute_row
from tunneltime.peakfind import peak_arrival, search_window
from tunneltime.quadrature import integrate_adaptive
from tunneltime.units import DimensionlessParams, PeakSearchConfig, QuadratureSettings, Spectrum
from tunneltime.wavepacket import transmitted_integral

# peak times of the exit density (kappa0 = 0.5, delta = 10), to 20 digits:
# mpmath roots (findroot, secant, at 30 digits) of Im(conj(I_0) I_1), half
# of d|Phi_T|^2/dtau up to a positive factor, with
# I_k = Int_0^1 g T s^k e^{-i s tau} dkappa and s = kappa^2 - 1, each integral
# by mp.quad (tanh-sinh) over 200 uniform pieces of [0, 1] plus the breaks
# 1 - 10^-j, j = 3 .. 8.  The splits matter: with breaks at 0, .5, .9, .99,
# ..., 1 only, mp.quad reports an error near 1e-83 but is 5e-8 off at W = 2.
# One root takes 15 to 60 s, so the values are fixed here
ORACLE_PEAKS = {
    (1.0, 50.0): 10.201278635752633933,
    (1.0, 100.0): 21.40659146696288241,
    (1.5, 100.0): 0.90277428638254509152,
    (2.0, 100.0): 0.60470161934913539125,
}

SPEC = Spectrum()


def test_config_validation():
    with pytest.raises(ValueError):
        PeakSearchConfig(coarse_points=8)
    with pytest.raises(ValueError):
        PeakSearchConfig(tau_min=5.0, tau_max=5.0)
    for bad in ({"tau_min": math.nan}, {"tau_max": math.inf}):
        with pytest.raises(ValueError):
            PeakSearchConfig(**bad)


def test_default_window_brackets_reference_peak():
    lo, hi = search_window(PeakSearchConfig(), 22.222)
    assert lo < 21.41 < hi


@pytest.mark.parametrize("w,lam", sorted(ORACLE_PEAKS))
def test_peak_against_mpmath_oracle(w, lam):
    # refined to two adjacent doubles on the default node set: measured
    # within 6e-14 relative of the oracle (at W = 1, lam = 50)
    params = DimensionlessParams(W=w, lam=lam)
    result = peak_arrival(SPEC, params)
    assert not result.window_hit and result.refined
    assert result.tau_peak == pytest.approx(ORACLE_PEAKS[(w, lam)], rel=1e-12, abs=0.0)


def test_peak_independent_of_the_node_set():
    # near the flat W = 1 maximum, density values differ by less than their
    # rounding, but the sign of their slope does not: the three node sets
    # give the same peak to 1e-11 relative (measured 4.0e-13)
    params = DimensionlessParams(W=1.0, lam=500.0)
    node_sets = (
        QuadratureSettings(rel_tol=1e-8),
        QuadratureSettings(rel_tol=1e-10),
        QuadratureSettings(rel_tol=1e-12, nodes_per_panel=64),
    )
    taus = [peak_arrival(SPEC, params, settings=s).tau_peak for s in node_sets]
    assert max(taus) - min(taus) <= 1e-11 * min(taus)


@pytest.mark.parametrize("w,lam,tau", [(1.0, 100.0, 15.0), (1.0, 100.0, 30.0), (1.5, 100.0, 0.7)])
def test_slope_is_half_the_density_derivative(w, lam, tau):
    # both carry the same factor e^{2 a lam}
    wave = peak_arrival(SPEC, DimensionlessParams(W=w, lam=lam)).wave
    h = 1e-4 * tau
    below, _, above = wave.densities(tau - h, h, 3)
    diff = (above - below) / (2 * h)
    assert 2.0 * wave.slope_and_derivative(tau)[0] == pytest.approx(diff, rel=1e-7, abs=0.0)


def test_peak_scaling_invariance():
    params = DimensionlessParams(W=1.0, lam=60.0)
    base = peak_arrival(SPEC, params)
    scaled = peak_arrival(Spectrum(norm=3.0), params)
    assert scaled.tau_peak == base.tau_peak  # argmax untouched by positive scaling
    density = abs(scaled.wave(scaled.tau_peak)) ** 2
    assert density == pytest.approx(9.0 * abs(base.wave(base.tau_peak)) ** 2, rel=1e-9, abs=0.0)
    # the support cut is computed at norm = 1, so the node set is the same
    scaled_cut, base_cut = (wavepacket.support_cut(s, params) for s in (Spectrum(norm=3.0), SPEC))
    assert scaled_cut == base_cut > 0.0
    np.testing.assert_array_equal(scaled.wave.s, base.wave.s)
    np.testing.assert_array_equal(scaled.wave.weights, base.wave.weights)


def _record_slope_evaluations(monkeypatch, evaluate=None):
    """Record (tau, f, f') at every slope evaluation, through `evaluate` if given.

    `_refine` evaluates the slope only through `slope_and_derivative`, so
    the record holds the bracket test's two calls and every step after them.
    """
    real, calls = wavepacket.TransmittedWave.slope_and_derivative, []
    evaluate = evaluate or real

    def recorded(self, tau):
        calls.append((tau, *evaluate(self, tau)))
        return calls[-1][1:]

    monkeypatch.setattr(wavepacket.TransmittedWave, "slope_and_derivative", recorded)
    return calls


def _final_bracket(result, calls):
    """The last bracket: the highest tau of slope > 0 and the lowest of slope <= 0.

    Each evaluation lies strictly inside the bracket it narrows, so these
    are the last bracket's ends; they must be adjacent doubles with tau_peak
    one of them.
    """
    lo = max(tau for tau, value, _ in calls if value > 0.0)
    hi = min(tau for tau, value, _ in calls if value <= 0.0)
    assert math.nextafter(lo, math.inf) == hi
    assert result.tau_peak in (lo, hi)
    return lo, hi


def test_final_bracket_is_two_adjacent_doubles(monkeypatch):
    # the refinement runs until the bracket has no double strictly inside
    # it; the slope still falls from + to - across it, and tau_peak, its
    # midpoint, rounds to one of its ends.  refine_iters counts the
    # evaluations after the bracket test at tau_{i-1} and tau_{i+1}, and no
    # tau is evaluated twice
    calls = _record_slope_evaluations(monkeypatch)
    for w, lam in sorted(ORACLE_PEAKS):
        calls.clear()
        result = peak_arrival(SPEC, DimensionlessParams(W=w, lam=lam))
        i = int(np.argmax(result.densities))
        taus = [tau for tau, _, _ in calls]
        assert taus[:2] == [result.taus[i - 1], result.taus[i + 1]]
        assert len(set(taus)) == len(taus)
        assert result.refined and result.refine_iters == len(calls) - 2
        _final_bracket(result, calls)


@pytest.mark.parametrize("w,lam,tau", [(1.0, 100.0, 15.0), (1.0, 100.0, 30.0), (1.5, 100.0, 0.7)])
def test_slope_derivative_matches_a_central_difference(w, lam, tau):
    # f' of `slope_and_derivative` against a central difference of its f
    # (measured within 9e-11 relative)
    wave = peak_arrival(SPEC, DimensionlessParams(W=w, lam=lam)).wave
    h = 1e-4 * tau
    derivative = wave.slope_and_derivative(tau)[1]
    above, below = wave.slope_and_derivative(tau + h)[0], wave.slope_and_derivative(tau - h)[0]
    diff = (above - below) / (2 * h)
    assert derivative == pytest.approx(diff, rel=1e-7, abs=0.0)


def test_bisection_fallback_reaches_the_same_peak(monkeypatch):
    # with f' >= 0 every Newton step is refused and each evaluation bisects:
    # 47 to 50 steps to two adjacent doubles, with the slope falling from +
    # to - across them, at the peak the Newton steps find to 1e-13 relative,
    # on ORACLE_PEAKS and the default table1 and fig2 rows (measured: equal
    # on all 35)
    rows = [(SPEC, DimensionlessParams(W=w, lam=lam), None, None)
            for w, lam in sorted(ORACLE_PEAKS)]
    for experiment in ("table1", "fig2"):
        config = build_config(experiment, {})
        rows += [(config.spectrum, DimensionlessParams(W=w, lam=lam), config.peak,
                  config.quadrature) for w in config.w_ratios for lam in config.lambdas]
    newton = [peak_arrival(*row).tau_peak for row in rows]
    real = wavepacket.TransmittedWave.slope_and_derivative

    def rising(self, tau):
        value, derivative = real(self, tau)
        return value, abs(derivative)

    calls = _record_slope_evaluations(monkeypatch, rising)
    for row, tau_newton in zip(rows, newton):
        calls.clear()
        result = peak_arrival(*row)
        assert result.refined and 47 <= result.refine_iters <= 50
        _final_bracket(result, calls)
        assert result.tau_peak == pytest.approx(tau_newton, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("w,lam", [*sorted(ORACLE_PEAKS), (math.sqrt(1.3), 200.0)])
def test_zero_slope_band_ends_without_a_one_ulp_crawl(monkeypatch, w, lam):
    # a slope that rounds to 0.0 over +-100 ulps of the peak: each 0.0 moves
    # the upper end of the bracket, and the endgame probes below it with a
    # doubling gap, then bisects, so the search ends at the band's lower
    # edge in 17 evaluations (bound 24; bisection takes 47 to 50, and one
    # ulp per step over the band more than 100)
    params = DimensionlessParams(W=w, lam=lam)
    root = peak_arrival(SPEC, params).tau_peak
    band = 100 * math.ulp(root)
    real = wavepacket.TransmittedWave.slope_and_derivative

    def flat(self, tau):
        value, derivative = real(self, tau)
        return (0.0 if abs(tau - root) <= band else value), derivative

    calls = _record_slope_evaluations(monkeypatch, flat)
    result = peak_arrival(SPEC, params)
    assert result.refined and result.refine_iters <= 24
    lo, hi = _final_bracket(result, calls)
    assert lo < root - band <= hi


@pytest.mark.parametrize("experiment", ["table1", "fig2"])
def test_every_default_row_refines_within_twelve_evaluations(experiment):
    # the Newton steps carry the search: measured 4 to 5 evaluations per
    # table1 row and 4 to 7 per fig2 row, against 47 to 50 for bisection
    config = build_config(experiment, {})
    for w in config.w_ratios:
        for lam in config.lambdas:
            row = compute_row(lam, w, config.spectrum, config.peak, config.quadrature)
            assert 0 < row.refine_iters <= 12, (lam, w, row.refine_iters)


def test_window_hit_flagged_not_raised():
    # peak for lam = 100 sits near 21.4; a [40, 80] window puts the argmax
    # on the left boundary
    params = DimensionlessParams(W=1.0, lam=100.0)
    cfg = PeakSearchConfig(tau_min=40.0, tau_max=80.0, coarse_points=32)
    result = peak_arrival(SPEC, params, cfg)
    assert result.window_hit and not result.refined
    assert result.tau_peak <= 40.0 + (80.0 - 40.0) / 31 * 1.5


def test_window_filled_from_the_moment_tau_new(monkeypatch):
    # peak_arrival forms tau_new from the closed-form moments, once per
    # call, fills the unset bounds from tau_new (search_window) and hands
    # tau_new back bit for bit
    params = DimensionlessParams(W=1.0, lam=100.0)
    tau_new = phasetime.phase_time_moments(phasetime.moments_closed_form(params))
    lo, hi = search_window(PeakSearchConfig(), tau_new)
    fixed = PeakSearchConfig(tau_min=lo, tau_max=hi, coarse_points=32)
    expected = peak_arrival(SPEC, params, fixed)
    calls = []
    real_moments = phasetime.moments_closed_form

    def counted(*args):
        calls.append(args)
        return real_moments(*args)

    monkeypatch.setattr(phasetime, "moments_closed_form", counted)
    result = peak_arrival(SPEC, params, PeakSearchConfig(coarse_points=32))
    assert result.taus == expected.taus
    assert result.tau_new == tau_new and expected.tau_new == tau_new
    assert len(calls) == 1


def test_fixed_window_still_needs_the_moments():
    # both bounds set: the window needs no tau_new, but the result carries
    # it, so a point whose moment combinations overflow fails as its row does
    params = DimensionlessParams(W=1.0, lam=1e-40)
    cfg = PeakSearchConfig(tau_min=0.1, tau_max=10.0)
    with pytest.raises(ValueError, match="moment combinations overflow the float range "
                                         "at W = 1, lam = 1e-40"):
        peak_arrival(SPEC, params, cfg)


def test_flat_top_with_a_falling_slope_is_refined(monkeypatch):
    # a tie at the argmax still brackets a maximum when the slope falls
    # from + to - across it: refinement runs, on the same bracket as without
    # the tie (np.argmax takes the first maximum), to the same peak
    params = DimensionlessParams(W=1.0, lam=100.0)
    cfg = PeakSearchConfig(coarse_points=64)
    untied = peak_arrival(SPEC, params, cfg)
    real_densities = wavepacket.TransmittedWave.densities

    def flat_top(self, *args):
        dens = real_densities(self, *args)
        i = int(np.argmax(dens))
        dens[i + 1] = dens[i]
        return dens

    monkeypatch.setattr(wavepacket.TransmittedWave, "densities", flat_top)
    result = peak_arrival(SPEC, params, cfg)
    i = int(np.argmax(result.densities))
    assert result.densities[i + 1] == result.densities[i]
    assert not result.window_hit and result.refined
    assert result.refine_iters > 0
    assert result.tau_peak == untied.tau_peak


def test_no_slope_sign_change_returned_unrefined(monkeypatch):
    # a unimodal three-point scan whose slope does not fall from + to -
    # across the bracket is not refined either
    monkeypatch.setattr(wavepacket.TransmittedWave, "slope_and_derivative",
                        lambda self, tau: (1.0, -1.0))
    params = DimensionlessParams(W=1.0, lam=100.0)
    cfg = PeakSearchConfig(coarse_points=64)
    result = peak_arrival(SPEC, params, cfg)
    assert not result.window_hit and not result.refined
    assert result.refine_iters == 0
    row = compute_row(params.lam, params.W, SPEC, cfg, QuadratureSettings())
    assert row.note.startswith("unrefined:") and row.tau_num == result.tau_peak


def test_blocked_scan_recurrence_matches_direct_exponential():
    # every sample of the blocked phase recurrence against the engine's call,
    # one exponential per node at its tau, for sample counts that fill the
    # last block of wavepacket._BLOCK and ones that do not (measured: at
    # most 1.6e-15)
    for w, lam in [(1.0, 100.0), (1.5, 100.0), (1.0, 500.0)]:
        params = DimensionlessParams(W=w, lam=lam)
        for points in (16, 100, 256):
            config = PeakSearchConfig(coarse_points=points)
            scan = peak_arrival(SPEC, params, config)
            direct = np.array([abs(scan.wave(tau)) ** 2 for tau in scan.taus])
            scanned = scan.wave.unscale(scan.densities)
            assert scan.densities.shape == (points,)
            assert np.max(np.abs(scanned - direct)) <= 1e-12 * direct.max()
            assert [d for _, d in scan.trace()] == scanned.tolist()


@pytest.mark.parametrize("norm", [0.0, 1e-320])
def test_vanishing_exit_density_fails_the_row(norm):
    # a zero (or underflowing) density has no peak: an error naming the
    # cause, not a row with the window's first tau as its peak time
    params = DimensionlessParams(W=1.0, lam=100.0)
    with pytest.raises(ValueError, match="exit density is 0 at every coarse sample"):
        peak_arrival(Spectrum(norm=norm), params)
    row = compute_row(params.lam, params.W, Spectrum(norm=norm), PeakSearchConfig(),
                      QuadratureSettings())
    assert row.note.startswith("failed: exit density is 0") and row.tau_num is None


EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "w,lam", [(1.0, 50.0), (1.0, 100.0), (1.0, 500.0), (1.5, 100.0), (2.0, 100.0)]
)
def test_engine_is_the_composite_rule_on_the_support(w, lam, monkeypatch):
    # the engine integrates g T q (dkappa = -q dt) in the angle t (kappa =
    # cos t - a sin t; T e^{a lam} and q = a + r from the rise r = q - a =
    # sin t - a sin^2 t / (1 + cos t)) on the support [0, t_c] only, and
    # keeps every node of the composite rule the refinement chose there: its
    # amp and weights are that rule's, bit for bit.  The cut drops at most
    # (eps/2) * sum|amp|.  The sums are compared in the engine's frame: phase
    # -s tau with s = kappa^2 - 1, and the factor e^{-i tau - a lam} left out
    params = DimensionlessParams(W=w, lam=lam)
    a, seeds = params.a, []

    def recording(f, edges, settings=None):
        seeds.append(np.asarray(edges))
        return integrate_adaptive(f, edges, settings)

    monkeypatch.setattr(wavepacket, "integrate_adaptive", recording)
    scan = peak_arrival(SPEC, params)
    wave, (edges,) = scan.wave, seeds
    cut = wavepacket.support_cut(SPEC, params)
    kappa_cut = math.cos(cut) - a * math.sin(cut)
    n = QuadratureSettings().nodes_per_panel

    def rise(t):
        return np.sin(t) - a * np.sin(t) * np.sin(t) / (1.0 + np.cos(t))

    def amplitude_t(t):
        kappa = np.cos(t) - a * np.sin(t)
        mod, phase = transmission.modulus_phase(kappa, params, x=lam * rise(t))
        return (a + rise(t)) * spectrum_mod.evaluate(SPEC, kappa) * mod * np.exp(1j * phase)

    def amplitude(kappa):
        mod, phase = transmission.modulus_phase(kappa, params)
        return spectrum_mod.evaluate(SPEC, kappa) * mod * np.exp(1j * phase + wave.log_scale)

    def node_sum(amp, s, tau):
        return np.sum(amp * np.exp(-1j * tau * s))

    # the seed panels span equal s, one per n/2 rad of the chirp at the
    # window's end and at least one per 8 pi of x = lam (q - a)
    x = lam * (np.sin(edges) - 2.0 * a * np.sin(edges / 2.0) ** 2)
    s_edges = -(x / lam) * (x / lam + 2.0 * a)
    np.testing.assert_allclose(np.diff(s_edges), s_edges[-1] / (edges.size - 1), rtol=1e-9)
    assert edges[0] == 0.0 and edges[-1] == cut
    assert edges.size - 1 == max(math.ceil(scan.taus[-1] * -s_edges[-1] / (n / 2)),
                                 math.ceil(x[-1] / (8.0 * math.pi)))
    panels = integrate_adaptive(amplitude_t, edges)
    t = panels.x
    q = a + rise(t)
    total = np.abs(wave.amp).sum()
    assert wave.panels == panels.panels
    assert wave.s.size == t.size == n * wave.panels
    np.testing.assert_array_equal(wave.amp, panels.w * panels.samples)
    np.testing.assert_array_equal(wave.weights, panels.w * q)
    # s = -(q - a)(q + a), with q - a = sin t - 2 a sin^2(t/2)
    np.testing.assert_allclose(wave.s, -(np.sin(t) - 2.0 * a * np.sin(t / 2.0) ** 2) * (q + a),
                               rtol=1e-14, atol=0.0)
    # weights is the kappa-measure of the support (measured: within 4.9e-15
    # relative), which `transmitted_mean_k` divides |amp|^2 by
    assert wave.weights.sum() == pytest.approx(1.0 - kappa_cut, rel=1e-13, abs=0.0)
    # the mass the cut drops, by an independent adaptive integral of |f| in kappa
    if kappa_cut > 0.0:
        fine = QuadratureSettings(rel_tol=1e-12)
        dropped = integrate_adaptive(lambda k: np.abs(amplitude(k)), (0.0, kappa_cut), fine)
        assert dropped.value.real <= EPS / 2 * total
    # a rule in kappa on all of [0, 1], without the cut and the change of
    # variable, at rel_tol 1e-10 (it grades toward kappa = 1): the two rules
    # differ by their quadrature error only (measured: at most 7.2e-15
    # relative to sum|amp|, at lam = 500)
    seed = math.ceil(scan.taus[-1] / (n / 2))
    rule_01 = integrate_adaptive(amplitude, np.linspace(0.0, 1.0, seed + 1),
                                 QuadratureSettings(rel_tol=1e-10))
    s_01, amp_01 = (rule_01.x - 1.0) * (rule_01.x + 1.0), rule_01.w * rule_01.samples
    for tau in scan.taus:
        engine = node_sum(wave.amp, wave.s, tau)
        assert abs(engine - node_sum(amp_01, s_01, tau)) <= 1e-12 * total
    if w > 1.0:
        assert cut == math.atan2(1.0, a)  # the amplitude is spread over all of [0, 1]
    if lam == 500.0:
        assert kappa_cut > 0.99 and wave.panels == 6


@functools.lru_cache(maxsize=None)
def _exit_amplitude_mp(params: DimensionlessParams, tau: float) -> complex:
    """Phi_T(tau) = Int_0^1 g / (cosh u - i c sinh u) e^{-i kappa^2 tau} at 30 digits."""
    with mp.workdps(30):
        W, lam = mp.mpf(params.W), mp.mpf(params.lam)
        kappa0, delta = mp.mpf(SPEC.kappa0), mp.mpf(SPEC.delta)

        def integrand(k):
            u = lam * mp.sqrt(W * W - k * k)
            b = (2 * k * k - W * W) * lam / (2 * k)  # c sinh u = b sinh(u) / u
            c_sinh = b * (mp.sinh(u) / u if u else 1)
            g = mp.exp(-((k - kappa0) ** 2) * delta * delta / 4)
            return g / (mp.cosh(u) - 1j * c_sinh) * mp.expj(-k * k * tau)

        # 56 even pieces for the chirp, graded toward the cutoff where
        # |T| ~ e^{-lam sqrt(2 (1 - kappa))} lives at W = 1
        split = {mp.mpf(i) / 56 for i in range(57)} | {1 - mp.mpf(10) ** -e for e in range(2, 8)}
        return complex(mp.quad(integrand, sorted(split), method="gauss-legendre"))


@pytest.mark.parametrize("w,lam", [(1.0, 100.0), (1.5, 100.0), (1.0, 500.0)])
def test_engine_density_matches_adaptive_quadrature(w, lam):
    # one node set for the whole window against mpmath's adaptive
    # Gauss-Legendre integral per tau, at both window ends and the middle
    params = DimensionlessParams(W=w, lam=lam)
    scan = peak_arrival(SPEC, params)
    wave, taus = scan.wave, scan.taus
    peak = wave.unscale(scan.densities.max())
    for tau in (taus[0], taus[len(taus) // 2], taus[-1]):
        engine = abs(wave(tau)) ** 2
        assert abs(engine - abs(_exit_amplitude_mp(params, tau)) ** 2) <= 1e-9 * peak


@pytest.mark.parametrize("w,lam", [(1.0, 100.0), (1.5, 100.0), (1.0, 500.0)])
def test_engine_against_mpmath_reference(w, lam):
    # the peak search's node set at the peak and the far window end, and
    # a node set built for one sample at the peak, for rules of 8, 32 and
    # 64 nodes, each seeded at n/2 rad of chirp per panel
    # (measured: at most 6.0e-13 relative, n = 8 at lam = 500).  The call is
    # Phi_T itself: at W = 1.5 |Phi_T| ~ 1.7e-53 at the peak, e^{a lam} =
    # e^{111.8} below the engine's node sum
    params = DimensionlessParams(W=w, lam=lam)
    for nodes_per_panel in (8, 32, 64):
        settings = QuadratureSettings(nodes_per_panel=nodes_per_panel)
        peak = peak_arrival(SPEC, params, settings=settings)
        wave = peak.wave
        at_peak = _exit_amplitude_mp(params, peak.tau_peak)
        far_end = peak.taus[-1]
        at_far_end = _exit_amplitude_mp(params, far_end)
        assert abs(wave(peak.tau_peak) - at_peak) <= 1e-9 * abs(at_peak)
        assert abs(wave(far_end) - at_far_end) <= 1e-9 * abs(at_peak)
        at_exit = transmitted_integral(SPEC, params, peak.tau_peak, settings)(peak.tau_peak)
        assert abs(at_exit - at_peak) <= 1e-9 * abs(at_peak)


def test_monotone_peak_growth_and_velocity_trend():
    # peak time grows with width and becomes asymptotically linear in it:
    # tau/lam rises from below toward c* = 0.2172, under the opaque 2/9, so
    # v = lam/tau falls toward 1/c* = 4.60, above 4.5 (see the slope test)
    lams = (50.0, 150.0, 300.0)
    taus = []
    for lam in lams:
        params = DimensionlessParams(W=1.0, lam=lam)
        taus.append(peak_arrival(SPEC, params).tau_peak)
    assert taus == sorted(taus)
    per_width = [t / lam for t, lam in zip(taus, lams)]
    assert per_width == sorted(per_width)
    assert per_width[-1] < 2.0 / 9.0
    velocities = [lam / t for t, lam in zip(taus, lams)]
    assert velocities == sorted(velocities, reverse=True)
    assert velocities[-1] > 4.5


def _transit_slope_mp() -> float:
    """c* = 2 Cov_w(x^2, x coth x) / Var_w(x^2), w(x) = x^2 / sinh x on (0, inf).

    At E_M = V0 the transmitted weight sits where x = qL = O(1), and at
    large lam |T| ~ 2 x / (lam sinh x), phi ~ pi/2 - 2 x coth(x) / lam and
    dkappa ~ x dx / lam^2: the exit density then peaks at c* lam + O(1/lam).
    The opaque forms (weight x^2 e^{-x}, phase -2 x) give the paper's 2/9.
    """
    with mp.workdps(30):
        def mean(f):
            return mp.quad(lambda x: f(x) * x * x / mp.sinh(x), [0, mp.inf])

        norm = mean(lambda x: 1)
        x2, x4 = mean(lambda x: x**2) / norm, mean(lambda x: x**4) / norm
        xc = mean(lambda x: x * mp.coth(x)) / norm
        x3c = mean(lambda x: x**3 * mp.coth(x)) / norm
        return float(2 * (x3c - x2 * xc) / (x4 - x2 * x2))


def test_transit_time_slope_at_matched_energies():
    # tau_num = c* lam + d / lam + O(lam^-3) at W = 1, so lam (tau_num - c* lam)
    # settles on d (-30.542 for the default spectrum; measured spread 0.019
    # over these lam, bound 0.05); it checks the slope to about 1e-8.  With
    # the opaque constant 2/9 the same combination runs from -1293 to -80800
    c_star = _transit_slope_mp()
    assert c_star == pytest.approx(0.21717467305957345386, rel=1e-15)
    offsets, opaque = [], []
    for lam in (500.0, 1000.0, 2000.0, 4000.0):
        peak = peak_arrival(SPEC, DimensionlessParams(W=1.0, lam=lam))
        assert peak.refined
        offsets.append(lam * (peak.tau_peak - c_star * lam))
        opaque.append(lam * (peak.tau_peak - 2.0 / 9.0 * lam))
    assert max(offsets) - min(offsets) <= 0.05
    assert -31.0 < min(offsets) and max(offsets) < -30.0
    assert max(opaque) - min(opaque) > 1000.0


def test_transit_time_offset_holds_at_large_lam():
    # past lam = 4000 every kappa_j^2 on the support is close to 1; the slope
    # keeps its digits because the engine stores s_j = kappa_j^2 - 1.  Two
    # node sets, rel_tol 1e-8 with 32 nodes and rel_tol 1e-11 with 64, give
    # lam (tau_num - c* lam) = -30.542283 / -30.542284 at lam = 8000,
    # -30.542215 / -30.542219 at 16000 and -30.542226 / -30.542235 at 32000,
    # against -32.75 / -33.56, +124.4 / -104.1 and -1350 / -5090 with
    # kappa_j^2 in the phase.  Bounds: the two sets within 1e-3 of each other
    # (measured 8.4e-6), and the finer one within 0.005 of d = -30.5423
    # (measured 1e-4)
    c_star = 0.21717467305957345386  # `_transit_slope_mp()`, checked above
    node_sets = (QuadratureSettings(rel_tol=1e-8),
                 QuadratureSettings(rel_tol=1e-11, nodes_per_panel=64))
    for lam in (8000.0, 16000.0, 32000.0):
        params = DimensionlessParams(W=1.0, lam=lam)
        coarse, fine = (lam * (peak_arrival(SPEC, params, settings=s).tau_peak - c_star * lam)
                        for s in node_sets)
        assert abs(coarse - fine) <= 1e-3
        assert fine == pytest.approx(-30.5423, abs=0.005)


@pytest.mark.parametrize("lam", [1e5, 1e6, 3e6])
def test_transit_time_at_matched_energies_past_lam_1e5(lam):
    # in the angle t the engine's panels follow x = lam q, which is linear in
    # t at the cutoff, so W = 1 refines on a handful of panels at any of
    # these lam.  Measured: 8 panels, within 3.6e-12 relative of
    # c* lam + d / lam
    c_star = 0.21717467305957345386  # `_transit_slope_mp()`, checked above
    peak = peak_arrival(SPEC, DimensionlessParams(W=1.0, lam=lam))
    assert peak.refined and peak.wave.panels <= 16
    assert peak.tau_peak == pytest.approx(c_star * lam - 30.5423 / lam, rel=1e-10, abs=0.0)


def _tau_new_series() -> tuple[sympy.Expr, sympy.Expr, sympy.Symbol]:
    """(1/lam^0, 1/lam^1) coefficients of tau_new in a, and the symbol a.

    The closed form of `moments_closed_form`, s(n) = (n+2)!/lam^{n+3}
    [1 + 2 a lam/(n+2) + (a lam)^2/((n+2)(n+1))], through the combinations
    and the ratio of `phase_time_moments`, with W^2 = 1 + a^2; checked
    against both functions at one point before it is expanded.
    """
    a, eps = sympy.symbols("a epsilon", positive=True)  # eps = 1/lam
    lam = 1 / eps
    s = [sympy.factorial(n + 2) / lam ** (n + 3)
         * (1 + 2 * a * lam / (n + 2) + (a * lam) ** 2 / ((n + 2) * (n + 1))) for n in range(5)]
    A, B, C = s[1] ** 2 - s[0] * s[2], s[1] * s[2] - s[0] * s[3], s[2] ** 2 - s[0] * s[4]
    tau = (2 * (1 + a**2) * B + 4 * a * A) / (C + 4 * a * B + 4 * a**2 * A)
    params = DimensionlessParams(W=1.5, lam=100.0)
    point = {a: params.a, eps: 1 / params.lam}
    moments = phasetime.moments_closed_form(params)
    assert [float(m.subs(point)) for m in s] == pytest.approx(moments.values, rel=1e-13)
    tau_code = phasetime.phase_time_moments(moments)
    assert float(tau.subs(point)) == pytest.approx(tau_code, rel=1e-12)
    series = sympy.series(tau, eps, 0, 2).removeO()
    return series.coeff(eps, 0), series.coeff(eps, 1), a


def test_opaque_peak_follows_tau_new_through_first_order():
    # for W > 1, tau_new = 1/a + 2 (a^2 - 1) / (a^2 lam) + O(lam^-2), and
    # tau_num - tau_new = O(lam^-2): lam^2 (tau_num - tau_new) settles on a
    # constant that depends on the spectrum.  Between lam = 1600 and 3200 it
    # moves by at most 1.66 % of its value over these nine cases (W = 2,
    # default spectrum: 80.53 -> 79.22; bound 3 %, 1.8x margin), where an
    # O(1/lam) gap would double it.  The stationary-phase time 1/a lacks the
    # 1/lam term: lam (tau_num - 1/a) is within 0.0385 of 2 (a^2 - 1) / a^2 at
    # lam = 3200 (bound 0.1), and the term vanishes at a = 1, W = sqrt(2)
    c0, c1, a = _tau_new_series()
    assert sympy.simplify(c0 - 1 / a) == 0
    assert sympy.simplify(c1 - 2 * (a**2 - 1) / a**2) == 0
    for w in (1.2, 1.5, 2.0):
        for kappa0, delta in ((0.5, 10.0), (0.9, 30.0), (0.3, 5.0)):
            spec = Spectrum(kappa0=kappa0, delta=delta)
            second_order = []
            for lam in (1600.0, 3200.0):
                params = DimensionlessParams(W=w, lam=lam)
                peak = peak_arrival(spec, params)
                assert peak.refined
                tau_new = phasetime.phase_time_moments(phasetime.moments_closed_form(params))
                second_order.append(lam**2 * (peak.tau_peak - tau_new))
            first_order = float(c1.subs(a, params.a))  # params and peak at lam = 3200
            assert abs(lam * (peak.tau_peak - 1.0 / params.a) - first_order) <= 0.1
            assert abs(second_order[1] - second_order[0]) <= 0.03 * abs(second_order[1])


class TestFullReport:
    """The three phase times of one grid point, as `compute_row` reports them."""

    @staticmethod
    def row(params, config=PeakSearchConfig(), settings=QuadratureSettings(), trace=False):
        return compute_row(params.lam, params.W, SPEC, config, settings, trace)

    def test_reference_row(self):
        row = self.row(DimensionlessParams(W=1.0, lam=50.0))
        assert row.tau_spm is None  # a = 0: stationary-phase formula diverges
        assert row.tau_num == pytest.approx(10.20, rel=0.01)
        assert row.v_transit == pytest.approx(4.9013, rel=0.01)
        assert row.ratio_ana_num == pytest.approx(91.81, abs=1.0)
        assert row.panels_max > 0 and row.refine_iters > 0

    def test_spm_defined_away_from_matched_energies(self):
        row = self.row(DimensionlessParams(W=math.sqrt(2.0), lam=100.0))
        assert row.tau_spm == pytest.approx(1.0, rel=1e-12)
        assert row.tau_new == pytest.approx(0.9995, rel=1e-3)
        assert row.tau_num == pytest.approx(1.0, rel=0.05)

    def test_velocity_identity(self):
        params = DimensionlessParams(W=1.0, lam=100.0)
        row = self.row(params)
        assert row.v_transit == pytest.approx(params.lam / (row.tau_num * params.W), rel=1e-12)
        assert row.ratio_ana_num == pytest.approx(100.0 * row.tau_num / row.tau_new, rel=1e-12)

    def test_custom_settings_respected(self):
        params = DimensionlessParams(W=1.0, lam=50.0)
        row = self.row(params, settings=QuadratureSettings(nodes_per_panel=48))
        assert row.tau_num == pytest.approx(10.2013, rel=1e-3)

    @pytest.mark.parametrize("tau_max", [None, 40.0])
    def test_moments_run_once_and_window_unchanged(self, monkeypatch, tau_max):
        # the peak window is filled from compute_row's own tau_new
        params = DimensionlessParams(W=1.2, lam=60.0)
        config = PeakSearchConfig(coarse_points=32, tau_max=tau_max)
        window = peak_arrival(SPEC, params, config).taus
        real_moments = phasetime.moments_closed_form
        calls = []

        def counted(*args):
            calls.append(args)
            return real_moments(*args)

        monkeypatch.setattr(phasetime, "moments_closed_form", counted)
        row = self.row(params, config, trace=True)
        assert len(calls) == 1
        assert [tau for tau, _ in row.trace] == window
