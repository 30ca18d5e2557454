import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from tunneltime import peakfind, phasetime, transmission, wavepacket
from tunneltime import spectrum as spectrum_mod
from tunneltime.experiments import compute_row
from tunneltime.peakfind import (
    PeakSearchConfig,
    coarse_scan,
    default_window,
    peak_arrival,
)
from tunneltime.quadrature import QuadratureSettings, adaptive_panels
from tunneltime.spectrum import Spectrum
from tunneltime.units import DimensionlessParams
from tunneltime.wavepacket import density_at_exit

# golden-refined 2e6-node trapezoid oracle peak times (kappa0 = 0.5, delta = 10)
ORACLE_PEAKS = {
    (1.0, 50.0): 10.201280593681101,
    (1.0, 100.0): 21.40659608026295,
    (1.0, 500.0): 108.52987312276105,
    (1.5, 100.0): 0.902774284044136,
    (2.0, 100.0): 0.6047014259120121,
}

SPEC = Spectrum()


def test_config_validation():
    with pytest.raises(ValueError):
        PeakSearchConfig(coarse_points=8)
    with pytest.raises(ValueError):
        PeakSearchConfig(refine_tol=0.0)
    with pytest.raises(ValueError):
        PeakSearchConfig(tau_min=5.0, tau_max=5.0)
    for bad in ({"refine_tol": math.inf}, {"tau_min": math.nan}, {"tau_max": math.inf}):
        with pytest.raises(ValueError):
            PeakSearchConfig(**bad)


def test_default_window_brackets_reference_peak():
    lo, hi = default_window(22.222)
    assert lo < 21.41 < hi


@pytest.mark.parametrize("w,lam", [(1.0, 50.0), (1.0, 100.0), (1.5, 100.0)])
def test_peak_against_trapezoid_oracle(w, lam):
    params = DimensionlessParams(W=w, lam=lam)
    result = peak_arrival(SPEC, params)
    assert not result.window_hit
    assert result.density_peak > 0.0
    assert result.tau_peak == pytest.approx(ORACLE_PEAKS[(w, lam)], rel=5e-4)


def test_peak_scaling_invariance():
    params = DimensionlessParams(W=1.0, lam=60.0)
    base = peak_arrival(SPEC, params)
    scaled = peak_arrival(Spectrum(norm=3.0), params)
    assert scaled.tau_peak == base.tau_peak  # argmax untouched by positive scaling
    assert scaled.density_peak == pytest.approx(9.0 * base.density_peak, rel=1e-9)


def test_refinement_convergence_under_tolerance_halving():
    # halving refine_tol moves tau_peak by less than the previous refine_tol
    params = DimensionlessParams(W=1.0, lam=100.0)
    tols = (2e-2, 1e-2, 5e-3)
    taus = [
        peak_arrival(SPEC, params, PeakSearchConfig(coarse_points=64, refine_tol=t)).tau_peak
        for t in tols
    ]
    for coarse_tol, tau_a, tau_b in zip(tols, taus, taus[1:]):
        assert abs(tau_b - tau_a) < coarse_tol


def test_window_hit_flagged_not_raised():
    # peak for lam = 100 sits near 21.4; a [40, 80] window puts the argmax
    # on the left boundary
    params = DimensionlessParams(W=1.0, lam=100.0)
    cfg = PeakSearchConfig(tau_min=40.0, tau_max=80.0, coarse_points=32)
    result = peak_arrival(SPEC, params, cfg)
    assert result.window_hit and not result.refined
    assert result.tau_peak <= 40.0 + (80.0 - 40.0) / 31 * 1.5


def test_non_unimodal_scan_returned_unrefined(monkeypatch):
    # a flat top (tie at the argmax) is not a bracket: no refinement, and
    # the result says so instead of passing as a refined peak
    real_scan = peakfind.coarse_scan

    def flat_top(*args):
        scan = real_scan(*args)
        dens = scan.densities.copy()
        i = int(np.argmax(dens))
        dens[i + 1] = dens[i]
        return dataclasses.replace(scan, densities=dens)

    monkeypatch.setattr(peakfind, "coarse_scan", flat_top)
    params = DimensionlessParams(W=1.0, lam=100.0)
    cfg = PeakSearchConfig(coarse_points=64)
    result = peak_arrival(SPEC, params, cfg)
    scan = real_scan(SPEC, params, cfg, None)
    assert not result.window_hit and not result.refined
    assert result.refine_iters == 0
    assert result.tau_peak == scan.taus[int(np.argmax(scan.densities))]


@pytest.mark.parametrize("w,lam", [(1.0, 100.0), (1.5, 100.0), (1.0, 500.0)])
def test_engine_density_matches_adaptive_quadrature(w, lam):
    # one node set for the whole window against a fresh adaptive quadrature
    # per tau, at both window ends and the middle
    params = DimensionlessParams(W=w, lam=lam)
    scan = coarse_scan(SPEC, params)
    phi = scan.amplitude
    peak = phi.unscale(scan.densities.max())
    for tau in (scan.taus[0], scan.taus[len(scan.taus) // 2], scan.taus[-1]):
        engine = phi.unscale(abs(phi(tau)) ** 2)
        assert abs(engine - density_at_exit(SPEC, params, tau)) <= 1e-8 * peak


def test_coarse_scan_recurrence_matches_direct_exponential():
    # 255 phase-advance multiplies against one exponential at the last tau
    params = DimensionlessParams(W=1.0, lam=500.0)
    scan = coarse_scan(SPEC, params)
    direct = abs(scan.amplitude(scan.taus[-1])) ** 2
    assert scan.densities[-1] == pytest.approx(direct, rel=1e-12)
    assert scan.amplitude.panels == peak_arrival(SPEC, params).panels_max


EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "w,lam", [(1.0, 50.0), (1.0, 100.0), (1.0, 500.0), (1.5, 100.0), (2.0, 100.0)]
)
def test_pruned_engine_within_eps_of_the_full_node_set(w, lam):
    # the engine drops the nodes with |amp_j| <= eps * sum|amp| / N; against
    # the composite rule on every node the refinement chose, that moves Phi
    # by at most eps * sum|amp| at every tau
    params = DimensionlessParams(W=w, lam=lam)
    scan = coarse_scan(SPEC, params)
    phi = scan.amplitude

    def amplitude(kappa):
        mod, phase = transmission.modulus_phase(kappa, params, log_scale=phi.log_scale)
        return spectrum_mod.evaluate(SPEC, kappa) * mod * np.exp(1j * phase)

    seed = wavepacket._initial_panels(0.0, scan.taus[-1])
    panels = adaptive_panels(amplitude, 0.0, 1.0, initial_panels=seed)
    kappa, weights = panels.nodes()
    kappa2, amp = kappa * kappa, weights * amplitude(kappa)
    total = np.abs(amp).sum()
    assert phi.panels == panels.lo.size
    kept = np.isin(kappa2, phi.kappa2)
    np.testing.assert_array_equal(amp[kept], phi.amp)  # a subset, bit for bit
    assert np.abs(amp[~kept]).sum() <= EPS * total
    # beyond the eps bound, the two sums (pairwise, up to 23552 terms) round
    # differently, by at most log2(N) eps * sum|amp| each
    rounding = 2.0 * math.log2(amp.size) * EPS * total
    for tau in scan.taus:
        full = np.sum(amp * np.exp(-1j * tau * kappa2))
        assert abs(phi(tau) - full) <= EPS * total + rounding
    if w == 2.0:
        assert phi.amp.size == amp.size  # spread-out amplitude: nothing dropped
    if lam == 500.0:
        assert phi.amp.size <= 400 and phi.panels == 736


def _exit_amplitude_mp(params: DimensionlessParams, tau: float) -> complex:
    """Phi_T(0, tau) = Int_0^1 g / (cosh u - i c sinh u) e^{-i kappa^2 tau} at 30 digits."""
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


@pytest.mark.parametrize("w,lam", [(1.0, 100.0), (1.5, 100.0)])
def test_engine_against_mpmath_reference(w, lam):
    params = DimensionlessParams(W=w, lam=lam)
    peak = peak_arrival(SPEC, params)
    phi = peak.scan.amplitude
    unscale = math.exp(-phi.log_scale)
    at_peak = _exit_amplitude_mp(params, peak.tau_peak)
    far_end = peak.scan.taus[-1]
    at_far_end = _exit_amplitude_mp(params, far_end)
    assert abs(phi(peak.tau_peak) * unscale - at_peak) <= 1e-9 * abs(at_peak)
    assert abs(phi(far_end) * unscale - at_far_end) <= 1e-9 * abs(at_peak)


def test_monotone_peak_growth_and_velocity_trend():
    # peak time grows with width and becomes asymptotically linear in it:
    # tau/lam rises toward 2/9 from below, so v = lam/tau falls toward 4.5
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
        window = coarse_scan(SPEC, params, config).taus
        real_moments = phasetime.moments_closed_form
        calls = []

        def counted(*args):
            calls.append(args)
            return real_moments(*args)

        monkeypatch.setattr(phasetime, "moments_closed_form", counted)
        row = self.row(params, config, trace=True)
        assert len(calls) == 1
        assert [tau for tau, _ in row.trace] == window
