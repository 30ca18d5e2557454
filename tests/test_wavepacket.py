import math

import pytest
from scipy.special import erf

from tunneltime.quadrature import QuadratureSettings
from tunneltime.spectrum import Spectrum
from tunneltime.units import DimensionlessParams
from tunneltime.wavepacket import transmitted_integral

# 1e6-node trapezoid oracle, W = 1, lam = 100, kappa0 = 0.5, delta = 10
DENSITY_AT_2141 = 2.715531178453792e-16
DENSITY_AT_0 = 2.7127370208436e-16

REFERENCE = DimensionlessParams(W=1.0, lam=100.0)


def test_zero_spectrum_gives_zero_amplitude():
    wave = transmitted_integral(Spectrum(norm=0.0), REFERENCE, 5.0)
    assert wave(5.0) == 0.0
    assert not wave.densities(5.0, 1.0, 1).any()


def test_transparent_barrier_at_origin_is_spectrum_integral():
    # lam = 0, tau = 0, xi = 0: amplitude = Int_0^1 g = sqrt(pi/25) erf(2.5)
    params = DimensionlessParams(W=1.0, lam=0.0)
    amplitude = transmitted_integral(Spectrum(), params, 0.0)(0.0)
    closed = math.sqrt(math.pi / 25.0) * erf(2.5)
    assert amplitude.real == pytest.approx(closed, rel=1e-10)
    assert abs(amplitude.imag) < 1e-12


def test_density_against_trapezoid_oracle():
    d = abs(transmitted_integral(Spectrum(), REFERENCE, 21.41)(21.41)) ** 2
    assert d == pytest.approx(DENSITY_AT_2141, rel=1e-3)


def test_density_before_arrival_lower_than_peak():
    # the exit density is a shallow bump on a plateau: at tau = 0 it sits
    # just below the maximum (oracle ratio 0.9990), not orders below
    d0 = abs(transmitted_integral(Spectrum(), REFERENCE, 0.0)(0.0)) ** 2
    d_peak = abs(transmitted_integral(Spectrum(), REFERENCE, 21.41)(21.41)) ** 2
    assert d0 == pytest.approx(DENSITY_AT_0, rel=1e-3)
    assert d0 < d_peak
    assert d0 / d_peak == pytest.approx(0.99897, rel=1e-3)


def test_density_long_after_passage_decays():
    # tau = 1e6 needs ~4.3e4 seed panels of 16 nodes to resolve the chirp on
    # the support (one per 8 rad of its phase span, 3.4e5 rad)
    settings = QuadratureSettings(nodes_per_panel=16, max_panels=8_000_000, rel_tol=1e-5)
    d_late = abs(transmitted_integral(Spectrum(), REFERENCE, 1e6, settings)(1e6)) ** 2
    assert d_late < 1e-3 * DENSITY_AT_2141


def test_linearity_in_spectrum_scale():
    base = transmitted_integral(Spectrum(norm=1.0), REFERENCE, 17.0)(17.0)
    doubled = transmitted_integral(Spectrum(norm=2.0), REFERENCE, 17.0)(17.0)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)
    assert abs(doubled) ** 2 == pytest.approx(4.0 * abs(base) ** 2, rel=1e-12)


@pytest.mark.parametrize("time", [math.inf, -math.inf, math.nan])
def test_rejects_non_finite_time(time):
    # a ValueError naming the argument, not an OverflowError from the seed
    # panel count
    with pytest.raises(ValueError, match="time"):
        transmitted_integral(Spectrum(), REFERENCE, time)


def test_density_is_modulus_squared():
    # the peak search's rescaled density, rescaling undone, is |Phi_T|^2
    wave = transmitted_integral(Spectrum(), REFERENCE, 21.41)
    amplitude = wave(21.41)
    assert isinstance(amplitude, complex)
    (scaled,) = wave.densities(21.41, 1.0, 1)
    assert wave.unscale(scaled) == pytest.approx(abs(amplitude) ** 2, rel=1e-13)


@pytest.mark.parametrize("lam", [50.0, 250.0, 500.0])
def test_node_doubling_stability_at_peak(lam):
    # doubling nodes_per_panel moves the peak density by < 0.1%
    params = DimensionlessParams(W=1.0, lam=lam)
    tau_peak = 0.96 * (2.0 / 9.0) * lam  # near the observed maximum
    d32, d64 = (
        abs(transmitted_integral(Spectrum(), params, tau_peak, settings)(tau_peak)) ** 2
        for settings in (QuadratureSettings(nodes_per_panel=32),
                         QuadratureSettings(nodes_per_panel=64))
    )
    assert d64 == pytest.approx(d32, rel=1e-3)


def test_panel_count_grows_with_oscillation():
    # seeding is linear in |tau| over the support [kappa_c, 1], where the
    # chirp's phase spans tau (1 - kappa_c^2) (kappa_c = 0.811 at lam = 100)
    spec = Spectrum()
    waves = {tau: transmitted_integral(spec, REFERENCE, tau) for tau in (50.0, 200.0, 800.0)}
    panels = {tau: wave.panels for tau, wave in waves.items()}
    cut = waves[800.0].kappa_cut
    assert cut == pytest.approx(0.811, abs=1e-3)
    assert panels[200.0] > panels[50.0]
    assert panels[800.0] > panels[200.0]
    # at least twice the seed count, one panel per n/2 rad of chirp phase:
    # the refinement halves every seed panel at least once
    n = QuadratureSettings().nodes_per_panel
    assert panels[800.0] >= 2 * math.ceil(800.0 * (1.0 - cut * cut) / (n / 2))


@pytest.mark.parametrize(
    "w,lam,cut",
    [(1.0, 3000.0, True), (1.0, 500.0, True), (1.0, 50.0, False), (2.0, 100.0, False)],
)
def test_support_cut_only_where_the_bound_certifies_it(w, lam, cut):
    # at W = 1 the transmitted weight sits on a strip of width O(1/lam^2)
    # below the cutoff; at W = 2 it is spread over [0, 1] and nothing is cut
    params = DimensionlessParams(W=w, lam=lam)
    wave = transmitted_integral(Spectrum(), params, 10.0)
    assert (wave.kappa_cut > 0.0) == cut
    if cut:  # at a = 0, 1 - kappa_c^2 = q_c^2 with lam q_c = 63 (500), 69 (3000)
        assert 1.0 - wave.kappa_cut**2 < (80.0 / lam) ** 2


def test_waves_compare_and_hash_by_identity():
    first, second = (transmitted_integral(Spectrum(), REFERENCE, 21.41) for _ in range(2))
    assert first != second
    assert first == first
    assert hash(first) != hash(second)
