"""Transmitted wave packet by spectral quadrature.

The packet past the barrier is the superposition of the transmitted
stationary states,

    Phi_T(xi, tau) = Int_0^1 dkappa g(kappa) |T(kappa)| e^{i phi(kappa)}
                     e^{i (kappa xi - kappa^2 tau)},

with xi = k_M (x - L) >= 0 and tau = E_M t / hbar.  The exact amplitude is
used throughout; the opaque-limit approximation lives in `phasetime` so the
numerical ground truth stays independent of the model being tested.

Two routes evaluate it, on one amplitude factor g |T| e^{i phi}
(`_amplitude`).  `transmitted_integral` integrates one (xi, tau) sample
adaptively; its initial panel count grows linearly with |tau| to resolve
the chirp e^{-i kappa^2 tau} before refinement takes over.
`exit_amplitude` serves many times at the exit xi = 0: it refines the
tau-independent factor (times e^{a lam}) once, on panels seeded for the
chirp at the largest |tau| (and therefore at every smaller one).  The
refinement hands back the factor on its accepted nodes, so each node is
evaluated once: amp_j is the node's weight times that value.  It keeps
the nodes with |amp_j| > eps * sum|amp| / N (eps the double-precision
machine epsilon, N the node count), and then
Phi_T(0, tau) = sum_j amp_j e^{-i kappa_j^2 tau} costs one exponential per
kept node and time.  The dropped terms move Phi_T by at most
eps * sum|amp| at any tau, and |Phi_T| ~ sum|amp| at the peak.  Near
E_M = V0 the barrier filters the packet onto a thin strip below the cutoff,
so few nodes stay (314 of 23552 at W = 1, lam = 500).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectrum as _spectrum
from . import transmission
from .quadrature import QuadratureResult, QuadratureSettings, integrate_adaptive
from .spectrum import Spectrum
from .units import DimensionlessParams


@dataclass(frozen=True)
class WaveSample:
    """One space-time sample of the transmitted wave."""

    position: float      # k_M (x - L), >= 0
    time: float          # E_M t / hbar
    amplitude: complex

    @property
    def density(self) -> float:
        return abs(self.amplitude) ** 2


def _initial_panels(position: float, time: float) -> int:
    return math.ceil(4.0 * (1.0 + (abs(time) + abs(position)) / (2.0 * math.pi)))


def _amplitude(spec: Spectrum, params: DimensionlessParams, log_scale: float):
    """kappa -> g(kappa) |T(kappa)| e^{i phi(kappa)} e^{log_scale}."""

    def amplitude(kappa: np.ndarray) -> np.ndarray:
        mod, phase = transmission.modulus_phase(kappa, params, log_scale=log_scale)
        return _spectrum.evaluate(spec, kappa) * mod * np.exp(1j * phase)

    return amplitude


def transmitted_integral(
    spec: Spectrum,
    params: DimensionlessParams,
    position: float,
    time: float,
    settings: QuadratureSettings | None = None,
) -> QuadratureResult:
    """Adaptive spectral integral at one (xi, tau); `panels` is the effort."""
    settings = settings or QuadratureSettings()
    amplitude = _amplitude(spec, params, 0.0)

    def integrand(kappa: np.ndarray) -> np.ndarray:
        return amplitude(kappa) * np.exp(1j * (kappa * position - kappa * kappa * time))

    return integrate_adaptive(
        integrand, 0.0, 1.0, settings, initial_panels=_initial_panels(position, time)
    )


@dataclass(frozen=True)
class ExitAmplitude:
    """Phi_T(0, tau) * e^{log_scale} on one composite Gauss-Legendre node set.

    amp_j = w_j g(kappa_j) |T(kappa_j)| e^{i phi(kappa_j)} e^{log_scale}
    on the kept nodes of the composite rule (|amp_j| > eps * sum|amp| / N,
    so Phi moves by at most eps * sum|amp|); `panels` is the size of the
    node set the refinement chose, before any node was dropped.
    """

    kappa2: np.ndarray
    amp: np.ndarray
    panels: int
    log_scale: float

    def __call__(self, time: float) -> complex:
        return complex(np.sum(self.amp * np.exp(-1j * time * self.kappa2)))

    def slope(self, time: float) -> float:
        """Re(conj(Phi) dPhi/dtau) = (1/2) d|Phi|^2/dtau at time."""
        terms = self.amp * np.exp(-1j * time * self.kappa2)
        return float((np.conj(terms.sum()) * np.sum(self.kappa2 * terms)).imag)

    def unscale(self, scaled_density):
        """|Phi_T|^2 from a density |self(tau)|^2 (scalar or array)."""
        return scaled_density * math.exp(-2.0 * self.log_scale)


def exit_amplitude(
    spec: Spectrum,
    params: DimensionlessParams,
    time_bound: float,
    settings: QuadratureSettings | None = None,
) -> ExitAmplitude:
    """Exit amplitude for every |tau| <= time_bound from one refinement.

    The amplitude factor is refined to settings.rel_tol from the uniform
    panels that resolve e^{-i kappa^2 time_bound}; QuadratureError is raised
    when that needs more than settings.max_panels panels.  The opaque
    suppression is factored out (log_scale = a * lam) so that the amplitude
    stays representable; `ExitAmplitude.unscale` restores it.
    """
    settings = settings or QuadratureSettings()
    log_scale = params.a * params.lam
    rule = integrate_adaptive(
        _amplitude(spec, params, log_scale), 0.0, 1.0, settings,
        initial_panels=_initial_panels(0.0, time_bound),
    )
    kappa, weights = rule.nodes()  # rule.samples: the amplitude on these nodes
    amp = weights * rule.samples
    # the dropped terms change Phi at any tau by at most eps * sum|amp|
    mag = np.abs(amp)
    keep = mag > np.finfo(float).eps * mag.sum() / mag.size
    kappa = kappa[keep]
    return ExitAmplitude(
        kappa2=kappa * kappa,
        amp=amp[keep],
        panels=rule.panels,
        log_scale=log_scale,
    )


def synthesize(
    spec: Spectrum,
    params: DimensionlessParams,
    position: float,
    time: float,
    settings: QuadratureSettings | None = None,
) -> WaveSample:
    """Transmitted wave sample at dimensionless position >= 0 and time."""
    if position < 0.0:
        raise ValueError("position is measured from the barrier exit and must be >= 0")
    result = transmitted_integral(spec, params, position, time, settings)
    return WaveSample(position=position, time=time, amplitude=result.value)


def density_at_exit(
    spec: Spectrum,
    params: DimensionlessParams,
    time: float,
    settings: QuadratureSettings | None = None,
) -> float:
    """Electronic density |Phi_T|^2 at the barrier exit x = L."""
    return synthesize(spec, params, 0.0, time, settings).density
