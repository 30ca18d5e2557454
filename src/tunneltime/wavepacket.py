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
chirp at the largest |tau| (and therefore at every smaller one).  Near
E_M = V0 the barrier filters the packet onto a thin strip below the
cutoff, so the refinement runs on the support [kappa_c, 1] only
(`_support_cut`): kappa_c comes from bounds on |T| alone, before any node is
evaluated, and the mass it drops is at most eps/2 * sum|amp| (eps the
double-precision machine epsilon).  The refinement hands back the factor
on its accepted nodes, so each node is evaluated once: amp_j is the node's
weight times that value.  It keeps the nodes with
|amp_j| > (eps/2) * sum|amp| / N (N the node count), and then
Phi_T(0, tau) = sum_j amp_j e^{-i kappa_j^2 tau} costs one exponential per
kept node and time.  The cut and the dropped terms together move Phi_T by
at most eps * sum|amp| at any tau, and |Phi_T| ~ sum|amp| at the peak.
At W = 1, lam = 500 the support is [0.992, 1]: 22 panels instead of 736
on [0, 1], and 426 of its 704 nodes stay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def _support_cut(spec: Spectrum, params: DimensionlessParams) -> float:
    """Largest kappa_c whose cut [0, kappa_c] drops at most eps/2 * sum|amp|.

    With x = lam (q - a), q = sqrt(W^2 - kappa^2), `transmission._kernel`
    gives e^{-x} / sqrt(1 + b^2) <= |T| e^{a lam} <= 2 e^{-x}: its
    denominator lies between 1 and 2 sqrt(1 + b^2).  On [0, kappa_c] the
    mass is therefore at most 2 max(g) e^{-x_c}.  On [kappa_1, 1], where
    x <= 1, the mass is at least (1 - kappa_1) min(g) e^{-1} / sqrt(1 + b^2)
    with g and |b| = |2 kappa^2 - W^2| lam / (2 kappa) at their extremes,
    which they take at the endpoints.  The cut is the smallest x_c at which
    the upper bound meets eps/2 times the lower one.  Both bounds scale
    with spec.norm, so kappa_c is computed at norm = 1 and does not depend
    on it.  Returns 0 when no cut can be certified: x_c reaches
    lam (W - a) (kappa = 0), or the lower bound underflows.
    """
    W, lam, a = params.W, params.lam, params.a
    reach = lam * (W - a)  # x at kappa = 0
    if not reach > 1.0:
        return 0.0
    q1 = a + 1.0 / lam
    kappa1 = math.sqrt((W - q1) * (W + q1))
    unit = replace(spec, norm=1.0)
    g = min(_spectrum.evaluate(unit, kappa1), _spectrum.evaluate(unit, 1.0))
    b = max(abs(2.0 * k * k - W * W) * lam / (2.0 * k) for k in (kappa1, 1.0))
    # 1 - kappa_1 = (1 - kappa_1^2) / (1 + kappa_1) = (q_1 - a)(q_1 + a) / (1 + kappa_1)
    width = (q1 + a) / (lam * (1.0 + kappa1))
    lower = width * g * math.exp(-1.0) / math.sqrt(1.0 + b * b)
    if not lower > 0.0:
        return 0.0
    x_cut = math.log(4.0 / np.finfo(float).eps) - math.log(lower)  # 2 e^{-x} = eps/2 * lower
    if x_cut >= reach:
        return 0.0
    q_cut = a + x_cut / lam
    return math.sqrt((W - q_cut) * (W + q_cut))


@dataclass(frozen=True)
class ExitAmplitude:
    """Phi_T(0, tau) * e^{log_scale} on one composite Gauss-Legendre node set.

    amp_j = w_j g(kappa_j) |T(kappa_j)| e^{i phi(kappa_j)} e^{log_scale}
    on the kept nodes of the composite rule on [kappa_cut, 1]
    (|amp_j| > (eps/2) * sum|amp| / N; with the cut, Phi moves by at most
    eps * sum|amp|); `panels` is the size of the node set the refinement
    chose, before any node was dropped.
    """

    kappa2: np.ndarray
    amp: np.ndarray
    panels: int
    log_scale: float
    kappa_cut: float

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

    The amplitude factor is refined to settings.rel_tol on the support
    [kappa_c, 1] (`_support_cut`), from the uniform panels that resolve
    e^{-i kappa^2 time_bound} there; QuadratureError is raised when that
    needs more than settings.max_panels panels.  The opaque suppression is
    factored out (log_scale = a * lam) so that the amplitude stays
    representable; `ExitAmplitude.unscale` restores it.
    """
    settings = settings or QuadratureSettings()
    log_scale = params.a * params.lam
    kappa_cut = _support_cut(spec, params)
    rule = integrate_adaptive(
        _amplitude(spec, params, log_scale), kappa_cut, 1.0, settings,
        initial_panels=_initial_panels(0.0, time_bound * (1.0 - kappa_cut * kappa_cut)),
    )
    kappa, weights = rule.nodes()  # rule.samples: the amplitude on these nodes
    amp = weights * rule.samples
    # with the cut's eps/2, the dropped terms change Phi at any tau by at
    # most eps * sum|amp|
    mag = np.abs(amp)
    keep = mag > 0.5 * np.finfo(float).eps * mag.sum() / mag.size
    kappa = kappa[keep]
    return ExitAmplitude(
        kappa2=kappa * kappa,
        amp=amp[keep],
        panels=rule.panels,
        log_scale=log_scale,
        kappa_cut=kappa_cut,
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
