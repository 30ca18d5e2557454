"""Peak-arrival detection at the barrier exit.

The numerical phase time is the time at which |Phi_T(L, t)|^2 is maximal:
a coarse scan over a bracketing window followed by derivative-free
golden-section refinement.  Both evaluate the density on one node set per
configuration (`wavepacket.exit_amplitude`), built once for the whole
window, so the density is a smooth function of tau with no panel-set noise.
The coarse scan advances every node's phase factor by one grid step per
sample; refinement evaluates the sum directly.  The search runs on the
exp-rescaled density (common factor e^{2 a lam} pulled out), which leaves
the argmax untouched and keeps opaque configurations representable.
One rule (`search_window`) fills each unset window bound from
`default_window(tau_new)`, tau_new being the moment phase time; a set bound
that empties the window is an error naming tau_new.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import phasetime, wavepacket
from .quadrature import QuadratureSettings
from .spectrum import Spectrum
from .units import DimensionlessParams

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PeakSearchConfig:
    """Search window and refinement knobs; an unset bound is automatic."""

    tau_min: float | None = None
    tau_max: float | None = None
    coarse_points: int = 256
    refine_tol: float = 1e-4

    def __post_init__(self) -> None:
        if self.coarse_points < 16:
            raise ValueError("coarse_points must be >= 16")
        if not 0.0 < self.refine_tol < math.inf:
            raise ValueError("refine_tol must be positive and finite")
        for bound in (self.tau_min, self.tau_max):
            if bound is not None and not math.isfinite(bound):
                raise ValueError(f"tau_min and tau_max must be finite, got {bound}")
        if self.tau_min is not None and self.tau_max is not None:
            if not self.tau_min < self.tau_max:
                raise ValueError("tau_min must be < tau_max")


@dataclass(frozen=True)
class PeakResult:
    """Peak time and density, with the coarse scan the search ran on."""

    tau_peak: float
    density_peak: float
    window_hit: bool
    refined: bool
    refine_iters: int
    panels_max: int
    scan: CoarseScan = field(repr=False, compare=False)


def default_window(tau_reference: float) -> tuple[float, float]:
    """Bracketing window around an expected peak time."""
    return 0.1 * tau_reference, 5.0 * tau_reference + 10.0


def search_window(
    config: PeakSearchConfig, params: DimensionlessParams, tau_new: float | None = None
) -> PeakSearchConfig:
    """config with each unset bound from default_window(tau_new).

    tau_new comes from the closed-form moments unless the caller passes it.
    """
    if config.tau_min is not None and config.tau_max is not None:
        return config
    if tau_new is None:
        tau_new = phasetime.phase_time_moments(phasetime.moments_closed_form(params), params)
    auto_min, auto_max = default_window(tau_new)
    tau_min = auto_min if config.tau_min is None else config.tau_min
    tau_max = auto_max if config.tau_max is None else config.tau_max
    if not tau_min < tau_max:
        auto = "tau_min" if config.tau_min is None else "tau_max"
        raise ValueError(f"empty search window [{tau_min:.6g}, {tau_max:.6g}]: the automatic "
                         f"{auto} comes from tau_new = {tau_new:.6g}; set both bounds")
    return replace(config, tau_min=tau_min, tau_max=tau_max)


@dataclass(frozen=True)
class CoarseScan:
    """Exp-rescaled exit density on the coarse grid, and the engine behind it."""

    taus: list[float]
    densities: np.ndarray
    amplitude: wavepacket.ExitAmplitude

    def trace(self) -> list[tuple[float, float]]:
        """(tau, |Phi_T(0, tau)|^2) on the coarse grid, rescaling undone."""
        return list(zip(self.taus, self.amplitude.unscale(self.densities).tolist()))


def coarse_scan(
    spec: Spectrum,
    params: DimensionlessParams,
    config: PeakSearchConfig | None = None,
    settings: QuadratureSettings | None = None,
) -> CoarseScan:
    """|Phi_T(0, tau)|^2 e^{2 a lam} at config.coarse_points evenly spaced taus."""
    config = search_window(config or PeakSearchConfig(), params)
    tau_lo, tau_hi = config.tau_min, config.tau_max
    phi = wavepacket.exit_amplitude(spec, params, max(abs(tau_lo), abs(tau_hi)), settings)
    n = config.coarse_points
    step = (tau_hi - tau_lo) / (n - 1)
    # each node's term advances by one grid step per sample: one complex
    # multiply per node and tau instead of an exponential
    term = phi.amp * np.exp(-1j * tau_lo * phi.kappa2)
    advance = np.exp(-1j * step * phi.kappa2)
    dens = np.empty(n)
    for i in range(n):
        if i:
            term *= advance
        dens[i] = abs(term.sum()) ** 2
    return CoarseScan([tau_lo + i * step for i in range(n)], dens, phi)


def peak_arrival(
    spec: Spectrum,
    params: DimensionlessParams,
    config: PeakSearchConfig | None = None,
    settings: QuadratureSettings | None = None,
) -> PeakResult:
    """Locate the exit-density maximum inside the search window.

    window_hit is set (and refinement skipped) when the coarse argmax lies
    within one grid step of a window boundary; the caller must widen.
    refined is False when golden-section refinement did not run: on a
    window hit, or when the coarse scan is not unimodal at its argmax (the
    unrefined grid argmax is returned).
    """
    config = config or PeakSearchConfig()
    scan = coarse_scan(spec, params, config, settings)
    taus, dens, phi = scan.taus, scan.densities, scan.amplitude
    n = len(taus)
    i_best = int(np.argmax(dens))

    def scaled_density(tau: float) -> float:
        return abs(phi(tau)) ** 2

    window_hit = i_best <= 1 or i_best >= n - 2
    # Local three-point unimodality check before trusting the bracket.
    refined = not window_hit and bool(dens[i_best - 1] < dens[i_best] > dens[i_best + 1])
    tau_peak, scaled_peak, iters = taus[i_best], float(dens[i_best]), 0
    if refined:
        lo, hi = taus[i_best - 1], taus[i_best + 1]
        c = hi - _INV_GOLDEN * (hi - lo)
        d = lo + _INV_GOLDEN * (hi - lo)
        fc, fd = scaled_density(c), scaled_density(d)
        while hi - lo > config.refine_tol:
            if fc > fd:
                hi, d, fd = d, c, fc
                c = hi - _INV_GOLDEN * (hi - lo)
                fc = scaled_density(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + _INV_GOLDEN * (hi - lo)
                fd = scaled_density(d)
            iters += 1
        tau_peak = 0.5 * (lo + hi)
        scaled_peak = scaled_density(tau_peak)
    return PeakResult(
        tau_peak=tau_peak,
        density_peak=phi.unscale(scaled_peak),
        window_hit=window_hit,
        refined=refined,
        refine_iters=iters,
        panels_max=phi.panels,
        scan=scan,
    )
