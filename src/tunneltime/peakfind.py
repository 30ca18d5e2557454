"""Peak-arrival detection at the barrier exit.

The numerical phase time is the time at which |Phi_T(L, t)|^2 is maximal:
a coarse scan over a bracketing window, then bisection of the bracket
around the coarse argmax on the sign of d|Phi_T|^2/dtau to two adjacent
doubles (near the flat maximum density values differ by less than their
rounding; the slope's sign does not).  Both run on one node set per configuration
(`wavepacket.transmitted_integral`), built once for the whole window, so
the density is a smooth function of tau with no panel-set noise; the
engine's `densities` gives the coarse scan and its `slope` the sign.  Both
leave out the common factor e^{-2 a lam}, which keeps the argmax and keeps
opaque configurations representable.  The bracket is trusted on one test:
the slope falls from + to - across it.
`peak_arrival` is the whole search, and its result carries the scan and
the engine it ran on.
One rule (`search_window`) fills each unset window bound from
`default_window(tau_new)`, tau_new being the moment phase time (computed
there unless the caller passes it); a set bound that empties the window is
an error naming tau_new.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import phasetime, wavepacket
from .units import DimensionlessParams, PeakSearchConfig, QuadratureSettings, Spectrum


@dataclass(frozen=True)
class PeakResult:
    """Peak time, with the coarse scan and the engine behind it.

    densities holds |Phi_T(0, tau)|^2 e^{2 a lam} at taus (see `trace`);
    wave(tau_peak) is Phi_T at the peak.
    """

    tau_peak: float
    window_hit: bool
    refined: bool
    refine_iters: int
    taus: list[float] = field(repr=False, compare=False)
    densities: np.ndarray = field(repr=False, compare=False)
    wave: wavepacket.TransmittedWave = field(repr=False, compare=False)

    def trace(self) -> list[tuple[float, float]]:
        """(tau, |Phi_T(0, tau)|^2) on the coarse grid, rescaling undone."""
        return list(zip(self.taus, self.wave.unscale(self.densities).tolist()))


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


def peak_arrival(
    spec: Spectrum,
    params: DimensionlessParams,
    config: PeakSearchConfig | None = None,
    settings: QuadratureSettings | None = None,
    tau_new: float | None = None,
) -> PeakResult:
    """Locate the exit-density maximum inside the search window.

    The window (`search_window`, given tau_new when the caller has it) is
    scanned at config.coarse_points evenly spaced taus.  window_hit is set
    (and refinement skipped) when the coarse argmax is the first or last
    sample, with no bracket in the window; the caller must widen.  Otherwise
    the bracket [tau_{i-1}, tau_{i+1}] around the coarse argmax is bisected on
    the sign of `TransmittedWave.slope` (refine_iters steps, the same at any
    spectrum norm) to two adjacent doubles, and its midpoint, which rounds to
    one of them, is within their gap of a stationary point of the density, a
    maximum: the sign change from + to - is kept at every step.  refined is
    False when bisection did not run: on a window hit, or when the slope does
    not fall from + to - across the bracket (the grid argmax is returned).
    Raises ValueError when the density is 0 at every coarse sample, which
    has no peak (a zero spectrum norm, or a density that underflows).
    """
    config = search_window(config or PeakSearchConfig(), params, tau_new)
    tau_lo, tau_hi, n = config.tau_min, config.tau_max, config.coarse_points
    wave = wavepacket.transmitted_integral(spec, params, max(abs(tau_lo), abs(tau_hi)), settings)
    step = (tau_hi - tau_lo) / (n - 1)
    taus = [tau_lo + i * step for i in range(n)]
    dens = wave.densities(tau_lo, step, n)
    if not dens.any():
        raise ValueError(f"exit density is 0 at every coarse sample in [{tau_lo:.6g}, "
                         f"{tau_hi:.6g}]: the spectrum norm is 0 or the density underflows")
    i_best = int(np.argmax(dens))
    window_hit = i_best == 0 or i_best == n - 1
    refined = not window_hit and wave.slope(taus[i_best - 1]) > 0.0 >= wave.slope(taus[i_best + 1])
    tau_peak, iters = taus[i_best], 0
    if refined:
        lo, hi = taus[i_best - 1], taus[i_best + 1]
        # a bracket one double wide has no midpoint strictly inside it
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if wave.slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            iters += 1
        tau_peak = 0.5 * (lo + hi)
    return PeakResult(
        tau_peak=tau_peak,
        window_hit=window_hit,
        refined=refined,
        refine_iters=iters,
        taus=taus,
        densities=dens,
        wave=wave,
    )
