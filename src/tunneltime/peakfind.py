"""Peak-arrival detection at the barrier exit.

The numerical phase time is the time at which |Phi_T(L, t)|^2 is maximal:
a coarse scan over a bracketing window, then safeguarded Newton steps on
the root of d|Phi_T|^2/dtau inside the bracket around the coarse argmax,
each moving one end of the bracket by the slope's sign, until the bracket
spans two adjacent doubles (near the flat maximum density values differ
by less than their rounding; the slope's sign does not).  Both run on one
node set per configuration (`wavepacket.transmitted_integral`), built once
for the whole window, so the density is a smooth function of tau with no
panel-set noise; the engine's `densities` gives the coarse scan and its
`slope_and_derivative` every evaluation of the refinement (`_refine`), the
bracket test at its two ends among them.  Both leave out the common factor
e^{-2 a lam}, which keeps the argmax and keeps opaque configurations
representable.  The bracket is trusted on one test: the slope falls from
+ to - across it.
`peak_arrival` is the whole search, and its result carries the scan, the
engine it ran on and the moment phase time tau_new that placed the
window: it computes tau_new once (closed-form moments), and one rule
(`search_window`) fills each unset window bound, tau_min = 0.1 tau_new
and tau_max = 5 tau_new + 10; a set bound that empties the window is an
error naming tau_new.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import phasetime, wavepacket
from .units import DimensionlessParams, PeakSearchConfig, QuadratureSettings, Spectrum


@dataclass(frozen=True)
class PeakResult:
    """Peak time, with the coarse scan and the engine behind it.

    tau_new is the moment phase time that placed the window; densities
    holds |Phi_T(0, tau)|^2 e^{2 a lam} at taus (see `trace`);
    wave(tau_peak) is Phi_T at the peak.
    """

    tau_peak: float
    window_hit: bool
    refined: bool
    refine_iters: int
    tau_new: float
    taus: list[float] = field(repr=False, compare=False)
    densities: np.ndarray = field(repr=False, compare=False)
    wave: wavepacket.TransmittedWave = field(repr=False, compare=False)

    def trace(self) -> list[tuple[float, float]]:
        """(tau, |Phi_T(0, tau)|^2) on the coarse grid, rescaling undone."""
        return list(zip(self.taus, self.wave.unscale(self.densities).tolist()))


def search_window(config: PeakSearchConfig, tau_new: float) -> tuple[float, float]:
    """(tau_min, tau_max) of config; unset, tau_min is 0.1 tau_new and tau_max 5 tau_new + 10."""
    tau_min = 0.1 * tau_new if config.tau_min is None else config.tau_min
    tau_max = 5.0 * tau_new + 10.0 if config.tau_max is None else config.tau_max
    if not tau_min < tau_max:
        auto = "tau_min" if config.tau_min is None else "tau_max"
        raise ValueError(f"empty search window [{tau_min:.6g}, {tau_max:.6g}]: the automatic "
                         f"{auto} comes from tau_new = {tau_new:.6g}; set both bounds")
    return tau_min, tau_max


# A Newton step of at most this many ulps hands over to the endgame: within
# some tens of ulps of the root f is rounding noise, and Newton steps there
# jump about instead of converging
_ENDGAME_ULPS = 64.0


def _refine(
    wave: wavepacket.TransmittedWave, lo: float, tau: float, hi: float
) -> tuple[float, int] | None:
    """Root of the slope f in [lo, hi] from tau inside, or None without a bracket.

    Safeguarded Newton (rtsafe, Numerical Recipes 9.4) on f, f'
    (`slope_and_derivative`).  It first takes f at lo, then, when f(lo) > 0,
    at hi, and returns None unless f falls from + to - across [lo, hi]
    (f(lo) > 0 >= f(hi)).  Then each evaluation from tau on moves the end
    of the bracket its sign says, and the next tau is the Newton point, or
    the midpoint when that point leaves the bracket, when the step is more
    than half the last one (the last Newton step, or after a bisection the
    bracket), or when f' >= 0.  Newton closes the bracket from one side
    only, so once a step is at most _ENDGAME_ULPS ulps (or f = 0.0 there),
    the endgame probes past the root estimate toward the far end with a
    doubling gap, which is bisection once the far end has moved.  Stops
    when the bracket spans two adjacent doubles; returns its midpoint,
    which rounds to one of them, and the number of evaluations from tau on
    (the two at the bracket ends not counted).
    """
    if not wave.slope_and_derivative(lo)[0] > 0.0 >= wave.slope_and_derivative(hi)[0]:
        return None
    evals, last_step, gap = 0, hi - lo, 0.0
    while True:
        f, df = wave.slope_and_derivative(tau)
        evals += 1
        if f > 0.0:
            lo = tau
        else:
            hi = tau
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # a bracket one double wide has no midpoint inside it
            return mid, evals
        if not gap:
            step = -f / df if df < 0.0 else (0.0 if f == 0.0 else math.inf)
            if abs(step) <= _ENDGAME_ULPS * math.ulp(tau):
                root, up, gap = tau + step, f > 0.0, math.ulp(tau)
            elif lo < tau + step < hi and abs(step) <= 0.5 * last_step:
                tau, last_step = tau + step, abs(step)
                continue
            else:
                tau, last_step = mid, hi - lo
                continue
        tau = min(root + gap, mid) if up else max(root - gap, mid)
        gap *= 2.0


def peak_arrival(
    spec: Spectrum,
    params: DimensionlessParams,
    config: PeakSearchConfig | None = None,
    settings: QuadratureSettings | None = None,
) -> PeakResult:
    """Locate the exit-density maximum inside the search window.

    The window (`search_window` from tau_new, the moment phase time of the
    closed-form moments, which the result carries) is scanned at
    config.coarse_points evenly spaced taus.  window_hit is set (and
    refinement skipped) when the coarse argmax is the first or last
    sample, with no bracket in the window; the caller must widen.  Otherwise
    `_refine` takes the bracket [tau_{i-1}, tau_{i+1}] around the coarse
    argmax: when the slope falls from + to - across it, Newton steps with a
    bisection fallback from tau_i (one evaluation of
    `TransmittedWave.slope_and_derivative` each, refine_iters in all, the
    same at any spectrum norm) narrow it on the sign of the slope to two
    adjacent doubles, and its midpoint, which rounds to one of them, is
    within their gap of a stationary point of the density, a maximum: the
    sign change from + to - is kept at every step.  refined is False when
    the refinement did not run: on a window hit, or when the slope does not
    fall from + to - across the bracket (the grid argmax is returned).
    Raises ValueError when the density is 0 at every coarse sample, which
    has no peak (a zero spectrum norm, or a density that underflows); the
    moments, `search_window` and the engine raise ValueError too.
    """
    config = config or PeakSearchConfig()
    # through the module, where perfbench/layers.py wraps the moments
    tau_new = phasetime.phase_time_moments(phasetime.moments_closed_form(params))
    (tau_lo, tau_hi), n = search_window(config, tau_new), config.coarse_points
    wave = wavepacket.transmitted_integral(spec, params, max(abs(tau_lo), abs(tau_hi)), settings)
    step = (tau_hi - tau_lo) / (n - 1)
    taus = [tau_lo + i * step for i in range(n)]
    dens = wave.densities(tau_lo, step, n)
    if not dens.any():
        raise ValueError(f"exit density is 0 at every coarse sample in [{tau_lo:.6g}, "
                         f"{tau_hi:.6g}]: the spectrum norm is 0 or the density underflows")
    i_best = int(np.argmax(dens))
    window_hit = i_best == 0 or i_best == n - 1
    found = None if window_hit else _refine(wave, *taus[i_best - 1:i_best + 2])
    tau_peak, iters = found or (taus[i_best], 0)
    return PeakResult(
        tau_peak=tau_peak,
        window_hit=window_hit,
        refined=found is not None,
        refine_iters=iters,
        tau_new=tau_new,
        taus=taus,
        densities=dens,
        wave=wave,
    )
