"""Transmitted wave packet at the barrier exit, by spectral quadrature.

The packet past the barrier is the superposition of the transmitted
stationary states; at the exit x = L it is

    Phi_T(tau) = Int_0^1 dkappa g(kappa) |T(kappa)| e^{i phi(kappa)} e^{-i kappa^2 tau},

with tau = E_M t / hbar.  The paper's numerical phase time is the arrival
of the peak of |Phi_T|^2 there, so the wave is only ever sampled at the
exit.  The exact amplitude is used throughout; the opaque-limit
approximation lives in `phasetime` so the numerical ground truth stays
independent of the model being tested.

One engine evaluates it (`transmitted_integral`).  It refines the
factor g |T| e^{i phi} (times e^{a lam}) once, on panels seeded for the
chirp e^{-i kappa^2 tau} at the largest |tau| asked for, so at every
smaller one: one per n/2 rad of chirp phase (n nodes per panel).  Each
accepted panel is at most half a seed panel, n/4 rad, where the n-point
Gauss-Legendre error on the chirp is about (e/32)^{2n} (Abramowitz &
Stegun 25.4).  Near E_M = V0 the barrier filters the packet onto a thin strip
below the cutoff, so the refinement runs on the support [kappa_c, 1] only
(`spectrum.support_cut`): kappa_c comes from bounds on |T| alone, and the
mass it drops moves Phi_T by at most eps/2 * sum|amp| (eps the machine
epsilon; |Phi_T| ~ sum|amp| at the peak).  amp_j is each accepted
node's weight times the factor the refinement evaluated there, and
Phi_T(tau) costs one exponential per node and sample.  At W = 1,
lam = 500: 10 panels on [0.992, 1], 84 on [0, 1].

The node set stores its phase relative to the cutoff, s_j = kappa_j^2 - 1
= (kappa_j - 1)(kappa_j + 1), so that

    Phi_T(tau) = norm e^{-i tau - a lam} sum_j amp_j e^{-i s_j tau}

with amp_j carrying e^{a lam}.  |Phi_T|^2 does not depend on the common
phase e^{-i tau}; near E_M = V0 every kappa_j^2 is close to 1, and
d|Phi_T|^2/dtau, a difference of two nearly equal sums over kappa_j^2,
keeps its digits only when it is formed from the small s_j (the slope
method goes further and takes s_j about its mean).  Calling the engine
gives Phi_T itself; its peak-search methods (`densities`,
`slope_and_derivative`) leave out the factor e^{-2 a lam}, which keeps
opaque configurations representable and does not move the argmax.  The
peak search (`peakfind`) builds the engine once for its whole window; a
single sample is `transmitted_integral(spec, params, tau)(tau)`.  The
transmitted mean momentum (`transmitted_mean_k`) is read off the nodes of
the wave for tau = 0, so the factor is refined in this one place only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectrum as _spectrum
from . import transmission
from .quadrature import integrate_adaptive
from .units import DimensionlessParams, QuadratureSettings, Spectrum


# Coarse-scan samples per matrix-vector product (see `TransmittedWave.densities`).
_BLOCK = 16


def _initial_panels(phase: float, nodes_per_panel: int) -> int:
    """Panels of at most nodes_per_panel / 2 rad each over a chirp phase span."""
    return max(1, math.ceil(abs(phase) / (0.5 * nodes_per_panel)))


@dataclass(frozen=True, eq=False)
class TransmittedWave:
    """Phi_T(tau) at the exit on one composite Gauss-Legendre node set.

    amp_j = w_j g(kappa_j) |T(kappa_j)| e^{i phi(kappa_j)} e^{log_scale}, g at
    unit norm (`norm` enters `__call__` and, squared, `densities`), on every
    node of the accepted composite rule of `panels` panels on [kappa_c, 1]
    (`spectrum.support_cut`; the cut moves Phi by at most eps/2 * sum|amp|);
    s_j = (kappa_j - 1)(kappa_j + 1).  weights_j = w_j is the kappa-measure
    d kappa of node j, so |amp_j|^2 / weights_j = w_j g^2 |T|^2 e^{2 log_scale}
    is the transmitted weight that `transmitted_mean_k` averages kappa over.
    The peak search reads the density's slope f = (1/2) d|Phi|^2/dtau
    with its derivative f' (`slope_and_derivative`, for its bracket test
    and each Newton step): one exponential per node, at unit norm.
    Waves compare and hash by identity: == over array fields has no single
    truth value.
    """

    s: np.ndarray
    amp: np.ndarray
    panels: int
    weights: np.ndarray
    log_scale: float
    norm: float

    def __call__(self, time: float) -> complex:
        """Phi_T(time)."""
        total = np.sum(self.amp * np.exp(-1j * time * self.s))
        return complex(total) * cmath.exp(complex(-self.log_scale, -time)) * self.norm

    def densities(self, start: float, step: float, n: int) -> np.ndarray:
        """|Phi_T(start + i step)|^2 e^{2 log_scale} for i = 0 .. n - 1.

        powers[r, j] = e^{-i r step s_j}, r < _BLOCK, by repeated products
        of one exponential per node (row by row: np.cumprod down the columns
        takes 2 to 3 times as long); a block of _BLOCK samples is then one
        matrix-vector product, and the block's start term jumps _BLOCK steps
        by a direct exponential, so sample i carries about i / _BLOCK +
        _BLOCK roundings of its phase factor instead of i.
        """
        powers = np.ones((_BLOCK, self.s.size), dtype=complex)
        powers[1] = np.exp(-1j * step * self.s)
        for r in range(2, _BLOCK):
            np.multiply(powers[r - 1], powers[1], out=powers[r])
        jump = np.exp(-1j * (_BLOCK * step) * self.s)
        term = self.amp * np.exp(-1j * start * self.s)
        dens = np.empty(-(-n // _BLOCK) * _BLOCK)
        for i in range(0, n, _BLOCK):
            dens[i:i + _BLOCK] = np.abs(powers @ term) ** 2
            term *= jump
        return dens[:n] * self.norm**2

    @cached_property
    def _powers(self) -> np.ndarray:
        """Rows 1, d_j, d_j^2 with d_j = s_j - c, c the |amp|-weighted mean of s."""
        weight = np.abs(self.amp)
        d = self.s - np.sum(self.s * weight) / np.sum(weight)
        return np.vstack([np.ones_like(d), d, d * d])

    def slope_and_derivative(self, time: float) -> tuple[float, float]:
        """Slope f and its tau-derivative f', from one exponential per node.

        f = Re(conj(Phi) dPhi/dtau) = (1/2) d|Phi|^2/dtau, times
        e^{2 log_scale} / norm^2.

        With S_k = sum_j d_j^k amp_j e^{-i s_j time}, f = Im(conj(S_0) S_1) and
        f' = |S_1|^2 - Re(conj(S_0) S_2), for d_j = s_j - c and any constant
        c: the shift multiplies Phi by the phase e^{i c time}, which leaves
        |Phi|^2 as it is and cancels in each product.  c is the
        |amp|-weighted mean of s (`_powers`), so S_1 and S_2 are as small as
        the spread of s allows, and so is the rounding of the two nearly
        equal products whose difference is f near the peak.  The three sums
        are one real matrix product with the (re, im) pairs of the terms.
        """
        terms = self.amp * np.exp(-1j * time * self.s)
        sums = self._powers @ terms.view(float).reshape(-1, 2)
        (re0, im0), (re1, im1), (re2, im2) = sums.tolist()
        return re0 * im1 - im0 * re1, re1 * re1 + im1 * im1 - (re0 * re2 + im0 * im2)

    def unscale(self, scaled_density):
        """|Phi_T|^2 from a density of `densities` (scalar or array)."""
        return scaled_density * math.exp(-2.0 * self.log_scale)


def transmitted_integral(
    spec: Spectrum,
    params: DimensionlessParams,
    time: float,
    settings: QuadratureSettings | None = None,
) -> TransmittedWave:
    """Transmitted wave at the exit for every |tau| <= |time|.

    The amplitude factor is refined to settings.rel_tol on the support
    [kappa_c, 1] (`spectrum.support_cut`), from the uniform panels that
    resolve e^{-i kappa^2 time} there.  Raises ValueError: QuadratureError
    when that needs more than settings.max_panels panels or a panel too
    narrow to halve in double precision, and `support_cut`'s ValueError
    when kappa_c rounds to 1, which leaves no support.  The opaque
    suppression is factored out of the node amplitudes (log_scale = a * lam)
    so that they stay representable; calling the wave restores it.
    """
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, got {time}")
    settings = settings or QuadratureSettings()
    log_scale = params.a * params.lam
    unit = Spectrum(spec.kappa0, spec.delta)
    kappa_cut = _spectrum.support_cut(spec, params)

    def amplitude(kappa: np.ndarray) -> np.ndarray:
        mod, phase = transmission.modulus_phase(kappa, params, log_scale=log_scale)
        return _spectrum.evaluate(unit, kappa) * mod * np.exp(1j * phase)

    seed = _initial_panels(time * (1.0 - kappa_cut * kappa_cut), settings.nodes_per_panel)
    rule = integrate_adaptive(amplitude, kappa_cut, 1.0, settings, initial_panels=seed)
    return TransmittedWave(
        s=(rule.x - 1.0) * (rule.x + 1.0),
        amp=rule.w * rule.samples,
        panels=rule.panels,
        weights=rule.w,
        log_scale=log_scale,
        norm=spec.norm,
    )


def transmitted_mean_k(
    spec: Spectrum,
    params: DimensionlessParams,
    settings: QuadratureSettings | None = None,
) -> float:
    """Mean transmitted momentum ratio, Int k g^2 |T|^2 / Int g^2 |T|^2, in (0, 1].

    Both integrals are read off the nodes of the engine's wave for tau = 0
    (one seed panel on the support [kappa_c, 1]): node j carries the weight
    d_j = |amp_j|^2 / weights_j = w_j g^2 |T|^2 e^{2 a lam} at unit norm.  The
    denominator is sum_j d_j and the gap 1 - mean = sum_j d_j (1 - kappa_j) /
    sum_j d_j, with 1 - kappa_j = -s_j / (1 + sqrt(1 + s_j)) formed from s_j,
    so it keeps its digits as the mean nears the cutoff (1 - mean ~
    2.2 / lam^2 at W = 1).  The common e^{-2 a lam} suppression stays out
    of both (the ratio is invariant), so opaque configurations stay
    representable.  Raises ValueError on a vanishing denominator (a
    spectrum of norm 0; the wave is built at unit norm), and where the
    engine does: the `support_cut` ValueError when the support rounds to
    kappa = 1, and QuadratureError past settings.max_panels or on a panel
    too narrow to halve.
    """
    wave = transmitted_integral(spec, params, 0.0, settings)
    density = np.abs(wave.amp) ** 2 / wave.weights
    den = float(density.sum())
    if spec.norm == 0.0 or not den > 0.0:
        raise ValueError("vanishing denominator in transmitted mean momentum")
    # einsum: no BLAS call, as in `quadrature._panel_integrals`
    gap = float(np.einsum("j,j->", density, -wave.s / (1.0 + np.sqrt(1.0 + wave.s))))
    return 1.0 - gap / den
