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
(`_support_cut`): kappa_c comes from bounds on |T| alone, and the mass it
drops moves Phi_T by at most eps/2 * sum|amp| (eps the machine epsilon;
|Phi_T| ~ sum|amp| at the peak).  amp_j is each accepted node's weight
times the factor the refinement evaluated there, and Phi_T(tau) costs one
exponential per node and sample.  At W = 1, lam = 500: 10 panels on
[0.992, 1], 84 on [0, 1].

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
single sample is `transmitted_integral(spec, params, tau)(tau)`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
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


def _support_cut(unit: Spectrum, params: DimensionlessParams) -> float:
    """Largest kappa_c whose cut [0, kappa_c] drops at most eps/2 * sum|amp|.

    With x = lam (q - a), q = sqrt(W^2 - kappa^2), `transmission._kernel`
    gives e^{-x} / sqrt(1 + b^2) <= |T| e^{a lam} <= 2 e^{-x}: its
    denominator lies between 1 and 2 sqrt(1 + b^2).  On [0, kappa_c] the
    mass is therefore at most 2 max(g) e^{-x_c}.  On [kappa_1, 1], where
    x <= 1, the mass is at least (1 - kappa_1) min(g) e^{-1} / sqrt(1 + b^2)
    with g and |b| = |2 kappa^2 - W^2| lam / (2 kappa) at their extremes,
    which they take at the endpoints.  The cut is the smallest x_c at which
    the upper bound meets eps/2 times the lower one.  Both bounds scale
    with the norm, so `unit` has norm 1 and kappa_c does not depend on
    it.  Returns 0 when no cut can be certified: x_c reaches
    lam (W - a) (kappa = 0), or the lower bound underflows.
    """
    W, lam, a = params.W, params.lam, params.a
    reach = lam * (W - a)  # x at kappa = 0
    if not reach > 1.0:
        return 0.0
    q1 = a + 1.0 / lam
    kappa1 = math.sqrt((W - q1) * (W + q1))
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


@dataclass(frozen=True, eq=False)
class TransmittedWave:
    """Phi_T(tau) at the exit on one composite Gauss-Legendre node set.

    amp_j = w_j g(kappa_j) |T(kappa_j)| e^{i phi(kappa_j)} e^{log_scale}, g at
    unit norm (`norm` enters `__call__` and, squared, `densities`), on every
    node of the accepted composite rule of `panels` panels on [kappa_cut, 1]
    (the cut moves Phi by at most eps/2 * sum|amp|); s_j = (kappa_j - 1)(kappa_j + 1).
    The peak search reads the density's slope f = (1/2) d|Phi|^2/dtau
    with its derivative f' (`slope_and_derivative`, for its bracket test
    and each Newton step): one exponential per node, at unit norm.
    Waves compare and hash by identity: == over array fields has no single
    truth value.
    """

    s: np.ndarray
    amp: np.ndarray
    panels: int
    log_scale: float
    kappa_cut: float
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
    [kappa_c, 1] (`_support_cut`), from the uniform panels that resolve
    e^{-i kappa^2 time} there; QuadratureError is raised when that needs
    more than settings.max_panels panels, and ValueError when kappa_c
    rounds to 1, which leaves no support (at W = 1 from lam about 1e10,
    where the cut's q_c - a falls below 1e-8).  The opaque
    suppression is factored out of the node amplitudes (log_scale = a * lam)
    so that they stay representable; calling the wave restores it.
    """
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, got {time}")
    settings = settings or QuadratureSettings()
    log_scale = params.a * params.lam
    unit = replace(spec, norm=1.0)
    kappa_cut = _support_cut(unit, params)
    if not kappa_cut < 1.0:
        raise ValueError(f"the transmitted packet lies within double rounding of kappa = 1 "
                         f"at lam = {params.lam:.6g}")

    def amplitude(kappa: np.ndarray) -> np.ndarray:
        mod, phase = transmission.modulus_phase(kappa, params, log_scale=log_scale)
        return _spectrum.evaluate(unit, kappa) * mod * np.exp(1j * phase)

    seed = _initial_panels(time * (1.0 - kappa_cut * kappa_cut), settings.nodes_per_panel)
    rule = integrate_adaptive(amplitude, kappa_cut, 1.0, settings, initial_panels=seed)
    kappa, weights = rule.nodes()  # rule.samples: the amplitude on these nodes
    return TransmittedWave(
        s=(kappa - 1.0) * (kappa + 1.0),
        amp=weights * rule.samples,
        panels=rule.panels,
        log_scale=log_scale,
        kappa_cut=kappa_cut,
        norm=spec.norm,
    )
