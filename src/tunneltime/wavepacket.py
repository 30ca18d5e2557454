"""Transmitted wave packet at the barrier exit, by spectral quadrature.

The packet past the barrier is the superposition of the transmitted
stationary states; at the exit x = L it is

    Phi_T(tau) = Int_0^1 dkappa g(kappa) |T(kappa)| e^{i phi(kappa)} e^{-i kappa^2 tau},

with tau = E_M t / hbar.  The paper's numerical phase time is the arrival
of the peak of |Phi_T|^2 there, so the wave is only ever sampled at the
exit.  The exact amplitude is used throughout; every analytic formula,
the opaque-limit approximations among them, lives in `phasetime`, which
this module does not import, so the numerical ground truth stays
independent of the model being tested.

One engine evaluates it (`transmitted_integral`), in the angle t of the
trigonometric substitution for the sqrt(W^2 - kappa^2) end behaviour
(Davis & Rabinowitz, Methods of Numerical Integration): kappa = W sin theta
and t = theta_M - theta, theta_M = atan2(1, a), so kappa = cos t - a sin t,
q = a cos t + sin t and dkappa = -q dt.  T depends on kappa through
x = lam (q - a) = lam (sin t - a sin^2 t / (1 + cos t)), which is linear in
t at the cutoff t = 0 at every W, so the panels follow x and need no
grading toward kappa = 1.  `_chart` forms each node's kappa, q - a and
kappa^2 - 1 from t, and the engine passes x itself to
`transmission.modulus_phase`, which returns |T| e^{a lam} from it: x keeps
its digits where a + x / lam, rounded, would not.  The engine refines
the factor q g |T| e^{i phi} (times e^{a lam}) once, on panels seeded for
the chirp e^{-i kappa^2 tau} at the largest |tau| asked for, so at every
smaller one: seed edges at equal steps of s = kappa^2 - 1, one per n/2
rad of chirp phase (n nodes per panel), and at least one per 8 pi of x.
Each accepted panel is at most half a seed panel, n/4 rad, where the
n-point Gauss-Legendre error on the chirp is about (e/32)^{2n}
(Abramowitz & Stegun 25.4).  Near E_M = V0 the
barrier filters the packet onto a thin strip below the cutoff, so the
refinement runs on the support [0, t_c] only (`support_cut`): t_c comes
from bounds on |T| alone, and the mass it drops moves Phi_T by at most
eps/2 * sum|amp| (eps the machine epsilon; |Phi_T| ~ sum|amp| at the
peak).  amp_j is each accepted node's weight times the factor the
refinement evaluated there, and Phi_T(tau) costs one exponential per node
and sample.  At W = 1, lam = 500: 6 panels on t in [0, 0.127] (kappa from
0.992 to 1), 74 on all of [0, pi/2]; from lam = 1e4 to 3e6, 6 to 8.

The node set stores its phase relative to the cutoff, s_j = kappa_j^2 - 1,
formed from t_j without cancellation (`_chart`), so that

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
from .quadrature import QuadratureError, integrate_adaptive
from .units import DimensionlessParams, QuadratureSettings, Spectrum


# Coarse-scan samples per matrix-vector product (see `TransmittedWave.densities`).
_BLOCK = 16


def _chart(t, a: float):
    """kappa, the rise r = q - a and s = kappa^2 - 1 at the angle t (scalar or array).

    kappa = W sin theta with t = theta_M - theta and theta_M = atan2(1, a), so
    t = 0 is the cutoff kappa = 1 and t = theta_M is kappa = 0;
    q = sqrt(W^2 - kappa^2) = a cos t + sin t, so r = sin t - a sin^2 t /
    (1 + cos t) and s = -(q - a)(q + a) = -r (r + 2a).  None of the three
    cancels at small t.  This is the one place a node's coordinates are
    formed from t.
    """
    sin, cos = np.sin(t), np.cos(t)
    rise = sin - a * sin * sin / (1.0 + cos)
    return cos - a * sin, rise, -rise * (rise + 2.0 * a)


def _angle(s, a: float):
    """The angle t at s = kappa^2 - 1 in (-1, 0): atan2(q - a kappa, a q + kappa).

    q - a kappa = W^2 (1 - kappa^2) / (q + a kappa), without cancellation.
    """
    kappa, q = np.sqrt(1.0 + s), np.sqrt(a * a - s)
    return np.arctan2(-s * (1.0 + a * a) / (q + a * kappa), a * q + kappa)


@dataclass(frozen=True, eq=False)
class TransmittedWave:
    """Phi_T(tau) at the exit on one composite Gauss-Legendre node set.

    amp_j = w_j q_j g(kappa_j) |T(kappa_j)| e^{i phi(kappa_j)} e^{log_scale}, g
    at unit norm (`norm` enters `__call__` and, squared, `densities`), on
    every node t_j of the accepted composite rule of `panels` panels on
    [0, t_c] (`support_cut`; the cut moves Phi by at most eps/2 * sum|amp|);
    s_j = kappa_j^2 - 1, formed from t_j.  weights_j = w_j q_j is the
    kappa-measure d kappa of node j, so |amp_j|^2 / weights_j =
    w_j q_j g^2 |T|^2 e^{2 log_scale} is the transmitted weight that
    `transmitted_mean_k` averages kappa over.
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


def support_cut(spec: Spectrum, params: DimensionlessParams) -> float:
    """Smallest angle t_c whose cut [t_c, theta_M] drops at most eps/2 * sum|amp|.

    The support [0, t_c] of the engine (`transmitted_integral`), whose
    node set both transmitted integrals are read off: the wave and, from
    its nodes, the mean momentum (`transmitted_mean_k`).
    With x = lam (q - a), q = sqrt(W^2 - kappa^2), `transmission._kernel`
    gives e^{-x} / sqrt(1 + b^2) <= |T| e^{a lam} <= 2 e^{-x}: its
    denominator lies between 1 and 2 sqrt(1 + b^2).  On [0, kappa_c] the
    mass of g |T| is therefore at most 2 max(g) e^{-x_c}.  On [kappa_1, 1],
    where x <= 1, it is at least (1 - kappa_1) min(g) e^{-1} / sqrt(1 + b^2)
    with g and |b| = |2 kappa^2 - W^2| lam / (2 kappa) at their extremes,
    which they take at the endpoints.  The cut is the smallest x_c at which
    the upper bound meets eps/2 times the lower one, returned as its angle
    (t_c ~ x_c / lam at W = 1, so it keeps its digits at any lam).  Both
    bounds scale with the norm, so they are taken at norm 1 and t_c does
    not depend on it.  Returns theta_M = atan2(1, a), the whole spectrum,
    when no cut can be certified: x_c reaches lam (W - a) (kappa = 0), or
    the lower bound underflows.
    """
    W, lam, a = params.W, params.lam, params.a
    reach = lam * (W - a)  # x at kappa = 0
    if not reach > 1.0:
        return math.atan2(1.0, a)
    # kappa_1^2 - 1 = -(q_1 - a)(q_1 + a) at q_1 - a = 1 / lam, which a + 1 / lam
    # would round away once 1 / lam is below ulp(a)
    s1 = -(2.0 * a + 1.0 / lam) / lam
    kappa1 = math.sqrt(1.0 + s1)
    unit = Spectrum(spec.kappa0, spec.delta)
    g = min(_spectrum.evaluate(unit, kappa1), _spectrum.evaluate(unit, 1.0))
    b = max(abs(2.0 * k * k - W * W) * lam / (2.0 * k) for k in (kappa1, 1.0))
    width = -s1 / (1.0 + kappa1)  # 1 - kappa_1
    lower = width * g * math.exp(-1.0) / math.sqrt(1.0 + b * b)
    # 2 e^{-x} = eps/2 * lower
    x_cut = math.log(4.0 / np.finfo(float).eps) - math.log(lower) if lower > 0.0 else reach
    if x_cut >= reach:
        return math.atan2(1.0, a)
    # kappa_c^2 - 1 = -(q_c - a)(q_c + a)
    return float(_angle(-(x_cut / lam) * (2.0 * a + x_cut / lam), a))


def transmitted_integral(
    spec: Spectrum,
    params: DimensionlessParams,
    time: float,
    settings: QuadratureSettings | None = None,
) -> TransmittedWave:
    """Transmitted wave at the exit for every |tau| <= |time|.

    The amplitude factor g T q (dkappa = -q dt, and t runs from the cutoff)
    is refined to settings.rel_tol in the angle t on the support [0, t_c]
    (`support_cut`),
    from seed panels of equal span in s, so of equal chirp phase: one per
    n/2 rad of e^{-i s time}, and at least one per 8 pi of x = lam (q - a),
    the scale on which T varies: at W = 1, |T| ~ 2 x / (lam sinh x), whose
    poles at x = +-i pi bound Gauss-Legendre convergence on a wide panel
    (Trefethen, Approximation Theory and Approximation Practice, ch. 19).
    Raises ValueError: QuadratureError when that needs more than
    settings.max_panels panels or a panel too narrow to halve in double
    precision.  T comes from x (`transmission.modulus_phase(..., x=)`) as
    |T| e^{a lam}, so the opaque suppression stays out of the node
    amplitudes and they stay representable; calling the wave restores it
    (log_scale = a * lam).
    """
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, got {time}")
    settings = settings or QuadratureSettings()
    a, lam = params.a, params.lam
    unit = Spectrum(spec.kappa0, spec.delta)
    t_cut = support_cut(spec, params)

    def amplitude(t: np.ndarray) -> np.ndarray:
        kappa, rise, _ = _chart(t, a)
        mod, phase = transmission.modulus_phase(kappa, params, x=lam * rise)
        return (a + rise) * _spectrum.evaluate(unit, kappa) * mod * np.exp(1j * phase)

    _, rise_cut, s_cut = _chart(t_cut, a)
    seeds = max(math.ceil(abs(time * s_cut) / (0.5 * settings.nodes_per_panel)),
                math.ceil(lam * rise_cut / (8.0 * math.pi)), 1)
    if seeds > settings.max_panels:
        raise QuadratureError(f"initial panel count {seeds} exceeds "
                              f"max_panels={settings.max_panels}")
    inner = _angle(s_cut * np.arange(1, seeds) / seeds, a)
    rule = integrate_adaptive(amplitude, [0.0, *inner.tolist(), t_cut], settings)
    _, rise, s = _chart(rule.x, a)
    return TransmittedWave(
        s=s,
        amp=rule.w * rule.samples,
        panels=rule.panels,
        weights=rule.w * (a + rise),
        log_scale=a * lam,
        norm=spec.norm,
    )


def transmitted_mean_k(
    spec: Spectrum,
    params: DimensionlessParams,
    settings: QuadratureSettings | None = None,
) -> float:
    """Mean transmitted momentum ratio, Int k g^2 |T|^2 / Int g^2 |T|^2, in (0, 1].

    Both integrals are read off the nodes of the engine's wave for tau = 0
    (no chirp to seed for, on the support [0, t_c]): node j carries the
    weight d_j = |amp_j|^2 / weights_j = w_j q_j g^2 |T|^2 e^{2 a lam} at unit
    norm, the kappa-measure dkappa = q dt.  The
    denominator is sum_j d_j and the gap 1 - mean = sum_j d_j (1 - kappa_j) /
    sum_j d_j, with 1 - kappa_j = -s_j / (1 + sqrt(1 + s_j)) formed from s_j,
    so it keeps its digits as the mean nears the cutoff (1 - mean ~
    2.2 / lam^2 at W = 1).  The common e^{-2 a lam} suppression stays out
    of both (the ratio is invariant), so opaque configurations stay
    representable.  Raises ValueError on a vanishing denominator (a
    spectrum of norm 0; the wave is built at unit norm), and where the
    engine does: QuadratureError past settings.max_panels or on a panel
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
