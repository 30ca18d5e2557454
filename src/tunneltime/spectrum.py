"""Incoming momentum distribution, its transmitted support and the opaque mean.

The incident packet is weighted by a truncated Gaussian

    g(kappa) = norm * exp[-(kappa - kappa0)^2 delta^2 / 4],  0 <= kappa <= 1,

cut off at the spectrum limit kappa = 1 so that every component tunnels.
The transmitted mean momentum (filter effect) is the g^2 |T|^2 - weighted
mean of kappa (`wavepacket.transmitted_mean_k`); in the opaque limit it
collapses onto the cutoff as 1 - a/(2 lam).
"""

from __future__ import annotations

import math

import numpy as np

from .units import DimensionlessParams, Spectrum


def evaluate(spec: Spectrum, kappa):
    """Spectral weight g(kappa); exactly zero outside [0, cutoff], nan at nan."""
    kappa = np.asarray(kappa, dtype=float)
    outside = (kappa < 0.0) | (kappa > spec.cutoff)  # nan is neither: it stays nan
    arg = -((kappa - spec.kappa0) ** 2) * spec.delta**2 / 4.0
    out = np.where(outside, 0.0, spec.norm * np.exp(arg))
    if out.ndim == 0:
        return float(out)
    return out


def support_cut(spec: Spectrum, params: DimensionlessParams) -> float:
    """Largest kappa_c whose cut [0, kappa_c] drops at most eps/2 * sum|amp|.

    The support [kappa_c, 1] of the engine (`wavepacket.transmitted_integral`),
    whose node set both transmitted integrals are read off: the wave and,
    from its nodes, the mean momentum (`wavepacket.transmitted_mean_k`).
    With x = lam (q - a), q = sqrt(W^2 - kappa^2), `transmission._kernel`
    gives e^{-x} / sqrt(1 + b^2) <= |T| e^{a lam} <= 2 e^{-x}: its
    denominator lies between 1 and 2 sqrt(1 + b^2).  On [0, kappa_c] the
    mass of g |T| is therefore at most 2 max(g) e^{-x_c}.  On [kappa_1, 1],
    where x <= 1, it is at least (1 - kappa_1) min(g) e^{-1} / sqrt(1 + b^2)
    with g and |b| = |2 kappa^2 - W^2| lam / (2 kappa) at their extremes,
    which they take at the endpoints.  The cut is the smallest x_c at which
    the upper bound meets eps/2 times the lower one.  Both bounds scale
    with the norm, so they are taken at norm 1 and kappa_c does not depend
    on it.  Returns 0 when no cut can be certified: x_c reaches
    lam (W - a) (kappa = 0), or the lower bound underflows.  Raises
    ValueError when kappa_c rounds to 1, which leaves no support (at W = 1
    from lam about 1e10, where the cut's q_c - a falls below 1e-8).
    """
    W, lam, a = params.W, params.lam, params.a
    reach = lam * (W - a)  # x at kappa = 0
    if not reach > 1.0:
        return 0.0
    q1 = a + 1.0 / lam
    kappa1 = math.sqrt((W - q1) * (W + q1))
    unit = Spectrum(spec.kappa0, spec.delta)
    g = min(evaluate(unit, kappa1), evaluate(unit, 1.0))
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
    if (kappa_cut := math.sqrt((W - q_cut) * (W + q_cut))) < 1.0:
        return kappa_cut
    raise ValueError(f"the transmitted packet lies within double rounding of kappa = 1 "
                     f"at lam = {lam:.6g}")


def mean_k_opaque(params: DimensionlessParams) -> float:
    """Opaque-limit mean momentum 1 - a/(2 lam); exactly 1 at E_M = V0."""
    a = params.a
    if a == 0.0:
        return 1.0
    return 1.0 - a / (2.0 * params.lam)
