"""Incoming momentum distribution and the transmitted mean momentum.

The incident packet is weighted by a truncated Gaussian

    g(kappa) = norm * exp[-(kappa - kappa0)^2 delta^2 / 4],  0 <= kappa <= 1,

cut off at the spectrum limit kappa = 1 so that every component tunnels.
The transmitted mean momentum (filter effect) is the g^2 |T|^2 - weighted
mean of kappa; in the opaque limit it collapses onto the cutoff as
1 - a/(2 lam).
"""

from __future__ import annotations

import numpy as np

from . import transmission
from .quadrature import integrate_adaptive
from .units import DimensionlessParams, QuadratureSettings, Spectrum


def evaluate(spec: Spectrum, kappa):
    """Spectral weight g(kappa); exactly zero outside [0, cutoff]."""
    kappa = np.asarray(kappa, dtype=float)
    inside = (kappa >= 0.0) & (kappa <= spec.cutoff)
    arg = -((kappa - spec.kappa0) ** 2) * spec.delta**2 / 4.0
    out = np.where(inside, spec.norm * np.exp(arg), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def transmitted_mean_k(
    spec: Spectrum,
    params: DimensionlessParams,
    settings: QuadratureSettings | None = None,
) -> float:
    """Mean transmitted momentum ratio, Int k g^2 |T|^2 / Int g^2 |T|^2.

    g^2 |T|^2 is refined once on [0, 1]: the denominator is its integral and
    the numerator sum_j w_j kappa_j g^2 |T|^2 (kappa_j) on the same rule.
    Both integrals carry the common e^{-2 q_M L} suppression factored out
    (the ratio is invariant), so opaque configurations stay representable.
    Raises ValueError on a vanishing denominator (degenerate spectrum).
    """
    settings = settings or QuadratureSettings()
    log_scale = params.a * params.lam

    def weight(kappa: np.ndarray) -> np.ndarray:
        mod, _ = transmission.modulus_phase(kappa, params, log_scale=log_scale)
        return (evaluate(spec, kappa) * mod) ** 2

    rule = integrate_adaptive(weight, 0.0, 1.0, settings)
    den = rule.value.real
    # sum of kappa * w * f by einsum: no BLAS call, as in `quadrature._panel_integrals`
    num = float(np.einsum("j,j,j->", *rule.nodes(), rule.samples.real))
    if den <= 0.0:
        raise ValueError("vanishing denominator in transmitted mean momentum")
    return num / den


def mean_k_opaque(params: DimensionlessParams) -> float:
    """Opaque-limit mean momentum 1 - a/(2 lam); exactly 1 at E_M = V0."""
    a = params.a
    if a == 0.0:
        return 1.0
    return 1.0 - a / (2.0 * params.lam)
