"""Incoming momentum distribution.

The incident packet is weighted by a truncated Gaussian

    g(kappa) = norm * exp[-(kappa - kappa0)^2 delta^2 / 4],  0 <= kappa <= 1,

cut off at the spectrum limit kappa = 1 so that every component tunnels.
That limit is k = k_M by the choice of units, not a setting: `evaluate`
masks at the literal 1.0, as the engine integrates up to it.
The engine's support and the transmitted mean momentum (filter effect) are
in `wavepacket` (`wavepacket.support_cut`, `wavepacket.transmitted_mean_k`);
the opaque-limit mean 1 - a/(2 lam) is `phasetime.mean_k_opaque`.
"""

from __future__ import annotations

import numpy as np

from .units import Spectrum


def evaluate(spec: Spectrum, kappa):
    """Spectral weight g(kappa); exactly zero outside [0, 1], nan at nan."""
    kappa = np.asarray(kappa, dtype=float)
    outside = (kappa < 0.0) | (kappa > 1.0)  # nan is neither: it stays nan
    arg = -((kappa - spec.kappa0) ** 2) * spec.delta**2 / 4.0
    out = np.where(outside, 0.0, spec.norm * np.exp(arg))
    if out.ndim == 0:
        return float(out)
    return out
