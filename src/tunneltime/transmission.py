"""Transmitted amplitude of the rectangular barrier.

For a barrier of height V0 on [0, L] the transmitted amplitude is

    T(k) = e^{-ikL} / [cosh(qL) - i (2k^2 - w^2)/(2kq) sinh(qL)],

with w = sqrt(2 m V0)/hbar and q = sqrt(w^2 - k^2).  The plane-wave factor
e^{-ikL} is kept separate (it belongs to the free propagation term); this
module returns the modulus |T| and the barrier phase

    phi = arctan[(2k^2 - w^2) tanh(qL) / (2kq)].

Everything is expressed in cutoff units: kappa = k/k_M, W = w/k_M,
u = qL = lam * sqrt(W^2 - kappa^2).  One exp-scaled form covers every u,
in `modulus_phase` and in `stationary_time_full` alike: the hyperbolics are
divided by e^u/2 (e^{2u}/2 for the doubled arguments of the stationary
time), so lam up to several hundred stays finite in double precision, and
1 - e^{-2u} is written with expm1, which stays regular through the
removable singularity at k = w (q -> 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import DimensionlessParams


@dataclass(frozen=True)
class TransmissionValue:
    """|T| and barrier phase at one wavenumber ratio kappa = k/k_M."""

    modulus: float
    phase: float
    kappa: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.modulus <= 1.0):
            raise ValueError(f"modulus out of (0, 1]: {self.modulus}")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")


def _kernel(u: np.ndarray, b: np.ndarray, log_scale: float = 0.0):
    """Modulus (times e^{log_scale}) and phase from u = qL and b = (2k^2-w^2)L/(2k).

    With c = (2k^2-w^2)/(2kq), |T| = 1/sqrt(cosh^2 u + (c sinh u)^2) and
    phi = arctan(c tanh u).  Let eps = e^{-2u} and s = (1 - eps)/u (s = 2 at
    u = 0); then 2 e^{-u} cosh u = 1 + eps and 2 e^{-u} c sinh u = b s, so

        |T| e^{log_scale} = 2 e^{log_scale - u} / sqrt((1 + eps)^2 + (b s)^2),
        phi = arctan(b s / (1 + eps)).

    Nothing overflows while log_scale <= u.
    """
    u = np.asarray(u, dtype=float)
    b = np.asarray(b, dtype=float)
    em = np.expm1(-2.0 * u)  # eps - 1, without cancellation as u -> 0
    s = np.divide(-em, u, out=np.full_like(u, 2.0), where=u > 0.0)
    bs = b * s
    c = 2.0 + em  # 1 + eps
    modulus = 2.0 * np.exp(log_scale - u) / np.sqrt(c * c + bs * bs)
    return modulus, np.arctan(bs / c)


def _u_b(kappa: np.ndarray, params: DimensionlessParams):
    W, lam = params.W, params.lam
    g = np.sqrt(np.maximum(W * W - kappa * kappa, 0.0))
    u = lam * g
    b = (2.0 * kappa * kappa - W * W) * lam / (2.0 * kappa)
    return u, b


def modulus_phase(kappa, params: DimensionlessParams, log_scale: float = 0.0):
    """Vectorized |T(kappa)| * e^{log_scale} and phase phi(kappa).

    kappa must lie in (0, W]; values in (0, 1] are the physical spectrum
    range.  log_scale lets callers factor out the e^{-q_M L} suppression
    (use log_scale = a*lam) so that opaque configurations do not underflow;
    it must not exceed min(qL) over the evaluated points.
    """
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa <= 0.0) or np.any(kappa > params.W):
        raise ValueError("kappa must lie in (0, W]")
    u, b = _u_b(kappa, params)
    return _kernel(u, b, log_scale)


def amplitude(kappa: float, params: DimensionlessParams) -> TransmissionValue:
    """Exact transmitted amplitude at a single kappa = k/k_M in (0, 1]."""
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    mod, ph = modulus_phase(np.atleast_1d(kappa), params)
    return TransmissionValue(modulus=float(mod[0]), phase=float(ph[0]), kappa=float(kappa))


def amplitude_opaque(kappa, params: DimensionlessParams):
    """Opaque-limit modulus 4 k q e^{-qL} / w^2, valid for qL >> 1.

    Returns 0 at kappa = W where the prefactor vanishes.
    """
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa <= 0.0) or np.any(kappa > 1.0):
        raise ValueError("kappa must lie in (0, 1]")
    W, lam = params.W, params.lam
    g = np.sqrt(np.maximum(W * W - kappa * kappa, 0.0))
    out = 4.0 * kappa * g * np.exp(-lam * g) / (W * W)
    if out.ndim == 0:
        return float(out)
    return out


def stationary_time_full(kappa: float, params: DimensionlessParams) -> float:
    """Full stationary-phase time tau = E_M t / hbar at one kappa in (0, W).

    Solves the stationarity of phi + k(x-L) - Et/hbar at x = L:

        E t / hbar = k [w^4 sinh(2qL) + 2k^2 (w^2 - 2k^2) qL]
                     / (q [w^4 cosh(2qL) + 8 k^2 q^2 - w^4])

    (bracket grouping fixed so that the opaque limit reduces to
    E t/hbar -> k/q), then divides by kappa^2 to convert E t/hbar into
    E_M t/hbar.  Both brackets are divided by e^{2u}/2 (u = qL), so nothing
    overflows and the denominator has no cancellation as q -> 0:

        k [w^4 (1 - e^{-4u}) + 4k^2 (w^2 - 2k^2) u e^{-2u}]
        / (q [w^4 (1 - e^{-2u})^2 + 16 k^2 q^2 e^{-2u}]).

    For u >= 1e-2 the result is within 1e-11 relative of a 60-digit
    evaluation, also as kappa -> W.  Below u = 1e-2 the O(u) terms of the
    numerator cancel to O(u^3), so the relative error grows roughly like
    1e-16 / u^2 and reaches a few 1e-5 for u < 1e-5.
    """
    W, lam = params.W, params.lam
    if not 0.0 < kappa < W:
        raise ValueError(f"kappa must lie in (0, W), got {kappa}")
    k2 = kappa * kappa
    W4 = W ** 4
    g = math.sqrt((W - kappa) * (W + kappa))  # no cancellation as kappa -> W
    u = lam * g
    e = math.exp(-2.0 * u)
    em = math.expm1(-2.0 * u)  # e - 1
    num = kappa * (-W4 * math.expm1(-4.0 * u) + 4.0 * k2 * (W * W - 2.0 * k2) * u * e)
    den = g * (W4 * em * em + 16.0 * k2 * g * g * e)
    return num / (den * k2)
