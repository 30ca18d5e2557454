"""Transmitted amplitude of the rectangular barrier.

For a barrier of height V0 on [0, L] the transmitted amplitude is

    T(k) = e^{-ikL} / [cosh(qL) - i (2k^2 - w^2)/(2kq) sinh(qL)],

with w = sqrt(2 m V0)/hbar and q = sqrt(w^2 - k^2).  The plane-wave factor
e^{-ikL} is kept separate (it belongs to the free propagation term); this
module returns the modulus |T| and the barrier phase

    phi = arctan[(2k^2 - w^2) tanh(qL) / (2kq)].

Everything is expressed in cutoff units: kappa = k/k_M, W = w/k_M,
u = qL = lam * sqrt(W^2 - kappa^2).  The engine (`wavepacket`) passes the
rise x = lam (q - a) of each kappa as well, formed from its angle
(`wavepacket._chart`), and gets |T| e^{a lam} = 2 e^{-x} / sqrt(...) with
u = a lam + x: the factor e^{-a lam} that would underflow in opaque
configurations is never formed, and x keeps its digits where a lam + x,
rounded, has lost those of x.  One exp-scaled form covers every u: the
hyperbolics are divided by e^u/2, so lam up to several hundred stays finite
in double precision, and 1 - e^{-2u} is written with expm1, which stays
regular through the removable singularity at k = w (q -> 0).

This module is the exact T only; the analytic approximations the paper
tests against it (the opaque amplitude, the stationary-phase time) live
in `phasetime`.
"""

from __future__ import annotations

import numpy as np

from .units import DimensionlessParams


def _kernel(u: np.ndarray, b: np.ndarray, x=None):
    """Modulus (times e^{u - x}) and phase from u = qL and b = (2k^2-w^2)L/(2k).

    With c = (2k^2-w^2)/(2kq), |T| = 1/sqrt(cosh^2 u + (c sinh u)^2) and
    phi = arctan(c tanh u).  Let eps = e^{-2u} and s = (1 - eps)/u (s = 2 at
    u = 0); then 2 e^{-u} cosh u = 1 + eps and 2 e^{-u} c sinh u = b s, so

        |T| e^{u - x} = 2 e^{-x} / sqrt((1 + eps)^2 + (b s)^2),
        phi = arctan(b s / (1 + eps)).

    x defaults to u, which gives |T| itself.
    """
    u = np.asarray(u, dtype=float)
    b = np.asarray(b, dtype=float)
    em = np.expm1(-2.0 * u)  # eps - 1, without cancellation as u -> 0
    s = np.divide(-em, u, out=np.full_like(u, 2.0), where=u > 0.0)
    bs = b * s
    c = 2.0 + em  # 1 + eps
    modulus = 2.0 * np.exp(-(u if x is None else x)) / np.sqrt(c * c + bs * bs)
    return modulus, np.arctan(bs / c)


def modulus_phase(kappa, params: DimensionlessParams, x=None):
    """|T(kappa)| and phase phi(kappa), kappa a scalar or an array.

    kappa must lie in (0, W]; values in (0, 1] are the physical spectrum
    range.  x, when given, is the rise lam (q - a) of each kappa (q =
    sqrt(W^2 - kappa^2), a = sqrt(W^2 - 1)); the modulus is then
    |T| e^{a lam}, which stays representable where |T| underflows.  x sets
    u = a lam + x only; kappa still gives b.
    """
    kappa = np.asarray(kappa, dtype=float)
    # one mask: nan fails both comparisons, so it is rejected too
    if not np.all((kappa > 0.0) & (kappa <= params.W)):
        raise ValueError("kappa must lie in (0, W]")
    W, lam = params.W, params.lam
    # no cancellation as kappa -> W
    u = lam * np.sqrt((W - kappa) * (W + kappa)) if x is None else params.a * lam + x
    b = (2.0 * kappa * kappa - W * W) * lam / (2.0 * kappa)
    return _kernel(u, b, x)
