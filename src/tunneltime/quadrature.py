"""Adaptive composite Gauss-Legendre quadrature on a finite interval.

Panels are bisected breadth-first until the Richardson-style error estimate
|I(panel) - I(left half) - I(right half)| fits a per-panel budget of
rel_tol * |integral| times the panel's share of the interval width, floored
at an equal share 1 / (panel count).  The floor lets a refinement graded
toward one end stop once its small panels' absolute contribution is
negligible.  The transmitted packet at W = 1 needs it: its integrand is
analytic at the cutoff kappa = 1 (T depends on kappa only through
u^2 = lam^2 (1 - kappa^2)), but the square root in u = lam sqrt(1 - kappa^2)
shrinks its length scale in kappa toward the cutoff, so the panels grade
there.  A panel with no double strictly inside it cannot be halved, and
raises QuadratureError rather than pass on a zero error estimate.  All
pending panels are evaluated in one vectorized call per sweep
(`QuadratureSettings` caps it at 2^21 nodes), which keeps the boundary-layer
refinement near the spectrum cutoff cheap.  The integrand must accept an
ndarray of abscissae and return an ndarray of values (real or complex; a
real integrand keeps real samples).  The result is the accepted composite
rule, its nodes and weights exactly as f was evaluated on them, and f there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .units import QuadratureSettings


class QuadratureError(ValueError):
    """Adaptive refinement cannot reach the tolerance; a ValueError, as LinAlgError is."""


@lru_cache(maxsize=8)
def _gl_nodes(n: int):
    """n-node Gauss-Legendre rule mapped to [0, 1]: (nodes, weights).

    Golub-Welsch: on [-1, 1] the nodes are the eigenvalues of the symmetric
    Jacobi matrix of the Legendre recurrence (zero diagonal, off-diagonal
    k / sqrt(4 k^2 - 1)), and the weights are 2 times the squared first
    components of its unit eigenvectors.  Both are then symmetrized about 0.
    Against mpmath the nodes are within 2e-16 and the weights within 6e-13
    relative up to n = 128, where numpy's `leggauss` is off by 1.4e-11;
    and `numpy.polynomial` is never imported.
    """
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 * vectors[0] ** 2
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True, eq=False)
class QuadratureResult:
    """The accepted composite rule of an adaptive refinement, and f on it.

    `x` and `w` are the rule's abscissae and weights, n per accepted panel,
    exactly as f was evaluated there, and `samples` holds f(x), so f need
    not be evaluated again.  `value` is the sum of the accepted panel
    integrals.  Results compare and hash by identity: == over array fields
    has no single truth value.
    """

    x: np.ndarray
    w: np.ndarray
    samples: np.ndarray
    value: complex
    panels: int
    evaluations: int


def _panel_integrals(f, lo: np.ndarray, hi: np.ndarray, n: int):
    """Gauss-Legendre estimates for panels [lo_i, hi_i]; their nodes, weights and f."""
    x01, w01 = _gl_nodes(n)
    width = hi - lo
    nodes = lo[:, None] + width[:, None] * x01
    vals = np.reshape(f(nodes.ravel()), nodes.shape)
    # einsum, not `vals @ w01`: it makes no BLAS call, so no BLAS threads
    # run even when the user raises OPENBLAS_NUM_THREADS, and it keeps
    # the summation order, hence the bits, of every integral
    return width * np.einsum("ij,j->i", vals, w01), nodes, width[:, None] * w01, vals


def integrate_adaptive(
    f,
    lo: float,
    hi: float,
    settings: QuadratureSettings | None = None,
    initial_panels: int = 1,
) -> QuadratureResult:
    """Refine [lo, hi] until every panel's integral of f meets settings.rel_tol.

    initial_panels seeds a uniform subdivision before refinement (used by
    `wavepacket.transmitted_integral` to resolve the e^{-i kappa^2 tau}
    chirp).
    Raises ValueError, before f is evaluated, when a bound is not finite
    or hi <= lo; and its subclass QuadratureError when max_panels is hit
    before convergence, and when a panel to be halved is too narrow to
    have a double strictly inside.
    """
    settings = settings or QuadratureSettings()
    # nan fails every comparison, so the chain rejects it too
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"integration interval [{lo!r}, {hi!r}] must be finite with hi > lo")
    n = settings.nodes_per_panel
    n_init = max(1, int(initial_panels))
    if n_init > settings.max_panels:
        raise QuadratureError(
            f"initial panel count {n_init} exceeds max_panels={settings.max_panels}"
        )

    edges = np.linspace(lo, hi, n_init + 1)
    act_lo, act_hi = edges[:-1], edges[1:]
    act_parent = _panel_integrals(f, act_lo, act_hi, n)[0]
    evaluations = n_init * n

    total_width = hi - lo
    done_sum = 0.0 + 0.0j
    done_panels = 0
    accepted: list[tuple[np.ndarray, ...]] = []

    while act_lo.size:
        n_act = act_lo.size
        mid = 0.5 * (act_lo + act_hi)
        # a panel two adjacent doubles wide has mid at one end: one half is
        # empty, the other its parent, and their zero difference would pass
        # any budget
        stuck = np.flatnonzero((mid <= act_lo) | (mid >= act_hi))
        if stuck.size:
            lo_i, hi_i = float(act_lo[stuck[0]]), float(act_hi[stuck[0]])
            raise QuadratureError(f"panel [{lo_i!r}, {hi_i!r}] cannot be halved in double precision")
        if done_panels + 2 * n_act > settings.max_panels:
            raise QuadratureError(
                f"needed more than max_panels={settings.max_panels} panels"
            )
        # the halves of every active panel: all left halves, then all right
        half_lo, half_hi = np.concatenate([act_lo, mid]), np.concatenate([mid, act_hi])
        child, x, w, child_f = _panel_integrals(f, half_lo, half_hi, n)
        evaluations += 2 * n_act * n
        left, right = child[:n_act], child[n_act:]
        pair = left + right

        estimate = done_sum + pair.sum()
        scale = max(abs(estimate), np.finfo(float).tiny)
        # hybrid budget: width-proportional, floored by an equal share of the
        # global tolerance so a refinement graded toward one end (the W = 1
        # packet near kappa = 1) stops once its small panels' absolute
        # contribution is negligible
        share = np.maximum((act_hi - act_lo) / total_width, 1.0 / (done_panels + 2 * n_act))
        budget = settings.rel_tol * scale * share
        ok = np.abs(act_parent - pair) <= budget

        done_sum += pair[ok].sum()
        done_panels += 2 * int(np.count_nonzero(ok))
        both = np.concatenate([ok, ok])
        accepted.append((x[both], w[both], child_f[both]))
        keep = ~both
        act_parent, act_lo, act_hi = child[keep], half_lo[keep], half_hi[keep]

    x, w, samples = (np.concatenate(part).ravel() for part in zip(*accepted))
    return QuadratureResult(x, w, samples, complex(done_sum), done_panels, evaluations)
