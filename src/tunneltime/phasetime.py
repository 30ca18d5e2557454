"""Analytic phase-time formulas.

In the opaque limit the exit density is governed by the edge integral

    S(tau) = | Int_0^{W-a} drho (rho + a)^2
              exp[-rho lam + i (alpha(tau) rho + beta(tau) rho^2)] |^2,

with alpha(tau) = 2 (a tau - 1) and beta(tau) = tau - a.  Expanding the
oscillatory exponential to second order turns S into a quadratic in tau
whose coefficients are moment combinations

    A = s1^2 - s0 s2,   B = s1 s2 - s0 s3,   C = s2^2 - s0 s4,

all negative here, with moments s(n) = Int (rho + a)^2 rho^n e^{-rho lam}.
Two phase times come out of this module:

* `phase_time_spm`  -- the stationary-phase time, 1/a in the opaque limit
  (divergent at E_M = V0; the full barrier expression at a given momentum
  is `transmission.stationary_time_full`);
* `phase_time_moments` -- the moment-based closed form

      tau = [2 W^2 B + 4 a A] / [C + 4 a B + 4 a^2 A],

  which reduces to 1/a for a ~ 1 and to (2/9) W^2 lam at a = 0, where the
  transit time becomes proportional to the barrier width.

Note: the closed form above drops an O(a*C) numerator term relative to the
exact stationary point of the quadratic S; `model_density_argmax` keeps it.
The two coincide at a = 0 and differ by O(1/lam^2) elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_adaptive
from .units import DimensionlessParams, QuadratureSettings

_FACT = [math.factorial(n + 2) for n in range(5)]


@dataclass(frozen=True)
class MomentTable:
    """Moments s(0)..s(4) of the edge integral at the width lam."""

    s0: float
    s1: float
    s2: float
    s3: float
    s4: float
    lam: float

    def __post_init__(self) -> None:
        # `< inf` also rejects nan, which fails every comparison
        if not all(0.0 < s < math.inf for s in self.values):
            raise ValueError(f"all moments must be positive and finite (lam = {self.lam:g})")

    @property
    def values(self) -> tuple[float, float, float, float, float]:
        return (self.s0, self.s1, self.s2, self.s3, self.s4)

    def combinations(self) -> tuple[float, float, float]:
        """The three moment combinations (A, B, C) entering S(tau)."""
        s0, s1, s2, s3, s4 = self.values
        # finite moments can still overflow here: s0 * s4 is inf below lam ~ 1e-31
        return self.check_finite(s1 * s1 - s0 * s2, s1 * s2 - s0 * s3, s2 * s2 - s0 * s4)

    def check_finite(self, *values: float) -> tuple[float, ...]:
        """values formed from the moments; ValueError naming lam if one is not finite."""
        if all(map(math.isfinite, values)):
            return values
        raise ValueError(f"moment combinations overflow the float range at lam = {self.lam:g}")


def s_coefficients(params: DimensionlessParams, tau: float) -> tuple[float, float]:
    """(alpha, beta) = (2 (a tau - 1), tau - a), the phase coefficients at tau."""
    a = params.a
    return 2.0 * (a * tau - 1.0), tau - a


def moments_closed_form(params: DimensionlessParams) -> MomentTable:
    """Moments with the upper limit extended to infinity (exact closed form).

    s(n) = (n+2)!/lam^{n+3} [1 + 2 a lam/(n+2) + (a lam)^2/((n+2)(n+1))].
    """
    if not params.lam > 0.0:
        raise ValueError("moments diverge at lam = 0")
    a, lam = params.a, params.lam
    try:
        s = [
            _FACT[n]
            / lam ** (n + 3)
            * (1.0 + 2.0 * a * lam / (n + 2) + (a * lam) ** 2 / ((n + 2) * (n + 1)))
            for n in range(5)
        ]
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"closed-form moments leave the float range at lam = {lam:g}") from None
    return MomentTable(*s, lam=lam)


def moments_quadrature(
    params: DimensionlessParams,
    settings: QuadratureSettings | None = None,
) -> MomentTable:
    """Moments with the finite upper limit rho_max = W - a, by quadrature.

    One adaptive refinement of f0(rho) = (rho + a)^2 e^{-rho lam} on
    [0, rho_max]; s(n) = sum_j w_j rho_j^n f0(rho_j) on its accepted rule,
    with s0 its integral.
    """
    if not params.lam > 0.0:
        raise ValueError("moments diverge at lam = 0")
    settings = settings or QuadratureSettings(rel_tol=1e-10)
    a, lam = params.a, params.lam
    rule = integrate_adaptive(
        lambda rho: (rho + a) ** 2 * np.exp(-rho * lam), 0.0, params.W - a, settings
    )
    rho, weights = rule.nodes()
    # einsum, not `@`: no BLAS call, as in `quadrature._panel_integrals`
    s = np.einsum("ij,j->i", rho ** np.arange(1, 5)[:, None], weights * rule.samples.real)
    return MomentTable(rule.value.real, *s.tolist(), lam=lam)


def model_density(moments: MomentTable, params: DimensionlessParams, tau: float) -> float:
    """Quadratic model of the exit density, S(tau) up to a constant factor."""
    A, B, C = moments.combinations()
    alpha, beta = s_coefficients(params, tau)
    density = moments.s0**2 + alpha**2 * A + 2.0 * alpha * beta * B + beta**2 * C
    moments.check_finite(density)
    return density


def model_density_argmax(moments: MomentTable, params: DimensionlessParams) -> float:
    """Exact stationary point of the quadratic S(tau).

    The leading tau^2 coefficient 4a^2 A + 4a B + C is negative, so the
    stationary point is the unique interior maximum.
    """
    a = params.a
    A, B, C = moments.combinations()
    W2 = params.W**2
    num = 4.0 * a * A + 2.0 * W2 * B + a * C
    den = 4.0 * a * a * A + 4.0 * a * B + C
    moments.check_finite(num, den)
    if den == 0.0:
        raise ValueError("vanishing denominator in model density argmax")
    return num / den


def phase_time_moments(moments: MomentTable, params: DimensionlessParams) -> float:
    """Moment-based phase time tau = E_M t / hbar (closed form).

    tau = [2 W^2 B + 4 a A] / [C + 4 a B + 4 a^2 A]; both B and C are
    negative for these moments, so the ratio is positive.
    """
    a = params.a
    A, B, C = moments.combinations()
    W2 = params.W**2
    num = 2.0 * W2 * B + 4.0 * a * A
    den = C + 4.0 * a * B + 4.0 * a * a * A
    # 2 W^2 B is -inf at W ~ 1e16 a little above lam ~ 1e-31
    moments.check_finite(num, den)
    if den == 0.0:
        raise ValueError("vanishing denominator in moment phase time")
    tau = num / den
    if not tau > 0.0:
        raise ValueError(f"moment phase time came out non-positive: {tau}")
    return tau


def phase_time_spm(params: DimensionlessParams) -> float:
    """Opaque-limit stationary-phase time tau = k_M/q_M = 1/a (E_M t / hbar).

    Diverges at E_M = V0; `transmission.stationary_time_full` is the full
    barrier expression at a given momentum.
    """
    a = params.a
    if a == 0.0:
        raise ValueError("stationary-phase time diverges at E_M = V0 (a = 0)")
    return 1.0 / a


def transit_velocity(tau: float, params: DimensionlessParams) -> float:
    """Barrier width over phase time, in units sqrt(V0 / 2m): lam / (tau W)."""
    if not tau > 0.0:
        raise ValueError(f"transit time must be positive, got {tau}")
    return params.lam / (tau * params.W)


def expansion_coefficients(params: DimensionlessParams):
    """Series coefficients of the opaque phase and energy around q = q_M.

    In the variable rho = (q - q_M)/k_M:

        phi    = phi_M - 2 rho - a rho^2 + O(rho^3)
        E/E_M  = 1 - 2 a rho - rho^2          (exact; E is quadratic in q)

    phi_M is the opaque-limit phase at the cutoff, arctan[(1 - a^2)/(2a)]
    (pi/2 at a = 0).  Returns (phi_coeffs, energy_coeffs).
    """
    a = params.a
    phi_m = math.pi / 2.0 if a == 0.0 else math.atan((1.0 - a * a) / (2.0 * a))
    return (phi_m, -2.0, -a), (1.0, -2.0 * a, -1.0)
