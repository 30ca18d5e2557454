"""Analytic formulas of the paper: what the numerical phase time is tested against.

Three phase times come out of this module:

* `phase_time_spm` -- the stationary-phase time, 1/a in the opaque limit
  (divergent at E_M = V0);
* `stationary_time_full` -- the full stationary-phase expression of the
  exact barrier phase at one momentum;
* `phase_time_moments` -- the moment-based closed form below.

Beside them are the opaque-limit amplitude |T| ~ 4 k q e^{-qL} / w^2
(`amplitude_opaque`) and mean momentum 1 - a/(2 lam) (`mean_k_opaque`).
The numerical ground truth (`transmission`, `spectrum`, `quadrature`,
`wavepacket`) imports nothing from here.

In the opaque limit the exit density is governed by the edge integral

    S(tau) = | Int_0^{W-a} drho (rho + a)^2
              exp[-rho lam + i (alpha(tau) rho + beta(tau) rho^2)] |^2,

with alpha(tau) = 2 (a tau - 1) and beta(tau) = tau - a.  Expanding the
oscillatory exponential to second order turns S into a quadratic in tau
whose coefficients are moment combinations

    A = s1^2 - s0 s2,   B = s1 s2 - s0 s3,   C = s2^2 - s0 s4,

all negative here, with moments s(n) = Int (rho + a)^2 rho^n e^{-rho lam}.
The moment-based phase time is

    tau = [2 W^2 B + 4 a A] / [C + 4 a B + 4 a^2 A],

which reduces to 1/a for a ~ 1 and to (2/9) W^2 lam at a = 0, where the
transit time becomes proportional to the barrier width.

Note: the closed form above drops an O(a*C) numerator term relative to the
exact stationary point of the quadratic S; `model_density_argmax` keeps it.
The two coincide at a = 0 and differ by O(1/lam^2) elsewhere.

A `MomentTable` is the one input of the moment model: `model_density(moments,
tau)`, `model_density_argmax(moments)` and `phase_time_moments(moments)` read
W, lam and a from `moments.params`.  `MomentTable.combinations` is their one
range check: it accepts A, B and C only as finite negative normal floats and
otherwise raises ValueError naming W and lam.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_adaptive
from .units import DimensionlessParams, QuadratureSettings

_FACT = [math.factorial(n + 2) for n in range(5)]


def _point(params: DimensionlessParams) -> str:
    """`W = .., lam = ..` for a failure: a moment's (a lam)^2 can overflow through either."""
    return f"W = {params.W:g}, lam = {params.lam:g}"


@dataclass(frozen=True)
class MomentTable:
    """Moments s(0)..s(4) of the edge integral at the point (W, lam).

    The table is the one input of the moment model: `model_density`,
    `model_density_argmax` and `phase_time_moments` read W, lam and a from
    `params`, and `combinations` is their one range check.
    """

    s0: float
    s1: float
    s2: float
    s3: float
    s4: float
    params: DimensionlessParams

    def __post_init__(self) -> None:
        # `< inf` also rejects nan, which fails every comparison
        if not all(0.0 < s < math.inf for s in self.values):
            raise ValueError(f"all moments must be positive and finite ({_point(self.params)})")

    @property
    def values(self) -> tuple[float, float, float, float, float]:
        return (self.s0, self.s1, self.s2, self.s3, self.s4)

    def combinations(self) -> tuple[float, float, float]:
        """The three moment combinations (A, B, C) entering S(tau).

        For the moments of a positive weight on rho >= 0 all three are
        negative (Cauchy-Schwarz for A and C, Chebyshev's sum inequality
        for B).  Each is accepted only as a finite negative normal float;
        otherwise ValueError names W and lam.  Finite moments can overflow
        here (s0 * s4 is inf below lam ~ 1e-31) or underflow (C is
        subnormal at W = 1 from lam ~ 1.2e31).
        """
        s0, s1, s2, s3, s4 = self.values
        abc = self.check_finite(s1 * s1 - s0 * s2, s1 * s2 - s0 * s3, s2 * s2 - s0 * s4)
        if all(v <= -sys.float_info.min for v in abc):
            return abc
        raise ValueError(f"moment combinations underflow the float range at {_point(self.params)}")

    def check_finite(self, *values: float) -> tuple[float, ...]:
        """values formed from the moments; ValueError naming W and lam if one is not finite."""
        if all(map(math.isfinite, values)):
            return values
        raise ValueError(f"moment combinations overflow the float range at {_point(self.params)}")


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
        raise ValueError(f"closed-form moments leave the float range at {_point(params)}") from None
    return MomentTable(*s, params)


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
        lambda rho: (rho + a) ** 2 * np.exp(-rho * lam), (0.0, params.W - a), settings
    )
    # einsum, not `@`: no BLAS call, as in `quadrature._panel_integrals`
    s = np.einsum("ij,j->i", rule.x ** np.arange(1, 5)[:, None], rule.w * rule.samples)
    return MomentTable(rule.value.real, *s.tolist(), params)


def model_density(moments: MomentTable, tau: float) -> float:
    """Quadratic model of the exit density, S(tau) up to a constant factor."""
    A, B, C = moments.combinations()
    alpha, beta = s_coefficients(moments.params, tau)
    density = moments.s0**2 + alpha**2 * A + 2.0 * alpha * beta * B + beta**2 * C
    moments.check_finite(density)
    return density


def model_density_argmax(moments: MomentTable) -> float:
    """Exact stationary point of the quadratic S(tau).

    The leading tau^2 coefficient 4a^2 A + 4a B + C is at most C < 0, so
    the stationary point is the unique interior maximum.
    """
    W, a = moments.params.W, moments.params.a
    A, B, C = moments.combinations()
    num = 4.0 * a * A + 2.0 * W**2 * B + a * C
    den = 4.0 * a * a * A + 4.0 * a * B + C
    moments.check_finite(num, den)
    return num / den


def phase_time_moments(moments: MomentTable) -> float:
    """Moment-based phase time tau = E_M t / hbar (closed form).

    tau = [2 W^2 B + 4 a A] / [C + 4 a B + 4 a^2 A]; A, B and C are
    negative (`MomentTable.combinations`), so the ratio is positive.
    """
    W, a = moments.params.W, moments.params.a
    A, B, C = moments.combinations()
    num = 2.0 * W**2 * B + 4.0 * a * A
    den = C + 4.0 * a * B + 4.0 * a * a * A
    # 2 W^2 B is -inf at W ~ 1e16 a little above lam ~ 1e-31
    moments.check_finite(num, den)
    return num / den


def phase_time_spm(params: DimensionlessParams) -> float:
    """Opaque-limit stationary-phase time tau = k_M/q_M = 1/a (E_M t / hbar).

    Diverges at E_M = V0; `stationary_time_full` is the full
    barrier expression at a given momentum.
    """
    a = params.a
    if a == 0.0:
        raise ValueError("stationary-phase time diverges at E_M = V0 (a = 0)")
    return 1.0 / a


def stationary_time_full(kappa: float, params: DimensionlessParams) -> float:
    """Full stationary-phase time tau = E_M t / hbar at one kappa in (0, W).

    Solves the stationarity of phi + k(x-L) - Et/hbar at x = L:

        E t / hbar = k [w^4 sinh(2qL) + 2k^2 (w^2 - 2k^2) qL]
                     / (q [w^4 cosh(2qL) + 8 k^2 q^2 - w^4])

    (bracket grouping fixed so that the opaque limit reduces to
    E t/hbar -> k/q), then divides by kappa^2 to convert E t/hbar into
    E_M t/hbar; the k in front cancels one kappa of it, so no kappa^2 can
    underflow.  Both brackets are divided by w^4 e^{2u}/2 (u = qL), so
    nothing overflows at any W and the denominator has no cancellation as
    q -> 0; with r = k/w and p = q/w:

        k [(1 - e^{-4u}) + 4 r^2 (1 - 2 r^2) u e^{-2u}]
        / (q [(1 - e^{-2u})^2 + 16 r^2 p^2 e^{-2u}]).

    The numerator's O(u) terms cancel as u -> 0; writing
    1 + r^2 - 2 r^4 = p^2 (1 + 2 r^2) takes them out:

        k [h + 4 u e^{-2u} p^2 (1 + 2 r^2)],  h = 2 e^{-2u} (sinh 2u - 2u),

    with h from the series of sinh x - x below 2u = 1 and from
    -expm1(-4u) - 4u e^{-2u} above.  p^2 is formed from q^2 =
    (w - k)(w + k), not as 1 - r^2, which would cancel as kappa -> W.  The
    result is within 1e-14 relative of a high-precision evaluation at every
    u, also as kappa -> W, down to kappa = 1e-300 and up to the largest W
    that `DimensionlessParams` accepts; ValueError when the time leaves
    the float range (kappa near 5e-324).
    """
    W, lam = params.W, params.lam
    if not 0.0 < kappa < W:
        raise ValueError(f"kappa must lie in (0, W), got {kappa}")
    r = kappa / W
    r2 = r * r
    g2 = (W - kappa) * (W + kappa)  # no cancellation as kappa -> W
    p2 = g2 / (W * W)
    g = math.sqrt(g2)
    u = lam * g
    e = math.exp(-2.0 * u)
    em = math.expm1(-2.0 * u)  # e - 1
    if 2.0 * u < 1.0:  # series of sinh x - x, x = 2u; x^21/21! is < 1e-19 of the sum
        h = 2.0 * e * sum((2.0 * u) ** n / math.factorial(n) for n in range(3, 21, 2))
    else:
        h = -math.expm1(-4.0 * u) - 4.0 * u * e
    num = h + 4.0 * u * e * p2 * (1.0 + 2.0 * r2)
    den = g * (em * em + 16.0 * r2 * p2 * e)
    # den is subnormal or 0 only when u and kappa/W are both below ~1e-154
    tau = num / den / kappa if den >= sys.float_info.min else math.nan
    if not tau < math.inf:  # nan fails it too
        raise ValueError(f"stationary time leaves the float range at kappa = {kappa!r}, "
                         f"W = {W:g}, lam = {lam:g}")
    return tau


def amplitude_opaque(kappa, params: DimensionlessParams):
    """Opaque-limit modulus 4 k q e^{-qL} / w^2, valid for qL >> 1.

    kappa must lie in (0, 1]; returns 0 at kappa = W = 1, where the
    prefactor q vanishes.
    """
    kappa = np.asarray(kappa, dtype=float)
    if not np.all((kappa > 0.0) & (kappa <= 1.0)):
        raise ValueError("kappa must lie in (0, 1]")
    W, lam = params.W, params.lam
    g = np.sqrt((W - kappa) * (W + kappa))  # kappa <= 1 <= W
    out = 4.0 * kappa * g * np.exp(-lam * g) / (W * W)
    if out.ndim == 0:
        return float(out)
    return out


def mean_k_opaque(params: DimensionlessParams) -> float:
    """Opaque-limit mean momentum 1 - a/(2 lam); exactly 1 at E_M = V0.

    A mean momentum lies in (0, 1], and 1 - a/(2 lam) does only for
    lam > a/2; elsewhere ValueError names W and lam.
    """
    half_a = params.a / 2.0
    if not params.lam > half_a:
        raise ValueError(f"opaque mean momentum 1 - a/(2 lam) is not in (0, 1] at {_point(params)}")
    return 1.0 - half_a / params.lam


def transit_velocity(tau: float, params: DimensionlessParams) -> float:
    """Barrier width over phase time, in units sqrt(V0 / 2m): lam / (tau W).

    Raises ValueError unless tau > 0, and when lam > 0 but lam / (tau W)
    underflows to 0 or overflows.
    """
    if not tau > 0.0:
        raise ValueError(f"transit time must be positive, got {tau}")
    velocity = params.lam / (tau * params.W)
    if params.lam > 0.0 and not 0.0 < velocity < math.inf:
        raise ValueError(f"lam / (tau W) leaves the float range at tau = {tau:g}, {_point(params)}")
    return velocity


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
