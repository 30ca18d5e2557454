"""Dimensionless parameterization of the barrier/packet problem.

Every quantity downstream is expressed in terms of three pure numbers:
the barrier strength W = sqrt(V0/E_M), the reduced width lam = k_M * L,
and the spectrum shape.  Physical units enter only at the boundary,
through :func:`normalize` / :func:`denormalize` and :func:`unit_scales`.

Conventions (k_M = sqrt(2 m E_M)/hbar is the spectrum cutoff):

* wavenumbers ``kappa = k / k_M`` in (0, 1]
* evanescent ratio ``a = q_M / k_M = sqrt(W**2 - 1)``
* times ``tau = E_M t / hbar``
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: SI presets for the physical boundary: 1 eV in joule and hbar = h/(2 pi)
#: (e and h are exact since the 2019 SI), 1 angstrom in metre, and the
#: electron mass in kilogram (CODATA 2022).
EV = 1.602176634e-19
ANGSTROM = 1e-10
ELECTRON_MASS = 9.1093837139e-31
HBAR = 6.62607015e-34 / (2.0 * math.pi)


@dataclass(frozen=True)
class PhysicalParams:
    """Barrier and packet parameters in consistent physical units (SI by default).

    Pure tunneling only: the spectrum cutoff energy must not exceed the
    barrier height, 0 < energy_max <= barrier_height.
    """

    mass: float            # particle mass
    hbar: float            # action quantum
    barrier_height: float  # V0, energy
    energy_max: float      # E_M, energy of the spectrum cutoff
    barrier_width: float   # L, length

    def __post_init__(self) -> None:
        if not (self.mass > 0 and self.hbar > 0 and self.barrier_height > 0):
            raise ValueError("mass, hbar and barrier_height must be positive")
        if self.barrier_width < 0:
            raise ValueError("barrier_width must be non-negative")
        if not (0 < self.energy_max <= self.barrier_height):
            raise ValueError(
                "pure tunneling requires 0 < energy_max <= barrier_height "
                f"(got E_M={self.energy_max}, V0={self.barrier_height})"
            )

    @property
    def k_max(self) -> float:
        """Spectrum cutoff wavenumber k_M = sqrt(2 m E_M)/hbar."""
        return math.sqrt(2.0 * self.mass * self.energy_max) / self.hbar


@dataclass(frozen=True)
class DimensionlessParams:
    """The problem reduced to two numbers: W = sqrt(V0/E_M) and lam = k_M L."""

    W: float
    lam: float

    def __post_init__(self) -> None:
        # `not (... < inf)` also rejects nan, which fails every comparison
        if not 1.0 <= self.W < math.inf:
            raise ValueError(f"W = sqrt(V0/E_M) must be finite and >= 1, got {self.W}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam = k_M*L must be finite and >= 0, got {self.lam}")

    @property
    def a(self) -> float:
        """Evanescent ratio a = q_M/k_M = sqrt(W**2 - 1); zero iff E_M = V0."""
        return math.sqrt(max(self.W * self.W - 1.0, 0.0))


@dataclass(frozen=True)
class UnitScales:
    """Physical magnitudes of the table units.

    length:   hbar / sqrt(2 m V0)
    time:     hbar / V0
    velocity: sqrt(V0 / 2 m)

    velocity * time == length holds identically; it is what makes
    v_transit = lam / (tau * W) a pure number.
    """

    length: float
    time: float
    velocity: float


def normalize(phys: PhysicalParams) -> DimensionlessParams:
    """Reduce physical parameters to the dimensionless pair (W, lam)."""
    W = math.sqrt(phys.barrier_height / phys.energy_max)
    lam = phys.k_max * phys.barrier_width
    return DimensionlessParams(W=W, lam=lam)


def denormalize(
    params: DimensionlessParams,
    mass: float,
    hbar: float,
    barrier_height: float,
) -> PhysicalParams:
    """Rebuild physical parameters from (W, lam) given the three scale anchors."""
    energy_max = barrier_height / (params.W * params.W)
    k_max = math.sqrt(2.0 * mass * energy_max) / hbar
    return PhysicalParams(
        mass=mass,
        hbar=hbar,
        barrier_height=barrier_height,
        energy_max=energy_max,
        barrier_width=params.lam / k_max,
    )


def unit_scales(phys: PhysicalParams) -> UnitScales:
    """Scale factors for the output units, in the same unit system as `phys`."""
    v0 = phys.barrier_height
    return UnitScales(
        length=phys.hbar / math.sqrt(2.0 * phys.mass * v0),
        time=phys.hbar / v0,
        velocity=math.sqrt(v0 / (2.0 * phys.mass)),
    )


def electron_barrier(
    barrier_height_ev: float,
    energy_max_ev: float,
    width_angstrom: float,
) -> PhysicalParams:
    """Electron tunneling preset: energies in eV, width in angstrom, SI inside."""
    return PhysicalParams(
        mass=ELECTRON_MASS,
        hbar=HBAR,
        barrier_height=barrier_height_ev * EV,
        energy_max=energy_max_ev * EV,
        barrier_width=width_angstrom * ANGSTROM,
    )
