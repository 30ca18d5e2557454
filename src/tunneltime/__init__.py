"""Tunneling phase times for wave packets crossing a rectangular barrier.

Exact and opaque-limit transmission amplitudes, the stationary-phase time,
a moment-based phase-time formula, and a full spectral wave-packet
simulation with peak-arrival detection.
"""

from .peakfind import PeakResult, PeakSearchConfig, peak_arrival
from .phasetime import (
    MomentTable,
    SCoefficients,
    expansion_coefficients,
    model_density,
    model_density_argmax,
    moments_closed_form,
    moments_quadrature,
    phase_time_moments,
    phase_time_spm,
    s_coefficients,
    transit_velocity,
)
from .quadrature import QuadratureError, QuadratureResult, QuadratureSettings, integrate_adaptive
from .spectrum import Spectrum, evaluate, mean_k_opaque, transmitted_mean_k
from .transmission import (
    TransmissionValue,
    amplitude,
    amplitude_opaque,
    modulus_phase,
    stationary_time_full,
)
from .units import (
    DimensionlessParams,
    PhysicalParams,
    UnitScales,
    denormalize,
    electron_barrier,
    normalize,
    unit_scales,
)
from .wavepacket import WaveSample, density_at_exit, synthesize, transmitted_integral

__version__ = "0.1.0"

__all__ = [
    "DimensionlessParams",
    "MomentTable",
    "PeakResult",
    "PeakSearchConfig",
    "PhysicalParams",
    "QuadratureError",
    "QuadratureResult",
    "QuadratureSettings",
    "SCoefficients",
    "Spectrum",
    "TransmissionValue",
    "UnitScales",
    "WaveSample",
    "amplitude",
    "amplitude_opaque",
    "denormalize",
    "density_at_exit",
    "electron_barrier",
    "evaluate",
    "expansion_coefficients",
    "integrate_adaptive",
    "mean_k_opaque",
    "model_density",
    "model_density_argmax",
    "modulus_phase",
    "moments_closed_form",
    "moments_quadrature",
    "normalize",
    "peak_arrival",
    "phase_time_moments",
    "phase_time_spm",
    "s_coefficients",
    "stationary_time_full",
    "synthesize",
    "transit_velocity",
    "transmitted_integral",
    "transmitted_mean_k",
    "unit_scales",
]
