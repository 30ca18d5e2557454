"""Tunneling phase times for wave packets crossing a rectangular barrier.

Exact and opaque-limit transmission amplitudes, the stationary-phase time,
a moment-based phase-time formula, and a full spectral wave-packet
simulation with peak-arrival detection.
"""

import os
import sys

# The package's linear algebra is the coarse scan's 16-row matrix-vector
# product (a BLAS zgemv) and one LAPACK eigh per Gauss-Legendre rule size
# and process (n x n for n nodes, 32 by default); neither needs threads,
# and the thread pool OpenBLAS starts when numpy loads only spins.  Ask
# for a single-threaded OpenBLAS unless the user chose a count, or numpy
# is already loaded and the setting could no longer take effect (it would
# only leak into that program's subprocesses).
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .peakfind import PeakResult, PeakSearchConfig, peak_arrival
from .phasetime import (
    MomentTable,
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
from .wavepacket import transmitted_integral

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
    "Spectrum",
    "UnitScales",
    "amplitude_opaque",
    "denormalize",
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
    "transit_velocity",
    "transmitted_integral",
    "transmitted_mean_k",
    "unit_scales",
]
