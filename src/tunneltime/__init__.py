"""Tunneling phase times for wave packets crossing a rectangular barrier.

Exact and opaque-limit transmission amplitudes, the stationary-phase time,
a moment-based phase-time formula, and a full spectral wave-packet
simulation with peak-arrival detection.
"""

import importlib
import os
import sys

# The package's linear algebra is the coarse scan's 16-row matrix-vector
# product (a BLAS zgemv), the slope's 3-row product (a BLAS dgemm) and one
# LAPACK eigh per Gauss-Legendre rule size and process (n x n for n nodes,
# 32 by default); none needs threads, and the thread pool OpenBLAS starts
# when numpy loads only spins.  Ask for a single-threaded OpenBLAS unless
# the user chose a count, or numpy is already loaded and the setting could
# no longer take effect (it would only leak into that program's
# subprocesses).  Every submodule import runs this first; numpy itself
# loads only with the numeric modules.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# Public name -> home submodule.  None is imported here, so that the front
# end (cli, experiments, units) runs without numpy: each name loads its
# submodule on first access (PEP 562), as does each submodule name itself
# (`tunneltime.peakfind`).
_HOMES = {
    "PeakResult": "peakfind",
    "peak_arrival": "peakfind",
    "MomentTable": "phasetime",
    "expansion_coefficients": "phasetime",
    "model_density": "phasetime",
    "model_density_argmax": "phasetime",
    "moments_closed_form": "phasetime",
    "moments_quadrature": "phasetime",
    "phase_time_moments": "phasetime",
    "phase_time_spm": "phasetime",
    "s_coefficients": "phasetime",
    "transit_velocity": "phasetime",
    "QuadratureError": "quadrature",
    "QuadratureResult": "quadrature",
    "integrate_adaptive": "quadrature",
    "evaluate": "spectrum",
    "mean_k_opaque": "spectrum",
    "transmitted_mean_k": "spectrum",
    "amplitude_opaque": "transmission",
    "modulus_phase": "transmission",
    "stationary_time_full": "transmission",
    "DimensionlessParams": "units",
    "PeakSearchConfig": "units",
    "PhysicalParams": "units",
    "QuadratureSettings": "units",
    "Spectrum": "units",
    "UnitScales": "units",
    "denormalize": "units",
    "electron_barrier": "units",
    "normalize": "units",
    "unit_scales": "units",
    "transmitted_integral": "wavepacket",
}

_SUBMODULES = frozenset(_HOMES.values())

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # binds the submodule on the package, so this runs once per name
        return importlib.import_module(f".{name}", __name__)
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
