"""Tunneling phase times for wave packets crossing a rectangular barrier.

Exact and opaque-limit transmission amplitudes, the stationary-phase time,
a moment-based phase-time formula, and a full spectral wave-packet
simulation with peak-arrival detection.

Each public name lives in, and is imported from, its submodule
(`tunneltime.units.Spectrum`, `tunneltime.peakfind.peak_arrival`).
`import tunneltime` binds none of them, so it loads no numpy.
"""

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
