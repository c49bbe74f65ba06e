"""Exact threshold calculator and Monte Carlo fault injector for erasure
noise on the [[7,1,3]] CSS code.

The exact engine models one error-correction attempt as a stochastic map
over erasure patterns, reduces the pattern space to verified equivalence
classes, assembles an absorbing Markov chain, and extracts encoded failure
rates as exact rational series.  A seeded Monte Carlo simulator drives the
same correction logic with sampled faults and serves as an independent
cross-check of the chain.
"""

__version__ = "0.1.0"

from .exact_arith import Poly

__all__ = ["Poly", "__version__"]
