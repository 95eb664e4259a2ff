"""Exact-arithmetic Walsh-Fourier analysis on [0, 1).

Subpackages:

- :mod:`walshdiv.dyadic` — dyadic rationals, dyadic cells, and the group ⊕;
- :mod:`walshdiv.walsh` — Walsh system, Dirichlet kernels, exact FWHT;
- :mod:`walshdiv.fourier` — growth functions Φ, strong Φ-means, exceedance
  densities;
- :mod:`walshdiv.counterexample` — the divergence construction and its
  lemma-level machine checks;
- :mod:`walshdiv.cli` — verification command line (CSV reports, SVG plots).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .dyadic import DyadicInterval, DyadicPoint, Rat
from .walsh import GridVector

__all__ = ["DyadicInterval", "DyadicPoint", "GridVector", "Rat", "__version__"]
