"""Numerical laboratory for enlargement-of-filtration drift formulas.

Submodules: ``elemint`` (deterministic elementary-integral calculus),
``gluing`` (local-to-global semimartingale decomposition), ``paths``
(Bessel(3) simulation and bridge extrema), ``drifts``
(closed-form drift ingredients), ``verify`` (Monte Carlo martingale
certification), ``scenarios``/``cli`` (block kernels and experiment runner).
"""

from .grids import GridPath, TimeGrid
from .paths import ScaleFunction, reciprocal_scale

__all__ = [
    "TimeGrid",
    "GridPath",
    "ScaleFunction",
    "reciprocal_scale",
]

__version__ = "0.1.0"
