"""Gap probabilities for Bures-Hall ensembles and the Cauchy-Laguerre two-matrix model.

Layers, bottom up: special functions (specfun), double-double arithmetic
(dd) and linear algebra (plinalg), the rescaled Pfaffian elements of the
Laplace contour nodes (bimoments), the bi-orthogonal system and its Gram,
the one source of every deformed moment (bops), Christoffel-Darboux kernels
(kernels), spectral/deformation Lax data (lax), the constrained deformation
flow (flow), the public gap-probability routes (ensembles), independent
oracles (oracles), and a batch CLI (cli).
"""

__version__ = "0.1.0"

from .params import DeformPoint, DomainError, GenericityError, ModelParams, PrecisionWarning

__all__ = [
    "DeformPoint",
    "DomainError",
    "GenericityError",
    "ModelParams",
    "PrecisionWarning",
    "__version__",
]
