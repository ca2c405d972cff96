"""Model parameters, deformation points, and the package's exception types."""
from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Gamma function evaluated at a non-positive integer."""


class GenericityError(RuntimeError):
    """A generic condition (Z_n, pi_n, eta_n nonzero) failed.

    ``index`` is the offending sequence index when known.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message if index is None else f"{message} (index {index})")
        self.index = index


class PrecisionWarning(UserWarning):
    """Estimated error of a result exceeds its contract tolerance."""


class ContourError(RuntimeError):
    """Laplace-inversion contour shows node-to-node divergence."""


@dataclass(frozen=True)
class ModelParams:
    """Ensemble data: dimension m, Laguerre exponents a, b, generating variables xi, psi.

    ``a = n - m - 1/2`` relates the single-species exponent to the bipartite
    dimensions, but here a and b are free parameters > -1.
    """

    m: int
    a: float
    b: float = 0.0
    xi: complex = 0.0
    psi: complex = 0.0

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"m must be a positive integer, got {self.m}")
        if not self.a > -1:
            raise DomainError(f"need a > -1 for finite moments, got a={self.a}")
        if not self.b > -1:
            raise DomainError(f"need b > -1 for finite moments, got b={self.b}")

    def swapped(self) -> "ModelParams":
        """Species exchange (a,xi) <-> (b,psi)."""
        return ModelParams(self.m, self.b, self.a, self.psi, self.xi)


@dataclass(frozen=True)
class DeformPoint:
    """Gap cutoffs (s, t); math.inf marks the undeformed limit in that variable."""

    s: float
    t: float = INF

    def __post_init__(self):
        if not (self.s > 0):
            raise DomainError(f"s must be > 0 (or inf), got {self.s}")
        if not (self.t > 0):
            raise DomainError(f"t must be > 0 (or inf), got {self.t}")

    def swapped(self) -> "DeformPoint":
        return DeformPoint(self.t, self.s)
