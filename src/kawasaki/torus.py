"""Periodic box geometry and its minimal-image rule.

The finite-volume arena for simulation and for the gridded kinetic solver is
a d-dimensional torus [0, L)^d with equal side lengths. All pair distances
are minimal-image distances, which are unambiguous as long as every
interaction radius is below L/2 (the constructors of the dynamic objects
enforce the stricter L > 4 * radius rule).
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError


@dataclass(frozen=True)
class Torus:
    """Periodic box [0, L)^d."""

    dim: int
    side: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise GeometryError(f"dimension must be 1, 2 or 3, got {self.dim}")
        if not self.side > 0:
            raise GeometryError(f"side length must be positive, got {self.side}")

    @property
    def volume(self) -> float:
        return self.side ** self.dim

    def wrap(self, x):
        """Map points into [0, L)^d.

        np.mod can round tiny negative inputs to the modulus itself, so an
        exact fold of L back to 0 keeps the half-open invariant airtight.
        """
        out = np.mod(x, self.side)
        return np.where(out >= self.side, 0.0, out)

    def require_dim(self, *specs):
        """Raise unless every kernel or potential spec has the torus's dimension."""
        for spec in specs:
            if spec.dim != self.dim:
                raise GeometryError(f"{type(spec).__name__} dimension {spec.dim} does not "
                                    f"match the torus dimension {self.dim}")

    def require_fits(self, radius: float, what: str = "interaction", margin: float = 4.0):
        """Raise unless L > margin * radius: 4 for the particle dynamics' safety
        margin, 2 for a unique minimal image."""
        if not self.side > margin * radius:
            raise GeometryError(
                f"minimal-image ambiguity: {what} radius {radius:g} requires "
                f"side > {margin * radius:g}, got {self.side:g}"
            )

    def to_json(self) -> dict:
        return {"dim": self.dim, "side": self.side}

    @classmethod
    def from_json(cls, obj: dict) -> "Torus":
        return cls(dim=int(obj["dim"]), side=float(obj["side"]))
