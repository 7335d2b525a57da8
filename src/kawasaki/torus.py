"""Periodic box geometry and its minimal-image rule.

The finite-volume arena for simulation and for the gridded kinetic solver is
a d-dimensional torus [0, L)^d with equal side lengths. All pair distances
are minimal-image distances, which are unambiguous as long as every
interaction radius is below L/2 (the constructors of the dynamic objects
enforce the stricter L > 4 * radius rule).

The torus owns the grid and cell rules that several modules share:
`cell_centers` and `cell_volume` (where fields and k1 estimates sit, and the
measure of one cell), `cell_offsets` and `offset_distances` (the
minimal-image grid on which kernels are tabulated and k1 (x) k1 is binned),
and `cells_per_axis`, `strides` and `stencil` (the cell lists of the particle
simulator and of the Gibbs sampler).
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, _require_dim, _require_fields, _require_number


@dataclass(frozen=True)
class Torus:
    """Periodic box [0, L)^d."""

    dim: int
    side: float

    def __post_init__(self):
        _require_dim(self.dim, GeometryError)
        _require_number("side", self.side, 0, strict=True, error=GeometryError)

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

    def cell_centers(self, n: int) -> np.ndarray:
        """Centre of each of n cells per axis."""
        return (np.arange(n) + 0.5) * (self.side / n)

    def cell_volume(self, n: int) -> float:
        """Volume (L/n)^d of one cell of the n^d grid."""
        return (self.side / n) ** self.dim

    def cell_offsets(self, n: int) -> np.ndarray:
        """Offset of each of n cells per axis from cell 0, as its minimal image in [-L/2, L/2)."""
        return (np.arange(n) * (self.side / n) + 0.5 * self.side) % self.side - 0.5 * self.side

    def offset_distances(self, n: int) -> np.ndarray:
        """Minimal-image distance of each cell of the n^d grid from cell 0."""
        grids = np.meshgrid(*([self.cell_offsets(n)] * self.dim), indexing="ij")
        return np.sqrt(sum(g * g for g in grids))

    def cells_per_axis(self, width: float) -> int:
        """The most cells per axis at least `width` wide. The margin keeps a
        point whose cell index rounds across a boundary inside the neighbour
        cells of every point within `width`."""
        return int(self.side / (width * (1.0 + 1e-9)))

    def strides(self, m: int) -> np.ndarray:
        """Row-major strides of the m^d cell grid: flat index = index per axis @ strides."""
        return m ** np.arange(self.dim - 1, -1, -1)

    def stencil(self, m: int):
        """(near, flat) of the m^d cell grid: near[c, k] is the unwrapped index
        per axis of the k-th of the 3^d cells around cell c, -1 to m, and
        flat[c, k] its row-major index on the torus."""
        d = self.dim
        offsets = np.indices((3,) * d).reshape(d, -1).T - 1
        near = np.indices((m,) * d).reshape(d, -1).T[:, None, :] + offsets
        return near, (near % m) @ self.strides(m)

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
        """The torus of a JSON object of the fields `to_json` writes; GeometryError otherwise."""
        _require_fields(obj, ("dim", "side"), ("dim", "side"), GeometryError)
        return cls(_require_number("dim", obj["dim"], 1, integer=True, error=GeometryError),
                   _require_number("side", obj["side"], 0, strict=True, error=GeometryError))
