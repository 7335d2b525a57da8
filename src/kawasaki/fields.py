"""Gridded density fields on the torus.

A DensityField is a non-negative function sampled on a uniform n^d grid whose
period matches the torus exactly; cell i covers [i*h, (i+1)*h) per axis with
h = L / n, and ``values[i]`` is interpreted as the density at the cell center
(equivalently, the cell average for the piecewise-constant reading used by
the Poisson sampler).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .torus import Torus


@dataclass(frozen=True, eq=False)
class DensityField:
    torus: Torus
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != self.torus.dim:
            raise ConfigError(
                f"field has {vals.ndim} axes but torus dimension is {self.torus.dim}"
            )
        n = vals.shape[0]
        if any(s != n for s in vals.shape):
            raise ConfigError(f"grid must be square, got shape {vals.shape}")
        if n < 1:
            raise ConfigError("grid needs at least one cell")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ConfigError("density values must be finite and >= 0")

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    @property
    def spacing(self) -> float:
        return self.torus.side / self.n_cells

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.torus.dim

    @property
    def mass(self) -> float:
        """Integral of the field over the torus."""
        return float(self.values.sum() * self.cell_volume)

    @property
    def sup(self) -> float:
        return float(self.values.max())

    def centers(self) -> np.ndarray:
        return self.torus.cell_centers(self.n_cells)

    def with_values(self, values) -> "DensityField":
        return DensityField(self.torus, values)

    @classmethod
    def constant(cls, torus: Torus, n_cells: int, value: float) -> "DensityField":
        shape = (n_cells,) * torus.dim
        return cls(torus, np.full(shape, float(value)))

    @classmethod
    def from_function(cls, torus: Torus, n_cells: int, fn) -> "DensityField":
        """Sample fn at cell centers; fn takes one (..., dim) array of points."""
        grids = np.meshgrid(*([torus.cell_centers(n_cells)] * torus.dim), indexing="ij")
        pts = np.stack(grids, axis=-1)
        if torus.dim == 1:
            vals = np.asarray(fn(pts[..., 0]), dtype=float)
        else:
            vals = np.asarray(fn(pts), dtype=float)
        return cls(torus, vals)
