"""Jump kernels and repulsion potentials.

Both ingredients of the hop rate are radial functions on R^d drawn from a
small set of closed-form families:

    top_hat(radius, height)      height * 1{|x| <= radius}
    gaussian(sigma, height)      height * exp(-|x|^2 / (2 sigma^2))
    exponential(rate, height)    height * exp(-rate * |x|)

Potentials additionally admit ``local(kappa)``, the contact (zero-range)
idealization whose only meaningful datum is its integral kappa; it is
accepted by the gridded kinetic solver and rejected by the particle
simulator.

Radial symmetry makes a(x) = a(-x) and phi(x) = phi(-x) structural, and the
closed-form integrals give the total hop rate per particle

    alpha = integral of a,

the potential mass <phi> = integral of phi, and the relative-entropy-style
constant

    c_phi(eps) = (1/eps) * integral of (1 - exp(-eps * phi)),

which has a closed form for the top-hat, is computed by adaptive composite
Gauss-Legendre quadrature in the radius for the smooth families, and obeys
0 <= c_phi(eps) <= <phi> with c_phi non-increasing in eps.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidSpecError, NumericError, _require_dim, _require_fields,
                     _require_number)

# Radial value below height * SUPPORT_CUTOFF is treated as zero; this sets the
# support radius, and so the simulator's cell width, of the unbounded families.
SUPPORT_CUTOFF = 1e-12

# the parameter that shapes each family's profile (local(kappa): its integral)
_SHAPE = {"top_hat": "radius", "gaussian": "sigma", "exponential": "rate", "local": "kappa"}


def ball_volume(dim: int, radius: float) -> float:
    """Volume of the d-ball, d = 1, 2 or 3 (the dimensions a spec allows)."""
    if dim == 1:
        return 2.0 * radius
    if dim == 2:
        return math.pi * radius * radius
    return 4.0 * math.pi * radius**3 / 3.0


def sphere_area(dim: int) -> float:
    """Surface area of the unit (d-1)-sphere, d = 1, 2 or 3."""
    if dim == 1:
        return 2.0
    if dim == 2:
        return 2.0 * math.pi
    return 4.0 * math.pi


@dataclass(frozen=True)
class RadialSpec:
    """Shared machinery of kernel and potential specifications."""

    family: str
    dim: int
    radius: float | None = None
    sigma: float | None = None
    rate: float | None = None
    height: float = 1.0
    kappa: float | None = None

    def _validate(self, allow_local, allow_zero_height):
        _require_dim(self.dim, InvalidSpecError)
        fam = self.family
        if not isinstance(fam, str) or fam not in _SHAPE:
            raise InvalidSpecError(f"unknown family {fam!r}")
        if fam == "local":
            if not allow_local:
                raise InvalidSpecError("local(kappa) is only valid as a potential")
            _require_number("kappa", self.kappa, 0, error=InvalidSpecError)
            return
        shape = _SHAPE[fam]
        _require_number(shape, getattr(self, shape), 0, strict=True, error=InvalidSpecError)
        _require_number("height", self.height, 0, strict=not allow_zero_height,
                        error=InvalidSpecError)
        try:
            finite = math.isfinite(self.integral)
        except (OverflowError, ZeroDivisionError):  # a power overflows, or underflows to 0
            finite = False
        if not finite:
            raise InvalidSpecError(f"{shape} must give a finite integral over R^{self.dim}, "
                                   f"got {shape}={getattr(self, shape)!r} "
                                   f"with height={self.height!r}")

    # -- radial profile ----------------------------------------------------

    def radial(self, r):
        """Profile value at radial distance r (vectorized)."""
        r = np.asarray(r, dtype=float)
        fam = self.family
        if fam == "top_hat":
            return self.height * (r <= self.radius).astype(float)
        if fam == "gaussian":
            return self.height * np.exp(-0.5 * (r / self.sigma) ** 2)
        if fam == "exponential":
            return self.height * np.exp(-self.rate * r)
        # local: zero almost everywhere
        return np.zeros_like(r)

    @property
    def support_radius(self) -> float:
        """Radius beyond which the profile is below SUPPORT_CUTOFF * height."""
        fam = self.family
        if fam == "local" or self.height == 0.0:
            return 0.0
        if fam == "top_hat":
            return self.radius
        cut = -math.log(SUPPORT_CUTOFF)
        if fam == "gaussian":
            return self.sigma * math.sqrt(2.0 * cut)
        return cut / self.rate

    @property
    def integral(self) -> float:
        """Closed-form integral over R^d."""
        fam = self.family
        if fam == "local":
            return self.kappa
        if self.height == 0.0:
            return 0.0
        if fam == "top_hat":
            return self.height * ball_volume(self.dim, self.radius)
        if fam == "gaussian":
            return self.height * (2.0 * math.pi) ** (self.dim / 2.0) * self.sigma ** self.dim
        # exponential: S_{d-1} * Gamma(d) / rate^d
        return self.height * sphere_area(self.dim) * math.gamma(self.dim) / self.rate ** self.dim

    @property
    def is_zero(self) -> bool:
        if self.family == "local":
            return self.kappa == 0.0
        return self.height == 0.0

    # -- constructors ------------------------------------------------------
    # each builds the class it is called on, which runs that class's checks

    @classmethod
    def top_hat(cls, radius, height=1.0, dim=1):
        return cls(family="top_hat", dim=dim, radius=radius, height=height)

    @classmethod
    def gaussian(cls, sigma, height=1.0, dim=1):
        return cls(family="gaussian", dim=dim, sigma=sigma, height=height)

    @classmethod
    def exponential(cls, rate, height=1.0, dim=1):
        return cls(family="exponential", dim=dim, rate=rate, height=height)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        names = (_SHAPE[self.family],) + (() if self.family == "local" else ("height",))
        return {"family": self.family, "dim": self.dim, **{k: getattr(self, k) for k in names}}

    @classmethod
    def from_json(cls, obj: dict):
        """The spec of a JSON object of the fields `to_json` writes, where a shape
        parameter, but not height, may be null; InvalidSpecError otherwise."""
        _require_fields(obj, ("family", "dim"), ("family", "dim", "height", *_SHAPE.values()),
                        InvalidSpecError)
        dim = _require_number("dim", obj["dim"], 1, integer=True, error=InvalidSpecError)
        params = {k: None if v is None and k != "height" else  # height is never null
                  _require_number(k, v, error=InvalidSpecError)
                  for k, v in obj.items() if k not in ("family", "dim")}
        return cls(family=obj["family"], dim=dim, **params)


@dataclass(frozen=True)
class KernelSpec(RadialSpec):
    """Jump kernel a: symmetric, non-negative, integrable with alpha > 0."""

    def __post_init__(self):
        self._validate(allow_local=False, allow_zero_height=False)


@dataclass(frozen=True)
class PotentialSpec(RadialSpec):
    """Repulsion potential phi >= 0; height 0 gives the free (non-interacting) case."""

    def __post_init__(self):
        self._validate(allow_local=True, allow_zero_height=True)

    @classmethod
    def local(cls, kappa, dim=1):
        return cls(family="local", dim=dim, kappa=kappa)

    @classmethod
    def zero(cls, dim=1):
        return cls(family="top_hat", dim=dim, radius=1.0, height=0.0)


# -- derived scalars -------------------------------------------------------


def alpha(kernel: KernelSpec) -> float:
    """Total hop rate per particle: the closed-form integral of the kernel."""
    if not isinstance(kernel, RadialSpec):
        raise InvalidSpecError(f"expected a kernel spec, got {type(kernel)!r}")
    a = kernel.integral
    if not a > 0:
        raise InvalidSpecError("kernel must have strictly positive integral")
    return a


def mean_phi(potential: PotentialSpec) -> float:
    """<phi>: the integral of the potential (kappa for the local family)."""
    return potential.integral


# Composite Gauss-Legendre for c_phi: nodes per panel, the relative agreement a
# panel needs with the sum of its halves, and the most panels (quad's `limit`).
_GL_NODES = 64
_PANEL_RTOL = 1e-12
_MAX_PANELS = 200


@functools.cache
def _gauss_legendre():
    """Gauss-Legendre nodes and weights mapped to [0, 1], built on first use."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    return 0.5 * (x + 1.0), 0.5 * w


def _adaptive_gauss_legendre(f, a, b):
    """Integral of the vectorized f over [a, b] by composite Gauss-Legendre.

    Every open panel is split in two, all at once. A panel whose value agrees
    with the sum of its halves to _PANEL_RTOL relative is closed at that sum;
    otherwise its halves are opened. Raises NumericError once the partition
    would hold more than _MAX_PANELS panels.
    """
    x, w = _gauss_legendre()

    def rule(lo, hi):
        width = hi - lo
        return width * (f(lo[:, None] + width[:, None] * x) @ w)

    lo, hi = np.array([float(a)]), np.array([float(b)])
    value = rule(lo, hi)
    closed = []
    panels = 1
    while lo.size:
        mid = 0.5 * (lo + hi)
        left, right = rule(lo, mid), rule(mid, hi)
        halves = left + right
        split = ~(np.abs(halves - value) <= _PANEL_RTOL * np.abs(halves))
        closed.extend(halves[~split])
        panels += int(split.sum())
        if panels > _MAX_PANELS:
            raise NumericError(
                f"c_phi quadrature did not converge within {_MAX_PANELS} panels "
                f"on [{a:g}, {b:g}]")
        lo = np.concatenate([lo[split], mid[split]])
        hi = np.concatenate([mid[split], hi[split]])
        value = np.concatenate([left[split], right[split]])
    return math.fsum(closed)


def c_phi(potential: PotentialSpec, epsilon: float = 1.0) -> float:
    """(1/eps) * integral of (1 - exp(-eps * phi)) over R^d.

    The top-hat takes the closed form V_d(R) (1 - e^{-eps h}) / eps. The
    smooth families integrate r^{d-1} (1 - e^{-eps phi(r)}) over
    [0, support_radius] by adaptive composite 64-node Gauss-Legendre, each
    panel agreeing with the sum of its halves to 1e-12 relative; more than 200
    panels raise NumericError. Non-increasing in eps, bounded by <phi>, and
    -> <phi> as eps -> 0. For the local family the defining limit is 0 for
    every eps. eps must be finite and positive (InvalidSpecError).
    """
    _require_number("epsilon", epsilon, 0, strict=True, error=InvalidSpecError)
    if potential.family == "local" or potential.is_zero:
        return 0.0
    dim = potential.dim
    if potential.family == "top_hat":
        return (ball_volume(dim, potential.radius)
                * -math.expm1(-epsilon * potential.height) / epsilon)

    def integrand(r):
        return r ** (dim - 1) * -np.expm1(-epsilon * potential.radial(r))

    val = _adaptive_gauss_legendre(integrand, 0.0, potential.support_radius)
    return sphere_area(dim) * val / epsilon


# -- displacement sampling --------------------------------------------------


def sample_displacement(kernel: KernelSpec, rng: np.random.Generator, size: int):
    """Draw `size` displacements with probability density a(.) / alpha, shape
    (size, dim). Every family is sampled exactly (no rejection): top-hat by a
    uniform ball draw, gaussian by scaled normals, exponential by a Gamma(d)
    radius and a uniform direction.
    """
    n = int(size)
    d = kernel.dim
    fam = kernel.family
    if fam == "gaussian":
        out = kernel.sigma * rng.standard_normal((n, d))
    elif fam == "top_hat":
        if d == 1:
            out = kernel.radius * (2.0 * rng.random((n, 1)) - 1.0)
        else:
            dirs = _uniform_directions(rng, n, d)
            radii = kernel.radius * rng.random(n) ** (1.0 / d)
            out = dirs * radii[:, None]
    else:  # exponential
        radii = rng.gamma(shape=d, scale=1.0 / kernel.rate, size=n)
        dirs = _uniform_directions(rng, n, d)
        out = dirs * radii[:, None]
    return out


def _uniform_directions(rng, n, d):
    if d == 1:
        return np.where(rng.random((n, 1)) < 0.5, -1.0, 1.0)
    v = rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v
