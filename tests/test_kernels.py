import math

import numpy as np
import pytest
from scipy.integrate import quad

from kawasaki import (InvalidSpecError, KernelSpec, NumericError, PotentialSpec,
                      alpha, c_phi, mean_phi, sample_displacement)
from kawasaki import kernels
from kawasaki.kernels import ball_volume, sphere_area


def radial_quadrature(spec, fn=None, r_max=None):
    """Independent oracle: integrate fn(phi(r)) over R^d by 1-d quadrature,
    asked for 1e-13 relative."""
    if fn is None:
        fn = lambda v: v
    if r_max is None:
        r_max = spec.support_radius
    d = spec.dim
    val, _ = quad(lambda r: r ** (d - 1) * fn(float(spec.radial(r))),
                  0.0, r_max, points=[spec.radius] if spec.family == "top_hat" else None,
                  epsabs=0.0, epsrel=1e-13, limit=1000)
    return sphere_area(d) * val


# -- alpha -------------------------------------------------------------------

def test_alpha_top_hat_interval_length():
    k = KernelSpec.top_hat(1.0, 1.0, dim=1)
    assert alpha(k) == pytest.approx(2.0, rel=1e-12)


def test_alpha_gaussian_matches_quadrature_oracle():
    k = KernelSpec.gaussian(1.0, 1.0, dim=1)
    a = alpha(k)
    assert a == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-10)
    assert a == pytest.approx(radial_quadrature(k), rel=1e-10)


def test_alpha_top_hat_disc():
    k = KernelSpec.top_hat(1.0, 0.5, dim=2)
    assert alpha(k) == pytest.approx(0.5 * math.pi, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_alpha_exponential_matches_quadrature_oracle(dim):
    k = KernelSpec.exponential(1.7, 0.8, dim=dim)
    assert alpha(k) == pytest.approx(radial_quadrature(k), rel=1e-9)


def test_alpha_rejects_nonpositive_parameters():
    with pytest.raises(InvalidSpecError):
        KernelSpec.top_hat(-1.0, 1.0)
    with pytest.raises(InvalidSpecError):
        KernelSpec.top_hat(1.0, 0.0)
    with pytest.raises(InvalidSpecError):
        KernelSpec.gaussian(0.0, 1.0)
    with pytest.raises(InvalidSpecError):
        KernelSpec.exponential(-2.0, 1.0)


# -- c_phi -------------------------------------------------------------------

def test_c_phi_top_hat_closed_form():
    p = PotentialSpec.top_hat(1.0, 1.0, dim=1)
    assert c_phi(p, 1.0) == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-10)
    for dim in (1, 2, 3):
        p = PotentialSpec.top_hat(1.3, 0.7, dim=dim)
        for eps in (1.0, 0.25, 1e-3):
            exact = ball_volume(dim, 1.3) * -math.expm1(-eps * 0.7) / eps
            assert c_phi(p, eps) == exact


C_PHI_CASES = [
    p for d in (1, 2, 3)
    for p in (PotentialSpec.top_hat(1.3, 0.7, dim=d), PotentialSpec.gaussian(0.7, 2.0, dim=d),
              PotentialSpec.exponential(3.0, 1.5, dim=d))
] + [
    # tall potentials: one fixed 64-node panel misses these by up to 7e-7,
    # so they need the adaptive split
    PotentialSpec.gaussian(1.0, 1e6, dim=3),
    PotentialSpec.exponential(3.0, 1e8, dim=3),
    PotentialSpec.gaussian(2.0, 1e12, dim=3),
]


@pytest.mark.parametrize("eps", [1.0, 0.25, 1e-3])
@pytest.mark.parametrize("p", C_PHI_CASES,
                         ids=[f"{p.family}-{p.dim}d-h{p.height:g}" for p in C_PHI_CASES])
def test_c_phi_matches_quad_oracle(p, eps):
    oracle = radial_quadrature(p, lambda v: -math.expm1(-eps * v)) / eps
    assert c_phi(p, eps) == pytest.approx(oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [
    PotentialSpec.top_hat(1.0, 1.0, dim=1),
    PotentialSpec.gaussian(0.7, 2.0, dim=2),
    PotentialSpec.exponential(3.0, 1.5, dim=1),
])
def test_c_phi_small_eps_approaches_mean(p):
    m = mean_phi(p)
    assert abs(c_phi(p, 1e-6) - m) <= 1e-5 * m


def test_c_phi_zero_potential():
    p = PotentialSpec.top_hat(1.0, 0.0, dim=1)
    for eps in (1e-3, 0.1, 1.0):
        assert c_phi(p, eps) == 0.0


def test_c_phi_monotone_in_eps():
    p = PotentialSpec.gaussian(1.0, 1.5, dim=1)
    eps_grid = np.logspace(-3, 0, 12)
    vals = [c_phi(p, e) for e in eps_grid]
    m = mean_phi(p)
    for a, b in zip(vals, vals[1:]):
        assert a >= b - 1e-12
    assert all(v <= m + 1e-12 for v in vals)


def test_c_phi_eps_consistency_against_independent_quadrature():
    # eps * c_phi(eps) must equal the direct integral of (1 - e^{-eps phi}),
    # here evaluated in cartesian coordinates as an independent route
    p = PotentialSpec.top_hat(1.3, 0.9, dim=1)
    for eps in (0.03, 0.4, 1.0):
        direct, _ = quad(lambda x: 1.0 - math.exp(-eps * float(p.radial(abs(x)))),
                         -p.radius, p.radius, limit=200)
        assert eps * c_phi(p, eps) == pytest.approx(direct, rel=1e-9)


def test_c_phi_requires_positive_eps():
    p = PotentialSpec.top_hat(1.0, 1.0, dim=1)
    with pytest.raises(InvalidSpecError):
        c_phi(p, 0.0)


@pytest.mark.parametrize("eps", [math.inf, math.nan])
@pytest.mark.parametrize("p", [PotentialSpec.top_hat(1.0, 1.0, dim=1),
                               PotentialSpec.gaussian(0.7, 2.0, dim=2)],
                         ids=["top_hat", "gaussian"])
def test_c_phi_rejects_non_finite_eps(p, eps):
    with pytest.raises(InvalidSpecError):
        c_phi(p, eps)


def test_c_phi_quadrature_raises_past_its_panel_limit():
    # ~1600 oscillations of sin(1/r) need far more than 200 panels
    with pytest.raises(NumericError):
        kernels._adaptive_gauss_legendre(lambda r: np.sin(1.0 / r), 1e-4, 1.0)
    assert kernels._adaptive_gauss_legendre(np.cos, 0.0, 1.0) == pytest.approx(
        math.sin(1.0), rel=1e-15)


def test_local_potential_constants():
    p = PotentialSpec.local(0.8, dim=1)
    assert mean_phi(p) == 0.8
    assert c_phi(p, 0.5) == 0.0
    assert p.support_radius == 0.0


# -- symmetry and scaled factors ----------------------------------------------

def test_scaled_factors_ranges():
    # Mayer factors of eps * phi: t = exp(-eps phi) - 1 in [-1, 0] and
    # tau = t + 1 in [0, 1], the ranges that make the thinning envelope exact
    rng = np.random.default_rng(1)
    p = PotentialSpec.gaussian(0.8, 2.5, dim=1)
    for _ in range(20):
        eps = float(rng.uniform(1e-3, 1.0))
        xy = rng.normal(size=500) * 2.0
        t = np.expm1(-eps * p.radial(np.abs(xy)))
        tau = t + 1.0
        assert np.all((t >= -1.0) & (t <= 0.0))
        assert np.all((tau >= 0.0) & (tau <= 1.0))


# -- displacement sampling -----------------------------------------------------

def test_sample_top_hat_support_and_symmetry():
    k = KernelSpec.top_hat(1.0, 1.0, dim=1)
    rng = np.random.default_rng(42)
    x = sample_displacement(k, rng, size=1_000_000)[:, 0]
    assert x.min() >= -1.0 and x.max() <= 1.0
    # mean of U[-1, 1] has sd 1/sqrt(3n)
    assert abs(x.mean()) <= 3.0 / math.sqrt(3.0 * x.size)


def test_sample_gaussian_variance_within_one_percent():
    k = KernelSpec.gaussian(1.0, 1.0, dim=2)
    rng = np.random.default_rng(7)
    x = sample_displacement(k, rng, size=1_000_000)
    for axis in range(2):
        assert abs(x[:, axis].var() - 1.0) < 0.01


def test_sample_exponential_radius_law():
    k = KernelSpec.exponential(2.0, 1.0, dim=2)
    rng = np.random.default_rng(3)
    x = sample_displacement(k, rng, size=400_000)
    r = np.hypot(x[:, 0], x[:, 1])
    # radius ~ Gamma(d, 1/rate): mean d/rate, var d/rate^2
    assert r.mean() == pytest.approx(1.0, abs=4.0 * math.sqrt(0.5 / r.size))
    assert r.var() == pytest.approx(0.5, rel=0.02)


def test_sample_exponential_1d_is_laplace():
    # density e^{-2|x|} / alpha: Laplace of scale 1/2, a Gamma(1) radius with a sign
    k = KernelSpec.exponential(2.0, 1.0, dim=1)
    x = sample_displacement(k, np.random.default_rng(4), size=400_000)
    assert x.shape == (400_000, 1)
    x = x[:, 0]
    # sd of x, |x| and x^2: sqrt(1/2), 1/2 and sqrt(4! / 16 - 1/4)
    tol = 4.0 / math.sqrt(x.size)
    assert abs(x.mean()) <= tol * math.sqrt(0.5)
    assert np.abs(x).mean() == pytest.approx(0.5, abs=tol * 0.5)
    assert (x * x).mean() == pytest.approx(0.5, abs=tol * math.sqrt(1.25))


def test_sample_determinism_fixed_seed():
    k = KernelSpec.gaussian(1.0, 1.0, dim=3)
    a = sample_displacement(k, np.random.default_rng(42), size=1000)
    b = sample_displacement(k, np.random.default_rng(42), size=1000)
    assert np.array_equal(a, b)


# -- serialization --------------------------------------------------------------

def test_spec_json_round_trip():
    specs = [
        KernelSpec.top_hat(1.5, 2.0, dim=2),
        KernelSpec.gaussian(0.5, 1.0, dim=1),
        PotentialSpec.exponential(3.0, 0.25, dim=3),
        PotentialSpec.local(0.7, dim=1),
    ]
    for s in specs:
        cls = type(s)
        assert cls.from_json(s.to_json()) == s


def test_spec_json_rejects_unknown_fields():
    with pytest.raises(InvalidSpecError):
        KernelSpec.from_json({"family": "top_hat", "dim": 1, "radius": 1.0,
                              "height": 1.0, "wobble": 3})


@pytest.mark.parametrize("make", [
    lambda: KernelSpec(family="top_hat", dim=1),
    lambda: PotentialSpec(family="gaussian", dim=1, height=0.5),
    lambda: PotentialSpec.top_hat(1.0, math.nan),
    lambda: PotentialSpec.local(math.nan),
    lambda: PotentialSpec.local(-1.0),
    lambda: PotentialSpec.local(math.inf),
    lambda: PotentialSpec.top_hat(1.0, math.inf),
], ids=["kernel without radius", "potential without sigma", "nan height", "nan kappa",
        "negative kappa", "infinite kappa", "infinite height"])
def test_specs_reject_missing_and_nan_parameters(make):
    with pytest.raises(InvalidSpecError):
        make()


def test_local_only_valid_for_potentials():
    with pytest.raises(InvalidSpecError):
        KernelSpec.from_json({"family": "local", "dim": 1, "kappa": 1.0})


def test_effective_support_radius_semantics():
    # finite and recorded for every family; the profile is negligible beyond it
    for spec in (KernelSpec.top_hat(1.5, 2.0, dim=1),
                 KernelSpec.gaussian(0.7, 3.0, dim=2),
                 KernelSpec.exponential(2.0, 0.5, dim=1)):
        r = spec.support_radius
        assert math.isfinite(r) and r > 0
        assert float(spec.radial(r * 1.001)) <= 1e-12 * spec.height * 1.01
    assert PotentialSpec.top_hat(1.0, 0.0, dim=1).support_radius == 0.0
