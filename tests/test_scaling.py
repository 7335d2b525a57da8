import math

import numpy as np
import pytest

from kawasaki import (BudgetError, ConfigError, KernelSpec, PotentialSpec,
                      SweepResult, SweepSpec, Torus, convergence_report,
                      estimate_correlations, renormalize, run_sweep)
from kawasaki import scaling
from kawasaki.fields import DensityField

TORUS = Torus(1, 20.0)
KERNEL = KernelSpec.top_hat(1.0, 1.0, dim=1)
POT = PotentialSpec.top_hat(1.0, 1.0, dim=1)
FREE = PotentialSpec.zero(dim=1)


def poisson_estimate(rho, n_traj, seed, n_cells=20):
    rng = np.random.default_rng(seed)
    snaps = [rng.random((rng.poisson(rho * TORUS.volume), 1)) * TORUS.side
             for _ in range(n_traj)]
    edges = np.linspace(0.0, 5.0, 11)
    return estimate_correlations(snaps, 0.0, n_cells, edges, torus=TORUS)


# -- renormalize -----------------------------------------------------------------

def test_renormalize_identity_at_eps_one():
    est = poisson_estimate(0.5, 100, seed=1)
    out = renormalize(est, 1.0)
    assert np.array_equal(out.k1, est.k1)
    assert np.array_equal(out.k2, est.k2)


def test_renormalize_product_scaling():
    est = poisson_estimate(2.0, 100, seed=2)
    out = renormalize(est, 0.25)
    assert np.allclose(out.k1, 0.25 * est.k1)
    assert np.allclose(out.k1_se, 0.25 * est.k1_se)
    assert np.allclose(out.k2, 0.0625 * est.k2)
    assert np.allclose(out.k2_se, 0.0625 * est.k2_se)


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25])
def test_renormalized_poisson_matches_limit_density(eps):
    # Poisson with boosted density rho0/eps renormalizes back to rho0
    rho0 = 0.5
    est = poisson_estimate(rho0 / eps, 600, seed=int(1000 * eps))
    out = renormalize(est, eps)
    z1 = (out.k1 - rho0) / out.k1_se
    assert np.abs(z1).max() <= 3.0
    z2 = (out.k2 - rho0 ** 2) / out.k2_se
    assert np.abs(z2).max() <= 3.5


def test_renormalize_rejects_bad_eps():
    est = poisson_estimate(0.5, 10, seed=3)
    with pytest.raises(ConfigError):
        renormalize(est, 0.0)


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_renormalize_rejects_non_finite_eps(eps):
    est = poisson_estimate(0.5, 10, seed=3)
    with pytest.raises(ConfigError):
        renormalize(est, eps)


# -- sweep planning -----------------------------------------------------------------

def base_spec(**kw):
    rho0 = DensityField.from_function(
        TORUS, 32, lambda x: 0.7 + 0.35 * np.cos(6 * np.pi * x / 20.0))
    defaults = dict(torus=TORUS, kernel=KERNEL, potential=POT,
                    epsilons=(1.0, 0.5), rho0=rho0, times=(0.5,),
                    n_traj_base=400, n_cells=32,
                    r_edges=tuple(np.linspace(0.0, 5.0, 11)),
                    budget_max_particles=1e4, base_seed=5)
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_budget_checked_before_any_simulation():
    spec = base_spec(budget_max_particles=10.0)
    with pytest.raises(BudgetError):
        spec.validate()
    with pytest.raises(BudgetError):
        run_sweep(spec)


def test_spec_validation():
    with pytest.raises(ConfigError):
        base_spec(epsilons=(0.5, 1.0)).validate()  # must decrease
    with pytest.raises(ConfigError):
        base_spec(epsilons=(1.0, 0.5, 0.5)).validate()
    with pytest.raises(ConfigError):
        base_spec(epsilons=(2.0,)).validate()
    base_spec().validate()


@pytest.mark.parametrize("change, message", [
    ({"r_edges": tuple(np.linspace(0.0, 10.5, 9))}, "pair bins"),
    ({"r_edges": tuple(np.linspace(0.0, 1e-8, 21))}, "pair bins"),
    ({"rho0": DensityField.constant(Torus(1, 30.0), 32, 0.5)}, "different torus"),
    ({"rho0": DensityField.constant(TORUS, 16, 0.5)}, "rho0 grid must match n_cells"),
    ({"rho0": -1.0}, "rho0 must be a finite number >= 0"),
    ({"r_edges": ()}, "at least one bin"),
    ({"times": (0.5, math.nan)}, "comparison times must be >= 0"),
    ({"times": (math.inf,)}, "t_end must be finite"),
], ids=["beyond half the side", "thinner than 1e-9", "rho0 on another torus",
        "rho0 grid not n_cells", "negative rho0", "no pair bins", "nan time",
        "infinite time"])
def test_pair_bins_checked_before_any_solve_or_simulation(monkeypatch, change, message):
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran before its inputs were checked")

    monkeypatch.setattr(scaling, "solve_kinetic", never)
    monkeypatch.setattr(scaling, "map_chunks", never)
    spec = base_spec(**change)
    with pytest.raises(ConfigError, match=message):
        spec.validate()
    with pytest.raises(ConfigError, match=message):
        run_sweep(spec)


def test_trajectory_counts_scale_with_eps():
    spec = base_spec(epsilons=(1.0, 0.5, 0.25), n_traj_base=100)
    assert [spec.trajectories_for(i) for i in range(3)] == [100, 50, 25]


# -- sweeps ---------------------------------------------------------------------------

def test_free_sweep_is_mean_field_exact():
    spec = base_spec(potential=FREE, epsilons=(1.0, 0.5), times=(0.5,),
                     n_traj_base=1500)
    res = run_sweep(spec)
    # no interaction: renormalized density matches the (linear) kinetic
    # reference at every eps up to noise, with no trend in eps
    for i in range(len(res.epsilons)):
        assert res.e1[i, 0] <= 3.0 * res.e1_se[i, 0]
    gap = abs(res.e1[0, 0] - res.e1[1, 0])
    assert gap <= 2.0 * np.hypot(res.e1_se[0, 0], res.e1_se[1, 0])
    assert res.monotone_within_noise[0.5]


def test_sweep_initial_time_matches_by_construction():
    spec = base_spec(times=(0.0,), n_traj_base=1200)
    res = run_sweep(spec)
    for i in range(len(res.epsilons)):
        assert res.e1[i, 0] <= 3.0 * res.e1_se[i, 0]


def test_sweep_conserves_particles_per_trajectory():
    spec = base_spec(times=(0.25,), n_traj_base=60)
    # conservation is structural; verify through the recorded estimates:
    # mean counts scale like 1/eps between ladder rungs
    res = run_sweep(spec)
    m1 = res.estimates[0][0].mean_count
    m2 = res.estimates[1][0].mean_count
    assert m2 == pytest.approx(2.0 * m1, rel=0.2)


def test_sweep_runs_whole_float_counts_and_seed_as_their_ints():
    # a whole-float n_cells or base_seed raised a TypeError
    def result(**kw):
        return run_sweep(base_spec(rho0=0.5, epsilons=(1.0,), times=(0.25,),
                                   n_traj_base=4, **kw)).to_json()

    assert result(n_cells=16.0, base_seed=5.0) == result(n_cells=16, base_seed=5)


def test_interacting_sweep_discrepancy_shrinks_with_eps():
    # small version of the mean-field convergence experiment
    kernel = KernelSpec.top_hat(2.0, 1.0, dim=1)
    pot = PotentialSpec.top_hat(1.0, 3.0, dim=1)
    spec = base_spec(kernel=kernel, potential=pot, epsilons=(1.0, 0.25),
                     times=(1.0,), n_traj_base=2000)
    res = run_sweep(spec)
    assert res.e1[1, 0] < res.e1[0, 0]
    assert res.e2[1, 0] < res.e2[0, 0]


# -- convergence report -------------------------------------------------------------

def synthetic_result(e1_values, se=0.0):
    eps = (1.0, 0.5, 0.25)
    e1 = np.asarray(e1_values, dtype=float).reshape(3, 1)
    e1_se = np.full_like(e1, se)
    zeros = np.zeros_like(e1)
    return SweepResult(epsilons=eps, times=(1.0,), n_traj=(1, 1, 1),
                       e1=e1, e1_se=e1_se, e2=zeros, e2_se=zeros)


def test_report_exact_linear_power_law():
    res = synthetic_result([0.3, 0.15, 0.075])
    rep = convergence_report(res)
    slope, se = rep.slopes[1.0]
    assert slope == pytest.approx(1.0, abs=1e-6)
    assert se <= 1e-6


def test_report_exact_quadratic_power_law():
    res = synthetic_result([0.4, 0.1, 0.025])
    rep = convergence_report(res)
    slope, se = rep.slopes[1.0]
    assert slope == pytest.approx(2.0, abs=1e-6)
    assert se <= 1e-6


def test_report_degenerate_errors():
    res = synthetic_result([0.0, 0.0, 0.0])
    rep = convergence_report(res)
    assert rep.slopes[1.0] is None


def test_report_needs_two_epsilons():
    # a one-epsilon ladder has no slope: it reports None rather than failing
    res = synthetic_result([0.1, 0.05, 0.025])
    res.epsilons = (1.0,)
    res.e1, res.e1_se = res.e1[:1], res.e1_se[:1]
    assert convergence_report(res).slopes[1.0] is None


def test_sweep_outputs_written(tmp_path):
    spec = base_spec(times=(0.25,), n_traj_base=40)
    res = run_sweep(spec)
    from kawasaki import write_sweep_outputs
    write_sweep_outputs(res, tmp_path)
    assert (tmp_path / "errors.csv").exists()
    assert (tmp_path / "report.json").exists()
    header = (tmp_path / "errors.csv").read_text().splitlines()[0]
    assert header == "epsilon,time,e1,e1_stderr,e2,e2_stderr"
