import json
import math
import zlib

import numpy as np
import pytest

from kawasaki import (ConfigError, CorrelationEstimate, GibbsSampler, KernelSpec,
                      PotentialSpec, SimulationParams, SweepSpec, Torus,
                      calibrate_activity, estimate_correlations, estimate_density,
                      estimate_pair_correlation, radial_product_profile,
                      renormalize, run_sweep, simulate_ensemble, sub_poisson_report)
from kawasaki import estimator
from kawasaki.estimator import shell_measure
from kawasaki.fields import DensityField

TORUS = Torus(1, 20.0)
KERNEL = KernelSpec.top_hat(1.0, 1.0, dim=1)
FREE = PotentialSpec.zero(dim=1)


def poisson_snapshots(rho, n_traj, seed, torus=TORUS):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_traj):
        n = rng.poisson(rho * torus.volume)
        out.append(rng.random((n, torus.dim)) * torus.side)
    return out


# -- density -------------------------------------------------------------------

def test_density_exact_binning_single_snapshot():
    snaps = [np.array([[0.5], [0.7], [12.5]])]
    est = estimate_density(snaps, 0.0, 20, torus=TORUS)
    # cells of width 1: two points in cell 0, one in cell 12
    assert est.k1[0] == pytest.approx(2.0)
    assert est.k1[12] == pytest.approx(1.0)
    assert est.k1.sum() == pytest.approx(3.0)


def test_density_zero_everywhere():
    snaps = [np.zeros((0, 1)) for _ in range(10)]
    est = estimate_density(snaps, 0.0, 20, torus=TORUS)
    assert np.all(est.k1 == 0.0)


def test_density_poisson_bins_within_sampling_error():
    snaps = poisson_snapshots(0.5, 10_000, seed=2)
    est = estimate_density(snaps, 0.0, 20, torus=TORUS)
    z = (est.k1 - 0.5) / est.k1_se
    assert np.abs(z).max() <= 4.0
    assert np.mean(np.abs(z) <= 3.0) >= 0.99


def test_density_mass_consistency_exact():
    snaps = poisson_snapshots(0.7, 200, seed=3)
    est = estimate_density(snaps, 0.0, 40, torus=TORUS)
    assert est.k1.sum() * (20.0 / 40.0) == pytest.approx(est.mean_count, rel=1e-14)


def density_one_histogram_each(snaps, torus, n_cells):
    """k1, k1_se and mean count from one histogram per snapshot."""
    d = torus.dim
    edges = [np.linspace(0.0, torus.side, n_cells + 1)] * d
    vol = (torus.side / n_cells) ** d
    total = np.zeros((n_cells,) * d)
    total_sq = np.zeros_like(total)
    counts = 0.0
    for pos in snaps:
        v = np.histogramdd(pos.reshape(-1, d), bins=edges)[0] / vol
        total += v
        total_sq += v * v
        counts += pos.shape[0]
    t = len(snaps)
    k1 = total / t
    var = (total_sq - t * k1 * k1) / (t - 1)
    return k1, np.sqrt(np.maximum(var, 0.0) / t), counts / t


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("bins", [1 << 20, 30, 1])
def test_density_grouped_histogram_bit_identical_to_one_each(monkeypatch, dim, bins):
    monkeypatch.setattr(estimator, "_DENSITY_BINS", bins)  # groups of 1 up to all
    torus = Torus(dim, 7.0)
    rng = np.random.default_rng(dim)
    snaps = [rng.random((n, dim)) * 7.0 for n in rng.integers(0, 30, size=40)]
    snaps[0] = snaps[17] = np.zeros((0, dim))
    edge = np.array([[0.0] * dim, [7.0 - 1e-15] * dim])  # first and last cells
    snaps[5] = np.vstack([edge, snaps[5]])
    est = estimate_density(snaps, 0.0, 5, torus=torus)
    k1, k1_se, mean_count = density_one_histogram_each(snaps, torus, 5)
    assert np.array_equal(est.k1, k1) and np.array_equal(est.k1_se, k1_se)
    assert est.mean_count == mean_count


def test_density_empty_ensemble_rejected():
    with pytest.raises(ConfigError):
        estimate_density([], 0.0, 10, torus=TORUS)


# -- pair correlation -------------------------------------------------------------

def test_pair_two_fixed_particles_single_bin():
    snaps = [np.array([[3.0], [4.0]])]
    edges = np.linspace(0.5, 2.5, 5)  # distance 1 falls in bin [1.0, 1.5)
    est = estimate_pair_correlation(snaps, 0.0, edges, torus=TORUS)
    shell = shell_measure(1, edges)
    expect = 2.0 / (shell[1] * TORUS.volume)
    assert est.k2[1] == pytest.approx(expect)
    assert np.all(est.k2[[0, 2, 3]] == 0.0)


def test_pair_poisson_flat_at_rho_squared():
    snaps = poisson_snapshots(0.5, 4000, seed=4)
    edges = np.linspace(0.0, 5.0, 11)
    est = estimate_pair_correlation(snaps, 0.0, edges, torus=TORUS)
    z = (est.k2 - 0.25) / est.k2_se
    assert np.abs(z).max() <= 3.0


def test_pair_repulsive_dip_detected_via_gibbs_oracle():
    torus = Torus(1, 50.0)
    pot = PotentialSpec.top_hat(1.0, 1.5, dim=1)
    rng = np.random.default_rng(9)
    z = calibrate_activity(torus, pot, 100.0, rng)
    chain = GibbsSampler(torus, pot, z, rng, initial_count=100)
    snaps = chain.sample(250, thin_moves=1500, burn_in_moves=15000)
    edges = np.linspace(0.0, 5.0, 11)
    est = estimate_correlations(snaps, 0.0, 50, edges, torus=torus)
    resid, comb = est.factorization()
    # inside the repulsion radius the pair density sits well below the product
    assert resid[0] / comb[0] < -3.0
    assert resid[1] / comb[1] < -3.0
    # far outside it there is no structure
    assert abs(resid[-1] / comb[-1]) < 3.5


def all_pairs_counts(pos, torus, r_edges, chunk=512):
    """Reference ordered-pair counts: every pair's minimal-image distance, in
    row chunks, binned by np.histogram."""
    n = pos.shape[0]
    counts = np.zeros(len(r_edges) - 1)
    if n < 2:
        return counts
    L = torus.side
    for lo in range(0, n, chunk):
        rows = pos[lo:lo + chunk]
        diff = rows[:, None, :] - pos[None, :, :]
        diff -= L * np.round(diff / L)
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        idx = np.arange(lo, min(lo + chunk, n))
        dist[np.arange(len(idx)), idx] = np.inf  # no self pairs
        hist, _ = np.histogram(dist.ravel(), bins=r_edges)
        counts += hist
    return counts


def _uniform(rng, sizes, torus, lo=0.0, hi=1.0):
    return [torus.side * rng.uniform(lo, hi, (n, torus.dim)) for n in sizes]


def _lattice(rng, sizes, torus, m=8):
    return [rng.integers(0, m, (n, torus.dim)) * (torus.side / m) for n in sizes]


# x-coordinates of pairs whose minimal-image distance r is a little smaller
# than their distance once wrapped into [0, L): with bins ending at r, only a
# padded search radius finds them
ROUNDING_PAIRS = {20.0: (-8.029, 36.527), 12.0: (2.954, 17.873), 10.0: (16.206, 4.169)}


def _pair_case(name):
    """(snapshots, torus, r_edges) of one pair-count case."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    dim = int(name[1])
    torus = Torus(dim, {1: 20.0, 2: 12.0, 3: 10.0}[dim])
    L = torus.side
    sizes = [40, 0, 1, 60, 25]
    if name.endswith("from-zero"):
        return _uniform(rng, sizes, torus), torus, np.linspace(0.0, 2.5, 11)
    if name.endswith("above-zero"):
        return _uniform(rng, sizes, torus), torus, np.linspace(0.7, 3.1, 9)
    if name.endswith("half-side"):
        return _uniform(rng, sizes, torus), torus, np.linspace(0.0, L / 2, 7)
    if name.endswith("lattice-on-edges"):
        # every distance is a multiple of L/8 or a root of a sum of such squares
        return (_lattice(rng, [50, 2, 30], torus), torus,
                np.arange(5) * (L / 8))
    if name.endswith("unwrapped"):
        snaps = _uniform(rng, sizes, torus, lo=-1.0, hi=2.0)
        snaps[0][:4] = np.array([[L - 1e-17], [np.nextafter(L, 0.0)], [-1e-17], [L]])
        pair = np.zeros((2, dim))
        pair[:, 0] = ROUNDING_PAIRS[L]
        diff = pair[0, 0] - pair[1, 0]
        r = abs(diff - L * np.round(diff / L))
        return snaps + [pair], torus, np.linspace(0.0, r, 9)
    if name.endswith("tiny"):
        return _uniform(rng, [0, 1, 0, 2, 1], torus), torus, np.linspace(0.0, L / 2, 5)
    if name.endswith("ending-at-zero"):
        # coincident points fall in the closed last bin [-0.5, 0]
        return _lattice(rng, [40, 12], torus, m=4), torus, np.array([-1.0, -0.5, 0.0])
    if name.endswith("below-zero"):
        return _lattice(rng, [40, 12], torus, m=4), torus, np.array([-2.0, -1.0])
    if name.endswith("many-slices"):
        # about 0.39 n^2 candidates within L/2: several slices of them
        n = int(np.sqrt(3 * estimator._PAIR_SLICE / 0.39))
        return _uniform(rng, [n], torus), torus, np.linspace(0.0, L / 2, 9)
    raise KeyError(name)


PAIR_CASES = [f"d{dim}-{kind}" for dim in (1, 2, 3)
              for kind in ("from-zero", "above-zero", "half-side", "lattice-on-edges",
                           "unwrapped", "tiny")] + [
    "d1-ending-at-zero", "d1-below-zero", "d2-many-slices"]


@pytest.mark.parametrize("name", PAIR_CASES)
def test_pair_counts_equal_all_pairs_reference(name):
    snaps, torus, edges = _pair_case(name)
    for pos in snaps:
        counts = estimator._pair_distance_counts(pos, torus, edges)
        assert np.array_equal(counts, all_pairs_counts(pos, torus, edges))


def test_pair_bins_validation():
    snaps = poisson_snapshots(0.5, 3, seed=5)
    with pytest.raises(ConfigError):
        estimate_pair_correlation(snaps, 0.0, [0.0, 1e-12, 1.0], torus=TORUS)
    with pytest.raises(ConfigError):
        estimate_pair_correlation(snaps, 0.0, [0.0, 11.0], torus=TORUS)
    for edges in ([], [1.0], [0.0, math.nan]):
        with pytest.raises(ConfigError):
            estimate_pair_correlation(snaps, 0.0, edges, torus=TORUS)
    # a bin below r = 0 has no pairs: in 2-d its zero shell measure gave inf
    # in k2, and in 1-d its negative measure mis-normalised the estimate
    square = Torus(2, 10.0)
    for ensemble, torus in ((snaps, TORUS), (poisson_snapshots(0.2, 3, 5, square), square)):
        with pytest.raises(ConfigError, match="start at r >= 0"):
            estimate_pair_correlation(ensemble, 0.0, [-1.0, 1.0, 2.0], torus=torus)


# -- product profile ---------------------------------------------------------------

def test_product_profile_constant_field_exact():
    field = DensityField.constant(TORUS, 37, 0.7)
    edges = np.linspace(0.0, 9.0, 19)
    prof, se = radial_product_profile(field, edges)
    assert np.abs(prof - 0.49).max() <= 1e-12
    assert np.all(se == 0.0)


def test_product_profile_matches_monte_carlo_oracle():
    rng = np.random.default_rng(6)
    field = DensityField(TORUS, 0.5 + 0.4 * rng.random(16))
    edges = np.linspace(0.0, 8.0, 9)
    prof, _ = radial_product_profile(field, edges)
    # oracle: sample random ordered pairs of positions, weight by the
    # piecewise-constant field values, bin by minimal-image distance
    m = 2_000_000
    x = rng.random(m) * 20.0
    y = rng.random(m) * 20.0
    w = field.values[(x / 1.25).astype(int)] * field.values[(y / 1.25).astype(int)]
    d = np.abs(x - y)
    d = np.minimum(d, 20.0 - d)
    shell = shell_measure(1, edges)
    mc = np.empty(len(edges) - 1)
    mc_se = np.empty_like(mc)
    vol_pair = 20.0 ** 2
    for b in range(len(mc)):
        sel = (d >= edges[b]) & (d < edges[b + 1])
        mc[b] = w[sel].sum() / m * vol_pair / (shell[b] * TORUS.volume)
        mc_se[b] = np.sqrt(np.var(w * sel) / m) * vol_pair / (shell[b] * TORUS.volume)
    assert np.all(np.abs(prof - mc) <= 4.0 * mc_se)


def test_pair_weight_coverage_identity():
    # the closed-form cell-pair weights integrate, over all offsets, to the
    # exact pair measure V * shell_measure(bin) of each distance bin
    from kawasaki.estimator import _pc_pair_weights_1d
    for n, edges in ((16, np.linspace(0.0, 10.0, 9)),
                     (37, np.linspace(0.3, 9.7, 12))):
        W = _pc_pair_weights_1d(Torus(1, 20.0), n, edges)
        total = W.sum(axis=0) * n
        expect = shell_measure(1, edges) * 20.0
        assert np.abs(total - expect).max() <= 1e-9 * expect.max()


def test_product_profile_2d_subsample_close_to_constant():
    torus = Torus(2, 10.0)
    field = DensityField.constant(torus, 16, 0.3)
    edges = np.linspace(0.5, 4.5, 9)
    prof, _ = radial_product_profile(field, edges)
    assert np.abs(prof - 0.09).max() <= 0.01 * 0.09


# -- Lebesgue-Poisson exponent ------------------------------------------------------

def lp_exponent(fn, config) -> float:
    """Product of fn over the points of the configuration (empty -> 1)."""
    pos = config.positions if hasattr(config, "positions") else np.asarray(config)
    if pos.size == 0:
        return 1.0
    if pos.ndim == 2 and pos.shape[1] == 1:
        vals = np.asarray(fn(pos[:, 0]), dtype=float)
    else:
        vals = np.asarray(fn(pos), dtype=float)
    return float(np.prod(vals))


def test_lp_exponent_empty_is_one():
    assert lp_exponent(lambda x: x + 2.0, np.zeros((0, 1))) == 1.0


def test_lp_exponent_constant_power():
    pts = np.full((5, 1), 3.0)
    assert lp_exponent(lambda x: np.full_like(x, 2.0), pts) == pytest.approx(32.0)


def test_lp_exponent_log_sum_exp_oracle():
    rng = np.random.default_rng(7)
    pts = rng.random((5, 1)) * 20.0
    fn = lambda x: 0.5 + np.sin(x) ** 2
    direct = lp_exponent(fn, pts)
    via_logs = math.exp(np.sum(np.log(fn(pts[:, 0]))))
    assert direct == pytest.approx(via_logs, rel=1e-12)


# -- sub-Poissonian report -----------------------------------------------------------

def synthetic_estimate(k1_value, k2_value, n_cells=10, n_bins=5):
    est = CorrelationEstimate(torus=TORUS, time=0.0, n_traj=100, mean_count=5.0,
                              n_cells=n_cells)
    est.k1 = np.full(n_cells, k1_value)
    est.k1_se = np.full(n_cells, 0.01)
    est.r_edges = np.linspace(0.0, 5.0, n_bins + 1)
    est.k2 = np.full(n_bins, k2_value)
    est.k2_se = np.full(n_bins, 0.01)
    return est


def test_report_zero_estimate_norm_is_one():
    est = synthetic_estimate(0.0, 0.0)
    rep = sub_poisson_report(est, theta=0.3)
    assert rep.norm_estimate == 1.0


def test_report_theta_shift_scales_components():
    est = synthetic_estimate(3.0, 4.0)
    theta = 0.2
    r0 = sub_poisson_report(est, theta)
    r1 = sub_poisson_report(est, theta + math.log(2.0))
    assert r0.nu1 * math.exp(theta) == pytest.approx(3.0 * math.exp(0.2))
    assert r1.nu1 * math.exp(theta + math.log(2)) == pytest.approx(
        2.0 * r0.nu1 * math.exp(theta))
    assert r1.nu2 * math.exp(2 * (theta + math.log(2))) == pytest.approx(
        4.0 * r0.nu2 * math.exp(2 * theta))


def test_report_poisson_saturates_norm_near_one():
    snaps = poisson_snapshots(0.5, 6000, seed=8)
    edges = np.linspace(0.0, 5.0, 11)
    est = estimate_correlations(snaps, 0.0, 20, edges, torus=TORUS)
    rep = sub_poisson_report(est, theta=-math.log(0.5))
    assert rep.norm_estimate == pytest.approx(1.0, abs=0.12)
    assert rep.factorization_residual <= 3.0 * rep.factorization_se


# -- ensemble statistics ----------------------------------------------------------------

def test_free_dynamics_preserves_poisson_factorization():
    params = SimulationParams(torus=TORUS, kernel=KERNEL, potential=FREE,
                              rho0=0.5, t_end=0.5, snapshot_times=(0.0, 0.5))
    ens = simulate_ensemble(params, 2500, base_seed=13)
    edges = np.linspace(0.0, 5.0, 11)
    for t in (0.0, 0.5):
        est = estimate_correlations(ens, t, 20, edges)
        resid, comb = est.factorization()
        assert np.nanmax(np.abs(resid / comb)) <= 3.0


def test_standard_error_scales_like_root_n():
    edges = np.linspace(0.0, 5.0, 11)
    est_a = estimate_density(poisson_snapshots(0.8, 800, seed=21), 0.0, 20,
                             torus=TORUS)
    est_b = estimate_density(poisson_snapshots(0.8, 1600, seed=22), 0.0, 20,
                             torus=TORUS)
    ratio = np.median(est_a.k1_se) / np.median(est_b.k1_se)
    assert 1.30 <= ratio <= 1.53


def test_csv_and_meta_output(tmp_path):
    snaps = poisson_snapshots(0.5, 50, seed=30)
    edges = np.linspace(0.0, 5.0, 6)
    est = estimate_correlations(snaps, 0.0, 10, edges, torus=TORUS)
    est.write_k1_csv(tmp_path / "k1.csv")
    est.write_k2_csv(tmp_path / "k2.csv")
    est.write_meta_json(tmp_path / "meta.json")
    header = (tmp_path / "k1.csv").read_text().splitlines()[0]
    assert header == "bin_center,value,stderr"
    assert "np.float64" not in (tmp_path / "k2.csv").read_text()


def test_k1_csv_keys_cells_by_row_major_index_in_2d(tmp_path):
    torus = Torus(2, 40.0)
    snaps = poisson_snapshots(0.05, 20, seed=31, torus=torus)
    est = estimate_density(snaps, 0.0, 4, torus=torus)
    est.write_k1_csv(tmp_path / "k1.csv")
    lines = (tmp_path / "k1.csv").read_text().splitlines()
    assert lines[0] == "cell_index,value,stderr"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [str(i) for i in range(16)]
    assert [float(r[1]) for r in rows] == est.k1.ravel().tolist()


# -- estimates folded from chunks ---------------------------------------------------

def pairs_one_each(snaps, torus, r_edges):
    """k2 and k2_se from all-pairs counts, summed one snapshot after another."""
    norm = shell_measure(torus.dim, r_edges) * torus.volume
    total, total_sq = np.zeros(len(norm)), np.zeros(len(norm))
    for pos in snaps:
        v = all_pairs_counts(pos, torus, r_edges) / norm
        total += v
        total_sq += v * v
    t = len(snaps)
    k2 = total / t
    return k2, np.sqrt(np.maximum((total_sq - t * k2 * k2) / (t - 1), 0.0) / t)


UNEVEN = np.array([0, 1, 4, 5, 9, 12])  # chunks of 1, 3, 1, 4 and 3 trajectories


def test_simulate_folds_uneven_chunks_to_the_one_pass_bits(monkeypatch, tmp_path):
    """The CLI estimates from parts that each chunk's worker builds; folded in
    chunk order they give the bits of one pass over every snapshot."""
    from kawasaki import cli, simulator

    n_traj, seed, times = 12, 7, (0.5, 0.2)
    torus = Torus(1, 20.0)
    cfg = {"torus": {"dim": 1, "side": 20.0},
           "kernel": {"family": "top_hat", "radius": 1.0, "height": 1.0, "dim": 1},
           "potential": {"family": "top_hat", "radius": 1.0, "height": 0.5, "dim": 1},
           "rho0": 0.5, "t_end": 0.5, "snapshots": list(times), "n_traj": n_traj,
           "seed": seed, "estimator": {"n_cells": 7, "r_max": 3.3, "n_bins": 9}}
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"subcommand": "simulate", **cfg}))
    # cells of 20/7 and bins of 0.3666..: sums whose bits depend on their order
    monkeypatch.setattr(simulator, "_chunk_bounds", lambda *args: UNEVEN)
    folded = []

    def recording_fold(*args, **kwargs):
        folded.extend(fold(*args, **kwargs))
        return folded

    fold = cli.fold_estimates
    monkeypatch.setattr(cli, "fold_estimates", recording_fold)
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    monkeypatch.undo()

    params = SimulationParams(torus=torus, kernel=KERNEL,
                              potential=PotentialSpec.top_hat(1.0, 0.5, dim=1),
                              rho0=0.5, t_end=0.5, snapshot_times=times)
    ens = simulate_ensemble(params, n_traj, seed)
    edges = np.linspace(0.0, 3.3, 10)
    assert len(folded) == len(times)
    for est, t in zip(folded, times):
        snaps = [traj.snapshot_at(t) for traj in ens]
        k1, k1_se, mean_count = density_one_histogram_each(snaps, torus, 7)
        k2, k2_se = pairs_one_each(snaps, torus, edges)
        assert np.array_equal(est.k1, k1) and np.array_equal(est.k1_se, k1_se)
        assert np.array_equal(est.k2, k2) and np.array_equal(est.k2_se, k2_se)
        assert est.mean_count == mean_count and est.n_traj == n_traj


def test_sweep_folds_uneven_chunks_to_the_one_pass_bits(monkeypatch):
    """`run_sweep` folds the same chunk parts in chunk order: its renormalized
    estimates keep the bits of one pass over the whole ensemble."""
    from kawasaki import simulator

    seed, times = 7, (0.5, 0.2)
    torus = Torus(1, 20.0)
    potential = PotentialSpec.top_hat(1.0, 0.5, dim=1)
    edges = np.linspace(0.0, 3.3, 10)
    spec = SweepSpec(torus=torus, kernel=KERNEL, potential=potential,
                     epsilons=(1.0, 0.5), rho0=0.5, times=times, n_traj_base=12,
                     n_cells=7, r_edges=tuple(edges), base_seed=seed)
    # 12 and 6 trajectories, each cut at the UNEVEN bounds below its count
    monkeypatch.setattr(simulator, "_chunk_bounds", lambda dim, n, n_traj, *args:
                        np.append(UNEVEN[UNEVEN < n_traj], n_traj))
    result = run_sweep(spec)
    monkeypatch.undo()

    rho0 = spec.limit_field()
    for i, eps in enumerate(spec.epsilons):
        n_traj = spec.trajectories_for(i)
        params = SimulationParams(torus=torus, kernel=KERNEL, potential=potential,
                                  epsilon=eps, rho0=rho0.with_values(rho0.values / eps),
                                  t_end=0.5, snapshot_times=times)
        ens = simulate_ensemble(params, n_traj, (seed, i))
        for est, t in zip(result.estimates[i], times):
            snaps = [traj.snapshot_at(t) for traj in ens]
            k1, k1_se, mean_count = density_one_histogram_each(snaps, torus, 7)
            k2, k2_se = pairs_one_each(snaps, torus, edges)
            want = renormalize(CorrelationEstimate(
                torus=torus, time=t, n_traj=n_traj, mean_count=mean_count, n_cells=7,
                k1=k1, k1_se=k1_se, r_edges=edges, k2=k2, k2_se=k2_se), eps)
            assert np.array_equal(est.k1, want.k1) and np.array_equal(est.k1_se, want.k1_se)
            assert np.array_equal(est.k2, want.k2) and np.array_equal(est.k2_se, want.k2_se)
            assert est.mean_count == mean_count and est.n_traj == n_traj
