"""Acceptance suite.

Each test implements one acceptance criterion end to end at its stated
tolerance and runtime budget, and prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).
"""

import math
import time

import numpy as np
import pytest

from kawasaki import (KernelSpec, PotentialSpec,
                      SimulationParams, SweepSpec, Torus, GibbsSampler,
                      alpha, calibrate_activity, contraction_factor,
                      estimate_correlations, estimate_density,
                      estimate_pair_correlation, existence_horizon,
                      find_T_for_q, kinetic_rhs, monitor_bounds, op_norm_bound,
                      picard_solve, run_sweep, simulate_ensemble, solve_kinetic,
                      vlasov_first_order)
from kawasaki import simulator
from kawasaki.fields import DensityField
from reference import Configuration, detailed_balance_residual, total_pair_energy

TORUS20 = Torus(1, 20.0)
TOP_HAT_A = KernelSpec.top_hat(1.0, 1.0, dim=1)  # alpha = 2
TOP_HAT_PHI = PotentialSpec.top_hat(1.0, 0.5, dim=1)
FREE = PotentialSpec.zero(dim=1)


def report(num, desc, ok, detail, elapsed, budget):
    ok = bool(ok) and elapsed <= budget
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    print(line)
    assert ok, line


def test_criterion_01_conservation():
    t0 = time.perf_counter()
    groups = {}  # (i % 2, n) -> initial configurations; FREE for even i
    for i in range(1000):
        rng = np.random.default_rng([1001, i])
        n = 0
        while n == 0:
            n = int(rng.poisson(10.0))
        groups.setdefault((i % 2, n), []).append(rng.random((n, 1)) * 20.0)
    ok, fewest = True, math.inf
    for (odd, n), initials in groups.items():
        pot = TOP_HAT_PHI if odd else FREE
        # 1500 proposals expected per trajectory, so at least 1000 made
        t_end = 1500.0 / (alpha(TOP_HAT_A) * n)
        params = SimulationParams(torus=TORUS20, kernel=TOP_HAT_A, potential=pot,
                                  t_end=t_end, record_events=True,
                                  snapshot_times=tuple(np.linspace(0, t_end, 11)[1:]))
        ens = simulate_ensemble(params, len(initials), base_seed=(1001, odd, n),
                                initials=initials)
        for traj in ens:
            fewest = min(fewest, traj.n_events)
            ok = ok and traj.n_particles == n and len(traj.snapshots) == 10
            for snap in traj.snapshots:
                ok = ok and snap.shape == (n, 1)
                ok = ok and np.count_nonzero((snap >= 0.0) & (snap < 20.0)) == n
    report(1, "particle count conserved over 10^3 trajectories x 10^3 events",
           ok and fewest >= 1000,
           f"exact count at 10 snapshots in {len(groups)} ensembles, "
           f">= {fewest} events per trajectory",
           time.perf_counter() - t0, 30.0)


def kernel_balance_residuals(torus, potential, starts, movers, ys):
    """The detailed-balance identity for the move x_r = starts[r][movers[r]]
    -> ys[r] of every row r, with E(y_r, gamma_r) and E(x_r, gamma_r') read
    from one lockstep cell table of all the rows, before and after the table
    makes the moves; the largest |residual| at one cell and at five."""
    rows, movers, ys = np.arange(len(starts)), np.asarray(movers), np.asarray(ys)
    x = np.array([pos[i] for pos, i in zip(starts, movers)])
    e_pairs = []
    for pos, i, y in zip(starts, movers, ys):
        after = pos.copy()
        after[i] = y
        e_pairs.append(total_pair_energy(pos, torus, potential)
                       - total_pair_energy(after, torus, potential))
    worst = []
    for cells in (1, 5):
        table = simulator._CellTable(torus, potential, cells, starts)
        e_in = table.energies(ys, table.cell(ys))
        table.move(rows, movers, ys, table.cell(ys))
        residual = np.asarray(e_pairs) + e_in - table.energies(x, table.cell(x))
        worst.append(float(np.abs(residual).max()))
    return worst


def test_criterion_02_detailed_balance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7007)
    gauss = PotentialSpec.gaussian(0.6, 0.8, dim=1)
    wide = Torus(1, 30.0)  # room for 5 cells of the Gaussian's support
    assert simulator._cells_per_axis(wide, gauss, 1e9) >= 5
    worst = 0.0
    moves = {TOP_HAT_PHI: [], gauss: []}
    for trial in range(10_000):
        n = int(rng.integers(2, 51))
        pos = rng.random((n, 1)) * 20.0
        pot = TOP_HAT_PHI if trial % 2 == 0 else gauss
        config = Configuration(TORUS20, pos)
        i = int(rng.integers(0, n))
        y = rng.random(1) * 20.0
        worst = max(worst, abs(detailed_balance_residual(config, i, y, pot)))
        moves[pot].append((pos * 1.5, i, y * 1.5))
    worst_one, worst_many = np.max([
        kernel_balance_residuals(wide, pot, *zip(*group))
        for pot, group in moves.items()], axis=0)
    report(2, "detailed-balance identity on 10^4 randomized moves",
           max(worst, worst_one, worst_many) <= 1e-10,
           f"max residual {worst:.2e}, with kernel energies {worst_one:.2e} at one cell "
           f"and {worst_many:.2e} at 5 cells, <= 1e-10",
           time.perf_counter() - t0, 10.0)


def test_criterion_03_kinetic_mass_and_stationarity():
    t0 = time.perf_counter()
    bump = DensityField.from_function(
        TORUS20, 256, lambda x: 0.5 + 0.3 * np.cos(4 * np.pi * x / 20.0))
    traj = solve_kinetic(bump, TOP_HAT_A, TOP_HAT_PHI, dt=1e-3, t_end=5.0)
    drift = float(np.abs(traj.masses - traj.masses[0]).max() / traj.masses[0])
    flat = DensityField.constant(TORUS20, 256, 0.5)
    traj2 = solve_kinetic(flat, TOP_HAT_A, TOP_HAT_PHI, dt=1e-3, t_end=5.0)
    const_drift = float(np.abs(traj2.final.values - 0.5).max())
    ok = drift <= 1e-10 and const_drift <= 1e-10
    report(3, "kinetic mass conservation and homogeneous stationarity", ok,
           f"mass drift {drift:.2e}, constant drift {const_drift:.2e} <= 1e-10",
           time.perf_counter() - t0, 10.0)


def test_criterion_04_bound_monitors_randomized_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    violations = 0
    for case in range(10):
        if case == 7:  # one two-dimensional configuration
            torus = Torus(2, 12.0)
            kernel = KernelSpec.top_hat(1.0, float(rng.uniform(0.5, 1.5)), dim=2)
            pot = PotentialSpec.top_hat(1.0, float(rng.uniform(0.2, 1.0)), dim=2)
            c = float(rng.uniform(0.3, 0.8))
            amp = 0.8 * c
            rho0 = DensityField.from_function(
                torus, 32, lambda p: c + amp * np.sin(2 * np.pi * p[..., 0] / 12.0)
                * np.cos(2 * np.pi * p[..., 1] / 12.0))
        else:
            torus = TORUS20
            fam = case % 3
            h = float(rng.uniform(0.3, 1.5))
            if fam == 0:
                kernel = KernelSpec.top_hat(float(rng.uniform(0.5, 2.0)), h, dim=1)
            elif fam == 1:
                kernel = KernelSpec.gaussian(float(rng.uniform(0.3, 1.0)), h, dim=1)
            else:
                kernel = KernelSpec.exponential(float(rng.uniform(3.0, 5.0)), h, dim=1)
            if case == 9:
                pot = PotentialSpec.local(float(rng.uniform(0.2, 1.0)), dim=1)
            elif case % 2 == 0:
                pot = PotentialSpec.top_hat(float(rng.uniform(0.5, 1.5)),
                                            float(rng.uniform(0.1, 1.0)), dim=1)
            else:
                pot = PotentialSpec.gaussian(float(rng.uniform(0.3, 0.8)),
                                             float(rng.uniform(0.1, 1.0)), dim=1)
            c = float(rng.uniform(0.3, 1.0))
            k1, k2 = rng.integers(1, 4), rng.integers(1, 4)
            a1, a2 = 0.5 * c * rng.random(), 0.4 * c * rng.random()
            rho0 = DensityField.from_function(
                torus, 64, lambda x: c + a1 * np.cos(2 * np.pi * k1 * x / 20.0)
                + a2 * np.sin(2 * np.pi * k2 * x / 20.0))
        a = kernel.integral
        traj = solve_kinetic(rho0, kernel, pot, dt=0.02 / a, t_end=1.0 / a)
        rep = monitor_bounds(traj)
        violations += len(rep.violations)
    report(4, "growth/invariant-region/positivity monitors on 10 random runs",
           violations == 0, f"{violations} violations",
           time.perf_counter() - t0, 60.0)


def test_criterion_05_picard_certification():
    t0 = time.perf_counter()
    T = find_T_for_q(0.5, u0=1.0, alpha=1.0, mean_phi=1.0)
    q_at_T = contraction_factor(1.0, 1.0, 1.0, T)
    torus = Torus(1, 10.0)
    kernel = KernelSpec.top_hat(0.5, 1.0, dim=1)       # alpha = 1
    pot = PotentialSpec.top_hat(0.5, 1.0, dim=1)       # <phi> = 1
    rho0 = DensityField.from_function(
        torus, 64, lambda x: 0.5 + 0.5 * np.cos(2 * np.pi * x / 10.0))  # sup ~ 1
    res = picard_solve(rho0, T, kernel, pot, tolerance=1e-12, dt=2e-4)
    rk = solve_kinetic(rho0, kernel, pot, dt=2e-4, t_end=T)
    gap = float(np.abs(res.final.values - rk.final.values).max())
    worst_ratio = max(res.ratios) if res.ratios else 0.0
    ok = (abs(q_at_T - 0.5) <= 1e-10 and worst_ratio <= 0.55 and gap <= 1e-6)
    report(5, "Picard contraction certified at q(T)=0.5", ok,
           f"T={T:.5f}, max ratio {worst_ratio:.3f} <= 0.55, "
           f"RK4 gap {gap:.1e} <= 1e-6",
           time.perf_counter() - t0, 60.0)


def test_criterion_06_chaos_propagation_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    pots = [TOP_HAT_PHI, PotentialSpec.gaussian(0.5, 0.8, dim=1),
            PotentialSpec.exponential(3.0, 1.2, dim=1),
            PotentialSpec.local(0.7, dim=1)]
    worst = 0.0
    for trial in range(100):
        rho = DensityField(TORUS20, 1.2 * rng.random(32))
        pot = pots[trial % len(pots)]
        gap = np.abs(kinetic_rhs(rho, TOP_HAT_A, pot)
                     - vlasov_first_order(rho, TOP_HAT_A, pot)).max()
        worst = max(worst, float(gap))
    report(6, "first-order hierarchy action equals kinetic rhs (100 fields)",
           worst <= 1e-10, f"max gap {worst:.2e} <= 1e-10",
           time.perf_counter() - t0, 5.0)


def test_criterion_07_horizon_formulas():
    t0 = time.perf_counter()
    # oracle values evaluated from the closed forms at high precision:
    # T = (1/2) exp(-e), the two-space norm bound collapses to 2, and
    # q(0.01) = 2 (1 - e^{-0.01}) (1 + exp(0.01 + 2 e^{0.01}))
    T = existence_horizon(0.0, -1.0, 1.0, 1.0)
    ok_T = abs(T - 0.032994017922656254) <= 1e-6
    bound = op_norm_bound(0.0, -1.0, 1.0, 1.0)
    ok_bound = abs(bound - 2.0) <= 1e-14
    q = contraction_factor(1.0, 1.0, 1.0, 0.01)
    ok_q = abs(q - 0.171439) <= 1e-5
    report(7, "horizon closed forms (lifetime, norm bound, contraction)",
           ok_T and ok_bound and ok_q,
           f"T={T:.9f}, bound={bound!r}, q={q:.6f}",
           time.perf_counter() - t0, 1.0)


def test_criterion_08_free_case_mean_field_exactness():
    t0 = time.perf_counter()
    L, x0 = 20.0, 10.0
    # rho0 = 0.5 + 0.3 * bump with bump = cos^2(pi (x - x0) / L): one Fourier mode
    rho0 = DensityField.from_function(
        TORUS20, 1000,
        lambda x: 0.5 + 0.3 * np.cos(np.pi * (x - x0) / L) ** 2)
    params = SimulationParams(torus=TORUS20, kernel=TOP_HAT_A, potential=FREE,
                              rho0=rho0, t_end=1.0, snapshot_times=(0.5, 1.0),
                              record_events=False)
    ens = simulate_ensemble(params, 2000, base_seed=88)
    n_bins = 25
    edges = np.linspace(0.0, L, n_bins + 1)
    xi = 2 * np.pi / L
    lam = 2.0 - 2.0 * np.sin(xi) / xi  # spectral gap of the unit top hat

    def ref_bin_avg(t):
        amp = 0.15 * math.exp(-lam * t)
        a, b = edges[:-1], edges[1:]
        integ = (np.sin(xi * (b - x0)) - np.sin(xi * (a - x0))) / xi
        return 0.65 + amp * integ / (b - a)

    worst = 0.0
    for t in (0.5, 1.0):
        est = estimate_density(ens, t, n_bins)
        z = np.abs(est.k1 - ref_bin_avg(t)) / est.k1_se
        worst = max(worst, float(z.max()))
    report(8, "free dynamics matches the linear kinetic solution", worst <= 3.0,
           f"sup-bin |z| = {worst:.2f} <= 3", time.perf_counter() - t0, 300.0)


def test_criterion_09_scaling_convergence():
    t0 = time.perf_counter()
    kernel = KernelSpec.top_hat(2.0, 1.0, dim=1)
    pot = PotentialSpec.top_hat(1.0, 3.0, dim=1)
    rho0 = DensityField.from_function(
        TORUS20, 32, lambda x: 0.7 + 0.35 * np.cos(6 * np.pi * x / 20.0))
    spec = SweepSpec(torus=TORUS20, kernel=kernel, potential=pot,
                     epsilons=(1.0, 0.5, 0.25), rho0=rho0, times=(1.0,),
                     n_traj_base=8000, n_cells=32,
                     r_edges=tuple(np.linspace(0.0, 5.0, 21)),
                     budget_max_particles=1e4, base_seed=31)
    assert max(rho0.mass / e for e in spec.epsilons) <= 1e4
    res = run_sweep(spec)
    e1 = res.e1[:, 0]
    ok = bool(res.monotone_within_noise[1.0]) and e1[2] < e1[0] / 1.5
    # pair level: non-increasing within two combined standard errors
    for i in range(2):
        slack = 2.0 * math.hypot(res.e2_se[i, 0], res.e2_se[i + 1, 0])
        ok = ok and res.e2[i + 1, 0] <= res.e2[i, 0] + slack
    # the fitted log-log slope must be positive at 95% confidence
    from kawasaki import convergence_report
    slope, slope_se = convergence_report(res).slopes[1.0]
    ok = ok and slope - 1.96 * slope_se > 0.0
    report(9, "mean-field convergence over the eps ladder {1, 1/2, 1/4}", ok,
           f"e1 = {np.round(e1, 4).tolist()}, e1(1/4) < e1(1)/1.5, "
           f"e2 = {np.round(res.e2[:, 0], 4).tolist()}, "
           f"slope = {slope:.2f} +- {slope_se:.2f}",
           time.perf_counter() - t0, 1200.0)


def test_criterion_10_rk4_self_convergence_order():
    t0 = time.perf_counter()
    torus = Torus(1, 10.0)
    kernel = KernelSpec.top_hat(0.5, 50.0, dim=1)  # alpha = 50, guard = 2e-3
    pot = PotentialSpec.top_hat(0.5, 0.8, dim=1)
    rho0 = DensityField.from_function(
        torus, 64, lambda x: 0.8 + 0.5 * np.cos(6 * np.pi * x / 10.0)
        + 0.3 * np.sin(2 * np.pi * x / 10.0))

    def final(dt):
        return solve_kinetic(rho0, kernel, pot, dt=dt, t_end=0.2).final.values

    sols = {dt: final(dt) for dt in (2e-3, 1e-3, 5e-4, 2.5e-4)}
    e_coarse = float(np.abs(sols[2e-3] - sols[1e-3]).max())
    e_mid = float(np.abs(sols[1e-3] - sols[5e-4]).max())
    e_fine = float(np.abs(sols[5e-4] - sols[2.5e-4]).max())
    p1 = math.log2(e_coarse / e_mid)
    p2 = math.log2(e_mid / e_fine)
    report(10, "RK4 self-convergence order on dt in {2e-3, 1e-3, 5e-4}",
           p1 >= 3.5 and p2 >= 3.5,
           f"observed orders {p1:.2f}, {p2:.2f} >= 3.5",
           time.perf_counter() - t0, 30.0)


def test_criterion_11_poisson_factorization():
    t0 = time.perf_counter()
    params = SimulationParams(torus=TORUS20, kernel=TOP_HAT_A, potential=FREE,
                              rho0=0.5, t_end=0.5, snapshot_times=(0.0, 0.5),
                              record_events=False)
    ens = simulate_ensemble(params, 3000, base_seed=17)
    edges = np.linspace(0.0, 5.0, 11)
    worst = 0.0
    for t in (0.0, 0.5):  # t = 0 and t = 1/alpha
        est = estimate_correlations(ens, t, 20, edges)
        resid, comb = est.factorization()
        worst = max(worst, float(np.nanmax(np.abs(resid / comb))))
    report(11, "Poisson factorization at t=0 and free dynamics at t=1/alpha",
           worst <= 3.0, f"max |residual|/se = {worst:.2f} <= 3",
           time.perf_counter() - t0, 300.0)


def test_criterion_12_equilibrium_stationarity():
    t0 = time.perf_counter()
    torus = Torus(1, 100.0)
    kernel = TOP_HAT_A  # alpha = 2
    pot = PotentialSpec.top_hat(1.0, 0.7, dim=1)
    rng = np.random.default_rng(2024)
    z = calibrate_activity(torus, pot, 200.0, rng)
    chain = GibbsSampler(torus, pot, z, rng, initial_count=200)
    initials = chain.sample(300, thin_moves=2000, burn_in_moves=20_000)
    mean_n = float(np.mean([p.shape[0] for p in initials]))
    t_end = 5.0 / 2.0  # five kernel times
    params = SimulationParams(torus=torus, kernel=kernel, potential=pot,
                              rho0=2.0, t_end=t_end, snapshot_times=(t_end,),
                              record_events=False)
    finals = [traj.snapshots[0] for traj in
              simulate_ensemble(params, len(initials), 99, initials=initials)]
    edges = np.linspace(0.0, 5.0, 26)
    est0 = estimate_pair_correlation(initials, 0.0, edges, torus=torus)
    est1 = estimate_pair_correlation(finals, 0.0, edges, torus=torus)
    z_scores = (est1.k2 - est0.k2) / np.hypot(est0.k2_se, est1.k2_se)
    frac = float(np.mean(np.abs(z_scores) <= 3.0))
    ok = frac >= 0.8 and abs(mean_n - 200.0) <= 20.0
    report(12, "Gibbs pair correlation preserved by the hop dynamics", ok,
           f"{100 * frac:.0f}% of bins within 3 sigma (need >= 80%), "
           f"mean N = {mean_n:.0f}",
           time.perf_counter() - t0, 600.0)
