import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from kawasaki import (ConfigError, GeometryError, HorizonError, KernelSpec,
                      NumericError, PotentialSpec, StepSizeError, Torus, alpha,
                      contraction_factor, find_T_for_q, kinetic_rhs,
                      mean_phi, monitor_bounds, picard_solve, solve_kinetic,
                      vlasov_first_order)
from kawasaki import kinetic
from kawasaki.fields import DensityField
from kawasaki.kinetic import check_dt, snapshot_steps, tabulate

TORUS = Torus(1, 20.0)
KERNEL = KernelSpec.top_hat(1.0, 1.0, dim=1)  # alpha = 2
POT = PotentialSpec.top_hat(1.0, 0.5, dim=1)
FREE = PotentialSpec.zero(dim=1)


def convolve(rho, spec):
    """Periodic convolution of a density field with a kernel or potential spec."""
    return tabulate(spec, rho.torus, rho.n_cells).convolve(rho.values)


def reference_tabulation(spec, torus, n):
    """Independent reimplementation of the grid tabulation contract."""
    h = torus.side / n
    offs = (np.arange(n) * h + torus.side / 2) % torus.side - torus.side / 2
    vals = np.array([float(spec.radial(abs(o))) for o in offs])
    vals[np.abs(offs) > spec.support_radius] = 0.0
    s = vals.sum() * h
    if s > 0:
        vals *= spec.integral / s
    return vals


def rhs_brute(values, torus, kernel, potential):
    """O(n^2) direct evaluation of the kinetic right-hand side."""
    n = len(values)
    h = torus.side / n
    a = reference_tabulation(kernel, torus, n)
    w = np.zeros(n)
    if potential.family == "local":
        w = potential.kappa * values
    else:
        p = reference_tabulation(potential, torus, n)
        for i in range(n):
            w[i] = sum(p[(i - j) % n] * values[j] for j in range(n)) * h
    g = np.exp(-w)
    out = np.zeros(n)
    for i in range(n):
        conv_rho = sum(a[(i - j) % n] * values[j] for j in range(n)) * h
        conv_g = sum(a[(i - j) % n] * g[j] for j in range(n)) * h
        out[i] = conv_rho * g[i] - values[i] * conv_g
    return out


def bump_field(n=64, base=0.5, amp=0.3, mode=1, torus=TORUS):
    return DensityField.from_function(
        torus, n, lambda x: base + amp * np.cos(2 * np.pi * mode * x / torus.side))


# -- convolution ---------------------------------------------------------------

def test_convolve_constant_gives_alpha_times_c():
    rho = DensityField.constant(TORUS, 64, 0.7)
    out = convolve(rho, KERNEL)
    assert np.abs(out - 2.0 * 0.7).max() <= 1e-12


def test_tabulation_discrete_mass_is_exact():
    for spec in (KERNEL, POT, KernelSpec.gaussian(0.8, 1.3, dim=1)):
        for n in (48, 64, 100):
            tab = tabulate(spec, TORUS, n)
            assert tab.values.sum() * tab.cell_volume == pytest.approx(
                spec.integral, rel=1e-12)


def test_convolve_impulse_reproduces_kernel_samples():
    n = 32
    vals = np.zeros(n)
    h = TORUS.side / n
    j = 5
    vals[j] = 1.0 / h
    rho = DensityField(TORUS, vals)
    out = convolve(rho, KERNEL)
    tab = tabulate(KERNEL, TORUS, n).values
    assert np.abs(out - np.roll(tab, j)).max() <= 1e-12


def direct(rho, spec):
    """Minimal-image summation, the route `vlasov_first_order` takes."""
    return kinetic._convolve_direct(tabulate(spec, rho.torus, rho.n_cells), rho.values)


def test_convolve_spectral_vs_direct():
    rng = np.random.default_rng(1)
    rho = DensityField(TORUS, rng.random(64))
    a = convolve(rho, KERNEL)
    b = direct(rho, KERNEL)
    assert np.abs(a - b).max() <= 1e-10


def test_convolve_fft_matches_direct_on_any_grid():
    # pocketfft covers every n (97 is prime, so Bluestein's chirp-z transform)
    rng = np.random.default_rng(2)
    cases = [(TORUS, KERNEL, n) for n in (48, 97, 250, 1000)]
    cases.append((Torus(2, 12.0), KernelSpec.top_hat(1.0, 0.5, dim=2), 30))
    for torus, kernel, n in cases:
        rho = DensityField(torus, rng.random((n,) * torus.dim))
        assert np.abs(convolve(rho, kernel) - direct(rho, kernel)).max() <= 1e-14


def test_convolve_kernel_radius_at_half_side_rejected():
    wide = KernelSpec.top_hat(10.0, 1.0, dim=1)
    rho = DensityField.constant(TORUS, 32, 1.0)
    with pytest.raises(GeometryError):
        convolve(rho, wide)


def test_convolve_2d_constant():
    torus = Torus(2, 12.0)
    k = KernelSpec.top_hat(1.0, 0.5, dim=2)
    rho = DensityField.constant(torus, 16, 2.0)
    out = convolve(rho, k)
    assert np.abs(out - 0.5 * math.pi * 2.0).max() <= 1e-12


def test_convolve_time_stacked_axis():
    # the solver convolves whole time stacks at once; each slab must match
    # the slab-by-slab result exactly
    rng = np.random.default_rng(9)
    stack = rng.random((5, 64))
    tab = tabulate(KERNEL, TORUS, 64)
    batched = tab.convolve(stack)
    for k in range(5):
        single = tab.convolve(stack[k])
        assert np.abs(batched[k] - single).max() <= 1e-13


# -- right-hand side ------------------------------------------------------------

def test_rhs_constant_is_zero():
    rho = DensityField.constant(TORUS, 64, 0.9)
    assert np.abs(kinetic_rhs(rho, KERNEL, POT)).max() <= 1e-13


def test_rhs_free_case_linear():
    rho = bump_field()
    out = kinetic_rhs(rho, KERNEL, FREE)
    linear = convolve(rho, KERNEL) - 2.0 * rho.values
    assert np.abs(out - linear).max() <= 1e-13


def test_rhs_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    rho = DensityField(TORUS, 0.4 + 0.5 * rng.random(32))
    out = kinetic_rhs(rho, KERNEL, POT)
    ref = rhs_brute(rho.values, TORUS, KERNEL, POT)
    assert np.abs(out - ref).max() <= 1e-10


def test_rhs_local_mode_pointwise():
    rng = np.random.default_rng(4)
    rho = DensityField(TORUS, 0.4 + 0.5 * rng.random(32))
    local = PotentialSpec.local(0.8, dim=1)
    out = kinetic_rhs(rho, KERNEL, local)
    w = 0.8 * rho.values
    expect = convolve(rho, KERNEL) * np.exp(-w) - rho.values * convolve(
        rho.with_values(np.exp(-w)), KERNEL)
    assert np.abs(out - expect).max() <= 1e-12


# -- shared transforms against the three-convolution references -------------------

def reference_convolve(tab, values):
    """The one-spectrum FFT convolution every RHS term used to make on its own."""
    d = tab.torus.dim
    axes = tuple(range(values.ndim - d, values.ndim))
    out = np.fft.irfftn(np.fft.rfftn(values, axes=axes) * np.fft.rfftn(tab.values),
                        axes=axes, s=(tab.n,) * d)
    return out * tab.cell_volume


def reference_rhs(values, tab_a, tab_phi, kappa):
    """The RHS as three separate convolutions, each with its own transforms."""
    w = kappa * values if kappa is not None else reference_convolve(tab_phi, values)
    g = np.exp(-w)
    return reference_convolve(tab_a, values) * g - values * reference_convolve(tab_a, g)


def reference_picard_fields(rho0, T, kernel, potential, tolerance, dt):
    """The Picard iteration with the three-convolution integrand."""
    a = kinetic.kernel_alpha(kernel)
    tab_a, tab_phi, kappa = reference_tabs(rho0, kernel, potential)
    n_steps = max(1, int(round(T / dt)))
    dt = T / n_steps
    times = np.arange(n_steps + 1) * dt
    shape = rho0.values.shape
    cur = np.broadcast_to(rho0.values, (n_steps + 1,) + shape).copy()
    base = rho0.values[None] * np.exp(-a * times).reshape((-1,) + (1,) * len(shape))
    for _ in range(200):
        w = kappa * cur if kappa is not None else reference_convolve(tab_phi, cur)
        g = np.exp(-w)
        integrand = (reference_convolve(tab_a, cur) * g
                     + cur * reference_convolve(tab_a, 1.0 - g))
        nxt = np.empty_like(cur)
        nxt[0] = rho0.values
        acc = np.zeros(shape)
        decay_dt = math.exp(-a * dt)
        for k in range(1, n_steps + 1):
            acc = decay_dt * (acc + 0.5 * dt * integrand[k - 1]) + 0.5 * dt * integrand[k]
            nxt[k] = base[k] + acc
        delta = float(np.max(np.abs(nxt - cur)))
        cur = nxt
        if delta < tolerance:
            break
    return cur


def reference_tabs(rho, kernel, potential):
    tab_a = tabulate(kernel, rho.torus, rho.n_cells)
    if potential.family == "local":
        return tab_a, None, potential.kappa
    return tab_a, tabulate(potential, rho.torus, rho.n_cells), None


TORUS2 = Torus(2, 12.0)
SHARED_CASES = {
    f"{dim}d-{name}": (torus, n, KernelSpec.top_hat(1.0, 0.5, dim=dim), pot)
    for dim, torus, n in ((1, TORUS, 64), (2, TORUS2, 16))
    for name, pot in (("top_hat", PotentialSpec.top_hat(1.0, 0.5, dim=dim)),
                      ("gaussian", PotentialSpec.gaussian(0.6, 0.8, dim=dim)),
                      ("local", PotentialSpec.local(0.8, dim=dim)))
}


def shared_case_field(torus, n):
    rng = np.random.default_rng(11)
    return DensityField(torus, 0.3 + 0.5 * rng.random((n,) * torus.dim))


@pytest.mark.parametrize("case", SHARED_CASES.values(), ids=SHARED_CASES.keys())
def test_shared_transforms_bit_identical_to_three_convolutions(case):
    torus, n, kernel, pot = case
    rho = shared_case_field(torus, n)
    tabs = reference_tabs(rho, kernel, pot)
    assert np.array_equal(kinetic_rhs(rho, kernel, pot), reference_rhs(rho.values, *tabs))

    dt = 0.01
    v = rho.values
    k1 = reference_rhs(v, *tabs)
    k2 = reference_rhs(v + 0.5 * dt * k1, *tabs)
    k3 = reference_rhs(v + 0.5 * dt * k2, *tabs)
    k4 = reference_rhs(v + dt * k3, *tabs)
    step = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert step.min() >= 0.0  # no clamping on this step
    assert np.array_equal(solve_kinetic(rho, kernel, pot, dt=dt, t_end=dt).final.values,
                          step)

    res = picard_solve(rho, 0.005, kernel, pot, tolerance=1e-12, dt=5e-4)
    ref = reference_picard_fields(rho, 0.005, kernel, pot, tolerance=1e-12, dt=5e-4)
    assert np.array_equal(res.fields, ref)


def test_potentials_sharing_a_kernel_keep_their_own_spectra():
    # one tabulated kernel serves both potentials; each solve must pair it
    # with its own phi^, in either order
    rho = shared_case_field(TORUS, 64)
    kernel = KernelSpec.top_hat(1.0, 0.5, dim=1)
    pots = [PotentialSpec.top_hat(1.0, 0.5, dim=1), PotentialSpec.gaussian(0.6, 0.8, dim=1)]
    for pot in pots + pots[::-1]:
        tabs = reference_tabs(rho, kernel, pot)
        assert np.array_equal(kinetic_rhs(rho, kernel, pot),
                              reference_rhs(rho.values, *tabs))
        assert np.abs(kinetic_rhs(rho, kernel, pot)
                      - vlasov_first_order(rho, kernel, pot)).max() <= 1e-10
        res = picard_solve(rho, 0.005, kernel, pot, tolerance=1e-12, dt=5e-4)
        assert np.array_equal(res.fields, reference_picard_fields(
            rho, 0.005, kernel, pot, tolerance=1e-12, dt=5e-4))


def test_import_loads_no_heavy_scipy_and_resets_gc_counters():
    # every run pays its imports: scipy.signal alone takes ~0.36 s and ~23 MB,
    # and integrate/optimize/fft ~14 MB; kawasaki needs only scipy.spatial.
    # Counters left near their thresholds turn a run's first young-generation
    # collection into a full one.
    src = os.path.dirname(os.path.dirname(os.path.abspath(kinetic.__file__)))
    code = ("import gc, sys, kawasaki\n"
            "counts = gc.get_count()\n"
            "import kawasaki.cli\n"
            "heavy = ('scipy.integrate', 'scipy.optimize', 'scipy.fft', 'scipy.signal')\n"
            "print([m for m in heavy if m in sys.modules], counts[1:])")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[] (0, 0)"


PICARD_BLOCK_CASES = {
    "1d-top_hat": (TORUS, 4096, PotentialSpec.top_hat(1.0, 0.5, dim=1)),
    "1d-local": (TORUS, 4096, PotentialSpec.local(0.8, dim=1)),
    "2d-gaussian": (TORUS2, 64, PotentialSpec.gaussian(0.6, 0.8, dim=2)),
}


@pytest.mark.parametrize("case", PICARD_BLOCK_CASES.values(), ids=PICARD_BLOCK_CASES.keys())
def test_picard_blocks_bit_identical_to_whole_stack(case):
    # 4096 cells make 8-row blocks, so the 21 time rows span two blocks and a
    # remainder; the reference builds the integrand over the whole stack
    torus, n, pot = case
    assert kinetic._BLOCK_CELLS // n ** torus.dim == 8
    rho = shared_case_field(torus, n)
    kernel = KernelSpec.top_hat(1.0, 0.5, dim=torus.dim)
    res = picard_solve(rho, 0.005, kernel, pot, tolerance=1e-12, dt=2.5e-4)
    assert res.fields.shape[0] == 21
    assert np.array_equal(res.fields, reference_picard_fields(
        rho, 0.005, kernel, pot, tolerance=1e-12, dt=2.5e-4))


def test_picard_nan_in_a_later_block_reaches_the_update_size(monkeypatch):
    # a NaN in the second of the 8-row blocks of every sweep must make every
    # update size NaN, as a max over the whole stack does, so a NaN iterate
    # can never pass for a converged one
    built, sizes = kinetic._picard_integrand, []

    def with_nan(values, *args):
        out = built(values, *args)
        sizes.append(len(out))
        if len(sizes) % 3 == 2:
            out[3, 17] = math.nan
        return out

    monkeypatch.setattr(kinetic, "_picard_integrand", with_nan)
    rho = shared_case_field(TORUS, 4096)
    kernel = KernelSpec.top_hat(1.0, 0.5, dim=1)
    with pytest.raises(NumericError) as err:
        picard_solve(rho, 0.005, kernel, PotentialSpec.gaussian(0.6, 0.8, dim=1),
                     dt=2.5e-4, max_iter=3)
    assert sizes == [8, 8, 5] * 3
    assert len(err.value.deltas) == 3 and all(math.isnan(d) for d in err.value.deltas)


def test_picard_sweep_holds_one_time_stack():
    # the benchmark's 1024-cell x 800-step window: each sweep updates its one
    # (n_steps + 1, grid) stack in place, so the traced peak stays below two
    rho = DensityField.from_function(
        TORUS, 1024, lambda x: 0.55 + 0.45 * np.cos(2 * np.pi * x / 20.0))
    kernel = KernelSpec.top_hat(0.5, 1.0, dim=1)
    pot = PotentialSpec.top_hat(0.5, 1.0, dim=1)
    T = find_T_for_q(0.5, rho.sup, alpha(kernel), mean_phi(pot))
    tracemalloc.start()
    try:
        res = picard_solve(rho, T, kernel, pot, tolerance=1e-12, dt=T / 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.fields.shape == (801, 1024) and res.iterations > 2
    assert peak < 2 * res.fields.nbytes, (peak, res.fields.nbytes)


def test_kinetic_equation_demo_runs(tmp_path):
    # the one demo that calls picard_solve; its fixed point must meet RK4
    src = os.path.dirname(os.path.dirname(os.path.abspath(kinetic.__file__)))
    demo = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "demos", "02_kinetic_equation.py")
    run = subprocess.run([sys.executable, demo], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    gap = re.search(r"fixed point vs RK4 sup-norm gap: (\S+)", run.stdout)
    assert gap is not None, run.stdout
    assert float(gap.group(1)) < 1e-9


def test_tabulate_cache_is_bounded_and_shared():
    assert tabulate(KERNEL, TORUS, 40) is tabulate(KERNEL, TORUS, 40)
    assert tabulate(KERNEL, TORUS, 40) is not tabulate(KERNEL, TORUS, 41)
    assert 0 < tabulate.cache_info().maxsize < math.inf


# -- chaos-propagation identity ----------------------------------------------------

def test_vlasov_first_order_constant_zero():
    rho = DensityField.constant(TORUS, 32, 0.6)
    assert np.abs(vlasov_first_order(rho, KERNEL, POT)).max() <= 1e-13


def test_vlasov_first_order_free_case():
    rho = bump_field(n=32)
    out = vlasov_first_order(rho, KERNEL, FREE)
    linear = direct(rho, KERNEL) - 2.0 * rho.values
    assert np.abs(out - linear).max() <= 1e-12


def test_vlasov_first_order_equals_rhs_on_random_fields():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = DensityField(TORUS, rng.random(32))
        a = kinetic_rhs(rho, KERNEL, POT)
        b = vlasov_first_order(rho, KERNEL, POT)
        assert np.abs(a - b).max() <= 1e-10


# -- RK4 stepping -------------------------------------------------------------------

def test_rk4_constant_fixed_point():
    rho = DensityField.constant(TORUS, 64, 0.8)
    out = solve_kinetic(rho, KERNEL, POT, dt=1e-3, t_end=1e-3).final
    assert np.abs(out.values - 0.8).max() <= 1e-14


def test_rk4_huge_dt_raises_step_size_error(monkeypatch):
    # the stability guard rejects dt = 2 outright; with the guard bypassed,
    # the negativity check inside the march must still stop the run
    monkeypatch.setattr(kinetic, "check_dt", lambda dt, alpha: None)
    rho = bump_field(n=32, base=0.2, amp=0.19, mode=5)
    with pytest.raises(StepSizeError):
        solve_kinetic(rho, KERNEL, FREE, dt=2.0, t_end=400.0)


def test_rk4_fourier_mode_decay_matches_discrete_symbol():
    # free dynamics diagonalizes over modes of the tabulated kernel; RK4 time
    # integration must track the exact exponential of the semi-discrete system
    n, mode, c, delta = 256, 3, 0.5, 0.2
    rho = bump_field(n=n, base=c, amp=delta, mode=mode)
    tab = tabulate(KERNEL, TORUS, n)
    symbol = np.fft.fft(tab.values)[mode].real * tab.cell_volume
    lam = 2.0 - symbol
    # sanity: the discrete symbol approximates the continuum transform
    # (an O(h) edge-cell effect for the sharp cutoff kernel)
    xi = 2 * np.pi * mode / TORUS.side
    assert symbol == pytest.approx(2 * np.sin(xi) / xi, abs=0.05)
    traj = solve_kinetic(rho, KERNEL, FREE, dt=1e-3, t_end=1.0)
    amp0 = np.abs(np.fft.fft(rho.values)[mode]) * 2.0 / n
    amp = np.abs(np.fft.fft(traj.final.values)[mode]) * 2.0 / n
    assert amp == pytest.approx(amp0 * math.exp(-lam), abs=1e-6)
    # the free flow is diagonal: no other mode is excited
    spectrum = np.abs(np.fft.fft(traj.final.values)) * 2.0 / n
    spectrum[[0, mode, n - mode]] = 0.0
    assert spectrum.max() <= 1e-12


def test_rk4_self_convergence_order():
    kernel = KernelSpec.top_hat(0.5, 50.0, dim=1)  # alpha = 50
    pot = PotentialSpec.top_hat(0.5, 0.8, dim=1)
    torus = Torus(1, 10.0)
    rho = DensityField.from_function(
        torus, 64, lambda x: 0.8 + 0.5 * np.cos(6 * np.pi * x / 10.0)
        + 0.3 * np.sin(2 * np.pi * x / 10.0))

    def final(dt):
        return solve_kinetic(rho, kernel, pot, dt=dt, t_end=0.2).final.values

    sols = {dt: final(dt) for dt in (2e-3, 1e-3, 5e-4, 2.5e-4)}
    e_coarse = np.abs(sols[2e-3] - sols[1e-3]).max()
    e_mid = np.abs(sols[1e-3] - sols[5e-4]).max()
    e_fine = np.abs(sols[5e-4] - sols[2.5e-4]).max()
    assert math.log2(e_coarse / e_mid) >= 3.5
    assert math.log2(e_mid / e_fine) >= 3.5


def test_dt_stability_guard():
    for dt in (0.1, 0.0, -0.01):  # alpha = 2: the guard is 0 < dt <= 0.05
        with pytest.raises(ConfigError):
            check_dt(dt, 2.0)
    check_dt(0.05, 2.0)
    check_dt(0.05 * (1 + 1e-13), 2.0)  # round-off at the boundary passes
    rho = DensityField.constant(TORUS, 16, 0.5)
    with pytest.raises(ConfigError):
        solve_kinetic(rho, KERNEL, POT, dt=0.1, t_end=1.0)


def test_snapshot_steps_grid_rule():
    # t_end = 1, dt = 0.3 gives 3 steps of 1/3
    assert snapshot_steps([0.0, 1 / 3, 2 / 3 + 5e-10, 1.0], 1.0, 0.3) == [0, 1, 2, 3]
    assert snapshot_steps([0.0], 0.0, 0.1) == [0]
    for s in (0.5, 4 / 3, -1 / 3, math.nan, math.inf, -math.inf, 1e300):
        with pytest.raises(ConfigError):
            snapshot_steps([s], 1.0, 0.3)
    for t_end in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="t_end must be finite"):
            snapshot_steps([], t_end, 0.3)


# -- conservation and monitors --------------------------------------------------------

def test_mass_conservation_and_homogeneous_stationarity():
    bump = bump_field(n=128, base=0.6, amp=0.3, mode=2)
    traj = solve_kinetic(bump, KERNEL, POT, dt=2e-3, t_end=2.0)
    drift = np.abs(traj.masses - traj.masses[0]).max() / traj.masses[0]
    assert drift <= 1e-10
    flat = DensityField.constant(TORUS, 128, 0.6)
    traj2 = solve_kinetic(flat, KERNEL, POT, dt=2e-3, t_end=2.0)
    assert np.abs(traj2.final.values - 0.6).max() <= 1e-10


def test_positivity_along_trajectories():
    rng = np.random.default_rng(6)
    rho = DensityField(TORUS, 0.05 + rng.random(64))
    traj = solve_kinetic(rho, KERNEL, POT, dt=5e-3, t_end=1.0)
    assert traj.min_pre_clamp.min() >= -1e-13


def test_monitor_bounds_free_constant_trivial():
    flat = DensityField.constant(TORUS, 32, 0.5)
    traj = solve_kinetic(flat, KERNEL, FREE, dt=5e-3, t_end=1.0)
    rep = monitor_bounds(traj)
    assert rep.ok
    assert rep.violations == []
    assert np.abs(traj.sup_norms - 0.5).max() <= 1e-14


def test_monitor_bounds_gaussian_bump():
    kernel = KernelSpec.top_hat(1.0, 0.5, dim=1)  # alpha = 1
    rho = DensityField.from_function(
        TORUS, 64, lambda x: 0.7 * np.exp(-0.5 * (x - 10.0) ** 2))
    traj = solve_kinetic(rho, kernel, POT, dt=5e-3, t_end=1.0)
    rep = monitor_bounds(traj)
    assert rep.ok
    u0 = traj.sup_norms[0]
    assert traj.sup_norms[-1] <= u0 * math.e * (1 + 1e-9)
    # product-state growth bound restricted to one-point data, plus powers
    for n_pow in (2, 3):
        assert np.all(traj.sup_norms ** n_pow
                      <= (u0 ** n_pow) * np.exp(2.0 * 1.0 * n_pow * traj.times)
                      * (1 + 1e-9))


def test_monitor_bounds_local_mode_maximum_principle():
    local = PotentialSpec.local(1.0, dim=1)
    rho = DensityField.from_function(
        TORUS, 64, lambda x: 0.4 + 0.5 * np.exp(-0.5 * (x - 10.0) ** 2))
    traj = solve_kinetic(rho, KERNEL, local, dt=5e-3, t_end=2.0)
    rep = monitor_bounds(traj)
    assert rep.ok
    assert traj.sup_norms.max() <= traj.sup_norms[0] + 1e-6


def test_monitor_flags_fabricated_violation():
    flat = DensityField.constant(TORUS, 32, 0.5)
    traj = solve_kinetic(flat, KERNEL, FREE, dt=5e-3, t_end=0.5)
    traj.sup_norms = traj.sup_norms.copy()
    traj.sup_norms[-1] = 10.0
    rep = monitor_bounds(traj)
    assert not rep.ok
    assert rep.violations[0]["kind"] in ("growth", "invariant-region")
    with pytest.raises(Exception):
        rep.raise_if_failed()


# -- Picard certification ---------------------------------------------------------------

ALPHA1 = KernelSpec.top_hat(0.5, 1.0, dim=1)   # alpha = 1
MPHI1 = PotentialSpec.top_hat(0.5, 1.0, dim=1)  # <phi> = 1
TORUS1 = Torus(1, 10.0)


def test_picard_constant_converges_immediately():
    rho = DensityField.constant(TORUS1, 64, 0.8)
    res = picard_solve(rho, 0.01, ALPHA1, MPHI1, tolerance=1e-8, dt=1e-3)
    assert res.iterations <= 2
    assert res.deltas[0] <= 1e-8


def test_picard_ratios_below_certified_contraction():
    rho = DensityField.from_function(
        TORUS1, 64, lambda x: 0.5 + 0.5 * np.cos(2 * np.pi * x / 10.0))
    T = 0.01
    res = picard_solve(rho, T, ALPHA1, MPHI1, tolerance=1e-12, dt=2e-4)
    q = contraction_factor(1.0, 1.0, 1.0, T)
    assert q == pytest.approx(0.171438, abs=1e-5)
    assert res.q_bound <= q  # grid sup-norm is at most the continuum sup
    assert all(r <= q + 0.05 for r in res.ratios)


def test_picard_matches_rk4_on_shared_grid():
    rho = DensityField.from_function(
        TORUS1, 64, lambda x: 0.5 + 0.4 * np.cos(2 * np.pi * x / 10.0))
    T = 0.02
    res = picard_solve(rho, T, ALPHA1, MPHI1, tolerance=1e-12, dt=2e-4)
    rk = solve_kinetic(rho, ALPHA1, MPHI1, dt=2e-4, t_end=T)
    assert np.abs(res.final.values - rk.final.values).max() <= 1e-6


def test_picard_rejects_uncertified_window():
    rho = DensityField.constant(TORUS1, 32, 1.0)
    with pytest.raises(HorizonError):
        picard_solve(rho, 0.6, ALPHA1, MPHI1)  # exp(alpha T) close to 2
    with pytest.raises(HorizonError):
        picard_solve(rho, math.log(2.0), ALPHA1, MPHI1)


@pytest.mark.parametrize("T, dt", [(0.0, None), (0.0, 1e-3), (-0.01, None),
                                   (0.01, 0.0), (0.01, -1e-3), (math.nan, None)])
def test_picard_rejects_empty_window_and_nonpositive_dt(T, dt):
    rho = DensityField.constant(TORUS1, 32, 0.5)
    with pytest.raises(ConfigError):
        picard_solve(rho, T, ALPHA1, MPHI1, dt=dt)


def test_picard_nonconvergence_reports_history():
    rho = DensityField.from_function(
        TORUS1, 32, lambda x: 0.5 + 0.4 * np.cos(2 * np.pi * x / 10.0))
    with pytest.raises(NumericError) as err:
        picard_solve(rho, 0.02, ALPHA1, MPHI1, tolerance=1e-13, max_iter=2)
    assert len(err.value.deltas) == 2


def test_snapshots_on_grid_only():
    rho = DensityField.constant(TORUS, 32, 0.5)
    with pytest.raises(ConfigError):
        solve_kinetic(rho, KERNEL, FREE, dt=1e-2, t_end=1.0,
                      snapshot_times=(0.0155,))
    # non-finite times are rules broken, not bare numeric exceptions
    for t_end, snaps in ((1.0, (math.nan,)), (1.0, (math.inf,)), (math.nan, ()),
                         (math.inf, ())):
        with pytest.raises(ConfigError):
            solve_kinetic(rho, KERNEL, FREE, dt=1e-2, t_end=t_end, snapshot_times=snaps)


WIDE_POT = PotentialSpec.top_hat(5.0, 0.01, dim=1)  # support L/2 on TORUS1


# each input breaks one rule; the solver raises the class it raised before
@pytest.mark.parametrize("call, error", [
    (lambda rho: solve_kinetic(rho, ALPHA1, WIDE_POT, dt=0.01, t_end=0.1), GeometryError),
    (lambda rho: solve_kinetic(rho, ALPHA1, MPHI1, dt=0.2, t_end=1.0), ConfigError),
    (lambda rho: solve_kinetic(rho, ALPHA1, MPHI1, dt=0.01, t_end=-1.0), ConfigError),
    (lambda rho: solve_kinetic(rho, ALPHA1, MPHI1, dt=0.01, t_end=0.1,
                               snapshot_times=(0.015,)), ConfigError),
    (lambda rho: picard_solve(rho, 0.01, ALPHA1, WIDE_POT), GeometryError),
    (lambda rho: picard_solve(rho, 0.0, ALPHA1, MPHI1), ConfigError),
    (lambda rho: picard_solve(rho, 0.01, ALPHA1, MPHI1, dt=-1e-3), ConfigError),
    (lambda rho: picard_solve(rho, 1.0, ALPHA1, MPHI1), HorizonError),
    (lambda rho: picard_solve(rho.with_values(2 * rho.values), 0.6, ALPHA1, MPHI1),
     HorizonError),
], ids=["rk4 support", "rk4 dt guard", "rk4 t_end", "rk4 snapshot", "picard support",
        "picard empty window", "picard dt", "picard window too long", "picard q above 1"])
def test_single_rule_raises_its_class(call, error):
    rho = DensityField.constant(TORUS1, 32, 0.5)
    with pytest.raises(error) as err:
        call(rho)
    assert type(err.value) is error


def test_specs_of_another_dimension_rejected():
    # a 2-d kernel on a 1-d grid used to run with alpha = pi r^2
    rho = DensityField.constant(TORUS1, 32, 0.5)
    kernel2 = KernelSpec.top_hat(0.5, 1.0, dim=2)
    with pytest.raises(GeometryError, match="KernelSpec dimension 2"):
        solve_kinetic(rho, kernel2, MPHI1, dt=0.01, t_end=0.1)
    with pytest.raises(GeometryError, match="PotentialSpec dimension 2"):
        picard_solve(rho, 0.01, ALPHA1, PotentialSpec.local(1.0, dim=2))
    with pytest.raises(GeometryError):
        convolve(rho, kernel2)


def test_violations_lists_every_rule_and_solvers_raise_the_first():
    # alpha = 1 (guard 0.1), <phi> = 0.1 and u0 = 1: q(0.6) is above 1
    rho = DensityField.constant(TORUS1, 32, 1.0)
    found = kinetic.violations(rho, ALPHA1, WIDE_POT, 0.2, 0.6, (0.3,), "picard")
    assert [(type(e), str(e)) for e in found] == [
        (GeometryError, "minimal-image ambiguity: potential support radius 5 requires "
                        "side > 10, got 10"),
        (ConfigError, "dt=0.2 violates the stability guard dt <= 0.1/alpha = 0.1"),
        (ConfigError, "snapshot time 0.3 is not on the dt grid over [0, 0.6]"),
        (HorizonError, "Picard window not certified: contraction factor q(T)=1.1391 >= 1 "
                       "on [0, 0.6]")]
    assert [str(e) for e in kinetic.violations(rho, ALPHA1, WIDE_POT, 0.2, 0.6, (0.3,))] == [
        str(e) for e in found[:3]]
    with pytest.raises(GeometryError, match="potential support"):
        picard_solve(rho, 0.6, ALPHA1, WIDE_POT, dt=0.2)
    with pytest.raises(ConfigError, match="stability guard"):
        solve_kinetic(rho, ALPHA1, MPHI1, dt=0.2, t_end=0.6, snapshot_times=(0.3,))


def test_picard_applies_the_rk4_dt_guard():
    # a certified window: an explicit dt beyond 0.1 / alpha is refused, as in the CLI
    rho = DensityField.constant(TORUS1, 32, 0.5)
    picard_solve(rho, 0.02, ALPHA1, MPHI1, dt=0.02)
    with pytest.raises(ConfigError, match="stability guard"):
        picard_solve(rho, 0.02, ALPHA1, MPHI1, dt=0.5)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_density_field_rejects_non_finite_values(bad):
    vals = np.full(16, 0.5)
    vals[3] = bad
    with pytest.raises(ConfigError, match="finite"):
        DensityField(TORUS, vals)
