import concurrent.futures
import logging
import math

import numpy as np
import pytest

from kawasaki import (ConfigError, GeometryError, InvalidSpecError,
                      KernelSpec, NumericError, PotentialSpec, SimulationParams,
                      Torus, sample_displacement, sample_poisson_positions,
                      simulate, simulate_ensemble)
from kawasaki import simulator
from kawasaki.fields import DensityField
from kawasaki.simulator import Trajectory, interaction_energy
from reference import (Configuration, Simulation, detailed_balance_residual,
                       distance, minimal_image, total_pair_energy)

TORUS = Torus(1, 20.0)
KERNEL = KernelSpec.top_hat(1.0, 1.0, dim=1)  # alpha = 2
POT = PotentialSpec.top_hat(1.0, 0.5, dim=1)
FREE = PotentialSpec.zero(dim=1)


def brute_energy(y, positions, torus, potential):
    """All-pairs oracle with minimal image and the same support cutoff."""
    total = 0.0
    y = np.atleast_1d(np.asarray(y, dtype=float))
    for z in np.atleast_2d(positions):
        d = minimal_image(torus, y - z)
        r = float(np.sqrt(np.sum(d * d)))
        if r <= potential.support_radius:
            total += float(potential.radial(r))
    return total


# -- interaction energy ---------------------------------------------------------

def test_energy_two_points_within_range():
    p = PotentialSpec.top_hat(1.0, 1.0, dim=1)
    config = Configuration(TORUS, np.array([[0.0], [0.5], [3.0]]))
    assert interaction_energy([0.2], config, p) == pytest.approx(2.0, abs=1e-14)


def test_energy_empty_configuration():
    config = Configuration(TORUS, np.zeros((0, 1)))
    assert interaction_energy([1.0], config, POT) == 0.0


def test_energy_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    pos = rng.random((50, 1)) * 20.0
    config = Configuration(TORUS, pos)
    for _ in range(20):
        y = rng.random(1) * 20.0
        assert interaction_energy(y, config, POT) == pytest.approx(
            brute_energy(y, pos, TORUS, POT), abs=1e-12)


def test_energy_cell_list_equals_brute_force_on_random_configurations():
    rng = np.random.default_rng(11)
    gauss = PotentialSpec.gaussian(0.5, 1.0, dim=1)
    for trial in range(1000):
        n = int(rng.integers(1, 40))
        pos = rng.random((n, 1)) * 20.0
        pot = POT if trial % 2 == 0 else gauss
        config = Configuration(TORUS, pos)
        y = rng.random(1) * 20.0
        assert interaction_energy(y, config, pot) == pytest.approx(
            brute_energy(y, pos, TORUS, pot), abs=1e-12)


def test_energy_counts_every_particle():
    pos = np.array([[0.0], [0.4], [0.8]])
    config = Configuration(TORUS, pos)
    p = PotentialSpec.top_hat(1.0, 1.0, dim=1)
    assert interaction_energy([0.1], config, p) == pytest.approx(3.0)


def test_energy_two_dimensional():
    torus = Torus(2, 12.0)
    pos = np.array([[0.0, 0.0], [0.5, 0.0], [6.0, 6.0]])
    config = Configuration(torus, pos)
    p = PotentialSpec.top_hat(1.0, 2.0, dim=2)
    assert interaction_energy([0.0, 0.3], config, p) == pytest.approx(4.0)


def test_energy_rejects_local_potential():
    config = Configuration(TORUS, np.array([[1.0]]))
    with pytest.raises(InvalidSpecError):
        interaction_energy([0.5], config, PotentialSpec.local(1.0, dim=1))


# -- jump rate -------------------------------------------------------------------

def jump_rate(x_index, y, config, kernel, potential, epsilon=1.0):
    """Hop rate a(x - y) * exp(-eps * E(y, gamma)) for moving particle x to y."""
    y = np.asarray(y, dtype=float).reshape(-1)
    r = distance(config.torus, config.positions[x_index], y)
    a_val = float(np.atleast_1d(kernel.radial(r))[0])
    if a_val == 0.0:
        return 0.0
    return a_val * math.exp(-epsilon * interaction_energy(y, config, potential))


def test_jump_rate_free_case_is_kernel_value():
    rng = np.random.default_rng(2)
    pos = rng.random((10, 1)) * 20.0
    config = Configuration(TORUS, pos)
    y = (pos[3, 0] + 0.4) % 20.0
    assert jump_rate(3, [y], config, KERNEL, FREE) == pytest.approx(1.0)


def test_jump_rate_beyond_kernel_support_is_zero():
    config = Configuration(TORUS, np.array([[1.0]]))
    assert jump_rate(0, [4.5], config, KERNEL, POT) == 0.0


def test_jump_rate_matches_direct_formula():
    rng = np.random.default_rng(8)
    pos = rng.random((20, 1)) * 20.0
    config = Configuration(TORUS, pos)
    for _ in range(50):
        i = int(rng.integers(0, 20))
        y = (pos[i] + rng.uniform(-1.5, 1.5, size=1)) % 20.0
        dx = minimal_image(TORUS, pos[i] - y)[0]
        expected = float(KERNEL.radial(abs(dx))) * math.exp(
            -brute_energy(y, pos, TORUS, POT))
        assert jump_rate(i, y, config, KERNEL, POT) == pytest.approx(
            expected, rel=1e-12, abs=1e-300)


# -- total pair energy and detailed balance ---------------------------------------

def test_detailed_balance_free_case_zero():
    rng = np.random.default_rng(4)
    pos = rng.random((10, 1)) * 20.0
    config = Configuration(TORUS, pos)
    assert detailed_balance_residual(config, 2, rng.random(1) * 20, FREE) == 0.0


def test_detailed_balance_two_particles_hand_expansion():
    # gamma = {x, z}; moving x -> y: both sides reduce to
    # phi(x - z) + phi(y - x) + phi(y - z), so the residual vanishes
    x, z, y = 1.0, 1.6, 2.1
    p = PotentialSpec.gaussian(0.8, 1.3, dim=1)
    config = Configuration(TORUS, np.array([[x], [z]]))
    lhs = total_pair_energy([[x], [z]], TORUS, p) + brute_energy([y], [[x], [z]], TORUS, p)
    rhs = total_pair_energy([[y], [z]], TORUS, p) + brute_energy([x], [[y], [z]], TORUS, p)
    assert lhs - rhs == pytest.approx(0.0, abs=1e-12)
    assert detailed_balance_residual(config, 0, [y], p) == pytest.approx(0.0, abs=1e-12)


def test_detailed_balance_randomized_sweep():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 51))
        pos = rng.random((n, 1)) * 20.0
        pot = POT if trial % 2 == 0 else PotentialSpec.gaussian(0.6, 0.8, dim=1)
        config = Configuration(TORUS, pos)
        i = int(rng.integers(0, n))
        y = rng.random(1) * 20.0
        worst = max(worst, abs(detailed_balance_residual(config, i, y, pot)))
    assert worst <= 1e-10


# -- Poisson initial state ---------------------------------------------------------

def test_poisson_constant_mean_and_dispersion():
    rng = np.random.default_rng(10)
    counts = np.array([sample_poisson_positions(TORUS, 0.5, rng).shape[0]
                       for _ in range(10_000)])
    mean = counts.mean()
    assert abs(mean - 10.0) <= 3.0 * math.sqrt(10.0 / counts.size)
    dispersion = counts.var() / mean
    assert 0.95 <= dispersion <= 1.05


def test_poisson_zero_density_always_empty():
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert sample_poisson_positions(TORUS, 0.0, rng).shape == (0, 1)


def test_poisson_negative_density_rejected():
    with pytest.raises(Exception):
        sample_poisson_positions(TORUS, -0.1, np.random.default_rng(0))


def test_poisson_gridded_cell_weights():
    # left half density 1, right half 0: all points must land on the left
    vals = np.zeros(16)
    vals[:8] = 1.0
    field = DensityField(TORUS, vals)
    rng = np.random.default_rng(12)
    pos = sample_poisson_positions(TORUS, field, rng)
    assert pos.shape[0] > 0
    assert np.all(pos[:, 0] < 10.0)
    counts = np.array([sample_poisson_positions(TORUS, field, rng).shape[0]
                       for _ in range(4000)])
    assert counts.mean() == pytest.approx(10.0, abs=3.0 * math.sqrt(10.0 / 4000))


def test_poisson_initial_returns_configuration():
    config = Configuration(TORUS, sample_poisson_positions(TORUS, 0.5,
                                                           np.random.default_rng(1)))
    assert config.n > 0
    assert np.all((config.positions >= 0.0) & (config.positions < 20.0))


def never_simulated(*args, **kwargs):
    raise AssertionError("a chunk ran before every initial configuration was checked")


def chunk_sizes(first, trajectories):
    return len(trajectories)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_configuration_rejects_non_finite_positions(monkeypatch, bad):
    initials = [np.array([[1.0]]), np.array([[2.0], [bad]])]
    with pytest.raises(ConfigError, match="finite"):
        simulate_ensemble(params(), 2, base_seed=1, initials=initials)
    with pytest.raises(ConfigError, match="finite"):
        simulate(params(), 1, initial_positions=initials[1])
    monkeypatch.setattr(simulator, "_simulate_rows", never_simulated)
    with pytest.raises(ConfigError, match="finite"):
        simulator.map_chunks(params(), 2, 1, chunk_sizes, initials=initials)


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("last, message", [
    (np.array([[1.0], [2.0], [3.0], [4.0], [math.nan]]), "positions must be finite"),
    (np.ones((5, 2)), "positions have dimension 2, torus has 1"),
], ids=["nan", "wrong dimension"])
def test_map_chunks_checks_every_initial_before_any_chunk(monkeypatch, n_jobs, last,
                                                          message):
    # the bad configuration is the last of 200, several chunks after the first
    rng = np.random.default_rng(3)
    initials = [rng.random((5, 1)) * 20.0 for _ in range(199)] + [last]
    p = params(t_end=300.0, snapshot_times=())
    assert len(simulator._chunk_bounds(1, 5, 200, 1, simulator._planned_slots(p, 5))) > 2
    monkeypatch.setattr(simulator, "_simulate_rows", never_simulated)
    with pytest.raises(ConfigError, match=message):
        simulator.map_chunks(p, 200, 1, chunk_sizes, n_jobs=n_jobs, initials=initials)
    with pytest.raises(ConfigError, match=message):
        simulate(p, 1, initial_positions=last)


# -- single steps -------------------------------------------------------------------

def lone_particles(n_traj):
    return [np.array([[5.0]]) for _ in range(n_traj)]


def test_gillespie_free_case_always_accepts(monkeypatch):
    # about 10 particles, so a batch often draws one mover twice
    p = params(potential=FREE, record_events=True)
    ens = across_batches(monkeypatch, lambda: simulate_ensemble(p, 10, base_seed=21))
    assert all(t.accepted.all() and t.n_accepted == t.n_events > 0 for t in ens)
    assert_same_trajectories(ens, scalar_ensemble(p, 10, 21))


def test_gillespie_single_particle_self_interaction():
    # with the mover included in the energy sum, a lone particle accepts
    # with probability exp(-eps * phi(y - x)) < 1 for nearby proposals;
    # |y - x| <= 1 < potential radius always, so acceptance = e^{-0.8} exactly
    p = PotentialSpec.top_hat(2.0, 0.8, dim=1)
    expect = math.exp(-0.8)

    def within(hits, trials):
        se = math.sqrt(expect * (1 - expect) / trials)
        return abs(hits / trials - expect) <= 3.5 * se

    ens = simulate_ensemble(params(potential=p, t_end=10.0, snapshot_times=()),
                            200, base_seed=33, initials=lone_particles(200))
    assert within(sum(t.n_accepted for t in ens), sum(t.n_events for t in ens))


def test_accepted_rate_matches_direct_omega_oracle():
    # freeze a configuration; the acceptance probability of one thinning step
    # equals Omega(whole space, eta) / (alpha n), here estimated directly by
    # averaging exp(-eps E) over kernel-distributed proposals
    p = PotentialSpec.top_hat(1.0, 0.2, dim=1)
    rng = np.random.default_rng(123)
    pos = rng.random((100, 1)) * 20.0
    config = Configuration(TORUS, pos)
    m = 30_000
    movers = rng.integers(0, 100, size=m)
    disps = sample_displacement(KERNEL, rng, size=m)
    acc = np.empty(m)
    for j in range(m):
        y = (pos[movers[j]] + disps[j]) % 20.0
        acc[j] = math.exp(-interaction_energy(y, config, p))
    direct = acc.mean()
    se_direct = acc.std() / math.sqrt(m)

    # the first proposal of each kernel trajectory is made from the frozen
    # configuration (about 20 proposals are expected before t_end)
    k = 15_000
    ens = simulate_ensemble(params(potential=p, t_end=0.1, snapshot_times=(),
                                   record_events=True),
                            k, base_seed=77, initials=[pos] * k)
    assert all(t.n_events >= 1 for t in ens)
    hits = sum(bool(t.accepted[0]) for t in ens)
    frac = hits / k
    se_frac = math.sqrt(frac * (1 - frac) / k)
    assert abs(frac - direct) <= 3.0 * math.hypot(se_direct, se_frac)


def test_waiting_times_are_exponential_at_envelope_rate():
    # proposal gaps are Exp(alpha * n) regardless of acceptance; check the
    # first two moments of the gaps of one trajectory of at least 20k events
    # (exponential: CV = 1); with no snapshot before t_end no gap is cut
    rng = np.random.default_rng(71)
    n = 25
    pos = rng.random((n, 1)) * 20.0
    traj = simulate(params(t_end=420.0, snapshot_times=(), record_events=True), 71,
                    initial_positions=pos)
    assert traj.n_events >= 20_000 and traj.times.size == traj.n_events
    gaps = np.diff(traj.times, prepend=0.0)
    rate = 2.0 * n
    mean = gaps.mean()
    assert abs(mean - 1.0 / rate) <= 3.0 / (rate * math.sqrt(gaps.size))
    cv2 = gaps.var() / mean**2
    assert abs(cv2 - 1.0) <= 0.05


def test_two_dimensional_dynamics_end_to_end():
    torus = Torus(2, 12.0)
    kernel = KernelSpec.top_hat(1.0, 1.0, dim=2)
    pot = PotentialSpec.top_hat(1.0, 0.5, dim=2)
    p = SimulationParams(torus=torus, kernel=kernel, potential=pot,
                         rho0=0.4, t_end=0.5, snapshot_times=(0.5,))
    ens = simulate_ensemble(p, 30, base_seed=19)
    for traj in ens:
        snap = traj.snapshots[0]
        assert snap.shape == (traj.n_particles, 2)
        assert np.all((snap >= 0.0) & (snap < 12.0))
    assert sum(t.n_accepted for t in ens) > 0


# -- trajectories and ensembles ------------------------------------------------------

def params(**kw):
    defaults = dict(torus=TORUS, kernel=KERNEL, potential=POT, epsilon=1.0,
                    rho0=0.5, t_end=1.0, snapshot_times=(0.5, 1.0))
    defaults.update(kw)
    return SimulationParams(**defaults)


def test_trajectory_event_times_increase_and_movers_move():
    traj = simulate(params(record_events=True), 3)
    assert traj.n_events > 0
    assert np.all(np.diff(traj.times) > 0)
    moved = traj.old_positions[traj.accepted] != traj.new_positions[traj.accepted]
    assert np.all(moved.any(axis=1))


def test_same_seed_identical_event_log():
    a = simulate(params(record_events=True), [9, 0])
    b = simulate(params(record_events=True), [9, 0])
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.movers, b.movers)
    assert np.array_equal(a.new_positions, b.new_positions)
    assert np.array_equal(a.accepted, b.accepted)


def test_ensemble_serial_vs_parallel_identical():
    p = params(t_end=0.5, snapshot_times=(0.25, 0.5))
    serial = simulate_ensemble(p, 4, base_seed=5, n_jobs=1)
    parallel = simulate_ensemble(p, 4, base_seed=5, n_jobs=2)
    for a, b in zip(serial, parallel):
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa, sb)


def test_conservation_along_trajectories():
    for pot in (FREE, POT):
        ens = simulate_ensemble(params(potential=pot, rho0=1.0), 20, base_seed=3)
        for traj in ens:
            for snap in traj.snapshots:
                assert snap.shape[0] == traj.n_particles


def test_free_ensemble_mean_count_equals_initial():
    ens = simulate_ensemble(params(potential=FREE), 50, base_seed=8)
    for traj in ens:
        assert traj.snapshots[0].shape[0] == traj.n_particles
        assert traj.snapshots[1].shape[0] == traj.n_particles


def test_empty_initial_gives_empty_snapshots():
    traj = simulate(params(rho0=0.0), 4)
    assert traj.n_particles == 0
    assert all(s.shape == (0, 1) for s in traj.snapshots)


def check_table(table, positions):
    """Every invariant of a cell table, row by row, against the positions it
    should hold."""
    n_slots = table.tab.shape[2]
    for r, pos in enumerate(positions):
        n = pos.shape[0]
        slots = table.slot[r, :n]
        cells = table.cell(pos)
        assert np.array_equal(table.tab[r][:, slots].T, pos)
        assert np.array_equal(table.positions(r, n), pos)
        assert np.array_equal(table.who[r, slots], np.arange(n))
        assert np.array_equal(slots // table.cap, cells)
        assert np.array_equal(table.fill[r],
                              np.bincount(cells, minlength=table.fill.shape[1]))
        assert np.all(slots % table.cap < table.fill[r, cells])
        empty = np.ones(n_slots, dtype=bool)
        empty[slots] = False
        assert np.isnan(table.tab[r][:, empty]).all()
        assert np.all(table.who[r, empty] == -1)


def count_grows(monkeypatch):
    """Record the cap of every cell-table rebuild."""
    caps = []
    grow = simulator._CellTable._grow

    def counted(self):
        caps.append(self.cap)
        grow(self)

    monkeypatch.setattr(simulator._CellTable, "_grow", counted)
    return caps


def test_cell_index_consistent_after_dynamics(monkeypatch):
    # random hops in a 2-d table that starts with one spare slot per cell, so
    # moves cross cells, swap with last slots and force rebuilds
    monkeypatch.setattr(simulator, "_grown", lambda cap: cap + 1)
    grows = count_grows(monkeypatch)
    rng = np.random.default_rng(60)
    pos = [rng.random((n, 2)) * 12.0 for n in (30, 45, 1, 60)]
    table = simulator._CellTable(TORUS2, POT2, 5, pos)
    check_table(table, pos)
    for step in range(3000):
        if step == 1500:
            table.keep(np.array([True, False, True, True]))
            pos = [pos[0], pos[2], pos[3]]
        hit = np.flatnonzero(rng.random(len(pos)) < 0.7)
        mover = np.array([int(rng.integers(0, len(p))) for p in pos])
        y = np.array([p[i] for p, i in zip(pos, mover)])
        y = np.mod(y + rng.normal(0.0, 1.5, size=y.shape), 12.0)
        y[y >= 12.0] = 0.0
        table.move(hit, mover[hit], y[hit], table.cell(y[hit]))
        for r in hit:
            pos[r][mover[r]] = y[r]
    check_table(table, pos)
    assert len(grows) > 0


def test_torus_too_small_rejected():
    small = Torus(1, 3.9)
    with pytest.raises(GeometryError):
        simulate(params(torus=small), 0)


def test_simulator_rejects_local_potential():
    with pytest.raises(InvalidSpecError):
        simulate(params(potential=PotentialSpec.local(1.0, dim=1)), 0)


# -- lockstep ensembles ----------------------------------------------------------------

TORUS2 = Torus(2, 12.0)
KERNEL2 = KernelSpec.top_hat(1.0, 1.0, dim=2)
POT2 = PotentialSpec.top_hat(1.0, 0.5, dim=2)


def scalar_trajectory(p, seed, initial=None):
    """Reference trajectory: `Simulation` stepped up to each snapshot time in
    turn. Stopping the clock at a boundary and redrawing the waiting time is
    exact because the holding times are memoryless."""
    rng = np.random.default_rng(seed)
    if initial is None:
        initial = sample_poisson_positions(p.torus, p.rho0, rng)
    config = Configuration(p.torus, initial)
    d = p.torus.dim
    sts = tuple(sorted(p.snapshot_times))
    targets = list(sts)
    if not targets or targets[-1] < p.t_end:
        targets.append(p.t_end)
    events, snapshots = [], []
    if config.n == 0:
        snapshots = [np.zeros((0, d)) for _ in sts]
    else:
        sim = Simulation(config, p.kernel, p.potential, p.epsilon, rng)
        for i_t, target in enumerate(targets):
            while (ev := sim.step(t_limit=target)) is not None:
                events.append(ev)
            if i_t < len(sts):
                snapshots.append(config.positions.copy())
    logged = events if p.record_events else []
    return Trajectory(
        seed_key=tuple(seed), torus=p.torus, n_particles=config.n, t_end=p.t_end,
        snapshot_times=sts, snapshots=snapshots,
        times=np.array([e.time for e in logged], dtype=float),
        movers=np.array([e.mover for e in logged], dtype=int),
        old_positions=np.array([e.old_position for e in logged],
                               dtype=float).reshape(-1, d),
        new_positions=np.array([e.new_position for e in logged],
                               dtype=float).reshape(-1, d),
        accepted=np.array([e.accepted for e in logged], dtype=bool),
        n_events=len(events), n_accepted=sum(e.accepted for e in events))


def scalar_ensemble(p, n_traj, base_seed, initials=None):
    return [scalar_trajectory(p, [base_seed, i],
                              None if initials is None else initials[i])
            for i in range(n_traj)]


def assert_same_trajectories(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.seed_key == b.seed_key
        assert (a.n_particles, a.n_events, a.n_accepted) == (
            b.n_particles, b.n_events, b.n_accepted)
        assert a.snapshot_times == b.snapshot_times
        assert len(a.snapshots) == len(b.snapshots)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert sa.shape == sb.shape and np.array_equal(sa, sb)
        for name in ("times", "movers", "old_positions", "new_positions", "accepted"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y), name


BATCHES = (1, 7, 64)


def across_batches(monkeypatch, run):
    """run() with the kernel's default batch, then with each of BATCHES
    proposals per row and iteration; every run must give the same
    trajectories, which are returned."""
    want = run()
    with monkeypatch.context() as patch:
        for batch in BATCHES:
            patch.setattr(simulator, "_batch_width", lambda *args, width=batch: width)
            assert_same_trajectories(run(), want)
    return want


@pytest.mark.parametrize("dim", [1, 2])
def test_lockstep_top_hat_bit_identical_to_simulate(monkeypatch, dim):
    if dim == 1:
        p = params(rho0=1.2, t_end=1.0, snapshot_times=(0.0, 0.3, 0.7, 1.0),
                   record_events=True)
    else:
        p = params(torus=TORUS2, kernel=KERNEL2, potential=POT2, rho0=0.4,
                   t_end=0.5, snapshot_times=(0.0, 0.2, 0.5), record_events=True)
    ens = across_batches(monkeypatch, lambda: simulate_ensemble(p, 40, base_seed=19))
    assert sum(t.n_events for t in ens) > 1000
    assert 0 < sum(t.n_accepted for t in ens) < sum(t.n_events for t in ens)
    assert_same_trajectories(ens, scalar_ensemble(p, 40, 19))
    assert_same_trajectories([simulate(p, [19, i]) for i in range(3)], ens[:3])


# one case per table layout: (dim, rho0, t_end, trajectories, cells per axis)
TABLE_CASES = {
    "1d-one-cell": (1, 1.5, 1.0, 20, 1),
    "1d-refills": (1, 1.5, 60.0, 3, 1),  # about 3600 events per trajectory
    "1d-5-cells": (1, 25.0, 0.1, 8, 5),
    "2d-one-cell": (2, 0.4, 0.5, 20, 1),
    "2d-5-cells": (2, 6.0, 0.1, 6, 5),
}


def table_params(dim, rho0, t_end, **kw):
    # epsilon = 1 / rho0 keeps the acceptance rate away from 0 at every density
    kw.update(epsilon=1.0 / rho0, rho0=rho0, t_end=t_end,
              snapshot_times=(0.0, t_end / 2, t_end), record_events=True)
    if dim == 1:
        return params(**kw)
    if dim == 2:
        torus, kernel, pot = TORUS2, KERNEL2, POT2
    else:
        torus, kernel = Torus(3, 8.0), KernelSpec.top_hat(1.0, 1.0, dim=3)
        pot = PotentialSpec.top_hat(1.0, 0.5, dim=3)
    return params(torus=torus, kernel=kernel, potential=pot, **kw)


@pytest.mark.parametrize("case", list(TABLE_CASES))
def test_cell_table_top_hat_bit_identical_to_simulation(monkeypatch, case):
    dim, rho0, t_end, n_traj, cells = TABLE_CASES[case]
    p = table_params(dim, rho0, t_end)
    assert simulator._cells_per_axis(p.torus, p.potential, rho0 * p.torus.volume) == cells
    ens = across_batches(monkeypatch, lambda: simulate_ensemble(p, n_traj, base_seed=23))
    assert 0 < sum(t.n_accepted for t in ens) < sum(t.n_events for t in ens)
    assert_same_trajectories(ens, scalar_ensemble(p, n_traj, 23))


def test_cell_table_three_dimensional_bit_identical_to_simulation(monkeypatch):
    p = table_params(3, 3.0, 0.04)
    assert simulator._cells_per_axis(p.torus, p.potential, 3.0 * 512.0) == 5
    ens = across_batches(monkeypatch, lambda: simulate_ensemble(p, 3, base_seed=29))
    assert sum(t.n_events for t in ens) > 500
    assert 0 < sum(t.n_accepted for t in ens) < sum(t.n_events for t in ens)
    assert_same_trajectories(ens, scalar_ensemble(p, 3, 29))


def test_cell_table_overflow_rebuild_bit_identical(monkeypatch):
    # 11 x 11 cells with 4 particles each and one spare slot: a cell that
    # gains two particles rebuilds the table
    monkeypatch.setattr(simulator, "_STENCIL_PARTICLES", 4 * 9)
    monkeypatch.setattr(simulator, "_grown", lambda cap: cap + 1)
    grows = count_grows(monkeypatch)
    p = table_params(2, 4 * 121 / 144.0, 0.2)
    lattice = (np.arange(22) + 0.5) * 12.0 / 22
    start = np.stack(np.meshgrid(lattice, lattice), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(31)
    initials = [np.mod(start + rng.normal(0.0, 0.05, start.shape), 12.0)
                for _ in range(3)]
    assert simulator._cells_per_axis(p.torus, p.potential, len(start)) == 11
    ens = across_batches(monkeypatch,
                         lambda: simulate_ensemble(p, 3, base_seed=31, initials=initials))
    assert len(grows) > 0
    assert_same_trajectories(ens, scalar_ensemble(p, 3, 31, initials))


def test_lockstep_given_initials_bit_identical(monkeypatch):
    rng = np.random.default_rng(4)
    initials = [rng.random((int(rng.integers(0, 40)), 1)) * 20.0 for _ in range(25)]
    p = params(snapshot_times=(0.0, 1.0), record_events=True)
    ens = across_batches(monkeypatch,
                         lambda: simulate_ensemble(p, 25, base_seed=6, initials=initials))
    assert_same_trajectories(ens, scalar_ensemble(p, 25, 6, initials))


def test_lockstep_bit_identical_from_poisson_start(monkeypatch):
    p = params(rho0=1.5, record_events=True)
    assert_same_trajectories(
        across_batches(monkeypatch, lambda: simulate_ensemble(p, 30, base_seed=12)),
        scalar_ensemble(p, 30, 12))


def test_lockstep_low_density_with_empty_trajectories(monkeypatch):
    p = params(rho0=0.05, snapshot_times=(0.0, 0.5, 1.0), record_events=True)
    ens = across_batches(monkeypatch, lambda: simulate_ensemble(p, 40, base_seed=2))
    counts = [t.n_particles for t in ens]
    assert 0 in counts and max(counts) > 0
    assert_same_trajectories(ens, scalar_ensemble(p, 40, 2))
    empty = simulate_ensemble(params(rho0=0.0), 5, base_seed=2)
    assert all(t.n_particles == 0 and len(t.snapshots) == 2 for t in empty)


@pytest.mark.parametrize("family", ["gaussian", "exponential"])
def test_lockstep_smooth_energies_match_interaction_energy(monkeypatch, family):
    torus = Torus(2, 30.0)
    pot = (PotentialSpec.gaussian(0.6, 1.3, dim=2) if family == "gaussian"
           else PotentialSpec.exponential(4.0, 2.0, dim=2))
    rng = np.random.default_rng(17)
    rows, n_max = 12, 30
    counts = rng.integers(0, n_max + 1, size=rows)
    counts[0] = 0
    starts = [rng.random((c, 2)) * 30.0 for c in counts]
    y = rng.random((rows, 2)) * 30.0
    wide = Torus(2, 40.0)  # room for 5 cells of the exponential's support
    for space, cells in ((torus, 1), (wide, simulator._cells_per_axis(wide, pot, 1e9))):
        scale = space.side / torus.side
        table = simulator._CellTable(space, pot, cells, [x * scale for x in starts])
        got = table.energies(y * scale, table.cell(y * scale))
        table._grow()  # more empty slots change no bit of the sums
        assert np.array_equal(got, table.energies(y * scale, table.cell(y * scale)))
        for r in range(rows):
            want = interaction_energy(y[r] * scale, Configuration(space, starts[r] * scale),
                                      pot)
            assert got[r] == pytest.approx(want, rel=1e-12, abs=1e-300)
    assert cells >= 5
    p = SimulationParams(torus=torus, kernel=KERNEL2, potential=pot, rho0=0.15,
                         t_end=0.5, snapshot_times=(0.0, 0.5), record_events=True)
    assert_same_trajectories(
        across_batches(monkeypatch, lambda: simulate_ensemble(p, 10, base_seed=5)),
        scalar_ensemble(p, 10, 5))


@pytest.mark.parametrize("family, reach, epsilon", [
    ("gaussian", 1.0, 1.0), ("exponential", 1.0, 1.0), ("gaussian", 7.0, 0.1)])
def test_smooth_many_cell_batches_bit_identical(monkeypatch, family, reach, epsilon):
    # smooth sums follow slot order, so here a batch must also end before a
    # target whose 3^d cells an accepted move of the batch left or entered;
    # hops longer than a cell (with most of them accepted) let two moves of
    # one batch leave one cell, and their swaps must reach the table in slot
    # order, which the snapshots' slot orders check
    if family == "gaussian":
        torus, pot, rho0 = Torus(2, 30.0), PotentialSpec.gaussian(0.5, 1.0, dim=2), 1.2
    else:
        torus, pot, rho0 = Torus(2, 40.0), PotentialSpec.exponential(4.0, 1.0, dim=2), 0.7
    assert simulator._cells_per_axis(torus, pot, rho0 * torus.volume) == 5
    kernel = KernelSpec.top_hat(reach, 1.0 / reach**2, dim=2)  # alpha = pi
    p = SimulationParams(torus=torus, kernel=kernel, potential=pot, epsilon=epsilon,
                         rho0=rho0, t_end=0.3, snapshot_times=(0.0, 0.1, 0.3),
                         record_events=True)
    orders = {}  # a snapshot's positions -> the particles in slot order, per run
    positions = simulator._CellTable.positions

    def spy(table, r, n):
        pos = positions(table, r, n)
        orders.setdefault(pos.tobytes(), []).append(table.who[r][table.who[r] >= 0])
        return pos

    monkeypatch.setattr(simulator._CellTable, "positions", spy)
    ens = across_batches(monkeypatch, lambda: simulate_ensemble(p, 4, base_seed=5))
    assert len(orders) == 12
    assert all(len(seen) == 1 + len(BATCHES)
               and all(np.array_equal(o, seen[0]) for o in seen) for seen in orders.values())
    cell = simulator._CellTable(torus, pot, 5, [np.zeros((0, 2))]).cell
    # every trajectory moves a particle across cells
    assert all(np.any(cell(t.old_positions[t.accepted]) != cell(t.new_positions[t.accepted]))
               for t in ens)


def clash_batch(table, moves, accepted):
    """First clashing proposal of a one-row batch of (mover, new point) moves."""
    mover = np.array([[m for m, _ in moves]])
    y = np.array([[[x] for _, x in moves]])
    return int(table.clashes(mover, table.at(mover), y, np.array([accepted]))[0])


def test_a_point_at_the_cutoff_of_a_later_target_ends_the_batch():
    # the top-hat counts r2 <= cut, so a point exactly at the cutoff of a
    # later target changes its count, at one cell as at many
    start = [np.array([[2.0], [10.0], [15.0]])]
    for cells in (1, 5):
        table = simulator._CellTable(TORUS, POT, cells, start)
        assert table.cut == 1.0
        assert clash_batch(table, [(0, 5.0), (1, 6.0)], [True, False]) == 1  # new point
        assert clash_batch(table, [(0, 12.0), (1, 3.0)], [True, False]) == 1  # old point
        assert clash_batch(table, [(0, 5.0), (1, 6.0)], [False, False]) == 2
        assert clash_batch(table, [(0, 5.0), (1, np.nextafter(6.0, 7.0))],
                           [True, False]) == 2
        assert clash_batch(table, [(0, 5.0), (1, 9.0), (0, 5.5)], [True, True, False]) == 2
    # a smooth sum over cells clashes on the 3^d cells, not the distance
    gauss = PotentialSpec.gaussian(0.3, 1.0, dim=1)
    table = simulator._CellTable(TORUS, gauss, 5, start)
    assert table.cut < 9.0
    assert clash_batch(table, [(0, 13.0), (1, 10.0)], [True, False]) == 1
    assert clash_batch(table, [(0, 3.0), (1, 10.0)], [True, False]) == 2


def test_cell_table_finds_pairs_at_the_support_edge():
    # L / r just below 10: nine cells, so pairs 2.0005 apart that straddle
    # two cell boundaries still share a neighbourhood
    torus = Torus(1, 20.0)
    pot = PotentialSpec.top_hat(2.001, 1.0, dim=1)
    cells = simulator._cells_per_axis(torus, pot, 1e9)
    assert cells == 9
    y = np.array([[1.9999], [19.9999], [8.0], [13.5]])
    starts = [np.mod(y[r] + np.array([[2.0005], [-2.0005], [2.0015], [0.3]]), 20.0)
              for r in range(len(y))]
    table = simulator._CellTable(torus, pot, cells, starts)
    got = table.energies(y, table.cell(y))
    want = [interaction_energy(y[r], Configuration(torus, starts[r]), pot)
            for r in range(len(y))]
    assert np.array_equal(got, want) and np.all(got == 3.0)


def test_cell_table_energies_do_not_depend_on_other_rows():
    # a row's smooth energies are summed in its own slot order, so neither a
    # larger cap nor the rows it shares a chunk with change a bit of them
    torus = Torus(2, 20.0)
    pot = PotentialSpec.gaussian(0.5, 1.0, dim=2)
    rng = np.random.default_rng(41)
    row = rng.random((500, 2)) * 20.0
    crowd = rng.random((900, 2)) * 20.0
    y = rng.random((1, 2)) * 20.0
    for cells in (1, simulator._cells_per_axis(torus, pot, 1e9)):
        alone = simulator._CellTable(torus, pot, cells, [row])
        shared = simulator._CellTable(torus, pot, cells, [row, crowd])
        assert shared.cap > alone.cap
        want = alone.energies(y, alone.cell(y))
        pair = np.vstack([y, y])
        assert np.array_equal(shared.energies(pair, shared.cell(pair))[:1], want)
        alone._grow()
        assert np.array_equal(alone.energies(y, alone.cell(y)), want)


def test_lockstep_serial_and_parallel_identical_across_chunks(monkeypatch):
    n_traj = 45  # one chunk serially, two with two workers
    assert [len(simulator._chunk_bounds(1, 10.0, n_traj, w, simulator._RNG_BLOCK))
            for w in (1, 2)] == [2, 3]
    gauss = PotentialSpec.gaussian(0.3, 1.0, dim=1)
    for pot in (POT, gauss):
        p = params(potential=pot, t_end=0.5, snapshot_times=(0.25, 0.5),
                   record_events=True)
        serial = across_batches(
            monkeypatch, lambda: simulate_ensemble(p, n_traj, base_seed=5, n_jobs=1))
        parallel = simulate_ensemble(p, n_traj, base_seed=5, n_jobs=2)
        assert_same_trajectories(parallel, serial)


@pytest.mark.parametrize("bad", [
    dict(epsilon=math.nan), dict(epsilon=math.inf), dict(t_end=math.nan),
    dict(t_end=math.inf), dict(snapshot_times=(math.nan,)),
    dict(snapshot_times=(0.5, math.inf)),
    dict(rho0=math.nan), dict(rho0=math.inf), dict(rho0=-math.inf), dict(rho0=-0.5),
    dict(rho0=True), dict(rho0="1.0"),
    dict(rho0=DensityField.constant(Torus(1, 30.0), 16, 0.5)),
])
def test_params_reject_non_finite_values(bad):
    p = params(**bad)
    with pytest.raises(ConfigError):
        p.validate()
    with pytest.raises(ConfigError):
        simulate_ensemble(p, 2, base_seed=1)
    with pytest.raises(ConfigError):
        simulate(p, 1)


# each input breaks one rule; validate raises the class it raised before
@pytest.mark.parametrize("bad, error", [
    (dict(kernel=KernelSpec.top_hat(5.0, 1.0)), GeometryError),
    (dict(potential=PotentialSpec.local(1.0)), InvalidSpecError),
    (dict(epsilon=0.0), ConfigError),
    (dict(t_end=-1.0), ConfigError),
    (dict(rho0=-1.0), ConfigError),
    (dict(snapshot_times=(0.5, 2.0)), ConfigError),
], ids=["model radius", "local potential", "epsilon", "t_end", "rho0", "snapshot"])
def test_params_single_rule_raises_its_class(bad, error):
    p = params(**bad)
    with pytest.raises(error) as err:
        p.validate()
    assert type(err.value) is error
    assert [str(e) for e in p.violations()] == [str(err.value)]


@pytest.mark.parametrize("model", [dict(kernel=KernelSpec.top_hat(1.0, 1.0, dim=2)),
                                   dict(potential=PotentialSpec.gaussian(0.5, 1.0, dim=3))],
                         ids=["2-d kernel", "3-d potential"])
def test_params_reject_specs_of_another_dimension(model):
    # such a model used to run, with the hop law of the spec's dimension
    p = params(**model)
    with pytest.raises(GeometryError, match="does not match the torus dimension 1"):
        p.validate()
    with pytest.raises(GeometryError):
        simulate_ensemble(p, 2, base_seed=1)


def test_params_violations_lists_every_rule():
    p = params(kernel=KernelSpec.top_hat(5.0, 1.0), epsilon=math.nan, rho0=-1.0,
               snapshot_times=(0.5, 2.0, 3.0))
    assert [str(e) for e in p.violations()] == [
        "minimal-image ambiguity: interaction radius 5 requires side > 20, got 20",
        "epsilon must be finite and positive, got nan",
        "rho0 must be a finite number >= 0 or a DensityField, got -1.0",
        f"snapshot time 2.0 outside [0, {p.t_end}]"]
    # a bad t_end skips the snapshot rule, which it would break for every time
    assert [str(e) for e in params(t_end=-1.0, snapshot_times=(0.5,)).violations()] == [
        "t_end must be finite and >= 0, got -1.0"]


@pytest.mark.parametrize("counts", [
    dict(n_trajectories=2.5), dict(n_trajectories=True), dict(n_trajectories=0),
    dict(n_trajectories=math.nan), dict(n_jobs=1.5), dict(n_jobs=0), dict(n_jobs=-2),
    dict(n_jobs=True), dict(n_jobs=math.inf),
])
def test_ensemble_counts_must_be_whole_numbers_from_one(counts):
    args = {"n_trajectories": 2, "n_jobs": 1, **counts}
    with pytest.raises(ConfigError, match="whole number >= 1"):
        simulate_ensemble(params(), base_seed=1, **args)


def test_ensemble_takes_whole_counts_of_any_number_type():
    p = params(record_events=True)
    assert_same_trajectories(simulate_ensemble(p, 3.0, base_seed=1, n_jobs=np.int64(1)),
                             simulate_ensemble(p, 3, base_seed=1))


def test_each_chunk_logs_its_counts(caplog):
    p = params(record_events=True)
    with caplog.at_level(logging.DEBUG, logger="kawasaki.simulator"):
        ens = simulate_ensemble(p, 6, base_seed=3)
    (record,) = [r for r in caplog.records if r.name == "kawasaki.simulator"]
    rows, events, accepted, iterations, per_iteration = record.args
    assert (rows, events, accepted) == (6, sum(t.n_events for t in ens),
                                        sum(t.n_accepted for t in ens))
    assert 0 < iterations < events and per_iteration == pytest.approx(events / iterations)


def test_ensemble_rejects_wrong_number_of_initials():
    p = params()
    for n in (1, 3):
        with pytest.raises(ConfigError, match="initial configurations"):
            simulate_ensemble(p, 2, base_seed=1, initials=lone_particles(n))


class RecordingPool:
    """Stand-in for ProcessPoolExecutor that records its size and the number
    of units submitted to it, and runs them inline."""

    sizes = []
    units = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)
        RecordingPool.units.append(0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        RecordingPool.units[-1] += 1
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_pool_units_split_trajectories_across_workers(monkeypatch):
    monkeypatch.setattr(simulator, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 2)
    RecordingPool.sizes, RecordingPool.units = [], []
    p = params(t_end=0.2, snapshot_times=(0.2,))
    ens = simulate_ensemble(p, 2, base_seed=3, n_jobs=2)
    assert (RecordingPool.sizes, RecordingPool.units) == ([2], [2])
    assert_same_trajectories(ens, simulate_ensemble(p, 2, base_seed=3))
    # a budget of two rows' planned variates and tables splits further than
    # the workers; at four rows a ninth trajectory joins a chunk, not a new one
    row = 32 * simulator._planned_slots(p, 10.0) + 40 * 10
    monkeypatch.setattr(simulator, "_CHUNK_BYTES", 2 * row)
    simulate_ensemble(p, 10, base_seed=3, n_jobs=2)
    monkeypatch.setattr(simulator, "_CHUNK_BYTES", 4 * row)
    simulate_ensemble(p, 9, base_seed=3, n_jobs=2)
    assert RecordingPool.units == [2, 5, 2]


# -- kept slots ------------------------------------------------------------------


def reference_clock(gaps, t, target, limits):
    """Event times of a block of waiting times, one slot at a time in plain
    floats, the slots used and the clock the next block starts from."""
    times = []
    for gap in gaps.tolist():
        times.append(t + gap)
        if times[-1] > limits[target]:
            t, target = limits[target], target + 1
            if target == len(limits):
                break
        else:
            t = times[-1]
    return times, len(times), t


def test_clock_matches_a_plain_float_clock():
    rng = np.random.default_rng(17)
    for trial in range(300):
        gaps = rng.standard_exponential(int(rng.integers(1, 700))) * rng.uniform(0.01, 1)
        limits = np.sort(rng.uniform(0, gaps.sum() * rng.uniform(0.1, 1.5),
                                     int(rng.integers(1, 30))))
        if trial % 3 == 0:
            limits = np.repeat(limits, 2)  # duplicated limits
        target = int(rng.integers(0, len(limits)))
        t = float(limits[target - 1]) if target else 0.0
        times, used, resume = reference_clock(gaps, t, target, limits)
        block = gaps.copy()
        assert simulator._clock(block, t, target, limits) == (used, resume)
        assert block[:used].tolist() == times
        assert np.array_equal(block[used:], gaps[used:])  # unused slots untouched


def spy_slots(monkeypatch, shift=0):
    """Record each row's kept slots; report them `shift` slots off."""
    calls = []
    real = simulator._clock

    def spy(*args):
        used, t = real(*args)
        calls.append(used)
        return used + shift, t

    monkeypatch.setattr(simulator, "_clock", spy)
    return calls


@pytest.mark.parametrize("t_end, snaps", [
    (1.0, (0.0, 0.25, 0.5, 0.5, 0.75, 1.0)),
    (1.5, (0.3,)),
    (0.0, (0.0,)),
    (0.0, ()),
])
def test_kept_slots_equal_the_steps_each_row_takes(monkeypatch, t_end, snaps):
    p = params(t_end=t_end, snapshot_times=snaps)
    limits = len(simulator._targets(p)[1])
    rng = np.random.default_rng(2)
    initials = [rng.random((n, 1)) * 20.0 for n in (12, 0, 30, 1, 0, 20)]
    calls = spy_slots(monkeypatch)
    given = simulate_ensemble(p, len(initials), base_seed=4, initials=initials)
    poisson = simulate_ensemble(p, 8, base_seed=4)
    assert calls == [tr.n_events + limits for tr in given + poisson if tr.n_particles]
    assert [tr.n_particles for tr in given] == [12, 0, 30, 1, 0, 20]


def test_empty_rows_draw_no_slots(monkeypatch):
    calls = spy_slots(monkeypatch)
    ens = simulate_ensemble(params(), 3, base_seed=1, initials=[np.zeros((0, 1))] * 3)
    assert calls == [] and all(tr.n_events == 0 for tr in ens)


def test_kept_slots_span_a_refill(monkeypatch):
    start = np.random.default_rng(8).random((100, 1)) * 20.0  # ~3600 events
    calls = spy_slots(monkeypatch)
    traj = simulate(params(t_end=18.0, snapshot_times=(9.0, 18.0)), 6,
                    initial_positions=start)
    assert traj.n_events > simulator._RNG_BLOCK
    assert calls[0] == simulator._RNG_BLOCK and len(calls) == 2
    assert sum(calls) == traj.n_events + 2


@pytest.mark.parametrize("n", [10, 100])
def test_a_row_past_its_kept_slots_raises(monkeypatch, n):
    start = np.random.default_rng(8).random((n, 1)) * 20.0
    spy_slots(monkeypatch, shift=-1)
    with pytest.raises(NumericError):
        simulate(params(t_end=18.0, snapshot_times=(9.0, 18.0)), 6,
                 initial_positions=start)


def test_sweep_sized_ensemble_is_one_chunk_within_budget(monkeypatch):
    p = params(kernel=KernelSpec.top_hat(2.0, 1.0, dim=1), rho0=0.7, t_end=1.0,
               snapshot_times=(1.0,), record_events=False)  # alpha n = 4 * 14
    n = simulator._planned_particles(p, None)
    assert len(simulator._chunk_bounds(1, n, 250, 1, simulator._planned_slots(p, n))) == 2
    held = []
    real = simulator._draw_slots

    def spy(*args):
        out = real(*args)
        held.append(sum(x.nbytes for x in out[:4]))
        return out

    monkeypatch.setattr(simulator, "_draw_slots", spy)
    simulate_ensemble(p, 250, base_seed=9)
    assert len(held) == 1 and held[0] < simulator._CHUNK_BYTES


def test_pool_workers_clamped_to_cpus_and_units(monkeypatch):
    monkeypatch.setattr(simulator, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
    RecordingPool.sizes, RecordingPool.units = [], []
    p = params(t_end=0.2, snapshot_times=(0.2,))
    five = simulate_ensemble(p, 5, base_seed=3, n_jobs=64)
    simulate_ensemble(p, 2, base_seed=3, n_jobs=64)
    simulate_ensemble(p, 1, base_seed=3, n_jobs=64)  # one unit: no pool
    assert RecordingPool.sizes == [3, 2]
    assert_same_trajectories(five, simulate_ensemble(p, 5, base_seed=3))
