"""Exact stochastic simulation of hopping particles with pairwise repulsion.

Particles live on a periodic torus and hop one at a time: a particle at x
jumps to y with rate

    c(x, y, gamma) = a(x - y) * exp(-eps * E(y, gamma)),
    E(y, gamma)    = sum over z in gamma of phi(y - z),

where gamma is the configuration *before* the move (so the mover's own
position contributes to E; the variant that excludes it sits behind the
``exclude_mover`` flag and is non-default). Since phi >= 0, the total event
rate is bounded by alpha * n with alpha the kernel integral, and the process
is simulated exactly by thinning: waiting times are drawn at the envelope
rate alpha * n, the mover is uniform, the displacement has density a / alpha,
and the proposal is accepted with probability exp(-eps * E) in (0, 1].
Rejected proposals are recorded as null events so the envelope argument can
be audited from the event log.

Hops neither create nor destroy particles, so the particle count is constant
along every trajectory. Energy sums are pruned with a uniform cell grid whose
cells are at least one interaction radius wide; the profile is treated as
exactly zero beyond the effective support radius in every code path.

Ensembles of small systems run in lockstep: `simulate_ensemble` steps a
chunk of trajectories together, with positions in a padded (rows, n_max, d)
array and all-pairs energy queries, one event slot per trajectory per
iteration. An ensemble takes this route when its expected particle count per
trajectory (the integral of rho0, or the largest given initial
configuration) is at most LOCKSTEP_MAX_PARTICLES; larger systems keep the
cell-list `simulate`, one trajectory at a time. Chunks hold as many
trajectories as keep their prefetched variates within about 2 MB.

Reproducibility: trajectory i of an ensemble uses the PCG64 stream seeded by
the entropy pair (base_seed, i) and consumes it in the same order on both
routes, so ensembles are bit-identical across runs, across serial/parallel
execution and across routes (smooth potentials up to the summation order of
their energy sums).
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidSpecError, NoDynamicsError, NumericError
from .fields import DensityField
from .kernels import KernelSpec, PotentialSpec, alpha, sample_displacement
from .torus import Torus

_RNG_BLOCK = 2048


class _CellGrid:
    """Uniform-grid spatial index with cell size >= the covered radius."""

    def __init__(self, torus, radius, n_hint):
        d = torus.dim
        L = torus.side
        m_radius = max(1, int(L / radius)) if radius > 0 else 1
        m_count = max(1, int(math.ceil((4.0 * max(n_hint, 1)) ** (1.0 / d))))
        self.m = max(1, min(m_radius, m_count))
        self.dim = d
        self.side = L
        self.inv_cell = self.m / L
        self.covers = L / self.m  # true pruning radius of this grid
        n_flat = self.m ** d
        self.members = [[] for _ in range(n_flat)]
        self.cell_of = None
        self._neighbors = self._build_neighbor_table()

    def _build_neighbor_table(self):
        m, d = self.m, self.dim
        offsets = np.array(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij"))
        offsets = offsets.reshape(d, -1).T
        table = []
        for flat in range(m ** d):
            idx = np.array(np.unravel_index(flat, (m,) * d))
            neigh = np.mod(idx + offsets, m)
            flats = np.ravel_multi_index(neigh.T, (m,) * d)
            table.append(sorted(set(int(f) for f in flats)))
        return table

    def flat_index(self, point):
        m = self.m
        flat = 0
        for k in range(self.dim):
            i = int(point[k] * self.inv_cell)
            if i >= m:
                i = m - 1
            flat = flat * m + i
        return flat

    def build(self, positions):
        n = positions.shape[0]
        self.cell_of = np.empty(n, dtype=np.int64)
        for lst in self.members:
            lst.clear()
        for i in range(n):
            c = self.flat_index(positions[i])
            self.cell_of[i] = c
            self.members[c].append(i)

    def gather(self, point):
        """Indices of all particles in the 3^d cells around point."""
        out = []
        for c in self._neighbors[self.flat_index(point)]:
            out += self.members[c]
        return out

    def move(self, i, new_point):
        c_new = self.flat_index(new_point)
        c_old = self.cell_of[i]
        if c_new != c_old:
            self.members[c_old].remove(i)
            self.members[c_new].append(i)
            self.cell_of[i] = c_new


class Configuration:
    """A finite point configuration on the torus with an optional cell index.

    Positions are stored as an (n, d) array in [0, L)^d. When built with a
    positive interaction radius, a cell grid prunes neighbor searches; energy
    queries for radii the grid does not cover silently fall back to the
    all-pairs path, so results never depend on how the index was sized.
    """

    def __init__(self, torus: Torus, positions, interaction_radius: float = 0.0):
        self.torus = torus
        pos = np.asarray(positions, dtype=float)
        if pos.size == 0:
            pos = np.zeros((0, torus.dim))
        if pos.ndim == 1:
            pos = pos[:, None]
        if pos.shape[1] != torus.dim:
            raise ConfigError(
                f"positions have dimension {pos.shape[1]}, torus has {torus.dim}"
            )
        self._pos = torus.wrap(pos.copy())
        self._grid = None
        if interaction_radius > 0.0:
            self._grid = _CellGrid(torus, interaction_radius, pos.shape[0])
            self._grid.build(self._pos)

    @property
    def n(self) -> int:
        return self._pos.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """Live view of the position array; treat as read-only."""
        return self._pos

    def copy_positions(self) -> np.ndarray:
        return self._pos.copy()

    def candidate_indices(self, y, radius):
        """Particle indices that can lie within `radius` of y, or None for all."""
        g = self._grid
        if g is None or radius > g.covers * (1.0 + 1e-12):
            return None
        return g.gather(y)

    def move(self, i: int, y):
        self._pos[i] = y
        if self._grid is not None:
            self._grid.move(i, self._pos[i])

    def consistency_check(self):
        """Verify the cell index matches the positions (debug helper)."""
        if self._grid is None:
            return True
        for i in range(self.n):
            if self._grid.flat_index(self._pos[i]) != self._grid.cell_of[i]:
                return False
        return sum(len(m) for m in self._grid.members) == self.n


def _sum_phi(potential, r2):
    """Sum of phi over squared distances, with the support cutoff applied."""
    r_sup = potential.support_radius
    if r_sup == 0.0:
        return 0.0
    mask = r2 <= r_sup * r_sup
    k = np.count_nonzero(mask)
    if k == 0:
        return 0.0
    fam = potential.family
    if fam == "top_hat":
        return potential.height * k
    if fam == "gaussian":
        return potential.height * float(
            np.exp(r2[mask] * (-0.5 / potential.sigma**2)).sum()
        )
    return potential.height * float(np.exp(-potential.rate * np.sqrt(r2[mask])).sum())


def _require_microscopic(potential):
    if potential.family == "local":
        raise InvalidSpecError(
            "local(kappa) has no microscopic realization; use the kinetic solver"
        )


def check_model(torus: Torus, kernel: KernelSpec, potential: PotentialSpec):
    """Raise ConfigError unless the model has a particle realization on the
    torus: both radii pass the minimal-image rule and phi is not local(kappa)."""
    torus.require_fits(max(kernel.support_radius, potential.support_radius))
    _require_microscopic(potential)


def _squared_distances(points, y, side):
    d = points - y
    d -= side * np.round(d / side)
    return np.einsum("ij,ij->i", d, d)


def interaction_energy(y, config: Configuration, potential: PotentialSpec,
                       exclude=None) -> float:
    """Total potential energy sum_{z in gamma, z != excluded} phi(y - z).

    Distances are minimal-image and the sum is pruned to the potential's
    effective support via the configuration's cell index when possible.
    """
    _require_microscopic(potential)
    if potential.is_zero or config.n == 0:
        return 0.0
    y = np.asarray(y, dtype=float).reshape(-1)
    idx = config.candidate_indices(y, potential.support_radius)
    pos = config.positions if idx is None else config.positions[idx]
    r2 = _squared_distances(pos, y, config.torus.side)
    total = _sum_phi(potential, r2)
    if exclude is not None:
        r2x = _squared_distances(config.positions[exclude:exclude + 1], y,
                                 config.torus.side)
        total -= _sum_phi(potential, r2x)
    return float(total)


def total_pair_energy(positions, torus: Torus, potential: PotentialSpec) -> float:
    """Sum of phi over unordered pairs (minimal image, support cutoff)."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim == 1:
        pos = pos[:, None]
    n = pos.shape[0]
    if n < 2 or potential.is_zero:
        return 0.0
    diff = pos[:, None, :] - pos[None, :, :]
    diff -= torus.side * np.round(diff / torus.side)
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    iu = np.triu_indices(n, k=1)
    return float(_sum_phi(potential, r2[iu]))


def detailed_balance_residual(config: Configuration, x_index: int, y,
                              potential: PotentialSpec) -> float:
    """[E(gamma) + E(y, gamma)] - [E(gamma') + E(x, gamma')] for the move x -> y.

    gamma' is the post-move configuration. The quantity vanishes identically
    (this is the algebra behind Gibbs reversibility); the function exists so
    tests can assert it numerically.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    pos = config.copy_positions()
    e_before = total_pair_energy(pos, config.torus, potential)
    e_in = interaction_energy(y, config, potential)
    pos_after = pos.copy()
    pos_after[x_index] = config.torus.wrap(y)
    config_after = Configuration(config.torus, pos_after)
    e_after = total_pair_energy(pos_after, config.torus, potential)
    e_back = interaction_energy(pos[x_index], config_after, potential)
    return (e_before + e_in) - (e_after + e_back)


# -- initial states ----------------------------------------------------------


def sample_poisson_positions(torus: Torus, density, rng: np.random.Generator):
    """Positions of a Poisson point sample: N ~ Poisson(integral of rho),
    locations i.i.d. with density rho / integral."""
    d = torus.dim
    if isinstance(density, DensityField):
        if density.torus != torus:
            raise ConfigError("density field lives on a different torus")
        weights = density.values.ravel() * density.cell_volume
        mass = float(weights.sum())
        if mass == 0.0:
            return np.zeros((0, d))
        n = int(rng.poisson(mass))
        if n == 0:
            return np.zeros((0, d))
        counts = rng.multinomial(n, weights / mass)
        flats = np.repeat(np.arange(weights.size), counts)
        idx = np.column_stack(np.unravel_index(flats, density.values.shape))
        h = density.spacing
        return (idx + rng.random((n, d))) * h
    rho = float(density)
    if rho < 0:
        raise ConfigError(f"density must be >= 0, got {rho}")
    n = int(rng.poisson(rho * torus.volume))
    return rng.random((n, d)) * torus.side


def sample_poisson_initial(torus: Torus, density, rng: np.random.Generator,
                           interaction_radius: float = 0.0) -> Configuration:
    pos = sample_poisson_positions(torus, density, rng)
    return Configuration(torus, pos, interaction_radius)


# -- the jump process --------------------------------------------------------


class Event(NamedTuple):
    time: float
    mover: int
    old_position: np.ndarray
    new_position: np.ndarray
    accepted: bool


class Simulation:
    """Mutable state of one exact-thinning run (configuration + clock + RNG).

    Random variates are consumed per event in the fixed order (waiting time,
    mover, displacement, acceptance), prefetched in blocks for speed; the
    acceptance block is only drawn for interacting potentials.
    """

    def __init__(self, config: Configuration, kernel: KernelSpec,
                 potential: PotentialSpec, epsilon: float, rng,
                 exclude_mover: bool = False, check_envelope: bool = False,
                 block: int = _RNG_BLOCK):
        _require_microscopic(potential)
        self.config = config
        self.kernel = kernel
        self.potential = potential
        self.epsilon = float(epsilon)
        self.rng = rng
        self.exclude_mover = exclude_mover
        self.check_envelope = check_envelope
        self.t = 0.0
        self.alpha = alpha(kernel)
        self.interacting = not potential.is_zero
        self._block = int(block)
        self._k = self._block  # force refill on first step
        n = config.n
        self._inv_rate = 1.0 / (self.alpha * n) if n else math.inf

    def _refill(self):
        b, rng, n = self._block, self.rng, self.config.n
        self._exp = rng.standard_exponential(b)
        self._mov = rng.integers(0, n, size=b)
        self._disp = sample_displacement(self.kernel, rng, size=b)
        if self.interacting:
            self._acc = rng.random(b)
        self._k = 0

    def step(self, t_limit=math.inf):
        """Advance by one proposal; returns the Event, or None past t_limit.

        A None return leaves the configuration at its current state with the
        clock set to t_limit (exact by memorylessness of the waiting time).
        """
        cfg = self.config
        if cfg.n == 0:
            raise NoDynamicsError("cannot run hop dynamics on an empty configuration")
        if self._k >= self._block:
            self._refill()
        k = self._k
        self._k += 1
        t_next = self.t + self._exp[k] * self._inv_rate
        if t_next > t_limit:
            self.t = t_limit
            return None
        self.t = t_next
        i = int(self._mov[k])
        old = cfg.positions[i].copy()
        side = cfg.torus.side
        y = np.mod(old + self._disp[k], side)
        y[y >= side] = 0.0
        accepted = True
        if self.interacting:
            energy = interaction_energy(
                y, cfg, self.potential, exclude=i if self.exclude_mover else None
            )
            if self.check_envelope:
                ratio = math.exp(-self.epsilon * energy)
                if not 0.0 < ratio <= 1.0:
                    raise NumericError(
                        f"acceptance ratio {ratio!r} outside (0, 1] at energy {energy!r}"
                    )
            if energy > 0.0:
                accepted = bool(self._acc[k] < math.exp(-self.epsilon * energy))
        if accepted:
            cfg.move(i, y)
        return Event(self.t, i, old, y, accepted)


# -- trajectories and ensembles ----------------------------------------------


@dataclass(frozen=True, eq=False)
class SimulationParams:
    """Everything that defines the law of one trajectory (except the seed)."""

    torus: Torus
    kernel: KernelSpec
    potential: PotentialSpec
    epsilon: float = 1.0
    rho0: object = 1.0  # constant density or DensityField
    t_end: float = 1.0
    snapshot_times: tuple = ()
    record_events: bool = True
    exclude_mover: bool = False

    def validate(self):
        check_model(self.torus, self.kernel, self.potential)
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.t_end < 0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        for s in self.snapshot_times:
            if s < 0 or s > self.t_end:
                raise ConfigError(f"snapshot time {s} outside [0, {self.t_end}]")


@dataclass(eq=False)
class Trajectory:
    """One realized path: seeded event log plus positions at snapshot times."""

    seed_key: tuple
    torus: Torus
    n_particles: int
    t_end: float
    snapshot_times: tuple
    snapshots: list = field(default_factory=list)
    times: np.ndarray = None
    movers: np.ndarray = None
    old_positions: np.ndarray = None
    new_positions: np.ndarray = None
    accepted: np.ndarray = None
    n_events: int = 0
    n_accepted: int = 0

    def snapshot_at(self, time: float) -> np.ndarray:
        for s, snap in zip(self.snapshot_times, self.snapshots):
            if abs(s - time) <= 1e-12:
                return snap
        raise KeyError(f"no snapshot stored at t={time}")


def _stream_seed(base_seed, i):
    """Seed of trajectory i of an ensemble: the entropy pair (base_seed, i)."""
    if isinstance(base_seed, (tuple, list)):
        return [*base_seed, i]
    return [base_seed, i]


def _targets(params):
    """Sorted snapshot times, and the clock limits run to in turn (t_end last)."""
    sts = tuple(sorted(params.snapshot_times))
    targets = list(sts)
    if not targets or targets[-1] < params.t_end:
        targets.append(params.t_end)
    return sts, targets


def _trajectory(params, seed, n, sts, snapshots, times=(), movers=(), olds=(),
                news=(), accepted=(), n_events=0, n_accepted=0):
    d = params.torus.dim
    return Trajectory(
        seed_key=tuple(np.atleast_1d(seed).tolist()), torus=params.torus,
        n_particles=n, t_end=params.t_end, snapshot_times=sts, snapshots=snapshots,
        times=np.asarray(times, dtype=float), movers=np.asarray(movers, dtype=int),
        old_positions=np.asarray(olds, dtype=float).reshape(-1, d),
        new_positions=np.asarray(news, dtype=float).reshape(-1, d),
        accepted=np.asarray(accepted, dtype=bool),
        n_events=n_events, n_accepted=n_accepted,
    )


def simulate(params: SimulationParams, seed, initial_positions=None) -> Trajectory:
    """Run one trajectory. `seed` may be an int or a (base, index) sequence."""
    params.validate()
    rng = np.random.default_rng(seed)
    radius = params.potential.support_radius
    if initial_positions is None:
        pos = sample_poisson_positions(params.torus, params.rho0, rng)
    else:
        pos = np.asarray(initial_positions, dtype=float)
    config = Configuration(params.torus, pos, interaction_radius=radius)

    sts, targets = _targets(params)
    n = config.n
    if n == 0:
        # nothing can move; every snapshot is the empty configuration
        return _trajectory(params, seed, 0, sts,
                           [np.zeros((0, params.torus.dim)) for _ in sts])

    sim = Simulation(config, params.kernel, params.potential, params.epsilon,
                     rng, exclude_mover=params.exclude_mover)
    rec = params.record_events
    snapshots = []
    times, movers, olds, news, accs = [], [], [], [], []
    n_events = n_accepted = 0
    # run up to each snapshot boundary in turn; stopping the clock there and
    # redrawing the waiting time is exact because the holding times are
    # memoryless
    for i_t, target in enumerate(targets):
        while True:
            ev = sim.step(t_limit=target)
            if ev is None:
                break
            n_events += 1
            n_accepted += ev.accepted
            if rec:
                times.append(ev.time)
                movers.append(ev.mover)
                olds.append(ev.old_position)
                news.append(ev.new_position)
                accs.append(ev.accepted)
        if i_t < len(sts):
            snapshots.append(config.copy_positions())
    return _trajectory(params, seed, n, sts, snapshots, times, movers, olds, news,
                       accs, n_events, n_accepted)


def _simulate_each(params, base_seed, indices, initials=None):
    """The scalar route: one cell-list `simulate` per trajectory."""
    return [simulate(params, _stream_seed(base_seed, i),
                     initial_positions=None if initials is None else initials[r])
            for r, i in enumerate(indices)]


# -- lockstep ensembles ------------------------------------------------------

# Ensembles with at most this many expected particles per trajectory run on
# the lockstep kernel, larger ones on the cell-list `simulate`. The lockstep
# energy query is all-pairs over the padded row, so it wins only at small n:
# per event it overtook the cell list near n = 1000 for a 2-d Gaussian phi
# (sigma 0.5) and above n = 3200 for a 1-d top-hat.
LOCKSTEP_MAX_PARTICLES = 1000

# Bytes of prefetched variates per lockstep chunk: one refill costs
# (24 + 8 d) bytes per slot and stream (movers are kept as int32 but drawn as
# int64).
_LOCKSTEP_BYTES = 1 << 21


def _expected_particles(params, n_trajectories, initials):
    """Particles per trajectory that routing goes by: the integral of rho0,
    or the largest given initial configuration."""
    if initials is not None:
        return max(len(initials[i]) for i in range(n_trajectories))
    if isinstance(params.rho0, DensityField):
        return params.rho0.mass
    return float(params.rho0) * params.torus.volume


def _lockstep_chunk_size(dim: int) -> int:
    return max(1, _LOCKSTEP_BYTES // ((24 + 8 * dim) * _RNG_BLOCK))


def _batch_energy(pos, valid, y, side, potential, mover=None):
    """E(y_r, gamma_r) for every row r of a padded batch of configurations.

    pos is (rows, n_max, d) with `valid` marking the real particles. Each row
    repeats the arithmetic of `interaction_energy` (minimal image, support
    cutoff, the mover's own term subtracted when `mover` is given), so top-hat
    energies are the same counts; smooth profiles differ from the cell-list
    sum only in summation order.
    """
    diff = pos - y[:, None, :]
    diff -= side * np.round(diff / side)
    r2 = np.einsum("ajk,ajk->aj", diff, diff)
    r_sup = potential.support_radius
    inside = valid & (r2 <= r_sup * r_sup)
    fam = potential.family
    if fam == "top_hat":
        phi = inside
        energy = potential.height * np.count_nonzero(inside, axis=1)
    else:
        if fam == "gaussian":
            phi = np.exp(r2 * (-0.5 / potential.sigma**2))
        else:
            phi = np.exp(-potential.rate * np.sqrt(r2))
        phi = np.where(inside, phi, 0.0)
        energy = potential.height * phi.sum(axis=1)
    if mover is not None:
        energy -= potential.height * phi[np.arange(len(mover)), mover]
    return energy


def _simulate_lockstep(params: SimulationParams, base_seed, indices, initials=None):
    """Run trajectories `indices` of an ensemble together; return them in order.

    Every active trajectory uses exactly one (waiting time, mover,
    displacement, acceptance) slot of its own stream per iteration, including
    the step that crosses a snapshot or t_end boundary, so the block index is
    shared and each stream draws and consumes its variates exactly as
    `simulate` does. `initials`, when given, is aligned with `indices`.
    """
    torus, kernel, pot = params.torus, params.kernel, params.potential
    d, side = torus.dim, torus.side
    rngs, starts = [], []
    for r, i in enumerate(indices):
        rng = np.random.default_rng(_stream_seed(base_seed, i))
        if initials is None:
            pos = sample_poisson_positions(torus, params.rho0, rng)
        else:
            pos = np.asarray(initials[r], dtype=float)
        rngs.append(rng)
        starts.append(Configuration(torus, pos).positions)
    counts = [p.shape[0] for p in starts]
    sts, targets = _targets(params)
    limits = np.asarray(targets, dtype=float)
    snapshots = [[] if n else [np.zeros((0, d)) for _ in sts] for n in counts]
    n_events = [0] * len(starts)
    n_accepted = [0] * len(starts)
    log = []

    streams = np.flatnonzero(counts)  # block row -> stream; empty ones never step
    n_of = np.asarray(counts, dtype=np.int64)[streams]
    n_max = int(n_of.max(initial=0))
    pos = np.zeros((streams.size, n_max, d))
    for r, j in enumerate(streams):
        pos[r, :counts[j]] = starts[j]
    valid = np.arange(n_max) < n_of[:, None]
    inv_rate = 1.0 / (alpha(kernel) * n_of)
    t = np.zeros(streams.size)
    target = np.zeros(streams.size, dtype=np.int64)
    events = np.zeros(streams.size, dtype=np.int64)
    accepts = np.zeros(streams.size, dtype=np.int64)
    rows = np.arange(streams.size)  # active row -> block row
    here = rows.copy()

    interacting = not pot.is_zero
    eps = float(params.epsilon)
    block = _RNG_BLOCK
    exps = np.empty((streams.size, block))
    movs = np.empty((streams.size, block), dtype=np.int32)
    disps = np.empty((streams.size, block, d))
    accs = np.empty((streams.size, block)) if interacting else None
    k = block
    while rows.size:
        if k == block:
            # the same draws, in the same order, as Simulation._refill
            for r in rows:
                j = streams[r]
                rng = rngs[j]
                exps[r] = rng.standard_exponential(block)
                movs[r] = rng.integers(0, counts[j], size=block)
                disps[r] = sample_displacement(kernel, rng, size=block)
                if interacting:
                    accs[r] = rng.random(block)
            k = 0
        t_next = t + exps[rows, k] * inv_rate
        limit = limits[target]
        cross = t_next > limit
        move = ~cross
        mover = movs[rows, k]
        old = pos[here, mover]
        y = np.mod(old + disps[rows, k], side)
        y[y >= side] = 0.0
        accept = move
        if interacting:
            energy = _batch_energy(pos, valid, y, side, pot,
                                   mover if params.exclude_mover else None)
            # math.exp, as in Simulation.step, so the decisions match bit for bit
            test = np.flatnonzero(move & (energy > 0.0))
            if test.size:
                accept = move.copy()
                bound = [math.exp(-eps * e) for e in energy[test].tolist()]
                accept[test] = accs[rows[test], k] < bound
        t = np.where(cross, limit, t_next)
        hit = np.flatnonzero(accept)
        pos[hit, mover[hit]] = y[hit]
        events += move
        accepts += accept
        if params.record_events:
            # one row set per iteration, split by stream once at the end
            m = np.flatnonzero(move)
            log.append((streams[rows[m]], t_next[m], mover[m], old[m], y[m],
                        accept[m]))
        k += 1
        if not cross.any():
            continue
        for r in np.flatnonzero(cross):
            if target[r] < len(sts):
                j = streams[rows[r]]
                snapshots[j].append(pos[r, :counts[j]].copy())
        target += cross
        done = target == len(limits)
        if done.any():
            for r in np.flatnonzero(done):
                j = streams[rows[r]]
                n_events[j], n_accepted[j] = int(events[r]), int(accepts[r])
            keep = ~done
            rows, t, target, events, accepts = (
                rows[keep], t[keep], target[keep], events[keep], accepts[keep])
            inv_rate, n_of = inv_rate[keep], n_of[keep]
            n_max = int(n_of.max(initial=0))
            pos, valid = pos[keep, :n_max], valid[keep, :n_max]
            here = np.arange(rows.size)

    if log:
        cols = [np.concatenate(c) for c in zip(*log)]
        order = np.argsort(cols[0], kind="stable")
        cols = [c[order] for c in cols]
        bounds = np.searchsorted(cols[0], np.arange(len(starts) + 1))
    out = []
    for j, i in enumerate(indices):
        rec = ()
        if log:
            rec = [c[bounds[j]:bounds[j + 1]] for c in cols[1:]]
        out.append(_trajectory(params, _stream_seed(base_seed, i), counts[j], sts,
                               snapshots[j], *rec, n_events=n_events[j],
                               n_accepted=n_accepted[j]))
    return out


def simulate_ensemble(params: SimulationParams, n_trajectories: int,
                      base_seed: int, n_jobs: int = 1, initials=None):
    """Run n independent trajectories; trajectory i is a pure function of
    (params, base_seed, i), so parallel and serial execution agree exactly.

    Ensembles of at most LOCKSTEP_MAX_PARTICLES expected particles per
    trajectory run in lockstep chunks; larger ones run one `simulate` per
    trajectory. With n_jobs > 1 the chunk or the trajectory is the unit handed
    to the process pool, whose size is clamped to the CPU and unit counts.
    """
    if n_trajectories < 1:
        raise ConfigError("need at least one trajectory")
    params.validate()
    if _expected_particles(params, n_trajectories, initials) <= LOCKSTEP_MAX_PARTICLES:
        run, size = _simulate_lockstep, _lockstep_chunk_size(params.torus.dim)
    else:
        run, size = _simulate_each, 1
    units = [(params, base_seed, range(lo, min(lo + size, n_trajectories)),
              None if initials is None else initials[lo:lo + size])
             for lo in range(0, n_trajectories, size)]
    workers = min(n_jobs, os.cpu_count() or 1, len(units))
    if workers <= 1:
        chunks = [run(*unit) for unit in units]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run, *zip(*units),
                                   chunksize=max(1, len(units) // (4 * workers))))
    return [traj for chunk in chunks for traj in chunk]
