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
along every trajectory. The profile is treated as exactly zero beyond the
effective support radius in every code path.

One kernel steps every trajectory: `simulate_ensemble` runs chunks of
trajectories in lockstep, one event slot per trajectory per iteration, and
`simulate` is a one-row call of it. Each row keeps its positions in a cell
table whose cells are at least one support radius wide, sized so that the
3^d cells around a target hold about _STENCIL_PARTICLES particles, and an
energy query reads only those; where fewer than 5 cells per axis would fit,
the table has one cell and the query is all-pairs. Each chunk holds about
2 MB of prefetched variates and tables; every pool worker gets at least one.

Reproducibility: trajectory i of an ensemble uses the PCG64 stream seeded by
the entropy pair (base_seed, i) and consumes it in the same order as the
scalar `Simulation`, so ensembles are bit-identical across runs and across
serial/parallel execution. Top-hat trajectories are bit-identical to
`Simulation`; smooth potentials sum their energies in table order, so they
match it up to that summation order.
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


class Configuration:
    """A finite point configuration on the torus.

    Positions are stored as an (n, d) array in [0, L)^d; they must be finite.
    """

    def __init__(self, torus: Torus, positions):
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
        if not np.isfinite(pos).all():
            raise ConfigError("positions must be finite")
        self._pos = torus.wrap(pos.copy())

    @property
    def n(self) -> int:
        return self._pos.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """Live view of the position array; treat as read-only."""
        return self._pos

    def copy_positions(self) -> np.ndarray:
        return self._pos.copy()

    def move(self, i: int, y):
        self._pos[i] = y


def _sum_phi(potential, r2):
    """Sum of phi over squared distances, with the support cutoff applied."""
    r_sup = potential.support_radius
    if r_sup == 0.0:
        return 0.0
    mask = r2 <= r_sup * r_sup
    k = np.count_nonzero(mask)
    if k == 0:
        return 0.0
    if potential.family == "top_hat":
        return potential.height * k
    return potential.height * float(_profile(potential, r2[mask]).sum())


def _profile(potential, r2):
    """phi / height of a smooth potential at squared distances r2 (no cutoff)."""
    if potential.family == "gaussian":
        return np.exp(r2 * (-0.5 / potential.sigma**2))
    return np.exp(-potential.rate * np.sqrt(r2))


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


def _norm2(diff, side, image=None):
    """Squared minimal-image lengths of displacements whose coordinates run
    along the first axis, summed one coordinate after another; `image`, when
    known in advance, is side * round(diff / side). Every energy query goes
    through it, so all of them agree to the last bit."""
    diff -= side * np.round(diff / side) if image is None else image
    r2 = diff[0] * diff[0]
    for c in diff[1:]:
        r2 += c * c
    return r2


def interaction_energy(y, config: Configuration, potential: PotentialSpec,
                       exclude=None) -> float:
    """Total potential energy sum_{z in gamma, z != excluded} phi(y - z).

    Distances are minimal-image and phi is cut off at its effective support.
    """
    _require_microscopic(potential)
    if potential.is_zero or config.n == 0:
        return 0.0
    y = np.asarray(y, dtype=float).reshape(-1)
    r2 = _norm2((config.positions - y).T, config.torus.side)
    total = _sum_phi(potential, r2)
    if exclude is not None:
        r2x = _norm2((config.positions[exclude:exclude + 1] - y).T, config.torus.side)
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
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ConfigError(f"t_end must be finite and >= 0, got {self.t_end}")
        for s in self.snapshot_times:
            if not 0 <= s <= self.t_end:
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


def _planned_particles(params, initials):
    """Particles per trajectory that chunks and cells are sized for: the
    largest given initial configuration, or the integral of rho0."""
    if initials is not None:
        return max((len(x) for x in initials), default=0)
    if isinstance(params.rho0, DensityField):
        return params.rho0.mass
    return float(params.rho0) * params.torus.volume


def simulate(params: SimulationParams, seed, initial_positions=None) -> Trajectory:
    """Run one trajectory. `seed` may be an int or a (base, index) sequence.

    This is a one-row call of the ensemble kernel: from a Poisson start it
    gives exactly the trajectory `simulate_ensemble` gives for that stream.
    """
    params.validate()
    initials = None if initial_positions is None else [initial_positions]
    return _simulate_rows(params, [seed], initials,
                          _planned_particles(params, initials))[0]


# -- the lockstep kernel -----------------------------------------------------

# Bytes per pool unit. A row prefetches (24 + 8 d) bytes of variates per slot
# (movers are kept as int32 but drawn as int64), and its cell table takes
# about (16 d + 24) bytes per particle.
_CHUNK_BYTES = 1 << 21

# Particles in the 3^d cells an energy query reads: cells hold about
# _STENCIL_PARTICLES / 3^d each, 32 in 2-d (CHANGES.md has the crossover
# measurements).
_STENCIL_PARTICLES = 288


def _chunk_bounds(dim, n, n_trajectories, workers):
    """Bounds of the pool units: balanced chunks of about _CHUNK_BYTES of
    variates and table each, at least one per worker. The count is rounded,
    as a short last chunk would take as many iterations as a full one."""
    rows = max(1, _CHUNK_BYTES // ((24 + 8 * dim) * _RNG_BLOCK + (16 * dim + 24) * n))
    count = max(1, round(n_trajectories / rows), min(workers, n_trajectories))
    return (np.arange(count + 1) * n_trajectories) // count


def _cells_per_axis(torus, potential, n):
    """Cells per axis of the lockstep table for about n particles per row:
    at least phi's support wide, with about _STENCIL_PARTICLES in the 3^d
    cells around a point. Below 5 cells the stencil covers most of the torus
    and never paid in the measurements, so one cell is used."""
    if potential.is_zero:
        return 1
    # the margin keeps a point whose cell index rounds across a boundary
    # inside the neighbour cells of every point within the support
    m = min(int(torus.side / (potential.support_radius * (1.0 + 1e-9))),
            int((n * 3 ** torus.dim / _STENCIL_PARTICLES) ** (1.0 / torus.dim)))
    return m if m >= 5 else 1


def _grown(cap):
    return cap + cap // 4 + 4


class _CellTable:
    """Positions of a chunk of configurations, binned per row into m^d cells
    at least phi's support wide, so the 3^d cells around a point hold every
    particle within the support.

    tab[r, k] holds coordinate k of row r's particles: cell c owns slots
    c * cap ... c * cap + fill[r, c] - 1, and every other slot holds NaN,
    which compares false against any cutoff. slot[r, i] is where particle i
    sits and who[r, s] the particle in slot s; with one cell both are the
    identity. A row's slot order follows its own moves only, never cap or
    the other rows.
    """

    def __init__(self, torus, potential, m, starts):
        d = torus.dim
        self.side, self.m, self.inv_width = torus.side, m, m / torus.side
        self.potential = potential
        self.cut = potential.support_radius * potential.support_radius
        self.strides = m ** np.arange(d - 1, -1, -1)
        rows, n_cells = len(starts), m ** d
        cells = [self.cell(p) for p in starts]
        self.fill = np.array([np.bincount(c, minlength=n_cells) for c in cells],
                             dtype=np.int64).reshape(rows, n_cells)
        cap = int(self.fill.max(initial=0))
        if m > 1:
            cap = _grown(cap)
            offsets = np.indices((3,) * d).reshape(d, -1).T - 1
            index = np.indices((m,) * d).reshape(d, -1).T
            near = index[:, None, :] + offsets
            self.neighbours = (near % m) @ self.strides
            # from 5 cells per axis on, a neighbour's points lie within 2L/5
            # of the target, or beyond 3L/5 across the boundary, so
            # round(diff / L) is fixed by the cells: -floor(near / m)
            self.images = (-(near // m)).transpose(0, 2, 1).astype(np.int8)
            self.coords = np.arange(d)[None, :, None]
        self.cap = cap
        self.tab = np.full((rows, d, n_cells * cap), np.nan)
        self.who = np.full((rows, n_cells * cap), -1)
        self.slot = np.zeros((rows, max((c.size for c in cells), default=0)),
                             dtype=np.int64)
        for r, (p, c) in enumerate(zip(starts, cells)):
            order = np.argsort(c, kind="stable")
            first = np.cumsum(self.fill[r]) - self.fill[r]
            slot = np.empty_like(c)
            slot[order] = c[order] * cap + np.arange(c.size) - first[c[order]]
            self.tab[r][:, slot] = p.T
            self.who[r, slot] = np.arange(c.size)
            self.slot[r, :c.size] = slot
        self.rows = np.arange(rows)

    def cell(self, x):
        """Flat cell index of each point of x, shape (..., d)."""
        index = np.minimum((x * self.inv_width).astype(np.int64), self.m - 1)
        return index @ self.strides

    def at(self, mover):
        """Position of particle mover[r] of every row r, shape (rows, d)."""
        if self.m == 1:
            return self.tab[self.rows, :, mover]
        return self.tab[self.rows, :, self.slot[self.rows, mover]]

    def positions(self, r, n):
        """The n positions of row r, in particle order."""
        return self.tab[r][:, self.slot[r, :n]].T

    def keep(self, rows):
        self.tab, self.who = self.tab[rows], self.who[rows]
        self.slot, self.fill = self.slot[rows], self.fill[rows]
        self.rows = np.arange(self.tab.shape[0])

    def energies(self, y, cells, old=None):
        """E(y_r, gamma_r) for every row r, y_r in cell cells[r], with the
        arithmetic of `interaction_energy`: the term of the particle at old[r]
        is subtracted when `old` is given. Terms are summed one after another
        in table order, so the zeros of empty slots leave the sum unchanged
        and top-hat energies are the same counts."""
        if self.m == 1:
            r2 = _norm2((self.tab - y[:, :, None]).transpose(1, 0, 2), self.side)
        else:
            rows, d, _ = self.tab.shape
            near = self.neighbours[cells][:, None, :]
            diff = self.tab.reshape(rows, d, -1, self.cap)[self.rows[:, None, None],
                                                           self.coords, near]
            diff -= y[:, :, None, None]
            image = self.side * self.images[cells].transpose(1, 0, 2)[..., None]
            r2 = _norm2(diff.transpose(1, 0, 2, 3), self.side, image).reshape(rows, -1)
        energy = self.potential.height * np.cumsum(self._phi(r2), axis=1)[:, -1]
        if old is not None:
            energy -= self.potential.height * self._phi(_norm2((old - y).T, self.side))
        return energy

    def _phi(self, r2):
        """phi / height at squared distances r2, cut off at the support: a
        boolean for the top-hat."""
        if self.potential.family == "top_hat":
            return r2 <= self.cut
        return np.where(r2 <= self.cut, _profile(self.potential, r2), 0.0)

    def move(self, hit, mover, y, cells):
        """Put the particle mover[r] of each row r in hit at y[r], which lies
        in cell cells[r]. A particle that changes cell swaps with the last one
        of its old cell and is appended to the new one, which grows the table
        when that cell is full."""
        mover, y = mover[hit], y[hit]
        if self.m == 1:
            self.tab[hit, :, mover] = y
            return
        src = self.slot[hit, mover]
        new = cells[hit]
        leave = src // self.cap != new
        if leave.any():
            stay = ~leave
            self.tab[hit[stay], :, src[stay]] = y[stay]
            hit, mover, src, new, y = (hit[leave], mover[leave], src[leave],
                                       new[leave], y[leave])
            old = src // self.cap
            self.fill[hit, old] -= 1
            last = old * self.cap + self.fill[hit, old]
            moved = self.who[hit, last]
            self.tab[hit, :, src] = self.tab[hit, :, last]
            self.who[hit, src] = moved
            self.slot[hit, moved] = src
            self.tab[hit, :, last] = np.nan
            self.who[hit, last] = -1
            if (self.fill[hit, new] == self.cap).any():
                self._grow()
            src = new * self.cap + self.fill[hit, new]
            self.fill[hit, new] += 1
            self.who[hit, src] = mover
            self.slot[hit, mover] = src
        self.tab[hit, :, src] = y

    def _grow(self):
        """Rebuild with a larger cap, keeping every row's slot order."""
        rows, d, _ = self.tab.shape
        n_cells, cap = self.fill.shape[1], self.cap
        new = _grown(cap)
        tab = np.pad(self.tab.reshape(rows, d, n_cells, cap),
                     [(0, 0)] * 3 + [(0, new - cap)], constant_values=np.nan)
        who = np.pad(self.who.reshape(rows, n_cells, cap),
                     [(0, 0)] * 2 + [(0, new - cap)], constant_values=-1)
        self.tab, self.who = tab.reshape(rows, d, -1), who.reshape(rows, -1)
        self.slot = self.slot // cap * new + self.slot % cap
        self.cap = new


def _simulate_rows(params: SimulationParams, seeds, initials, n_planned):
    """Run one trajectory per seed, in lockstep; return them in order.

    Every active trajectory uses exactly one (waiting time, mover,
    displacement, acceptance) slot of its own stream per iteration, including
    the step that crosses a snapshot or t_end boundary, so the block index is
    shared and each stream draws and consumes its variates exactly as
    `Simulation` does. `initials`, when given, is aligned with `seeds`; the
    cell table is sized for `n_planned` particles per row.
    """
    torus, kernel, pot = params.torus, params.kernel, params.potential
    d, side = torus.dim, torus.side
    rngs, starts = [], []
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        if initials is None:
            pos = sample_poisson_positions(torus, params.rho0, rng)
        else:
            pos = initials[r]
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
    table = _CellTable(torus, pot, _cells_per_axis(torus, pot, n_planned),
                       [starts[j] for j in streams])
    inv_rate = 1.0 / (alpha(kernel) * np.asarray(counts, dtype=np.int64)[streams])
    t = np.zeros(streams.size)
    target = np.zeros(streams.size, dtype=np.int64)
    accepts = np.zeros(streams.size, dtype=np.int64)
    rows = np.arange(streams.size)  # active row -> block row
    sel = slice(None)  # rows, as a view while every row is active
    active = streams  # active row -> stream
    limit = np.full(streams.size, limits[0])

    interacting = not pot.is_zero
    eps = float(params.epsilon)
    block = _RNG_BLOCK
    gaps = np.empty((streams.size, block))
    movs = np.empty((streams.size, block), dtype=np.int32)
    disps = np.empty((streams.size, block, d))
    accs = np.empty((streams.size, block)) if interacting else None
    k = block
    steps = 0
    while rows.size:
        if k == block:
            # the same draws, in the same order, as Simulation._refill
            for r in rows:
                j = streams[r]
                rng = rngs[j]
                gaps[r] = rng.standard_exponential(block) * inv_rate[r]
                movs[r] = rng.integers(0, counts[j], size=block)
                disps[r] = sample_displacement(kernel, rng, size=block)
                if interacting:
                    accs[r] = rng.random(block)
            k = 0
        t_next = t + gaps[sel, k]
        cross = t_next > limit
        move = ~cross
        mover = movs[sel, k]
        old = table.at(mover)
        y = np.mod(old + disps[sel, k], side)
        y[y >= side] = 0.0
        cells = table.cell(y) if table.m > 1 else None
        accept = move
        if interacting:
            energy = table.energies(y, cells, old if params.exclude_mover else None)
            # math.exp, as in Simulation.step, so the decisions match bit for
            # bit; an energy <= 0 gives a bound >= 1, which always accepts
            accept = move & (accs[sel, k] < [math.exp(-eps * e)
                                              for e in energy.tolist()])
        hit = accept.nonzero()[0]
        if hit.size:
            table.move(hit, mover, y, cells)
        accepts += accept
        if params.record_events:
            # whole rows per iteration; the moves are picked out once at the end
            log.append((active, t_next, mover.copy(), old, y, accept, move))
        k += 1
        steps += 1
        if not cross.any():
            t = t_next
            continue
        t = np.where(cross, limit, t_next)
        for r in cross.nonzero()[0]:
            if target[r] < len(sts):
                j = active[r]
                snapshots[j].append(table.positions(r, counts[j]))
        target += cross
        done = target == len(limits)
        if done.any():
            for r in done.nonzero()[0]:
                j = active[r]
                # every step of a row is an event except its boundary crossings
                n_events[j], n_accepted[j] = steps - len(limits), int(accepts[r])
            keep = ~done
            rows, active, t, target, accepts = (
                rows[keep], active[keep], t[keep], target[keep], accepts[keep])
            sel = rows
            table.keep(keep)
        limit = limits[target]

    if log:
        cols = [np.concatenate(c) for c in zip(*log)]
        cols = [c[cols[-1]] for c in cols[:-1]]
        order = np.argsort(cols[0], kind="stable")
        cols = [c[order] for c in cols]
        bounds = np.searchsorted(cols[0], np.arange(len(starts) + 1))
    out = []
    for j, seed in enumerate(seeds):
        rec = ()
        if log:
            rec = [c[bounds[j]:bounds[j + 1]] for c in cols[1:]]
        out.append(_trajectory(params, seed, counts[j], sts, snapshots[j], *rec,
                               n_events=n_events[j], n_accepted=n_accepted[j]))
    return out


def simulate_ensemble(params: SimulationParams, n_trajectories: int,
                      base_seed: int, n_jobs: int = 1, initials=None):
    """Run n independent trajectories; trajectory i is a pure function of
    (params, base_seed, i), so parallel and serial execution agree exactly.

    The trajectories run in lockstep chunks. With n_jobs > 1 each chunk is a
    unit handed to the process pool; there are at least as many chunks as
    workers, and the pool is clamped to the CPU and unit counts. `initials`,
    when given, holds one initial configuration per trajectory.
    """
    if n_trajectories < 1:
        raise ConfigError("need at least one trajectory")
    params.validate()
    if initials is not None and len(initials) != n_trajectories:
        raise ConfigError(f"{len(initials)} initial configurations for "
                          f"{n_trajectories} trajectories")
    n = _planned_particles(params, initials)
    workers = max(1, min(n_jobs, os.cpu_count() or 1))
    bounds = _chunk_bounds(params.torus.dim, n, n_trajectories, workers)
    units = [(params, [_stream_seed(base_seed, i) for i in range(lo, hi)],
              None if initials is None else initials[lo:hi], n)
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    workers = min(workers, len(units))
    if workers <= 1:
        chunks = [_simulate_rows(*unit) for unit in units]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_simulate_rows, *zip(*units),
                                   chunksize=max(1, len(units) // (4 * workers))))
    return [traj for chunk in chunks for traj in chunk]
