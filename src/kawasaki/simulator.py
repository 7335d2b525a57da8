"""Exact stochastic simulation of hopping particles with pairwise repulsion.

Particles live on a periodic torus and hop one at a time: a particle at x
jumps to y with rate

    c(x, y, gamma) = a(x - y) * exp(-eps * E(y, gamma)),
    E(y, gamma)    = sum over z in gamma of phi(y - z),

where gamma is the configuration *before* the move, so the mover's own
position contributes to E. Since phi >= 0, the total event rate is bounded
by alpha * n with alpha the kernel integral, and the process is simulated
exactly by thinning: waiting times are drawn at the envelope rate alpha * n,
the mover is uniform, the displacement has density a / alpha, and the
proposal is accepted with probability exp(-eps * E) in (0, 1]. Rejected
proposals are recorded as null events so the envelope argument can be
audited from the event log.

Hops neither create nor destroy particles, so the particle count is constant
along every trajectory. The profile is treated as exactly zero beyond the
effective support radius in every code path.

One kernel steps every trajectory: `simulate_ensemble` runs chunks of
trajectories in lockstep, and `simulate` is a one-row call of it. Each row
keeps its positions in a cell table whose cells are at least one support
radius wide, sized so that the 3^d cells around a target hold about
_STENCIL_PARTICLES particles, and an energy query reads only those; where
fewer than 5 cells per axis would fit, the table has one cell and the query
is all-pairs.

Each row draws its variates a block of _RNG_BLOCK slots at a time, in the
order that `_draw_slots` defines, and keeps only the prefix of the block it
will use: the waiting times never depend on an acceptance, so `_clock` sums
them into event times once, as the block is drawn, and the slot at which a
row passes its last limit is known then; the loop reads the times. Chunks
are planned at about 2 MB of variates and tables from the slots a row is
expected to use, alpha n t_end plus a margin, and every pool worker gets at
least one chunk. `map_chunks` reduces each chunk where it ran, in the pool
worker when there is a pool, and hands back only the reduced value, in
chunk order; `simulate_ensemble` is its identity case, whose workers return
the pickled trajectories.

Every slot is known before its step, so a row decides a batch of its next
slots per iteration in one energy query, against the table as it stands,
and commits them in slot order up to the first one that an accepted move of
the same batch could affect, or through its next snapshot or t_end
crossing. A term beyond the support is exactly 0.0, so each committed
decision sees the bits a one-at-a-time step would see, and no batch is ever
rolled back: this is pre-fetching (Brockwell 2006) with the conflict test
of optimistic simulation (Jefferson 1985) run before the commit.

Reproducibility: trajectory i of an ensemble uses the PCG64 stream seeded by
the entropy pair (base_seed, i) and consumes it slot by slot, whatever rows
it shares a chunk with and whatever the batch size, so ensembles are
bit-identical across runs and across serial/parallel execution. Top-hat
trajectories are bit-identical to a stepper that makes one proposal at a
time from the same blocks; smooth potentials sum their energies in table
order, so they match one up to that summation order.
"""

import collections
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, InvalidSpecError, NumericError, _require_flag,
                     _require_number, _require_reals, collect_violations, raise_first)
from .fields import DensityField
from .kernels import KernelSpec, PotentialSpec, alpha, sample_displacement
from .torus import Torus

_RNG_BLOCK = 2048

_logger = logging.getLogger(__name__)


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


def _profile(potential, r2, out=None):
    """phi / height of a smooth potential at squared distances r2 (no cutoff),
    written into `out` when given."""
    if potential.family == "gaussian":
        return np.exp(np.multiply(r2, -0.5 / potential.sigma**2, out=out), out=out)
    return np.exp(np.multiply(np.sqrt(r2, out=out), -potential.rate, out=out), out=out)


def _require_microscopic(potential):
    if potential.family == "local":
        raise InvalidSpecError(
            "local(kappa) has no microscopic realization; use the kinetic solver"
        )


def check_model(torus: Torus, kernel: KernelSpec, potential: PotentialSpec):
    """Raise ConfigError unless the model has a particle realization on the torus:
    specs of its dimension, radii within the minimal-image rule, phi not local."""
    torus.require_dim(kernel, potential)
    torus.require_fits(max(kernel.support_radius, potential.support_radius))
    _require_microscopic(potential)


def _norm2(diff, side, image=None, tmp=None):
    """Squared minimal-image lengths of displacements whose coordinates run
    along the first axis, summed one coordinate after another; `image`, when
    known in advance, is side * round(diff / side). With `tmp`, scratch of
    diff's shape, every term is written into it rather than into new arrays,
    and the lengths into tmp[0]. Every energy query goes through it, so all
    of them agree to the last bit."""
    if image is None:
        image = np.round(np.divide(diff, side, out=tmp), out=tmp)
        image *= side
    diff -= image
    sq = (None, None) if tmp is None else (tmp[0], tmp[-1])
    r2 = np.multiply(diff[0], diff[0], out=sq[0])
    for c in diff[1:]:
        r2 += np.multiply(c, c, out=sq[1])
    return r2


def interaction_energy(y, config, potential: PotentialSpec) -> float:
    """Total potential energy E(y, gamma) = sum_{z in gamma} phi(y - z), for
    gamma any object with a `torus` and an (n, d) array of `positions`.

    Distances are minimal-image and phi is cut off at its effective support.
    """
    _require_microscopic(potential)
    if potential.is_zero or len(config.positions) == 0:
        return 0.0
    y = np.asarray(y, dtype=float).reshape(-1)
    r2 = _norm2((config.positions - y).T, config.torus.side)
    return float(_sum_phi(potential, r2))


# -- initial states ----------------------------------------------------------


def check_density(torus: Torus, rho0):
    """Raise ConfigError unless rho0 is a finite number >= 0 or a
    DensityField on the torus."""
    if isinstance(rho0, DensityField):
        if rho0.torus != torus:
            raise ConfigError("density field lives on a different torus")
    elif collect_violations(lambda: _require_number("rho0", rho0, 0)):
        raise ConfigError(f"rho0 must be a finite number >= 0 or a DensityField, "
                          f"got {rho0!r}")


def _start(torus: Torus, positions):
    """A given initial configuration as an (n, d) array of floats;
    ConfigError unless its points are finite and of the torus's dimension."""
    pos = np.asarray(positions, dtype=float)
    if pos.size == 0:
        pos = np.zeros((0, torus.dim))
    if pos.ndim == 1:
        pos = pos[:, None]
    if pos.shape[1] != torus.dim:
        raise ConfigError(f"positions have dimension {pos.shape[1]}, torus has {torus.dim}")
    if not np.isfinite(pos).all():
        raise ConfigError("positions must be finite")
    return pos


def sample_poisson_positions(torus: Torus, density, rng: np.random.Generator):
    """Positions of a Poisson point sample: N ~ Poisson(integral of rho),
    locations i.i.d. with density rho / integral."""
    check_density(torus, density)
    d = torus.dim
    if isinstance(density, DensityField):
        weights = density.values.ravel() * density.cell_volume
        mass = float(weights.sum())
        n = int(rng.poisson(mass))
        if n == 0:
            return np.zeros((0, d))
        counts = rng.multinomial(n, weights / mass)
        flats = np.repeat(np.arange(weights.size), counts)
        idx = np.column_stack(np.unravel_index(flats, density.values.shape))
        h = density.spacing
        return (idx + rng.random((n, d))) * h
    n = int(rng.poisson(float(density) * torus.volume))
    return rng.random((n, d)) * torus.side


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

    def violations(self) -> list:
        """A ConfigError for every rule broken, in order; with a bad t_end, no snapshot rule."""
        found = collect_violations(
            lambda: check_model(self.torus, self.kernel, self.potential),
            lambda: _require_number("epsilon", self.epsilon, 0, strict=True))
        skip = collect_violations(lambda: _require_number("t_end", self.t_end, 0),
                                  lambda: _require_reals("snapshot_times", self.snapshot_times))
        found += skip + collect_violations(lambda: check_density(self.torus, self.rho0))
        outside = [] if skip else [s for s in self.snapshot_times if not 0 <= s <= self.t_end]
        if outside:
            found.append(ConfigError(f"snapshot time {outside[0]} outside [0, {self.t_end}]"))
        return found + collect_violations(
            lambda: _require_flag("record_events", self.record_events))

    def validate(self):
        """Raise the first of `violations()`."""
        raise_first(self.violations())


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
    initials = (None if initial_positions is None
                else [_start(params.torus, initial_positions)])
    return _simulate_rows(params, [seed], initials,
                          _planned_particles(params, initials))[0]


# -- the lockstep kernel -----------------------------------------------------

# Bytes per pool unit, planned before sampling. A row keeps (24 + 8 d) bytes
# of variates per slot it will use (movers are kept as int32 but drawn as
# int64), planned by _planned_slots, and its cell table takes about
# (16 d + 24) bytes per particle. The slots a row actually keeps are counted
# after its block is drawn, so a chunk's arrays are as wide as its longest
# row and may exceed the plan by the spread of the event counts.
_CHUNK_BYTES = 1 << 21

# Proposals a row decides per iteration: its speculative batch. No output
# depends on it (CHANGES.md has the measurements it was chosen from).
_BATCH = 32

# Terms of one energy query, rows x batch x slots read per target, that the
# batch is cut to, so that the query's arrays stay in cache.
_QUERY_TERMS = 1 << 15

# Slots planned per row beyond its expected events and limit crossings.
_SLOT_MARGIN = 32

# Particles in the 3^d cells an energy query reads: cells hold about
# _STENCIL_PARTICLES / 3^d each, 32 in 2-d (CHANGES.md has the crossover
# measurements).
_STENCIL_PARTICLES = 288


def _planned_slots(params, n):
    """Slots a row of about n particles is planned to keep: its expected
    alpha n t_end events, one crossing per limit and _SLOT_MARGIN, at most
    one block."""
    events = alpha(params.kernel) * n * params.t_end
    return min(_RNG_BLOCK, math.ceil(events) + _SLOT_MARGIN + len(_targets(params)[1]))


def _chunk_bounds(dim, n, n_trajectories, workers, slots):
    """Bounds of the pool units: balanced chunks of about _CHUNK_BYTES of
    variates and table each, for rows of `slots` slots, at least one per
    worker. The count is rounded, as a short last chunk would take as many
    iterations as a full one."""
    rows = max(1, _CHUNK_BYTES // ((24 + 8 * dim) * slots + (16 * dim + 24) * n))
    count = max(1, round(n_trajectories / rows), min(workers, n_trajectories))
    return (np.arange(count + 1) * n_trajectories) // count


def _cells_per_axis(torus, potential, n):
    """Cells per axis of the lockstep table for about n particles per row:
    at least phi's support wide, with about _STENCIL_PARTICLES in the 3^d
    cells around a point. Below 5 cells the stencil covers most of the torus
    and never paid in the measurements, so one cell is used."""
    if potential.is_zero:
        return 1
    m = min(torus.cells_per_axis(potential.support_radius),
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
        self.torus, self.side, self.m = torus, torus.side, m
        self.potential = potential
        self.cut = potential.support_radius * potential.support_radius
        self.strides = torus.strides(m)
        rows, n_cells = len(starts), m ** d
        sizes = np.array([len(p) for p in starts], dtype=np.int64)
        owner = np.repeat(np.arange(rows), sizes)
        points = np.concatenate(starts).reshape(-1, d) if rows else np.zeros((0, d))
        key = owner * n_cells + self.cell(points)  # (row, cell) of each particle
        self.fill = np.bincount(key, minlength=rows * n_cells).reshape(rows, n_cells)
        cap = int(self.fill.max(initial=0))
        if m > 1:
            cap = _grown(cap)
            near, self.neighbours = torus.stencil(m)
            # from 5 cells per axis on, a neighbour's points lie within 2L/5
            # of the target, or beyond 3L/5 across the boundary, so
            # round(diff / L) is fixed by the cells: -floor(near / m)
            self.images = (-(near // m)).transpose(0, 2, 1).astype(np.int8)
        self.cap = cap
        self.span = 3 ** d * cap if m > 1 else cap  # slots an energy query reads
        self.tab = np.full((rows, d, n_cells * cap), np.nan)
        self.who = np.full((rows, n_cells * cap), -1)
        # a cell keeps its particles in their order within the row
        order = np.argsort(key, kind="stable")
        first = np.cumsum(self.fill.ravel()) - self.fill.ravel()
        slot = np.empty_like(key)
        slot[order] = key[order] % n_cells * cap + np.arange(key.size) - first[key[order]]
        index = np.arange(key.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        self.tab[owner, :, slot] = points
        self.who[owner, slot] = index
        self.slot = np.zeros((rows, sizes.max(initial=0)), dtype=np.int64)
        self.slot[owner, index] = slot
        self.rows = np.arange(rows)
        self.scratch = [np.empty(0), np.empty(0), np.empty(0, bool)]

    def index(self, x):
        """Cell index along each axis of each point of x, shape (..., d)."""
        return self.torus.cell_index(x, self.m)

    def cell(self, x):
        """Flat cell index of each point of x, shape (..., d)."""
        return self.index(x) @ self.strides

    def at(self, mover):
        """Position of particle mover[r, ...] of every row r, shape
        mover.shape + (d,)."""
        rows = self.rows.reshape((-1,) + (1,) * (mover.ndim - 1))
        if self.m == 1:
            return self.tab[rows, :, mover]
        return self.tab[rows, :, self.slot[rows, mover]]

    def positions(self, r, n):
        """The n positions of row r, in particle order."""
        return self.tab[r][:, self.slot[r, :n]].T

    def keep(self, rows):
        self.tab, self.who = self.tab[rows], self.who[rows]
        self.slot, self.fill = self.slot[rows], self.fill[rows]
        self.rows = np.arange(self.tab.shape[0])

    def energies(self, y, cells):
        """E(y_r, gamma_r) for every target y_r of every row r, y of shape
        (rows, d) or (rows, targets, d) and y_r in cell cells[r], with the
        arithmetic of `interaction_energy`."""
        return self.potential.height * self.sums(y, cells)

    def sums(self, y, cells):
        """E(y_r, gamma_r) / height for every target y_r of every row r, y
        and cells as in `energies`. Terms are summed one after another in
        table order, so the zeros of empty slots leave the sum unchanged;
        top-hat sums are the integer neighbour counts. Each term is written
        into scratch the table keeps, with the arithmetic of fresh arrays."""
        rows, d, _ = self.tab.shape
        shape = y.shape[:-1]
        y = y.reshape(rows, -1, d).transpose(2, 0, 1)[..., None]  # (d, rows, targets, 1)
        if self.m == 1:
            diff = np.subtract(self.tab.transpose(1, 0, 2)[:, :, None], y,
                               out=self._scratch(0, (d, rows, y.shape[2], self.cap)))
            image = None
        else:
            cells = cells.reshape(rows, -1)
            # the cap-slot line of each (coordinate, row, cell)
            line = (np.arange(d)[:, None] + d * self.rows) * self.fill.shape[1]
            lines = line[:, :, None, None] + self.neighbours[cells]
            diff = np.take(self.tab.reshape(-1, self.cap), lines, axis=0, mode="clip",
                           out=self._scratch(0, lines.shape + (self.cap,)))
            diff -= y[..., None]
            image = self.side * self.images[cells].transpose(2, 0, 1, 3)[..., None]
        r2 = _norm2(diff, self.side, image, self._scratch(1, diff.shape))
        r2 = r2.reshape(rows, y.shape[2], -1)
        near = np.less_equal(r2, self.cut, out=self._scratch(2, r2.shape))
        if self.potential.family == "top_hat":
            return near.sum(axis=-1).reshape(shape)
        phi = _profile(self.potential, r2, out=diff[0].reshape(r2.shape))
        np.copyto(phi, 0.0, where=np.logical_not(near, out=near))
        return np.cumsum(phi, axis=-1, out=r2)[..., -1].reshape(shape).copy()

    def _scratch(self, k, shape):
        """Scratch array k of `shape`, over memory kept from query to query: a
        query's terms, 100 kB or more, would be mapped and faulted anew each time."""
        size = math.prod(shape)
        if self.scratch[k].size < size:
            self.scratch[k] = np.empty(size, self.scratch[k].dtype)
        return self.scratch[k][:size].reshape(shape)

    def clashes(self, mover, old, y, accept):
        """Per row r, the first proposal j of its batch, the move of particle
        mover[r, j] from old[r, j] to y[r, j], that could be decided
        otherwise once the proposals i < j with accept[r, i] are made; the
        batch width when there is none. That is when i moves the same
        particle, or its old or new point counts in the energy at y_j: for a
        count (the top-hat) or with one cell, when it lies within r2 <= cut
        by the query's own arithmetic, as every other term is exactly 0.0
        before and after the move; for a smooth sum over more cells, when it
        lies in the 3^d cells around y_j, whose slot order the move may
        change."""
        first = np.full(mover.shape[0], mover.shape[1])
        r, i = accept[:, :-1].nonzero()
        if not r.size:
            return first
        hit = mover[r] == mover[r, i][:, None]  # [pair, j]
        if not self.potential.is_zero:
            if self.m == 1 or self.potential.family == "top_hat":
                for p in old[r, i], y[r, i]:
                    r2 = _norm2((p[:, None, :] - y[r]).T, self.side)
                    hit |= r2.T <= self.cut
            else:
                to = self.index(y[r])
                for p in old[r, i], y[r, i]:
                    apart = (self.index(p)[:, None, :] - to + 1) % self.m
                    hit |= (apart <= 2).all(axis=-1)
        hit &= np.arange(hit.shape[1]) > i[:, None]
        np.minimum.at(first, r, np.where(hit.any(axis=1), hit.argmax(axis=1), first[r]))
        return first

    def move(self, hit, mover, y, cells):
        """Put particle mover[k] of row hit[k] at y[k], which lies in cell
        cells[k], for every k; with more than one cell, a row is hit at most
        once. A particle that changes cell swaps with the last one of its old
        cell and is appended to the new one, which grows the table when that
        cell is full."""
        if self.m == 1:
            self.tab[hit, :, mover] = y
            return
        src = self.slot[hit, mover]
        new = cells
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
        self.span = 3 ** d * new


def _batch_width(rows, span, n):
    """Proposals each of `rows` rows of at most n particles decides per
    iteration: at most _BATCH, and about the slots a row commits before it
    draws a mover twice, 1.25 sqrt(n) on average, since a batch ends there;
    cut so that the rows x width x span terms of the query, span slots read
    per target, stay within _QUERY_TERMS."""
    return max(1, min(_BATCH, math.ceil(1.25 * math.sqrt(n)),
                      _QUERY_TERMS // (rows * span)))


def _clock(gaps, t, target, limits):
    """Turn a row's block of waiting times into event times, in place, for a
    row at clock t short of limits[target]: each time is the one before plus
    its gap, summed in slot order (np.add.accumulate runs in order) a window
    of slots at a time, and a slot that passes a limit sets the clock to it.
    Returns the slots the row uses, up to the one that passes its last limit
    or all of them, and the clock its next block starts from."""
    used, width = 0, 128  # the window doubles while the clock falls short
    while target < len(limits) and used < gaps.size:
        clock = gaps[used:used + width].copy()
        clock[0] += t
        np.add.accumulate(clock, out=clock)
        passed = int(clock.searchsorted(limits[target], side="right"))
        if passed < clock.size:
            clock = clock[:passed + 1]
            t, target = limits[target], target + 1
        else:
            t, width = clock[-1], 2 * width
        gaps[used:used + clock.size] = clock
        used += clock.size
    return used, t


def _draw_slots(rngs, counts, t, target, limits, kernel, interacting):
    """The next block of (event time, mover, displacement, acceptance) slots
    of each row at clock t[r], the slots each row keeps, and its next clock.

    This is the draw order of every stream: per block, _RNG_BLOCK standard
    exponentials, times 1 / (alpha n), then _RNG_BLOCK movers in [0, n), then
    _RNG_BLOCK displacements, then, for an interacting potential, _RNG_BLOCK
    uniforms. `_clock` sums a row's block into event times and the block is
    trimmed to the slots the row will use, before the next row draws; the
    rows are padded with zeros to the longest, and a zero never passes a limit."""
    block, kept = _RNG_BLOCK, []
    stop, resume = np.empty(len(rngs), dtype=np.int64), np.empty(len(rngs))
    for r, rng in enumerate(rngs):
        times = rng.standard_exponential(block) * (1.0 / (alpha(kernel) * counts[r]))
        movs = rng.integers(0, counts[r], size=block)
        disps = sample_displacement(kernel, rng, size=block)
        accs = rng.random(block) if interacting else None
        stop[r], resume[r] = _clock(times, t[r], target[r], limits)
        kept.append([x[:stop[r]].copy() for x in (times, movs, disps, accs)
                     if x is not None])
    rows, width = len(rngs), int(stop.max())
    times = np.zeros((rows, width))
    movs = np.zeros((rows, width), dtype=np.int32)
    disps = np.zeros((rows, width, kernel.dim))
    accs = np.zeros((rows, width)) if interacting else None
    for r, row in enumerate(kept):
        for x, part in zip((times, movs, disps, accs), row):
            x[r, :len(part)] = part
    return times, movs, disps, accs, stop, resume


def _simulate_rows(params: SimulationParams, seeds, initials, n_planned):
    """Run one trajectory per seed, in lockstep; return them in order.

    Each active trajectory keeps its own index into its block of (event
    time, mover, displacement, acceptance) slots, and takes a batch of them
    per iteration, `_batch_width` wide: one energy query decides them all
    against the table as it stands, and they are committed in slot order up
    to the first one that an accepted move of the batch could affect (see
    `_CellTable.clashes`), or through the row's next snapshot or t_end
    crossing, which is a slot too; the loop reads the slot's event time and
    keeps no clock. Every committed decision thus sees the bits a
    one-at-a-time step would see, and each stream is consumed in the order
    `_draw_slots` defines, whatever the width. A row refills its block when
    it has taken its kept slots, and raises NumericError if it gets there
    short of t_end. `initials`, when given, is aligned with `seeds` and holds
    checked (n, d) arrays; the cell table is sized for `n_planned` particles
    per row.
    """
    torus, kernel, pot = params.torus, params.kernel, params.potential
    d = torus.dim
    rngs, starts = [], []
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        if initials is None:
            pos = sample_poisson_positions(torus, params.rho0, rng)
        else:
            pos = initials[r]
        rngs.append(rng)
        starts.append(torus.wrap(pos))
    counts = [p.shape[0] for p in starts]
    sts, targets = _targets(params)
    limits = np.asarray(targets, dtype=float)
    snapshots = [[] if n else [np.zeros((0, d)) for _ in sts] for n in counts]
    n_events = [0] * len(starts)
    n_accepted = [0] * len(starts)
    log = []

    active = np.flatnonzero(counts)  # active row -> stream; empty ones never step
    table = _CellTable(torus, pot, _cells_per_axis(torus, pot, n_planned),
                       [starts[j] for j in active])
    t = np.zeros(active.size)  # the clock each row's next block starts from
    target = np.zeros(active.size, dtype=np.int64)
    accepts = np.zeros(active.size, dtype=np.int64)
    used = np.zeros(active.size, dtype=np.int64)  # slots taken, over all blocks
    k = np.full(active.size, _RNG_BLOCK)  # next slot of each row's block
    stop = np.full(active.size, _RNG_BLOCK)  # slots each row keeps of its block
    rows = np.arange(active.size)  # active row -> row of the variate arrays

    interacting = not pot.is_zero
    eps = float(params.epsilon)
    bound_at = None
    if interacting and pot.family == "top_hat":
        # a top-hat energy is height * count: the acceptance bound that
        # math.exp gives below, for every count
        bound_at = np.array([math.exp(-eps * (pot.height * c))
                             for c in range(max(counts) + 1)])
    times = None
    iterations = 0
    n_max = max(counts, default=0)
    while active.size:
        empty = (k == stop).nonzero()[0]
        if empty.size:
            if (stop[empty] < _RNG_BLOCK).any():
                raise NumericError("a row ran past the slots kept for it")
            block = _draw_slots(
                [rngs[j] for j in active[empty]], [counts[j] for j in active[empty]],
                t[empty], target[empty], limits, kernel, interacting)
            if times is None:
                times, movs, disps, accs, stop, t = block
            else:
                # a refilling row had kept a whole block, so the arrays are
                # _RNG_BLOCK wide already
                for x, part in zip((times, movs, disps, accs), block[:4]):
                    if part is not None:
                        x[rows[empty], :part.shape[1]] = part
                stop[empty], t[empty] = block[4:]
            k[empty] = 0
        width = times.shape[1]
        batch = np.arange(_batch_width(active.size, table.span, n_max))
        at = (rows * width)[:, None] + np.minimum(k[:, None] + batch, width - 1)
        clock = times.ravel()[at]
        cross = clock > limits[target][:, None]
        mover = movs.ravel()[at]
        old = table.at(mover)
        y = torus.wrap(old + disps.reshape(-1, d)[at])
        cells = table.cell(y) if table.m > 1 else None
        accept = ~cross
        if bound_at is not None:
            accept &= accs.ravel()[at] < bound_at[table.sums(y, cells)]
        elif interacting:
            energy = table.energies(y, cells)
            # scalar math.exp, whose last bit np.exp need not match, so the
            # decisions are reproducible one proposal at a time; an energy
            # <= 0 gives a bound >= 1, which always accepts
            accept &= accs.ravel()[at] < [[math.exp(-eps * e) for e in row]
                                          for row in energy.tolist()]
        # a batch ends through its first crossing, after which times restart
        # at the limit, at the last kept slot, and before the first proposal
        # an accepted one of it could affect
        first = np.where(cross.any(axis=1), cross.argmax(axis=1) + 1, batch.size)
        end = np.minimum(np.minimum(first, stop - k), table.clashes(mover, old, y, accept))
        taken = batch < end[:, None]
        accept &= taken
        r, j = accept.nonzero()
        if table.m == 1:
            # a row's committed movers are distinct, so their order is immaterial
            table.move(r, mover[r, j], y[r, j], None)
        else:
            rank = np.arange(r.size) - np.searchsorted(r, r)
            for q in range(int(rank.max(initial=-1)) + 1):
                # each row's q-th accepted move, so that every row's moves
                # reach the table in slot order
                h = rank == q
                table.move(r[h], mover[r[h], j[h]], y[r[h], j[h]], cells[r[h], j[h]])
        if params.record_events:
            r, j = (taken & ~cross).nonzero()
            log.append((active[r], clock[r, j], mover[r, j], old[r, j], y[r, j],
                        accept[r, j]))
        accepts += accept.sum(axis=1)
        used += end
        k += end
        iterations += 1
        last = np.arange(rows.size), end - 1
        crossed = cross[last]
        if not crossed.any():
            continue
        for r in crossed.nonzero()[0]:
            if target[r] < len(sts):
                j = active[r]
                snapshots[j].append(table.positions(r, counts[j]))
        target += crossed
        done = target == len(limits)
        if done.any():
            for r in done.nonzero()[0]:
                j = active[r]
                # every slot of a row is an event except its boundary crossings
                n_events[j], n_accepted[j] = int(used[r]) - len(limits), int(accepts[r])
            keep = ~done
            rows, active, t, target, accepts, used, k, stop = (
                rows[keep], active[keep], t[keep], target[keep], accepts[keep],
                used[keep], k[keep], stop[keep])
            table.keep(keep)

    if log:
        cols = [np.concatenate(c) for c in zip(*log)]
        order = np.argsort(cols[0], kind="stable")
        cols = [c[order] for c in cols]
        bounds = np.searchsorted(cols[0], np.arange(len(starts) + 1))
    _logger.debug("chunk of %d rows: %d events, %d accepted, %d iterations, "
                  "%.2f events per iteration", len(seeds), sum(n_events),
                  sum(n_accepted), iterations, sum(n_events) / max(iterations, 1))
    out = []
    for j, seed in enumerate(seeds):
        rec = ()
        if log:
            rec = [c[bounds[j]:bounds[j + 1]] for c in cols[1:]]
        out.append(_trajectory(params, seed, counts[j], sts, snapshots[j], *rec,
                               n_events=n_events[j], n_accepted=n_accepted[j]))
    return out


def _run_chunk(reduce, first, params, seeds, initials, n_planned):
    return reduce(first, _simulate_rows(params, seeds, initials, n_planned))


def _pooled(units, workers):
    # at most 2 * workers chunks in flight, yielded in chunk order, so the
    # results that finish ahead of the one being consumed stay few
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque()
        try:
            for unit in units:
                pending.append(pool.submit(_run_chunk, *unit))
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def map_chunks(params: SimulationParams, n_trajectories: int, base_seed: int,
               reduce, n_jobs: int = 1, initials=None):
    """Run n independent trajectories in lockstep chunks and reduce each
    chunk in the process that ran it: an iterator over reduce(first,
    trajectories) per chunk, in chunk order, `first` being the index of the
    chunk's first trajectory. Trajectory i is a pure function of (params,
    base_seed, i), so serial and pooled runs agree exactly.

    With n_jobs > 1 the chunks go to a process pool, at least one per worker,
    which is clamped to the CPU and chunk counts, with at most two per worker
    in flight, and only the reduced values come back, so `reduce` must
    pickle. `initials`, when given, holds one initial configuration per
    trajectory. Every input, each initial configuration included, is checked
    at the call, before any chunk runs.
    """
    n_trajectories = _require_number("n_trajectories", n_trajectories, 1, integer=True)
    n_jobs = _require_number("n_jobs", n_jobs, 1, integer=True)
    params.validate()
    if initials is not None:
        if len(initials) != n_trajectories:
            raise ConfigError(f"{len(initials)} initial configurations for "
                              f"{n_trajectories} trajectories")
        initials = [_start(params.torus, x) for x in initials]
    n = _planned_particles(params, initials)
    workers = min(n_jobs, os.cpu_count() or 1)
    bounds = _chunk_bounds(params.torus.dim, n, n_trajectories, workers,
                           _planned_slots(params, n))
    units = [(reduce, int(lo), params, [_stream_seed(base_seed, i) for i in range(lo, hi)],
              None if initials is None else initials[lo:hi], n)
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    workers = min(workers, len(units))
    if workers <= 1:
        return (_run_chunk(*unit) for unit in units)
    return _pooled(units, workers)


def _trajectories(first, trajectories):
    return trajectories


def simulate_ensemble(params: SimulationParams, n_trajectories: int,
                      base_seed: int, n_jobs: int = 1, initials=None):
    """Run n independent trajectories and return them in order: `map_chunks`
    with chunks reduced to their trajectories, which the pool pickles back."""
    return [traj for chunk in map_chunks(params, n_trajectories, base_seed,
                                         _trajectories, n_jobs, initials)
            for traj in chunk]
