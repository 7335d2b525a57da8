"""Grand-canonical Metropolis sampler for the pair-potential Gibbs measure.

This is a test oracle, not part of the hop dynamics: the finite-volume Gibbs
measure with activity z and pair energy E is reversible for the hopping
process, so equilibrium statistics sampled here must be preserved by the
simulator. Moves are the standard mix of single-particle displacements and
insertion/deletion attempts with the usual grand-canonical acceptance rules
(Norman & Filinov 1969)

    insert:  min(1, z V exp(-eps dE) / (N + 1))
    delete:  min(1, N exp(+eps dE) / (z V)).

Energies use the simulator's minimal-image convention and support cutoff.
Each chain keeps a cell list with cells at least one support wide (Allen &
Tildesley, Computer Simulation of Liquids, 1987, section 5.3), so a query
visits only the 3^d cells around the point, in plain Python floats. Per pair
it does the arithmetic of the all-particle sum, and smooth energies are summed
in particle order, so the chain is bit-identical to the brute-force one.

The query takes the minimal image by comparison: d - L where d > L/2 and
d + L where d < -L/2, against the simulator's d - L round(d / L). Positions
lie in [0, L], so |d| <= L and both rules shift by -L, 0 or L, the same float
subtraction whenever they pick the same shift. They can pick different ones
only where d / L rounds to about +-1/2; there d^2 >= ~L^2 / 4, and L > 4R
(`Torus.require_fits`) puts that above the cutoff R^2. So every term that
passes the cutoff, and every (index, r^2) of a smooth sum, is the same under
both rules. In 1-d the query takes r^2 = d * d with no per-coordinate loop,
which is 0.0 + d * d bit for bit, as d * d >= 0; 1-d moves and their cell
lookups skip that loop too.

Uniforms and standard normals come from the chain's rng in blocks of _BLOCK,
kept across `run` calls, so the draws do not depend on how moves are split. An
index int(u * n), u <= 1 - 2^-53, rounds below n for every n < 2^53 (the exact
product lies over half an ulp below n); its bias, under n 2^-53, is the
resolution of every acceptance test.

Each chain builds its energy query once, a closure over its own position and
neighbour lists, which it mutates in place and never rebinds, and over L,
L/2, the cutoff, the height and whether the potential is smooth. `run` is the
one move loop: once per call it binds the streams, the lists, the query, L,
the volume, the displacement scale, epsilon and the activity, so an activity
set between calls, as `calibrate_activity` sets it, is honoured.
It keeps the draw order and the evaluation order of every acceptance
expression, and adds the moves it made and those it accepted, per type, to
`moves` and `accepted` once per call.

Plain Python pays per particle in the stencil, so the cell list wins while the
3^d cells hold a few particles. Per move, on one pinned vCPU of a 2-vCPU Xeon
with CPython 3.11 (process time, medians of 7 rounds in three runs), against
numpy over all particles in brackets: ~2.6 us (~33 us) for criterion 12's 1-d
top-hat chain (L = 100, n ~ 200, ~6 particles per stencil), ~53-57 us
(~44-47 us) for a 2-d Gaussian one (sigma = 0.5, L = 20, n ~ 120-150) and
~68-82 us (~46-52 us) for a 3-d exponential one (rate 8, L = 14, n ~ 125).
"""

import itertools
import math

import numpy as np

from .errors import ConfigError, _require_count, _require_positive
from .kernels import PotentialSpec
from .simulator import _profile
from .torus import Torus


_BLOCK = 1024  # variates per draw from the chain's rng


def _stream(draw):  # the values of draw(_BLOCK), draw(_BLOCK), ... one per call
    return itertools.chain.from_iterable(iter(lambda: draw(_BLOCK).tolist(), None)).__next__


def _index(u, n):
    return int(u * n)  # < n: see the module docstring


def _energy_query(torus, potential, pos, near):
    """The chain's energy query energy(y, cell, skip=-1): the energy of a
    particle at y in cell `cell` against every particle but `skip`, the terms
    of the all-particle sum that pass the cutoff. It reads `pos` and `near`,
    which the chain mutates in place, and binds everything else once."""
    cut = potential.support_radius * potential.support_radius
    if not cut:
        return lambda y, cell, skip=-1: 0.0
    L, height, smooth = torus.side, potential.height, potential.family != "top_hat"
    half = 0.5 * L
    neg_half = -half

    if torus.dim == 1:
        def energy(y, cell, skip=-1):
            b = y[0]
            count, hits = 0, []
            for members in near[cell]:
                for j in members:
                    d = pos[j][0] - b
                    if d > half:
                        d -= L
                    elif d < neg_half:
                        d += L
                    r2 = d * d
                    if r2 <= cut and j != skip:
                        count += 1
                        if smooth:
                            hits.append((j, r2))
            if not count:
                return 0.0
            if not smooth:
                return height * count
            hits.sort()
            return height * float(_profile(potential, np.array([r2 for _, r2 in hits])).sum())
        return energy

    def energy(y, cell, skip=-1):
        count, hits = 0, []
        for members in near[cell]:
            for j in members:
                r2 = 0.0
                for a, b in zip(pos[j], y):
                    d = a - b
                    if d > half:
                        d -= L
                    elif d < neg_half:
                        d += L
                    r2 += d * d
                if r2 <= cut and j != skip:
                    count += 1
                    if smooth:
                        hits.append((j, r2))
        if not count:
            return 0.0
        if not smooth:
            return height * count
        hits.sort()
        return height * float(_profile(potential, np.array([r2 for _, r2 in hits])).sum())
    return energy


class GibbsSampler:
    """Metropolis chain targeting the grand-canonical pair-potential measure,
    started from Poisson(initial_count) uniform points (the ideal-gas count
    activity * volume badly overshoots a repulsive equilibrium)."""

    def __init__(self, torus: Torus, potential: PotentialSpec, activity: float,
                 rng: np.random.Generator, epsilon: float = 1.0, *,
                 initial_count: float):
        if potential.family == "local":
            raise ConfigError("local(kappa) has no finite-volume Gibbs measure")
        r_sup = potential.support_radius
        torus.require_dim(potential)
        torus.require_fits(r_sup)
        _require_positive("activity", activity)
        _require_positive("epsilon", epsilon)
        self.torus = torus
        self.potential = potential
        self.activity = float(activity)
        self.epsilon = float(epsilon)
        self.rng = rng
        self.scale = float(r_sup or torus.side / 10.0)  # of a displacement's normal steps
        if not (math.isfinite(initial_count) and initial_count >= 0):
            raise ConfigError(f"initial_count must be finite and >= 0, got {initial_count}")
        start = rng.random((rng.poisson(initial_count), torus.dim)) * torus.side
        self._pos = [tuple(p) for p in start.tolist()]
        self._uniform, self._normal = _stream(rng.random), _stream(rng.standard_normal)

        # cell list: _cells[c] holds the indices of the particles in cell c,
        # _home[i] the cell of particle i, _near[c] the lists of the 3^d
        # cells around c. Cells are at least one support wide, and there are
        # no more of them than starting particles (but 3 per axis at least),
        # so a large sparse box stays small
        m = 1
        if r_sup > 0:
            m = min(torus.cells_per_axis(r_sup),
                    max(3, int(len(self._pos) ** (1.0 / torus.dim))))
        self._m, self._inv_width = m, m / torus.side
        self._cells = [[] for _ in range(m ** torus.dim)]
        self._near = [tuple(self._cells[k] for k in sorted(set(row)))
                      for row in torus.stencil(m)[1].tolist()]
        self._home = [self._cell(p) for p in self._pos]
        for i, c in enumerate(self._home):
            self._cells[c].append(i)
        self._energy = _energy_query(torus, potential, self._pos, self._near)
        # accepted moves of each type and moves made, over every `run`
        self.accepted = {"displace": 0, "insert": 0, "delete": 0}
        self.moves = 0

    @property
    def n(self) -> int:
        return len(self._pos)

    def positions(self) -> np.ndarray:
        return np.array(self._pos, dtype=float).reshape(len(self._pos), self.torus.dim)

    def _cell(self, y):
        m, inv, c = self._m, self._inv_width, 0
        for a in y:
            c = c * m + min(int(a * inv), m - 1)
        return c

    def run(self, n_moves: int):
        """Make n_moves moves. The chain's parameters, `activity` among them,
        are read once per call, so a change between calls is honoured."""
        n_moves = _require_count("n_moves", n_moves)
        uniform, normal, energy, cell_of = self._uniform, self._normal, self._energy, self._cell
        pos, home, cells = self._pos, self._home, self._cells
        L, dim, zv = self.torus.side, self.torus.dim, self.activity * self.torus.volume
        m1, inv = self._m - 1, self._inv_width
        scale, epsilon = self.scale, self.epsilon
        exp = math.exp
        displaced = inserted = deleted = 0
        for _ in range(n_moves):
            u = uniform()
            if u < 0.5:  # a displacement; an insertion or a deletion 1/4 each
                if not pos:
                    continue
                i = int(uniform() * len(pos))  # _index, inlined
                x = pos[i]
                # Python's % on floats is np.mod's arithmetic; L folds to 0.0
                # as in Torus.wrap
                if dim == 1:
                    a = (x[0] + scale * normal()) % L
                    if a >= L:
                        a = 0.0
                    y, cell = (a,), int(a * inv)
                    if cell > m1:
                        cell = m1
                else:
                    y = []
                    for a in x:
                        a = (a + scale * normal()) % L
                        y.append(0.0 if a >= L else a)
                    y = tuple(y)
                    cell = cell_of(y)
                was = home[i]
                de = energy(y, cell, i) - energy(x, was, i)
                if de <= 0 or uniform() < exp(-epsilon * de):
                    pos[i] = y
                    displaced += 1
                    if cell != was:
                        cells[was].remove(i)
                        cells[cell].append(i)
                        home[i] = cell
            elif u < 0.75:
                if dim == 1:
                    a = uniform() * L
                    y, cell = (a,), int(a * inv)
                    if cell > m1:
                        cell = m1
                else:
                    y = tuple(uniform() * L for _ in range(dim))
                    cell = cell_of(y)
                n = len(pos)
                if uniform() < zv * exp(-epsilon * energy(y, cell)) / (n + 1):
                    cells[cell].append(n)
                    pos.append(y)
                    home.append(cell)
                    inserted += 1
            else:
                n = len(pos)
                if not n:
                    continue
                i = int(uniform() * n)  # _index, inlined
                if uniform() < n * exp(epsilon * energy(pos[i], home[i], i)) / zv:
                    # the last particle takes index i
                    cells[home[i]].remove(i)
                    y, cell = pos.pop(), home.pop()
                    if i != n - 1:
                        pos[i], home[i] = y, cell
                        members = cells[cell]
                        members[members.index(n - 1)] = i
                    deleted += 1
        accepted = self.accepted
        accepted["displace"] += displaced
        accepted["insert"] += inserted
        accepted["delete"] += deleted
        self.moves += n_moves

    def sample(self, n_samples: int, thin_moves: int, burn_in_moves: int = 0):
        """Decorrelated configuration samples along one chain."""
        n_samples = _require_count("n_samples", n_samples)
        _require_count("thin_moves", thin_moves)
        self.run(burn_in_moves)
        out = []
        for _ in range(n_samples):
            self.run(thin_moves)
            out.append(self.positions())
        return out


def calibrate_activity(torus: Torus, potential: PotentialSpec, target_count: float,
                       rng: np.random.Generator, epsilon: float = 1.0,
                       rounds: int = 12, moves_per_round: int = None) -> float:
    """Activity z whose grand-canonical mean particle count is ~ target_count.

    Fixed-point iteration z <- z * target / observed along one persistent
    chain (the count relaxes between neighboring activities much faster than
    from a cold start). Accuracy a couple of percent, which is all the
    equilibrium tests need.
    """
    _require_positive("target_count", target_count)
    rounds = _require_count("rounds", rounds, least=1)
    if moves_per_round is None:
        moves_per_round = int(60 * target_count)
    else:
        moves_per_round = _require_count("moves_per_round", moves_per_round, least=1)
    z = target_count / torus.volume  # ideal-gas guess
    chain = GibbsSampler(torus, potential, z, rng, epsilon=epsilon,
                         initial_count=target_count)
    estimates = []
    for r in range(rounds):
        chain.run(moves_per_round // 3)  # re-equilibrate after the z update
        counts = []
        for _ in range(50):
            chain.run(max(moves_per_round // 50, 1))
            counts.append(chain.n)
        observed = max(float(np.mean(counts)), 0.5)
        z *= target_count / observed
        chain.activity = z
        if r >= rounds - 3:
            estimates.append(z)
    return float(np.mean(estimates))
