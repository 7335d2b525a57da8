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

Plain Python pays per particle in the stencil, so the cell list wins while the
3^d cells hold a few dozen particles at most (2-vCPU Xeon, CPython 3.11). A
1-d top-hat chain at n ~ 200, with ~6 particles per stencil, makes a move in
~9 us, against ~25 us for numpy over all particles. With ~38 particles per
stencil (2-d Gaussian, sigma = 0.5, L = 20, n ~ 106) a move costs ~100 us,
against ~56 us.
"""

import math

import numpy as np

from .errors import ConfigError
from .kernels import PotentialSpec
from .simulator import _profile
from .torus import Torus


def _require_positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value}")


class GibbsSampler:
    """Metropolis chain targeting the grand-canonical pair-potential measure."""

    def __init__(self, torus: Torus, potential: PotentialSpec, activity: float,
                 rng: np.random.Generator, epsilon: float = 1.0,
                 displacement_scale: float = None, p_displace: float = 0.5,
                 initial_count: float = None):
        if potential.family == "local":
            raise ConfigError("local(kappa) has no finite-volume Gibbs measure")
        r_sup = potential.support_radius
        torus.require_fits(r_sup)
        _require_positive("activity", activity)
        _require_positive("epsilon", epsilon)
        if not 0.0 <= p_displace <= 1.0:
            raise ConfigError(f"p_displace must lie in [0, 1], got {p_displace}")
        if displacement_scale is None:
            displacement_scale = r_sup or torus.side / 10.0
        _require_positive("displacement_scale", displacement_scale)
        self.torus = torus
        self.potential = potential
        self.activity = float(activity)
        self.epsilon = float(epsilon)
        self.rng = rng
        self.p_displace = float(p_displace)
        self.scale = float(displacement_scale)
        # the ideal-gas count at this activity badly overshoots the repulsive
        # equilibrium; callers who know the target density should pass it
        if initial_count is None:
            initial_count = activity * torus.volume
        if not (math.isfinite(initial_count) and initial_count >= 0):
            raise ConfigError(f"initial_count must be finite and >= 0, got {initial_count}")
        n0 = rng.poisson(initial_count)
        start = rng.random((max(n0, 1), torus.dim)) * torus.side
        self._pos = [tuple(p) for p in start.tolist()]

        # cell list: _cells[c] holds the indices of the particles in cell c,
        # _home[i] the cell of particle i, _near[c] the lists of the 3^d
        # cells around c. Cells are at least one support wide, and there are
        # no more of them than starting particles (but 3 per axis at least),
        # so a large sparse box stays small; the margin keeps a point whose
        # cell index rounds across a boundary inside the neighbour cells of
        # every point within the support
        d = torus.dim
        self._cut = r_sup * r_sup
        m = 1
        if r_sup > 0:
            m = min(int(torus.side / (r_sup * (1.0 + 1e-9))),
                    max(3, int(len(self._pos) ** (1.0 / d))))
        self._m, self._inv_width = m, m / torus.side
        self._cells = [[] for _ in range(m ** d)]
        offsets = np.indices((3,) * d).reshape(d, -1).T - 1
        index = np.indices((m,) * d).reshape(d, -1).T
        near = ((index[:, None, :] + offsets) % m) @ (m ** np.arange(d - 1, -1, -1))
        self._near = [tuple(self._cells[k] for k in sorted(set(row)))
                      for row in near.tolist()]
        self._home = [self._cell(p) for p in self._pos]
        for i, c in enumerate(self._home):
            self._cells[c].append(i)

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

    def _energy(self, y, cell, skip=-1):
        """Energy of a particle at y in cell `cell` against every particle but
        `skip`: the terms of the all-particle sum that pass the cutoff."""
        if not self._cut:
            return 0.0
        L, cut, pos = self.torus.side, self._cut, self._pos
        hits = []
        for members in self._near[cell]:
            for j in members:
                if j == skip:
                    continue
                r2 = 0.0
                for a, b in zip(pos[j], y):
                    d = a - b
                    d -= L * round(d / L)
                    r2 += d * d
                if r2 <= cut:
                    hits.append((j, r2))
        if not hits:
            return 0.0
        pot = self.potential
        if pot.family == "top_hat":
            return pot.height * len(hits)
        hits.sort()
        return pot.height * float(_profile(pot, np.array([r2 for _, r2 in hits])).sum())

    def _wrap(self, a):
        # Python's % on floats is np.mod's arithmetic; L folds to 0.0 as in
        # Torus.wrap
        L = self.torus.side
        a %= L
        return 0.0 if a >= L else a

    def _attempt(self):
        rng, pos, home, cells = self.rng, self._pos, self._home, self._cells
        u = rng.random()
        dim = self.torus.dim
        if u < self.p_displace:
            if not pos:
                return
            i = int(rng.integers(0, len(pos)))
            x = pos[i]
            step = rng.standard_normal(dim).tolist()
            y = tuple(self._wrap(a + self.scale * g) for a, g in zip(x, step))
            cell = self._cell(y)
            de = self._energy(y, cell, i) - self._energy(x, home[i], i)
            if de <= 0 or rng.random() < math.exp(-self.epsilon * de):
                pos[i] = y
                if cell != home[i]:
                    cells[home[i]].remove(i)
                    cells[cell].append(i)
                    home[i] = cell
        elif u < self.p_displace + 0.5 * (1.0 - self.p_displace):
            y = tuple((rng.random(dim) * self.torus.side).tolist())
            cell = self._cell(y)
            de = self._energy(y, cell)
            acc = self.activity * self.torus.volume * math.exp(-self.epsilon * de) / (len(pos) + 1)
            if rng.random() < acc:
                cells[cell].append(len(pos))
                pos.append(y)
                home.append(cell)
        else:
            if not pos:
                return
            i = int(rng.integers(0, len(pos)))
            de = self._energy(pos[i], home[i], i)
            acc = len(pos) * math.exp(self.epsilon * de) / (self.activity * self.torus.volume)
            if rng.random() < acc:
                # the last particle takes index i
                cells[home[i]].remove(i)
                last = len(pos) - 1
                y, cell = pos.pop(), home.pop()
                if i != last:
                    pos[i], home[i] = y, cell
                    members = cells[cell]
                    members[members.index(last)] = i

    def run(self, n_moves: int):
        for _ in range(int(n_moves)):
            self._attempt()

    def sample(self, n_samples: int, thin_moves: int, burn_in_moves: int = 0):
        """Decorrelated configuration samples along one chain."""
        self.run(burn_in_moves)
        out = []
        for _ in range(int(n_samples)):
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
    if rounds < 1:
        raise ConfigError(f"rounds must be at least 1, got {rounds}")
    if moves_per_round is None:
        moves_per_round = int(60 * target_count)
    elif moves_per_round < 1:
        raise ConfigError(f"moves_per_round must be at least 1, got {moves_per_round}")
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
