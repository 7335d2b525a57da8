"""Scalar reference implementations that only the tests use.

`Configuration` holds one point configuration, and `Simulation` steps it one
proposal at a time; it is the independent reference that the lockstep kernel
`simulator._simulate_rows` is compared against bit for bit. `minimal_image`
and `distance` are the torus arithmetic the oracles use. `total_pair_energy`
and `detailed_balance_residual` check the algebra behind Gibbs reversibility.
"""

import math
from typing import NamedTuple

import numpy as np

from kawasaki.errors import ConfigError
from kawasaki.kernels import alpha, sample_displacement
from kawasaki.simulator import _RNG_BLOCK, _sum_phi, interaction_energy


def minimal_image(torus, dx):
    """Fold coordinate differences into [-L/2, L/2)^d."""
    L = torus.side
    return (np.asarray(dx) + 0.5 * L) % L - 0.5 * L


def distance(torus, x, y):
    """Minimal-image Euclidean distance between points (or arrays of points)."""
    d = minimal_image(torus, np.asarray(x) - np.asarray(y))
    if d.ndim <= 1 and torus.dim == 1:
        return np.abs(d)
    return np.sqrt(np.sum(d * d, axis=-1))


class Configuration:
    """A finite point configuration on the torus.

    Positions are stored as an (n, d) array in [0, L)^d; they must be finite.
    """

    def __init__(self, torus, positions):
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


class Event(NamedTuple):
    time: float
    mover: int
    old_position: np.ndarray
    new_position: np.ndarray
    accepted: bool


class Simulation:
    """Mutable state of one exact-thinning run (configuration + clock + RNG).

    Random variates are consumed per event in the fixed order (waiting time,
    mover, displacement, acceptance), prefetched in blocks of _RNG_BLOCK; the
    acceptance block is only drawn for interacting potentials. The
    configuration must hold at least one particle.
    """

    def __init__(self, config: Configuration, kernel, potential, epsilon, rng):
        self.config = config
        self.kernel = kernel
        self.potential = potential
        self.epsilon = float(epsilon)
        self.rng = rng
        self.t = 0.0
        self.interacting = not potential.is_zero
        self._k = _RNG_BLOCK  # force refill on first step
        self._inv_rate = 1.0 / (alpha(kernel) * config.n)

    def _refill(self):
        b, rng = _RNG_BLOCK, self.rng
        self._exp = rng.standard_exponential(b)
        self._mov = rng.integers(0, self.config.n, size=b)
        self._disp = sample_displacement(self.kernel, rng, size=b)
        if self.interacting:
            self._acc = rng.random(b)
        self._k = 0

    def step(self, t_limit=math.inf):
        """Advance by one proposal; returns the Event, or None past t_limit.

        A None return leaves the configuration at its current state with the
        clock set to t_limit (exact by memorylessness of the waiting time).
        """
        if self._k >= _RNG_BLOCK:
            self._refill()
        k = self._k
        self._k += 1
        t_next = self.t + self._exp[k] * self._inv_rate
        if t_next > t_limit:
            self.t = t_limit
            return None
        self.t = t_next
        cfg = self.config
        i = int(self._mov[k])
        old = cfg.positions[i].copy()
        side = cfg.torus.side
        y = np.mod(old + self._disp[k], side)
        y[y >= side] = 0.0
        accepted = True
        if self.interacting:
            energy = interaction_energy(y, cfg, self.potential)
            if energy > 0.0:
                accepted = bool(self._acc[k] < math.exp(-self.epsilon * energy))
        if accepted:
            cfg.positions[i] = y
        return Event(self.t, i, old, y, accepted)


def total_pair_energy(positions, torus, potential) -> float:
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
    index = np.arange(n)
    return float(_sum_phi(potential, r2[index[:, None] < index]))  # i < j, row by row


def detailed_balance_residual(config: Configuration, x_index: int, y,
                              potential) -> float:
    """[E(gamma) + E(y, gamma)] - [E(gamma') + E(x, gamma')] for the move x -> y.

    gamma' is the post-move configuration. The quantity vanishes identically;
    this is the algebra behind Gibbs reversibility.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    pos = config.positions.copy()
    e_before = total_pair_energy(pos, config.torus, potential)
    e_in = interaction_energy(y, config, potential)
    pos_after = pos.copy()
    pos_after[x_index] = config.torus.wrap(y)
    config_after = Configuration(config.torus, pos_after)
    e_after = total_pair_energy(pos_after, config.torus, potential)
    e_back = interaction_energy(pos[x_index], config_after, potential)
    return (e_before + e_in) - (e_after + e_back)
