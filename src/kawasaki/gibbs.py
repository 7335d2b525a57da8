"""Grand-canonical Metropolis sampler for the pair-potential Gibbs measure.

This is a test oracle, not part of the hop dynamics: the finite-volume Gibbs
measure with activity z and pair energy E is reversible for the hopping
process, so equilibrium statistics sampled here must be preserved by the
simulator. Moves are the standard mix of single-particle displacements and
insertion/deletion attempts with the usual grand-canonical acceptance rules

    insert:  min(1, z V exp(-eps dE) / (N + 1))
    delete:  min(1, N exp(+eps dE) / (z V)).

Energies are evaluated against all particles (the configurations here are a
few hundred points, so the brute-force path is both simple and fast), with
the same minimal-image convention and support cutoff as the simulator.
"""

import math

import numpy as np

from .errors import ConfigError
from .kernels import PotentialSpec
from .simulator import _norm2, _sum_phi
from .torus import Torus


class GibbsSampler:
    """Metropolis chain targeting the grand-canonical pair-potential measure."""

    def __init__(self, torus: Torus, potential: PotentialSpec, activity: float,
                 rng: np.random.Generator, epsilon: float = 1.0,
                 displacement_scale: float = None, p_displace: float = 0.5,
                 initial_count: float = None):
        if potential.family == "local":
            raise ConfigError("local(kappa) has no finite-volume Gibbs measure")
        if activity <= 0:
            raise ConfigError(f"activity must be positive, got {activity}")
        self.torus = torus
        self.potential = potential
        self.activity = float(activity)
        self.epsilon = float(epsilon)
        self.rng = rng
        self.p_displace = float(p_displace)
        if displacement_scale is None:
            displacement_scale = potential.support_radius or torus.side / 10.0
        self.scale = float(displacement_scale)
        # the ideal-gas count at this activity badly overshoots the repulsive
        # equilibrium; callers who know the target density should pass it
        if initial_count is None:
            initial_count = activity * torus.volume
        n0 = rng.poisson(initial_count)
        self._pos = rng.random((max(n0, 1), torus.dim)) * torus.side
        self._n = self._pos.shape[0]

    @property
    def n(self) -> int:
        return self._n

    def positions(self) -> np.ndarray:
        return self._pos[: self._n].copy()

    def _energy_with(self, y, skip=None):
        pos = self._pos[: self._n]
        r2 = _norm2((pos - y).T, self.torus.side)
        if skip is not None:
            r2 = np.delete(r2, skip)
        return _sum_phi(self.potential, r2)

    def _attempt(self):
        rng = self.rng
        u = rng.random()
        L = self.torus.side
        if u < self.p_displace:
            if self._n == 0:
                return
            i = int(rng.integers(0, self._n))
            x = self._pos[i]
            y = self.torus.wrap(x + self.scale * rng.standard_normal(self.torus.dim))
            de = self._energy_with(y, skip=i) - self._energy_with(x, skip=i)
            if de <= 0 or rng.random() < math.exp(-self.epsilon * de):
                self._pos[i] = y
        elif u < self.p_displace + 0.5 * (1.0 - self.p_displace):
            y = rng.random(self.torus.dim) * L
            de = self._energy_with(y)
            acc = self.activity * self.torus.volume * math.exp(-self.epsilon * de) / (self._n + 1)
            if rng.random() < acc:
                if self._n == self._pos.shape[0]:
                    self._pos = np.vstack([self._pos, np.empty_like(self._pos)])
                self._pos[self._n] = y
                self._n += 1
        else:
            if self._n == 0:
                return
            i = int(rng.integers(0, self._n))
            de = self._energy_with(self._pos[i], skip=i)
            acc = self._n * math.exp(self.epsilon * de) / (self.activity * self.torus.volume)
            if rng.random() < acc:
                self._pos[i] = self._pos[self._n - 1]
                self._n -= 1

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
    if target_count <= 0:
        raise ConfigError("target_count must be positive")
    z = target_count / torus.volume  # ideal-gas guess
    if moves_per_round is None:
        moves_per_round = int(60 * target_count)
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
