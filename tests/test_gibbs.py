import math

import numpy as np
import pytest

from kawasaki import (ConfigError, GeometryError, GibbsSampler, PotentialSpec,
                      Torus, calibrate_activity)
from kawasaki.simulator import _norm2, _sum_phi

TORUS = Torus(1, 50.0)
POT = PotentialSpec.top_hat(1.0, 0.7, dim=1)


def test_ideal_gas_recovers_poisson_statistics():
    # with no interaction the grand-canonical chain is exactly Poisson(z V)
    rng = np.random.default_rng(1)
    free = PotentialSpec.zero(dim=1)
    chain = GibbsSampler(TORUS, free, activity=1.0, rng=rng, initial_count=50)
    chain.run(20_000)
    counts = []
    for _ in range(800):
        chain.run(300)
        counts.append(chain.n)
    counts = np.array(counts)
    assert counts.mean() == pytest.approx(50.0, abs=2.0)
    assert counts.var() / counts.mean() == pytest.approx(1.0, abs=0.25)


def test_repulsion_is_sub_poissonian():
    rng = np.random.default_rng(2)
    z = calibrate_activity(TORUS, POT, 100.0, rng)
    chain = GibbsSampler(TORUS, POT, z, rng, initial_count=100)
    chain.run(30_000)
    counts = []
    for _ in range(600):
        chain.run(400)
        counts.append(chain.n)
    counts = np.array(counts)
    assert counts.mean() == pytest.approx(100.0, rel=0.05)
    assert counts.var() / counts.mean() < 1.0  # number fluctuations suppressed


def test_calibration_validates_target():
    with pytest.raises(ConfigError):
        calibrate_activity(TORUS, POT, -5.0, np.random.default_rng(0))


def test_sampler_rejects_local_potential():
    with pytest.raises(ConfigError):
        GibbsSampler(TORUS, PotentialSpec.local(1.0, dim=1), 1.0,
                     np.random.default_rng(0))


def test_positions_stay_in_box():
    rng = np.random.default_rng(3)
    chain = GibbsSampler(TORUS, POT, 2.0, rng, initial_count=40)
    chain.run(5000)
    pos = chain.positions()
    assert pos.shape[1] == 1
    assert np.all((pos >= 0.0) & (pos < TORUS.side))


class BruteForceChain:
    """The sampler before it kept a cell list: numpy energies against every
    particle. Same draws, same acceptance rules; it counts accepted moves of
    each type."""

    def __init__(self, torus, potential, activity, rng, initial_count):
        self.torus, self.potential, self.activity, self.rng = torus, potential, activity, rng
        self.scale = potential.support_radius or torus.side / 10.0
        n0 = rng.poisson(initial_count)
        self._pos = rng.random((max(n0, 1), torus.dim)) * torus.side
        self._n = self._pos.shape[0]
        self.accepted = {"displace": 0, "insert": 0, "delete": 0}

    def positions(self):
        return self._pos[: self._n].copy()

    def _energy_with(self, y, skip=None):
        r2 = _norm2((self._pos[: self._n] - y).T, self.torus.side)
        if skip is not None:
            r2 = np.delete(r2, skip)
        return _sum_phi(self.potential, r2)

    def run(self, n_moves):
        rng, L, volume = self.rng, self.torus.side, self.torus.volume
        for _ in range(n_moves):
            u = rng.random()
            if u < 0.5:
                if self._n == 0:
                    continue
                i = int(rng.integers(0, self._n))
                x = self._pos[i]
                y = self.torus.wrap(x + self.scale * rng.standard_normal(self.torus.dim))
                de = self._energy_with(y, skip=i) - self._energy_with(x, skip=i)
                if de <= 0 or rng.random() < math.exp(-de):
                    self._pos[i] = y
                    self.accepted["displace"] += 1
            elif u < 0.75:
                y = rng.random(self.torus.dim) * L
                acc = self.activity * volume * math.exp(-self._energy_with(y)) / (self._n + 1)
                if rng.random() < acc:
                    if self._n == self._pos.shape[0]:
                        self._pos = np.vstack([self._pos, np.empty_like(self._pos)])
                    self._pos[self._n] = y
                    self._n += 1
                    self.accepted["insert"] += 1
            else:
                if self._n == 0:
                    continue
                i = int(rng.integers(0, self._n))
                de = self._energy_with(self._pos[i], skip=i)
                if rng.random() < self._n * math.exp(de) / (self.activity * volume):
                    self._pos[i] = self._pos[self._n - 1]
                    self._n -= 1
                    self.accepted["delete"] += 1


REFERENCE_CASES = {
    "top-hat 1-d": (TORUS, POT, 2.0, 100),
    "zero": (Torus(1, 20.0), PotentialSpec.zero(dim=1), 1.0, 20),
    "gaussian 2-d": (Torus(2, 16.0), PotentialSpec.gaussian(0.5, 1.0, dim=2), 0.5, 60),
    "exponential 3-d": (Torus(3, 14.0), PotentialSpec.exponential(8.0, 1.0, dim=3), 0.05, 60),
    "top-hat 2-d, small box": (Torus(2, 4.5), PotentialSpec.top_hat(1.0, 0.5, dim=2), 1.0, 15),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_cell_list_chain_bit_identical_to_brute_force(case):
    torus, pot, z, n0 = REFERENCE_CASES[case]
    chain = GibbsSampler(torus, pot, z, np.random.default_rng(11), initial_count=n0)
    ref = BruteForceChain(torus, pot, z, np.random.default_rng(11), n0)
    for _ in range(6):
        chain.run(250)
        ref.run(250)
        assert chain.n == ref._n
        assert np.array_equal(chain.positions(), ref.positions())
    assert min(ref.accepted.values()) > 0, ref.accepted
    # single queries, the hardest ones just inside the support of a particle
    edge = pot.support_radius * (1.0 - 1e-12) * np.eye(torus.dim)[0]
    probes = [torus.wrap(p + s * edge) for p in chain.positions() for s in (-1, 1)]
    probes += list(np.random.default_rng(3).random((50, torus.dim)) * torus.side)
    for y in probes:
        y = tuple(y.tolist())
        assert chain._energy(y, chain._cell(y)) == ref._energy_with(np.array(y))


@pytest.mark.parametrize("torus, pot", [
    (TORUS, POT),
    (Torus(2, 9.0), PotentialSpec.top_hat(1.0, 0.3, dim=2)),
    (Torus(3, 6.0), PotentialSpec.gaussian(0.2, 1.0, dim=3)),
], ids=["1-d", "2-d", "3-d"])
def test_every_particle_sits_once_in_the_cell_of_its_position(torus, pot):
    chain = GibbsSampler(torus, pot, 0.5, np.random.default_rng(4),
                         initial_count=torus.volume / 2)
    chain.run(5000)
    assert chain._m >= 3
    members = sorted(j for cell in chain._cells for j in cell)
    assert members == list(range(chain.n))
    for i, p in enumerate(chain._pos):
        assert chain._home[i] == chain._cell(p)
        assert i in chain._cells[chain._home[i]]


def test_sparse_box_has_no_more_cells_than_starting_particles():
    torus = Torus(3, 100.0)  # 99 support-wide cells per axis
    chain = GibbsSampler(torus, PotentialSpec.top_hat(1.0, 1.0, dim=3), 1e-3,
                         np.random.default_rng(6))
    assert 3 ** 3 <= len(chain._cells) <= chain.n
    chain.run(500)
    assert np.all((chain.positions() >= 0.0) & (chain.positions() < torus.side))


@pytest.mark.parametrize("kwargs, error", [
    ({"torus": Torus(1, 3.0)}, GeometryError),
    ({"activity": float("nan")}, ConfigError),
    ({"activity": float("inf")}, ConfigError),
    ({"epsilon": float("nan")}, ConfigError),
    ({"epsilon": 0.0}, ConfigError),
    ({"p_displace": 1.7}, ConfigError),
    ({"p_displace": float("nan")}, ConfigError),
    ({"displacement_scale": -1.0}, ConfigError),
    ({"displacement_scale": float("inf")}, ConfigError),
    ({"initial_count": float("nan")}, ConfigError),
    ({"initial_count": -5.0}, ConfigError),
], ids=["torus too small", "activity nan", "activity inf", "epsilon nan",
        "epsilon zero", "p_displace above 1", "p_displace nan",
        "displacement_scale negative", "displacement_scale inf",
        "initial_count nan", "initial_count negative"])
def test_sampler_validates_inputs(kwargs, error):
    args = {"torus": TORUS, "potential": POT, "activity": 1.0,
            "rng": np.random.default_rng(0), **kwargs}
    with pytest.raises(error):
        GibbsSampler(**args)


@pytest.mark.parametrize("kwargs", [
    {"target_count": float("nan")},
    {"target_count": float("inf")},
    {"rounds": 0},
    {"moves_per_round": 0},
], ids=["target nan", "target inf", "no rounds", "no moves per round"])
def test_calibration_validates_inputs(kwargs):
    args = {"target_count": 10.0, **kwargs}
    with pytest.raises(ConfigError):
        calibrate_activity(TORUS, POT, rng=np.random.default_rng(0), **args)
