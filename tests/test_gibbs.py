import itertools
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import kawasaki
from kawasaki import (ConfigError, GeometryError, GibbsSampler, PotentialSpec,
                      Torus, calibrate_activity, gibbs)
from kawasaki.simulator import _norm2, _sum_phi

REPO = pathlib.Path(__file__).resolve().parents[1]
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
                     np.random.default_rng(0), initial_count=20)


def test_positions_stay_in_box():
    rng = np.random.default_rng(3)
    chain = GibbsSampler(TORUS, POT, 2.0, rng, initial_count=40)
    chain.run(5000)
    pos = chain.positions()
    assert pos.shape[1] == 1
    assert np.all((pos >= 0.0) & (pos < TORUS.side))


class BruteForceChain:
    """The sampler before it kept a cell list: numpy energies against every
    particle. Same block streams of draws, same acceptance rules; it counts
    accepted moves of each type."""

    def __init__(self, torus, potential, activity, rng, initial_count):
        self.torus, self.potential, self.activity = torus, potential, activity
        self.scale = potential.support_radius or torus.side / 10.0
        self._pos = rng.random((rng.poisson(initial_count), torus.dim)) * torus.side
        self._n = self._pos.shape[0]
        self._uniform = gibbs._stream(rng.random)
        self._normal = gibbs._stream(rng.standard_normal)
        self.accepted = {"displace": 0, "insert": 0, "delete": 0}

    def positions(self):
        return self._pos[: self._n].copy()

    def _energy_with(self, y, skip=None):
        r2 = _norm2((self._pos[: self._n] - y).T, self.torus.side)
        if skip is not None:
            r2 = np.delete(r2, skip)
        return _sum_phi(self.potential, r2)

    def run(self, n_moves):
        uniform, normal = self._uniform, self._normal
        d, L, volume = self.torus.dim, self.torus.side, self.torus.volume
        for _ in range(n_moves):
            u = uniform()
            if u < 0.5:
                if self._n == 0:
                    continue
                i = gibbs._index(uniform(), self._n)
                x = self._pos[i]
                y = self.torus.wrap(x + self.scale * np.array([normal() for _ in range(d)]))
                de = self._energy_with(y, skip=i) - self._energy_with(x, skip=i)
                if de <= 0 or uniform() < math.exp(-de):
                    self._pos[i] = y
                    self.accepted["displace"] += 1
            elif u < 0.75:
                y = np.array([uniform() for _ in range(d)]) * L
                acc = self.activity * volume * math.exp(-self._energy_with(y)) / (self._n + 1)
                if uniform() < acc:
                    if self._n == self._pos.shape[0]:
                        self._pos = np.vstack([self._pos, np.empty((max(self._n, 1), d))])
                    self._pos[self._n] = y
                    self._n += 1
                    self.accepted["insert"] += 1
            else:
                if self._n == 0:
                    continue
                i = gibbs._index(uniform(), self._n)
                de = self._energy_with(self._pos[i], skip=i)
                if uniform() < self._n * math.exp(de) / (self.activity * volume):
                    self._pos[i] = self._pos[self._n - 1]
                    self._n -= 1
                    self.accepted["delete"] += 1


REFERENCE_CASES = {
    "top-hat 1-d": (TORUS, POT, 2.0, 100),
    "zero": (Torus(1, 20.0), PotentialSpec.zero(dim=1), 1.0, 20),
    "gaussian 2-d": (Torus(2, 16.0), PotentialSpec.gaussian(0.5, 1.0, dim=2), 0.5, 60),
    "exponential 3-d": (Torus(3, 14.0), PotentialSpec.exponential(8.0, 1.0, dim=3), 0.05, 60),
    "top-hat 2-d, small box": (Torus(2, 4.5), PotentialSpec.top_hat(1.0, 0.5, dim=2), 1.0, 15),
    "gaussian 1-d": (Torus(1, 20.0), PotentialSpec.gaussian(0.5, 1.0, dim=1), 1.0, 20),
    "criterion 12": (Torus(1, 100.0), PotentialSpec.top_hat(1.0, 0.7, dim=1), 22.0, 200),
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
    assert chain.accepted == ref.accepted and chain.moves == 6 * 250
    # single queries, the hardest ones just inside the support of a particle
    edge = pot.support_radius * (1.0 - 1e-12) * np.eye(torus.dim)[0]
    probes = [torus.wrap(p + s * edge) for p in chain.positions() for s in (-1, 1)]
    probes += list(np.random.default_rng(3).random((50, torus.dim)) * torus.side)
    for y in probes:
        y = tuple(y.tolist())
        assert chain._energy(y, chain._cell(y)) == ref._energy_with(np.array(y))


def test_activity_set_between_runs_is_honoured():
    torus, pot, z, n0 = REFERENCE_CASES["top-hat 1-d"]
    chain = GibbsSampler(torus, pot, z, np.random.default_rng(11), initial_count=n0)
    ref = BruteForceChain(torus, pot, z, np.random.default_rng(11), n0)
    kept = GibbsSampler(torus, pot, z, np.random.default_rng(11), initial_count=n0)
    for c in (chain, ref, kept):
        c.run(250)
    chain.activity = ref.activity = 0.25 * z
    for c in (chain, ref, kept):
        c.run(250)
    assert np.array_equal(chain.positions(), ref.positions())
    assert chain.accepted == ref.accepted
    assert not np.array_equal(chain.positions(), kept.positions())


def brute_energy(chain, y):
    r2 = _norm2((chain.positions() - np.array(y)).T, chain.torus.side)
    return _sum_phi(chain.potential, r2)


@pytest.mark.parametrize("torus, pot, n0", [
    (Torus(1, 100.0), PotentialSpec.top_hat(1.0, 0.7, dim=1), 200),
    (Torus(1, 20.0), PotentialSpec.gaussian(0.5, 1.0, dim=1), 20),
    (Torus(2, 9.0), PotentialSpec.top_hat(1.0, 0.3, dim=2), 40),
    (Torus(2, 20.0), PotentialSpec.gaussian(0.5, 1.0, dim=2), 60),
], ids=["top-hat 1-d", "gaussian 1-d", "top-hat 2-d", "gaussian 2-d"])
def test_queries_at_the_seam_match_brute_force(torus, pot, n0):
    # particles within the support on both sides of the seam, up to L itself,
    # queried from 0.0 and from the last float below L
    L, R = torus.side, pot.support_radius
    chain = GibbsSampler(torus, pot, 1.0, np.random.default_rng(9), initial_count=n0)
    assert chain._m > 3  # the seam cells are not all neighbours of each other
    inside = R * (1.0 - 1e-12) / math.sqrt(torus.dim)
    coords = [0.0, 0.25 * R, inside, L - 0.25 * R, L - inside, float(np.nextafter(L, 0.0)), L]
    for p in itertools.product(coords, repeat=torus.dim):
        cell = chain._cell(p)
        chain._cells[cell].append(chain.n)
        chain._pos.append(p)
        chain._home.append(cell)
    for y in itertools.product([0.0, float(np.nextafter(L, 0.0))], repeat=torus.dim):
        e = chain._energy(y, chain._cell(y))
        assert e > 0 and e == brute_energy(chain, y), y


def test_empty_start_runs_and_inserts():
    chain = GibbsSampler(TORUS, POT, 1.0, np.random.default_rng(8), initial_count=0)
    ref = BruteForceChain(TORUS, POT, 1.0, np.random.default_rng(8), 0)
    assert chain.n == ref._n == 0
    assert chain.positions().shape == (0, 1)
    chain.run(400)
    ref.run(400)
    assert chain.n > 0
    assert np.array_equal(chain.positions(), ref.positions())


def test_same_seed_gives_same_chain():
    a = GibbsSampler(TORUS, POT, 2.0, np.random.default_rng(12), initial_count=100)
    b = GibbsSampler(TORUS, POT, 2.0, np.random.default_rng(12), initial_count=100)
    a.run(2000)
    b.run(2000)
    assert np.array_equal(a.positions(), b.positions())


def test_draws_do_not_depend_on_how_moves_are_split():
    whole = GibbsSampler(TORUS, POT, 2.0, np.random.default_rng(13), initial_count=100)
    split = GibbsSampler(TORUS, POT, 2.0, np.random.default_rng(13), initial_count=100)
    whole.run(600)
    split.run(250)
    split.run(350)
    assert np.array_equal(whole.positions(), split.positions())
    assert whole._uniform() == split._uniform() and whole._normal() == split._normal()


def test_largest_uniform_draws_the_last_index():
    sizes = list(range(1, 5000)) + [2 ** k + s for k in range(12, 53) for s in (-1, 0, 1)]
    for n in sizes + [2 ** 53 - 1]:
        assert gibbs._index(1.0 - 2.0 ** -53, n) == n - 1, n
    # the move loop draws its displacement and deletion indices the same way:
    # the largest uniform moves the last particle, then deletes it
    top = 1.0 - 2.0 ** -53
    for n in range(1, 40):
        chain = GibbsSampler(TORUS, PotentialSpec.zero(dim=1), 1.0, np.random.default_rng(0),
                             initial_count=0)
        for i in range(n):
            p = (float(i),)
            chain._cells[chain._cell(p)].append(i)
            chain._pos.append(p)
            chain._home.append(chain._cell(p))
        start = chain.positions()
        chain._uniform = iter([0.0, top, 0.99, top, 0.0]).__next__
        chain._normal = iter([0.5]).__next__
        chain.run(1)
        assert np.array_equal(chain.positions()[:-1], start[:-1])
        assert chain.positions()[-1, 0] == start[-1, 0] + 0.5 * chain.scale
        chain.run(1)
        assert np.array_equal(chain.positions(), start[:-1])


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
                         np.random.default_rng(6), initial_count=1e-3 * torus.volume)
    assert 3 ** 3 <= len(chain._cells) <= chain.n
    chain.run(500)
    assert np.all((chain.positions() >= 0.0) & (chain.positions() < torus.side))


@pytest.mark.parametrize("kwargs, error", [
    ({"torus": Torus(1, 3.0)}, GeometryError),
    ({"activity": float("nan")}, ConfigError),
    ({"activity": float("inf")}, ConfigError),
    ({"epsilon": float("nan")}, ConfigError),
    ({"epsilon": 0.0}, ConfigError),
    ({"initial_count": float("nan")}, ConfigError),
    ({"initial_count": -5.0}, ConfigError),
    ({"potential": PotentialSpec.top_hat(1.0, 0.7, dim=2)}, GeometryError),
], ids=["torus too small", "activity nan", "activity inf", "epsilon nan",
        "epsilon zero", "initial_count nan", "initial_count negative",
        "potential of another dimension"])
def test_sampler_validates_inputs(kwargs, error):
    args = {"torus": TORUS, "potential": POT, "activity": 1.0,
            "rng": np.random.default_rng(0), "initial_count": TORUS.volume, **kwargs}
    with pytest.raises(error):
        GibbsSampler(**args)


@pytest.mark.parametrize("call", [
    lambda c: c.run(-5),
    lambda c: c.run(2.7),
    lambda c: c.run(True),
    lambda c: c.run(float("nan")),
    lambda c: c.run("10"),
    lambda c: c.sample(-1, 10),
    lambda c: c.sample(2.5, 10),
    lambda c: c.sample(False, 10),
    lambda c: c.sample(3, -10),
    lambda c: c.sample(3, 10.5),
    lambda c: c.sample(3, True),
    lambda c: c.sample(3, 10, burn_in_moves=-1),
    lambda c: c.sample(3, 10, burn_in_moves=0.5),
    lambda c: c.sample(3, 10, burn_in_moves=True),
], ids=["run negative", "run fractional", "run bool", "run nan", "run str",
        "samples negative", "samples fractional", "samples bool",
        "thin negative", "thin fractional", "thin bool",
        "burn-in negative", "burn-in fractional", "burn-in bool"])
def test_move_counts_are_not_coerced(call):
    chain = GibbsSampler(TORUS, POT, 1.0, np.random.default_rng(0), initial_count=20)
    before = chain.positions()
    with pytest.raises(ConfigError):
        call(chain)
    assert np.array_equal(chain.positions(), before)  # no move was made


def test_whole_move_counts_of_any_number_type_run():
    chain = GibbsSampler(TORUS, POT, 1.0, np.random.default_rng(0), initial_count=20)
    chain.run(3.0)
    chain.run(np.int64(3))
    assert len(chain.sample(np.int64(2), 2.0, burn_in_moves=0)) == 2


@pytest.mark.parametrize("kwargs", [
    {"target_count": float("nan")},
    {"target_count": float("inf")},
    {"rounds": 0},
    {"moves_per_round": 0},
    {"rounds": 2.5},
    {"moves_per_round": 2.7},
    {"rounds": True},
    {"moves_per_round": True},
    {"rounds": float("nan")},
    {"moves_per_round": float("nan")},
], ids=["target nan", "target inf", "no rounds", "no moves per round",
        "fractional rounds", "fractional moves per round", "bool rounds",
        "bool moves per round", "nan rounds", "nan moves per round"])
def test_calibration_validates_inputs(kwargs):
    args = {"target_count": 10.0, **kwargs}
    with pytest.raises(ConfigError):
        calibrate_activity(TORUS, POT, rng=np.random.default_rng(0), **args)


def test_calibration_takes_whole_counts_of_any_number_type():
    def z(**counts):
        return calibrate_activity(TORUS, POT, 10.0, np.random.default_rng(5), **counts)

    assert z(rounds=3.0, moves_per_round=np.int64(300)) == z(rounds=3, moves_per_round=300)


def test_equilibrium_check_demo_runs(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(kawasaki.__file__)))
    run = subprocess.run([sys.executable, str(REPO / "demos" / "05_equilibrium_check.py")],
                         cwd=tmp_path, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    agree = re.search(r"bins agreeing within 3 sigma: (\d+)%", run.stdout)
    assert agree and int(agree.group(1)) >= 80, run.stdout
