"""Correlation-function estimation from trajectory ensembles.

Density (one-point) estimates are per-cell histograms normalized by cell
volume and averaged across trajectories; pair (two-point) estimates count
*ordered* pairs by minimal-image distance and normalize by shell measure
times torus volume, so that for a Poisson sample of density rho the radial
pair estimate is flat at rho^2 with no combinatorial 1/2. Standard errors
are always computed across trajectories, never within one.

Pair counts cost O(n log n + pairs within r_max) time per snapshot rather
than O(n^2): a periodic kd-tree (scipy.spatial.cKDTree) per snapshot proposes
the candidate pairs, and each candidate is binned by its exact minimal-image
distance recomputed from the raw positions, so the counts equal those of an
all-pairs histogram bit for bit. Memory is O(pairs within r_max): 16 bytes of
candidate indices per unordered pair, about 0.39 n^2 pairs in 2-d at
r_max = L/2.

Every estimate takes one path in two halves. `estimate_parts` computes the
per-snapshot values of a run of snapshots (hist / cell volume, and pair
counts / shell measure); `chunk_parts`, the `map_chunks` reducer, takes them
for a chunk of trajectories at each snapshot time. `fold_estimates` adds
each chunk's parts, as the chunk arrives, to running sums per time, one
snapshot after another, and ends with the mean and its standard error. So
an estimate folded from chunks, as the CLI `simulate` and `run_sweep` build
them in the pool workers that simulated each chunk, has the bits of one pass
over all snapshots, and neither caller keeps a chunk once it is folded. The
public `estimate_*` functions are the one-chunk case.

The factorization diagnostic compares the pair estimate against the radial
average of the product field k1 (x) k1. For d = 1 that average is computed
exactly for the piecewise-constant density estimate (the in-cell offset of
an ordered pair has a triangular law, which integrates in closed form over
each distance bin); this makes "k2 == k1 (x) k1" an identity rather than an
O(h) approximation for ideal data.
"""

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError
from .fields import DensityField
from .torus import Torus

_PAIR_SLICE = 1 << 16  # candidate pairs binned at a time
_DENSITY_BINS = 1 << 20  # snapshot-by-cell histogram bins binned at a time


def shell_measure(dim: int, r_edges) -> np.ndarray:
    """Lebesgue measure of {x : r1 <= |x| < r2} per bin."""
    r = np.asarray(r_edges, dtype=float)
    if dim == 1:
        return 2.0 * np.diff(r)
    if dim == 2:
        return math.pi * np.diff(r**2)
    return (4.0 * math.pi / 3.0) * np.diff(r**3)


def _snapshot_arrays(ensemble, time):
    """Positions per trajectory (or raw position array) at a stored snapshot time."""
    return [traj.snapshot_at(time) if hasattr(traj, "snapshot_at")
            else np.asarray(traj, dtype=float) for traj in ensemble]


def _ensemble_torus(ensemble, torus):
    if torus is not None:
        return torus
    first = ensemble[0]
    if hasattr(first, "torus"):
        return first.torus
    raise ConfigError("pass `torus=` when the ensemble is a list of raw arrays")


@dataclass(eq=False)
class CorrelationEstimate:
    """Ensemble-averaged one- and two-point correlation estimates."""

    torus: Torus
    time: float
    n_traj: int
    mean_count: float = math.nan
    n_cells: int = 0
    k1: np.ndarray = None
    k1_se: np.ndarray = None
    r_edges: np.ndarray = None
    k2: np.ndarray = None
    k2_se: np.ndarray = None

    @property
    def r_centers(self):
        return 0.5 * (self.r_edges[1:] + self.r_edges[:-1])

    def k1_field(self) -> DensityField:
        return DensityField(self.torus, self.k1)

    def factorization(self):
        """Residual k2 - radial_average(k1 (x) k1), with combined stderr.

        Returns (residual, combined_se) arrays over the pair bins.
        """
        if self.k1 is None or self.k2 is None:
            raise ConfigError("factorization needs both k1 and k2 estimates")
        prod, prod_se = radial_product_profile(
            self.k1_field(), self.r_edges, k1_se=self.k1_se
        )
        residual = self.k2 - prod
        combined = np.sqrt(self.k2_se**2 + prod_se**2)
        return residual, combined

    # -- serialization -------------------------------------------------------

    def write_k1_csv(self, path):
        """k1 per cell, keyed by its center for d = 1 and by its row-major
        cell index, as in the kinetic rho.csv, for d >= 2."""
        if self.torus.dim == 1:
            key, index = "bin_center", self.torus.cell_centers(self.n_cells).tolist()
        else:
            key, index = "cell_index", range(self.k1.size)
        _write_profile_csv(path, key, index, self.k1.ravel(), self.k1_se.ravel())

    def write_k2_csv(self, path):
        _write_profile_csv(path, "bin_center", self.r_centers.tolist(), self.k2,
                           self.k2_se)

    def meta_json(self) -> dict:
        return {
            "time": self.time,
            "n_traj": self.n_traj,
            "grid": {"n_cells": self.n_cells, "side": self.torus.side,
                     "dim": self.torus.dim},
            "mean_count": self.mean_count,
        }

    def write_meta_json(self, path):
        write_json(path, self.meta_json())


def write_json(path, obj):
    """The one JSON layout of every output: indented, keys sorted, a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_profile_csv(path, key, index, values, stderr):
    with open(path, "w") as fh:
        fh.write(f"{key},value,stderr\n")
        for c, v, s in zip(index, values, stderr):
            fh.write(f"{c!r},{float(v)!r},{float(s)!r}\n")


def _pair_distance_counts(pos, torus, r_edges):
    """Ordered-pair counts per distance bin of one snapshot.

    A periodic kd-tree over the wrapped positions proposes the unordered
    pairs within r_q, the last edge padded against round-off. Each
    candidate's minimal-image distance is then recomputed from the raw
    positions (diff -= L round(diff / L)) and binned by np.histogram, so the
    counts equal those of an all-pairs histogram whatever the tree's own
    rounding. The candidates are binned _PAIR_SLICE at a time, which bounds
    the float temporaries; the candidate index array itself takes 16 bytes
    per pair within r_q.
    """
    d, L = torus.dim, torus.side
    pos = pos.reshape(-1, d)
    # > 0 even for bins that end at or below 0
    r_q = max(r_edges[-1], 0.0) * (1.0 + 1e-9) + 1e-12
    cand = cKDTree(torus.wrap(pos), boxsize=L).query_pairs(r_q, output_type="ndarray")
    counts = np.zeros(len(r_edges) - 1, dtype=np.int64)
    for a in range(0, len(cand), _PAIR_SLICE):
        i, j = cand[a:a + _PAIR_SLICE].T
        diff = np.take(pos, i, axis=0) - np.take(pos, j, axis=0)
        diff -= L * np.round(diff / L)
        counts += np.histogram(np.sqrt(np.einsum("ij,ij->i", diff, diff)), r_edges)[0]
    return 2.0 * counts


class EstimateParts(NamedTuple):
    """The per-snapshot half of an estimate, over a run of snapshots."""

    snapshots: int
    particles: int
    # stacks with a snapshot axis in front, of hist / cell volume and of pair
    # counts / (shell measure * volume) per snapshot
    density: list
    pair: list


def check_pair_bins(r_edges, torus) -> np.ndarray:
    """The pair bin edges as floats; ConfigError unless there is at least one
    bin, the first edge is >= 0, every bin is at least 1e-9 wide, the position
    resolution, and the last edge is at most L/2, as minimal-image distances are."""
    r_edges = np.asarray(r_edges, dtype=float)
    if r_edges.ndim != 1 or r_edges.size < 2:
        raise ConfigError("pair bins need at least one bin: a list of two or more edges")
    if not r_edges[0] >= 0:
        raise ConfigError(f"pair bins must start at r >= 0, got {r_edges[0]:g}")
    if not np.all(np.diff(r_edges) >= 1e-9):
        raise ConfigError("pair bins thinner than the position resolution")
    if not r_edges[-1] <= 0.5 * torus.side + 1e-12:
        raise ConfigError("pair bins must stay below L/2 (minimal image)")
    return r_edges


def _density_values(snaps, n_cells, torus):
    """hist / cell volume of each snapshot on the n_cells^d grid, as stacks
    with a snapshot axis in front: one histogram per group of snapshots."""
    d = torus.dim
    edges = [np.linspace(0.0, torus.side, n_cells + 1)] * d
    vol = (torus.side / n_cells) ** d
    per = max(1, _DENSITY_BINS // n_cells ** d)
    stacks = []
    for a in range(0, len(snaps), per):
        group = [pos.reshape(-1, d) for pos in snaps[a:a + per]]
        owner = np.repeat(np.arange(len(group)), [p.shape[0] for p in group])
        hist, _ = np.histogramdd(np.column_stack([owner, np.concatenate(group)]),
                                 bins=[np.arange(len(group) + 1) - 0.5, *edges])
        stacks.append(hist / vol)
    return stacks


def estimate_parts(snaps, torus, n_cells=None, r_edges=None) -> EstimateParts:
    """The parts of the position arrays `snaps`: density values on an
    n_cells^d grid and pair values over `r_edges`, each left out when None.
    The parts of consecutive runs of snapshots, folded in order by
    `fold_estimates`, give the bits of one estimate over all of them."""
    norm = None
    if r_edges is not None:
        r_edges = check_pair_bins(r_edges, torus)
        norm = shell_measure(torus.dim, r_edges) * torus.volume
    return EstimateParts(
        snapshots=len(snaps), particles=sum(pos.shape[0] for pos in snaps),
        density=None if n_cells is None else _density_values(snaps, n_cells, torus),
        pair=None if norm is None else [np.array(
            [_pair_distance_counts(pos, torus, r_edges) / norm for pos in snaps]
        ).reshape(len(snaps), len(norm))])


def chunk_parts(times, n_cells, r_edges, first, trajectories) -> list:
    """The `map_chunks` reducer of every estimate: the parts of a chunk of
    trajectories (the first of them trajectory `first`) at each of `times`."""
    return [estimate_parts(_snapshot_arrays(trajectories, s), trajectories[0].torus,
                           n_cells, r_edges) for s in times]


def _add(sums, stacks):
    """Running (total, total_sq) of per-snapshot values plus the rows of
    `stacks`, added one snapshot after another whatever the stacks' sizes."""
    for v in stacks or ():
        if sums is None:
            sums = (np.zeros(v.shape[1:]),) * 2
        sums = tuple(np.add.accumulate(np.concatenate([s[None], w]))[-1]
                     for s, w in zip(sums, (v, v * v)))
    return sums


def _mean_se(sums, t):
    """Mean over t snapshots and its standard error across them."""
    if sums is None:
        return None, None
    total, total_sq = sums
    mean = total / t
    if t == 1:
        return mean, np.full_like(mean, math.nan)
    var = (total_sq - t * mean * mean) / (t - 1)
    return mean, np.sqrt(np.maximum(var, 0.0) / t)


def fold_estimates(chunks, torus, times, n_cells=None, r_edges=None) -> list:
    """One estimate per time of `times`, over the snapshots of `chunks`: an
    iterable of `chunk_parts` results of consecutive runs of trajectories,
    taken with the same `n_cells` and `r_edges`. Each chunk is folded into
    running sums as it arrives and then dropped."""
    runs = [(0, 0, None, None)] * len(times)
    for parts in chunks:
        runs = [(t + p.snapshots, count + p.particles, _add(k1, p.density),
                 _add(k2, p.pair)) for (t, count, k1, k2), p in zip(runs, parts)]
    if r_edges is not None:
        r_edges = np.asarray(r_edges, dtype=float)
    out = []
    for time, (t, count, k1, k2) in zip(times, runs):
        est = CorrelationEstimate(torus=torus, time=time, n_traj=t,
                                  mean_count=float(count) / t, n_cells=n_cells or 0,
                                  r_edges=r_edges)
        est.k1, est.k1_se = _mean_se(k1, t)
        est.k2, est.k2_se = _mean_se(k2, t)
        out.append(est)
    return out


def _estimate(ensemble, time, n_cells, r_edges, torus):
    if len(ensemble) == 0:
        raise ConfigError("empty ensemble")
    torus = _ensemble_torus(ensemble, torus)
    parts = estimate_parts(_snapshot_arrays(ensemble, time), torus, n_cells, r_edges)
    return fold_estimates([[parts]], torus, [time], n_cells, r_edges)[0]


def estimate_density(ensemble, time, n_cells, torus=None) -> CorrelationEstimate:
    """One-point correlation (density) estimate on an n_cells^d grid."""
    return _estimate(ensemble, time, n_cells, None, torus)


def estimate_pair_correlation(ensemble, time, r_edges, torus=None) -> CorrelationEstimate:
    """Radial two-point correlation estimate from ordered pair counts."""
    return _estimate(ensemble, time, None, r_edges, torus)


def estimate_correlations(ensemble, time, n_cells, r_edges, torus=None) -> CorrelationEstimate:
    """Both one- and two-point estimates from the same snapshots."""
    return _estimate(ensemble, time, n_cells, r_edges, torus)


# -- radial product profile --------------------------------------------------


def _triangular_cdf(w, h):
    """CDF of the difference of two independent U[0, h) variables."""
    w = np.clip(w, -h, h)
    return np.where(w <= 0.0, (w + h) ** 2 / (2 * h * h),
                    1.0 - (h - w) ** 2 / (2 * h * h))


def _pc_pair_weights_1d(torus, n, r_edges):
    """Exact measure of {(x, y) in cell_i x cell_j : |x - y|_mi in bin} on the
    n cells of a 1-d torus.

    Returns W with shape (n, n_bins); W[m, b] is the measure for cell offset
    m = (j - i) mod n. Summing W over m and multiplying by n recovers
    V * shell_measure(bin) exactly.
    """
    L = torus.side
    h = L / n
    delta = torus.cell_offsets(n)  # minimal image of the center offset
    nb = len(r_edges) - 1
    W = np.zeros((n, nb))

    def prob_abs_in(lo, hi):
        # P(|delta + w| in [lo, hi)) for triangular w, including the wrap at L/2
        p = np.zeros_like(delta)
        for a, b in ((lo, hi), (-hi, -lo)):
            p += _triangular_cdf(b - delta, h) - _triangular_cdf(a - delta, h)
            # distances fold at L/2: |x| > L/2 maps to L - |x|
            p += _triangular_cdf((L - a) - delta, h) - _triangular_cdf((L - b) - delta, h)
            p += _triangular_cdf(-(L - b) - delta, h) - _triangular_cdf(-(L - a) - delta, h)
        return p

    for b in range(nb):
        W[:, b] = h * h * prob_abs_in(r_edges[b], r_edges[b + 1])
    return W


def radial_product_profile(field: DensityField, r_edges, k1_se=None):
    """Radial average of the product field(x) * field(y) over distance bins.

    Exact for d = 1 (piecewise-constant geometry integrated in closed form);
    for d >= 2 the field is subsampled on a refined grid and binned by
    sub-cell center distance. Returns (profile, profile_se); the stderr is
    zero when k1_se is not given, otherwise first order in the per-cell
    errors (independent-cell approximation).
    """
    r_edges = np.asarray(r_edges, dtype=float)
    torus = field.torus
    norm = shell_measure(torus.dim, r_edges) * torus.volume
    vals = field.values
    if torus.dim == 1:
        n = field.n_cells
        W = _pc_pair_weights_1d(torus, n, r_edges)
        corr = np.empty(n)
        for m in range(n):
            corr[m] = float(vals @ np.roll(vals, -m))
        prof = (W * corr[:, None]).sum(axis=0) / norm
        if k1_se is None:
            return prof, np.zeros_like(prof)
        se2 = np.zeros(len(norm))
        for b in range(len(norm)):
            grad = np.zeros(n)
            for m in range(n):
                if W[m, b] == 0.0:
                    continue
                grad += W[m, b] * (np.roll(vals, -m) + np.roll(vals, m))
            grad /= norm[b]
            se2[b] = float(grad**2 @ np.asarray(k1_se).ravel() ** 2)
        return prof, np.sqrt(se2)
    # d >= 2: refine each cell q-fold per axis and average the product over
    # sub-cell offset pairs falling in each bin (a discrete pair average, so
    # constant fields are exact; smooth fields are O(h/q)-accurate)
    q = 4
    fine = vals
    for ax in range(torus.dim):
        fine = np.repeat(fine, q, axis=ax)
    prof = np.full(len(norm), np.nan)
    bin_of = np.digitize(torus.offset_distances(fine.shape[0]).ravel(), r_edges) - 1
    corr = np.fft.ifftn(np.abs(np.fft.fftn(fine)) ** 2).real.ravel()
    n_sites = fine.size
    for b in range(len(norm)):
        sel = bin_of == b
        cnt = int(np.count_nonzero(sel))
        if cnt:
            prof[b] = corr[sel].sum() / (cnt * n_sites)
    if k1_se is None:
        return prof, np.zeros_like(prof)
    # crude propagated error: treat cells as independent with uniform weight
    mean_se = float(np.mean(np.asarray(k1_se)))
    prof_se = 2.0 * np.sqrt(np.nan_to_num(prof, nan=0.0).clip(min=0.0)) * mean_se
    return prof, prof_se


# -- sub-Poissonian diagnostics ----------------------------------------------


@dataclass
class SubPoissonReport:
    """Weighted sup-norm diagnostics of an estimated correlation pair.

    norm_estimate = max(1, nu1 * e^theta, nu2 * e^{2 theta}) is a lower bound
    for the full weighted norm (only the first two components are estimated).
    """

    theta: float
    nu1: float
    nu2: float
    norm_estimate: float
    factorization_residual: float
    factorization_se: float
    factorization_bin: int

    def to_json(self) -> dict:
        return asdict(self)


def sub_poisson_report(estimate: CorrelationEstimate, theta: float) -> SubPoissonReport:
    """Sup-norm components nu_n, the weighted norm estimate, and the
    factorization residual of an estimate carrying both k1 and k2."""
    if estimate.k1 is None or estimate.k2 is None:
        raise ConfigError("report needs both k1 and k2 estimates")
    nu1 = float(np.max(estimate.k1))
    nu2 = float(np.max(estimate.k2))
    norm = max(1.0, nu1 * math.exp(theta), nu2 * math.exp(2.0 * theta))
    residual, combined = estimate.factorization()
    b = int(np.argmax(np.abs(residual)))
    return SubPoissonReport(theta=theta, nu1=nu1, nu2=nu2, norm_estimate=norm,
                            factorization_residual=float(np.abs(residual[b])),
                            factorization_se=float(combined[b]),
                            factorization_bin=b)
