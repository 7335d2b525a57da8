"""Mean-field scaling experiments.

For a ladder of scaling parameters eps in (0, 1], the particle system is run
with the potential weakened to eps * phi and the initial Poisson density
boosted to rho0 / eps. Correlation estimates are renormalized (k1 by eps,
k2 by eps^2) and compared, bin-wise in sup norm, against the kinetic
reference density rho_t solved once on the same grid. As eps decreases the
discrepancies e1 (density level) and e2 (pair level) should shrink toward
the Monte Carlo noise floor; the sweep records both with standard errors and
a monotone-within-noise verdict, and the report fits a log-log slope of
e1 versus eps. The spec names its pair-bin edges; `write_sweep_outputs`
writes the discrepancies, the estimates and the report of one result.

Trajectory counts are n_traj(eps) = max(2, round(eps * n_traj_base)), which
keeps the total particle updates, hence the renormalized noise, about constant;
the reference is solved at dt = 0.05 / alpha. Each eps is estimated on the
path of the CLI `simulate`: `map_chunks` with the `chunk_parts` reducer, which
runs in the pool workers, and `fold_estimates` as the chunks arrive.
"""

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetError, ConfigError, _require_number, _require_reals,
                     collect_violations, raise_first)
from .estimator import (CorrelationEstimate, check_pair_bins, chunk_parts,
                        fold_estimates, radial_product_profile, write_json)
from .fields import DensityField
from .kernels import KernelSpec, PotentialSpec, alpha as kernel_alpha
from .kinetic import snapshot_steps, solve_kinetic
from .simulator import SimulationParams, check_density, check_model, map_chunks
from .torus import Torus


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """Plan for one scaling ladder, and the one place its rules live:
    `violations` lists every rule it breaks, and `validate` raises the first
    of them or, with none, a BudgetError when the plan is over budget."""

    torus: Torus
    kernel: KernelSpec
    potential: PotentialSpec
    epsilons: tuple
    rho0: object  # limit density: constant or DensityField on the sweep grid
    times: tuple
    r_edges: tuple  # pair-bin edges of the k2 comparison
    n_traj_base: int = 200
    n_cells: int = 64
    budget_max_particles: float = 1e4
    base_seed: int = 0
    n_jobs: int = 1

    def violations(self) -> list:
        """A ConfigError for every rule the spec breaks, in the order they are
        checked below; a rule whose inputs an earlier rule rejected is skipped."""
        dt = self.reference_dt()
        found = collect_violations(
            lambda: check_model(self.torus, self.kernel, self.potential),
            lambda: check_pair_bins(self.pair_edges(), self.torus))
        bad_eps = collect_violations(lambda: _require_reals("epsilons", self.epsilons))
        eps = () if bad_eps else tuple(self.epsilons)
        if bad_eps or len(eps) < 1 or any(not (0 < e <= 1) for e in eps):
            found += bad_eps or [ConfigError("epsilons must lie in (0, 1]")]
        elif len(set(eps)) != len(eps) or list(eps) != sorted(eps, reverse=True):
            found.append(ConfigError("epsilons must be strictly decreasing"))
        bad_times = collect_violations(lambda: _require_reals("times", self.times))
        times = () if bad_times else tuple(self.times)
        if bad_times or not (len(times) >= 1 and all(t >= 0 for t in times)):
            found += bad_times or [ConfigError("comparison times must be >= 0")]
        else:  # the kinetic reference solve checks this too, but only after a run starts
            try:
                snapshot_steps(times, max(times), dt)
            except ConfigError as exc:
                found.append(ConfigError(f"comparison times, on the kinetic reference "
                                         f"grid of dt {dt:g}: {exc}"))
        found += collect_violations(lambda: check_density(self.torus, self.rho0))
        if isinstance(self.rho0, DensityField) and self.rho0.n_cells != self.n_cells:
            found.append(ConfigError("rho0 grid must match n_cells"))
        return found + collect_violations(
            *(lambda k=k, lo=lo: _require_number(k, getattr(self, k), lo, integer=True)
              for k, lo in (("n_traj_base", 1), ("n_cells", 1), ("n_jobs", 1), ("base_seed", 0))),
            lambda: _require_number("budget_max_particles", self.budget_max_particles, 0,
                                    strict=True))

    def validate(self):
        """Raise the first violation; with none, BudgetError when the expected
        particle count at the smallest eps exceeds the budget."""
        raise_first(self.violations())
        worst = self.limit_field().mass / min(self.epsilons)
        if worst > self.budget_max_particles:
            raise BudgetError(
                f"expected particle count {worst:.0f} exceeds the budget "
                f"{self.budget_max_particles:.0f} at eps={min(self.epsilons):g}"
            )

    def reference_dt(self) -> float:
        """Step of the kinetic reference solve: 0.05 / alpha, half the RK4 guard."""
        return 0.05 / kernel_alpha(self.kernel)

    def limit_field(self) -> DensityField:
        if isinstance(self.rho0, DensityField):
            return self.rho0
        return DensityField.constant(self.torus, int(self.n_cells), float(self.rho0))

    def trajectories_for(self, i: int) -> int:
        return max(2, int(round(self.n_traj_base * self.epsilons[i])))

    def pair_edges(self) -> np.ndarray:
        return np.asarray(self.r_edges, dtype=float)


@dataclass(eq=False)
class SweepResult:
    """Per-(eps, time) sup-bin discrepancies against the kinetic reference."""

    epsilons: tuple
    times: tuple
    n_traj: tuple
    e1: np.ndarray      # shape (n_eps, n_times)
    e1_se: np.ndarray
    e2: np.ndarray
    e2_se: np.ndarray
    monotone_within_noise: dict = field(default_factory=dict)
    estimates: list = None  # estimates[i][j]: renormalized estimate at (eps_i, t_j)

    def to_json(self) -> dict:
        return {
            "epsilons": list(self.epsilons),
            "times": list(self.times),
            "n_traj": list(self.n_traj),
            "e1": self.e1.tolist(),
            "e1_se": self.e1_se.tolist(),
            "e2": self.e2.tolist(),
            "e2_se": self.e2_se.tolist(),
            "monotone_within_noise": {str(k): bool(v)
                                      for k, v in self.monotone_within_noise.items()},
        }


def renormalize(estimate: CorrelationEstimate, epsilon: float) -> CorrelationEstimate:
    """Scale k1 by eps and k2 by eps^2 (standard errors likewise); eps must
    be finite and positive (ConfigError)."""
    _require_number("epsilon", epsilon, 0, strict=True)
    out = CorrelationEstimate(
        torus=estimate.torus, time=estimate.time, n_traj=estimate.n_traj,
        mean_count=estimate.mean_count, n_cells=estimate.n_cells,
    )
    if estimate.k1 is not None:
        out.k1 = epsilon * estimate.k1
        out.k1_se = epsilon * estimate.k1_se
    if estimate.k2 is not None:
        out.r_edges = estimate.r_edges
        out.k2 = epsilon * epsilon * estimate.k2
        out.k2_se = epsilon * epsilon * estimate.k2_se
    return out


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute the ladder and compare against the kinetic reference."""
    spec.validate()
    rho0 = spec.limit_field()
    t_end = max(spec.times)
    ref = solve_kinetic(rho0, spec.kernel, spec.potential, dt=spec.reference_dt(),
                        t_end=t_end, snapshot_times=spec.times)
    ref_fields = [ref.snapshot_at(t) for t in spec.times]
    r_edges = spec.pair_edges()
    ref_prods = [radial_product_profile(f, r_edges)[0] for f in ref_fields]

    n_eps, n_t = len(spec.epsilons), len(spec.times)
    e1 = np.zeros((n_eps, n_t))
    e1_se = np.zeros_like(e1)
    e2 = np.zeros_like(e1)
    e2_se = np.zeros_like(e1)
    estimates = []
    n_traj_used = []
    reduce = functools.partial(chunk_parts, spec.times, rho0.n_cells, r_edges)

    for i, eps in enumerate(spec.epsilons):
        n_traj = spec.trajectories_for(i)
        n_traj_used.append(n_traj)
        params = SimulationParams(
            torus=spec.torus, kernel=spec.kernel, potential=spec.potential,
            epsilon=eps, rho0=rho0.with_values(rho0.values / eps),
            t_end=t_end, snapshot_times=tuple(spec.times), record_events=False,
        )
        chunks = map_chunks(params, n_traj, (int(spec.base_seed), i), reduce,
                            n_jobs=spec.n_jobs)
        row = [renormalize(est, eps) for est in fold_estimates(
            chunks, spec.torus, spec.times, rho0.n_cells, r_edges)]
        for j, est in enumerate(row):
            diff1 = np.abs(est.k1 - ref_fields[j].values)
            b1 = int(np.argmax(diff1))
            e1[i, j] = float(diff1.ravel()[b1])
            e1_se[i, j] = float(est.k1_se.ravel()[b1])
            diff2 = np.abs(est.k2 - ref_prods[j])
            b2 = int(np.argmax(diff2))
            e2[i, j] = float(diff2[b2])
            e2_se[i, j] = float(est.k2_se[b2])
        estimates.append(row)

    def rises(i, j):  # from eps_i to eps_{i+1}, by more than twice the combined stderr
        return e1[i + 1, j] > e1[i, j] + 2.0 * math.hypot(e1_se[i, j], e1_se[i + 1, j])

    verdict = {t: not any(rises(i, j) for i in range(n_eps - 1))
               for j, t in enumerate(spec.times)}

    return SweepResult(epsilons=tuple(spec.epsilons), times=tuple(spec.times),
                       n_traj=tuple(n_traj_used), e1=e1, e1_se=e1_se,
                       e2=e2, e2_se=e2_se, monotone_within_noise=verdict,
                       estimates=estimates)


@dataclass
class ConvergenceReport:
    """Log-log slope of e1 versus eps per comparison time."""

    times: tuple
    slopes: dict = field(default_factory=dict)  # time -> (slope, se) or None

    def to_json(self) -> dict:
        out = {"times": list(self.times), "slopes": {}}
        for t, v in self.slopes.items():
            out["slopes"][str(t)] = None if v is None else {
                "slope": v[0], "stderr": v[1],
                "ci95": [v[0] - 1.96 * v[1], v[0] + 1.96 * v[1]],
            }
        return out


def _loglog_slope(eps, e, se):
    eps = np.asarray(eps, dtype=float)
    e = np.asarray(e, dtype=float)
    se = np.asarray(se, dtype=float)
    if np.any(e <= 0):
        return None
    x = np.log(eps)
    y = np.log(e)
    if np.all(se > 0):
        w = (e / se) ** 2  # delta method: var(log e) = (se / e)^2
    else:
        w = np.ones_like(e)
    xbar = np.average(x, weights=w)
    ybar = np.average(y, weights=w)
    sxx = np.sum(w * (x - xbar) ** 2)
    if sxx == 0:
        return None
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / sxx)
    if np.all(se > 0):
        slope_se = float(1.0 / math.sqrt(sxx))
    else:
        resid = y - ybar - slope * (x - xbar)
        dof = max(len(x) - 2, 1)
        slope_se = float(math.sqrt(np.sum(resid**2) / dof / np.sum((x - xbar) ** 2)))
    return slope, slope_se


def convergence_report(result: SweepResult) -> ConvergenceReport:
    """Fit e1 ~ C eps^slope per time (weighted in log space); a time whose
    ladder has no slope, such as a one-epsilon ladder, gets None."""
    rep = ConvergenceReport(times=result.times)
    for j, t in enumerate(result.times):
        rep.slopes[t] = _loglog_slope(result.epsilons, result.e1[:, j],
                                      result.e1_se[:, j])
    return rep


def write_sweep_outputs(result: SweepResult, out_dir):
    """Write errors.csv, per-estimate CSVs, and report.json, which holds the
    result and its `convergence_report`, into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "errors.csv"), "w") as fh:
        fh.write("epsilon,time,e1,e1_stderr,e2,e2_stderr\n")
        for i, eps in enumerate(result.epsilons):
            for j, t in enumerate(result.times):
                fh.write(f"{float(eps)!r},{float(t)!r},"
                         f"{float(result.e1[i, j])!r},{float(result.e1_se[i, j])!r},"
                         f"{float(result.e2[i, j])!r},{float(result.e2_se[i, j])!r}\n")
    for i, row in enumerate(result.estimates):
        for j, est in enumerate(row):
            tag = f"eps{i}_t{j}"
            est.write_k1_csv(os.path.join(out_dir, f"{tag}_k1.csv"))
            est.write_k2_csv(os.path.join(out_dir, f"{tag}_k2.csv"))
            est.write_meta_json(os.path.join(out_dir, f"{tag}_meta.json"))
    write_json(os.path.join(out_dir, "report.json"),
               {**result.to_json(), "convergence": convergence_report(result).to_json()})
