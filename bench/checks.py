"""Output checks that hold for every seed, run after the timer stops.

Each check reads only the files a workload run wrote (plus its inputs) and
returns (name, ok, detail); every check counts as one attempted operation.
Statistical verdicts (monotonicity, 3-sigma fractions) are returned apart and
never count as failures, since they can miss on an honest run.
"""

import csv
import json
import os

import numpy as np

import kawasaki


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_text(path):
    with open(path) as fh:
        return fh.read()


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _check(name, fn):
    """Run one check; a missing or malformed output is a failed check."""
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return (name, False, f"{type(exc).__name__}: {exc}")
    return (name, bool(ok), detail)


# -- shared checks ---------------------------------------------------------


def _k1_mass(estimates):
    """eps * k1 integrates to eps * mean_count (relative 1e-9) per estimate.

    `estimates` lists (k1 csv, meta json, eps) triples.
    """
    if not estimates:
        raise OSError("no k1 estimates were written")
    worst = 0.0
    for k1_path, meta_path, eps in estimates:
        meta = _load_json(meta_path)
        _, rows = _read_csv(k1_path)
        values = np.array([float(r[1]) for r in rows])
        grid = meta["grid"]
        mass = float(values.sum()) * (grid["side"] / grid["n_cells"]) ** grid["dim"]
        want = eps * meta["mean_count"]
        worst = max(worst, abs(mass - want) / want)
    return worst <= 1e-9, (f"max relative gap {worst:.2e} <= 1e-9 over "
                           f"{len(estimates)} estimates")


_NP_REPR = "np.float64("


def _rho_value(text):
    """A rho.csv value. The CLI writes numpy scalar reprs there with numpy >= 2
    (`np.float64(0.5)`); they carry every digit, so they are read as numbers
    and the format is reported as a verdict."""
    if text.startswith(_NP_REPR) and text.endswith(")"):
        return float(text[len(_NP_REPR):-1])
    return float(text)


def _rho_rows(path):
    """rho.csv as {time: values} in file order."""
    _, rows = _read_csv(path)
    fields = {}
    for t, idx, v in rows:
        fields.setdefault(float(t), []).append((int(idx), _rho_value(v)))
    out = {}
    for t, pairs in fields.items():
        idx = [i for i, _ in pairs]
        if idx != list(range(len(idx))):
            raise ValueError(f"rho.csv rows at t={t} are not cells 0..n-1")
        out[t] = np.array([v for _, v in pairs])
    return out


# -- per workload ----------------------------------------------------------


def _sweep_checks(paths):
    out = os.path.join(paths["out"], "sweep")
    cfg = _load_json(paths["sweep"])
    estimates = [(os.path.join(out, f"eps{i}_t{j}_k1.csv"),
                  os.path.join(out, f"eps{i}_t{j}_meta.json"), eps)
                 for i, eps in enumerate(cfg["epsilons"])
                 for j in range(len(cfg["times"]))]
    checks = [_check("eps*k1 integrates to eps*mean_count",
                     lambda: _k1_mass(estimates))]
    verdicts = {}
    try:
        report = _load_json(os.path.join(out, "report.json"))
        verdicts["monotone_within_noise"] = report["monotone_within_noise"]
        slope = report["convergence"]["slopes"]["1.0"]
        verdicts["e1_slope"] = None if slope is None else slope["slope"]
    except (OSError, KeyError, ValueError) as exc:
        verdicts["report"] = f"unreadable: {exc}"
    return checks, verdicts


def _kinetic_checks(paths):
    out = paths["out"]
    runs = ("direct", "fft", "picard")

    def mass_conserved():
        worst = 0.0
        for run in runs:
            fields = _rho_rows(os.path.join(out, run, "rho.csv"))
            masses = [float(v.sum()) for v in fields.values()]
            if len(masses) < 2:
                raise ValueError(f"{run}: fewer than two stored times")
            worst = max(worst, max(abs(m - masses[0]) / masses[0] for m in masses))
        return worst <= 1e-10, f"max relative drift {worst:.2e} <= 1e-10"

    def bounds_ok():
        oks = {run: _load_json(os.path.join(out, run, "bounds.json"))["ok"]
               for run in ("direct", "fft")}
        return all(v is True for v in oks.values()), f"ok flags {oks}"

    def picard_ratios():
        rep = _load_json(os.path.join(out, "picard", "picard.json"))
        worst = max(rep["ratios"]) if rep["ratios"] else 0.0
        return worst <= 0.55, (f"max ratio {worst:.3e} <= 0.55 "
                               f"({rep['iterations']} sweeps)")

    def picard_vs_rk4():
        rk = _rho_rows(os.path.join(out, "fft", "rho.csv"))
        pc = _rho_rows(os.path.join(out, "picard", "rho.csv"))
        if sorted(rk) != sorted(pc):
            raise ValueError(f"stored times differ: {sorted(rk)} vs {sorted(pc)}")
        gap = max(float(np.abs(rk[t] - pc[t]).max()) for t in rk)
        return gap <= 1e-6, f"max |picard - rk4| {gap:.2e} <= 1e-6"

    def vlasov_identity():
        cfg = _load_json(paths["direct"])
        fields = _rho_rows(os.path.join(out, "direct", "rho.csv"))
        final = fields[max(fields)]
        torus = kawasaki.Torus.from_json(cfg["torus"])
        if final.size != cfg["n_cells"]:
            raise ValueError(f"final field has {final.size} cells, want {cfg['n_cells']}")
        rho = kawasaki.DensityField(torus, final)
        kernel = kawasaki.KernelSpec.from_json(cfg["kernel"])
        potential = kawasaki.PotentialSpec.from_json(cfg["potential"])
        gap = float(np.abs(kawasaki.vlasov_first_order(rho, kernel, potential)
                           - kawasaki.kinetic_rhs(rho, kernel, potential)).max())
        return gap <= 1e-10, f"max gap {gap:.2e} <= 1e-10 on the {final.size}-cell field"

    def horizon_window():
        rep = _load_json(os.path.join(out, "horizon", "report.json"))
        (q,) = rep["q_of_T"].values()
        return abs(q - 0.5) <= 1e-10, f"q(T) = {q!r}"

    checks = [_check("kinetic mass conserved", mass_conserved),
              _check("bounds.json ok", bounds_ok),
              _check("picard ratios <= 0.55", picard_ratios),
              _check("picard within 1e-6 of rk4", picard_vs_rk4),
              _check("vlasov_first_order == kinetic_rhs", vlasov_identity),
              _check("horizon q(T) == 0.5", horizon_window)]
    verdicts = {}
    try:
        verdicts["rho_csv_plain_numbers"] = not any(
            _NP_REPR in _read_text(os.path.join(out, run, "rho.csv")) for run in runs)
    except OSError as exc:
        verdicts["rho_csv"] = f"unreadable: {exc}"
    return checks, verdicts


def _dense_checks(paths):
    out = os.path.join(paths["out"], "simulate")
    cfg = _load_json(paths["simulate"])
    d = cfg["torus"]["dim"]
    state = {}

    def snapshots():
        if "snaps" not in state:
            _, rows = _read_csv(os.path.join(out, "snapshots.csv"))
            snaps = {}
            for r in rows:
                snaps.setdefault((int(r[0]), float(r[1])), []).append(
                    [float(v) for v in r[3:3 + d]])
            state["snaps"] = snaps
        return state["snaps"]

    def resimulated():
        # serial, in-process: checks stream purity and serial == parallel
        if "ens" not in state:
            torus = kawasaki.Torus.from_json(cfg["torus"])
            params = kawasaki.SimulationParams(
                torus=torus, kernel=kawasaki.KernelSpec.from_json(cfg["kernel"]),
                potential=kawasaki.PotentialSpec.from_json(cfg["potential"]),
                epsilon=cfg["epsilon"], rho0=cfg["rho0"], t_end=cfg["t_end"],
                snapshot_times=tuple(cfg["snapshots"]), record_events=False)
            state["ens"] = kawasaki.simulate_ensemble(params, cfg["n_traj"], cfg["seed"])
        return state["ens"]

    def count_conserved():
        counts = {}
        for (ti, _), pos in snapshots().items():
            counts.setdefault(ti, set()).add(len(pos))
        bad = {ti: sorted(c) for ti, c in counts.items() if len(c) != 1}
        if len(counts) != cfg["n_traj"]:
            return False, f"{len(counts)} trajectories in snapshots.csv"
        return not bad, f"counts per trajectory {bad or 'constant'}"

    def events_rows():
        with open(os.path.join(out, "events.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        want = sum(traj.n_events for traj in resimulated())
        return rows == want, f"{rows} rows, sum n_events = {want}"

    def serial_matches():
        snaps = snapshots()
        ens = resimulated()
        for ti, traj in enumerate(ens):
            for s, pos in zip(traj.snapshot_times, traj.snapshots):
                got = np.array(snaps.get((ti, s), []), dtype=float).reshape(-1, d)
                if got.shape != pos.shape or not np.array_equal(got, pos):
                    return False, f"trajectory {ti} differs at t={s}"
        return True, f"{len(ens)} trajectories bit-identical"

    def k1_mass():
        return _k1_mass([(os.path.join(out, f"k1_t{j}.csv"),
                          os.path.join(out, f"meta_t{j}.json"), cfg["epsilon"])
                         for j in range(len(cfg["snapshots"]))])

    checks = [_check("particle count conserved", count_conserved),
              _check("events.csv rows == sum n_events", events_rows),
              _check("serial re-simulation matches snapshots.csv", serial_matches),
              _check("eps*k1 integrates to eps*mean_count", k1_mass)]
    return checks, {}


def _gibbs_checks(paths):
    out = paths["out"]
    p = _load_json(paths["gibbs"])
    state = {}

    def configurations():
        if "cfg" not in state:
            with np.load(os.path.join(out, "configurations.npz")) as z:
                state["cfg"] = {k: z[k] for k in z.files}
        return state["cfg"]

    def count_conserved():
        c = configurations()
        n = p["samples"]
        bad = [i for i in range(n)
               if c[f"initial_{i}"].shape[0] != c[f"final_{i}"].shape[0]]
        return not bad, f"{n} trajectories, count changed in {bad or 'none'}"

    def mean_count():
        c = configurations()
        mean_n = float(np.mean([c[f"initial_{i}"].shape[0]
                                for i in range(p["samples"])]))
        gap = abs(mean_n - p["target"]) / p["target"]
        return gap <= 0.10, f"mean N {mean_n:.1f}, target {p['target']:g} (within 10%)"

    checks = [_check("particle count conserved", count_conserved),
              _check("gibbs mean count within 10% of target", mean_count)]
    verdicts = {}
    try:
        _, before = _read_csv(os.path.join(out, "k2_before.csv"))
        _, after = _read_csv(os.path.join(out, "k2_after.csv"))
        k0, s0 = np.array([[float(r[1]), float(r[2])] for r in before]).T
        k1, s1 = np.array([[float(r[1]), float(r[2])] for r in after]).T
        z = (k1 - k0) / np.hypot(s0, s1)
        verdicts["pair_bins_within_3sigma"] = float(np.mean(np.abs(z) <= 3.0))
    except (OSError, ValueError) as exc:
        verdicts["pair"] = f"unreadable: {exc}"
    return checks, verdicts


_CHECKS = {
    "sweep-meanfield": _sweep_checks,
    "kinetic-grids": _kinetic_checks,
    "dense-2d": _dense_checks,
    "equilibrium-gibbs": _gibbs_checks,
}


def run(name, paths):
    """All output checks of one workload run: (checks, verdicts)."""
    return _CHECKS[name](paths)

