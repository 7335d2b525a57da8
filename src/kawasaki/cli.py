"""Command-line entry point.

    kawasaki <simulate|kinetic|horizon|scale-sweep|validate>
             --config FILE [--out DIR] [--seed N] [--threads N]

Configs are strict JSON documents (unknown fields are rejected). Every run
writes a manifest.json echoing the fully resolved configuration, including
defaults and the package version; feeding a manifest back as --config
reproduces the run byte-for-byte. Exit codes: 0 success, 1 configuration
error, 2 numeric error, 3 budget error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import BudgetError, ConfigError, KawasakiError, NumericError
from .estimator import estimate_correlations
from .fields import DensityField
from .horizon import contraction_factor, horizon_report
from .kernels import KernelSpec, PotentialSpec, alpha, mean_phi
from .kinetic import monitor_bounds, picard_solve, solve_kinetic
from .scaling import (SweepSpec, convergence_report, plan_budget, run_sweep,
                      write_sweep_outputs)
from .simulator import SimulationParams, simulate_ensemble
from .torus import Torus

_SUBCOMMANDS = ("simulate", "kinetic", "horizon", "scale-sweep", "validate")


def _fail(msg):
    raise ConfigError(msg)


def _check_keys(obj, where, required, optional=()):
    if not isinstance(obj, dict):
        _fail(f"{where} must be a JSON object")
    keys = set(obj)
    missing = set(required) - keys
    if missing:
        _fail(f"{where}: missing fields {sorted(missing)}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        _fail(f"{where}: unknown fields {sorted(unknown)}")


def _load_config(path):
    if not os.path.exists(path):
        _fail(f"config file not found: {path}")
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            _fail(f"config is not valid JSON: {exc}")
    # accept a manifest written by a previous run
    if isinstance(obj, dict) and set(obj) == {"subcommand", "version", "config"}:
        inner = dict(obj["config"])
        inner.setdefault("subcommand", obj["subcommand"])
        return inner
    return obj


def _parse_torus(obj):
    _check_keys(obj, "torus", ("dim", "side"))
    return Torus.from_json(obj)


def _parse_rho0(obj, torus, n_cells=None):
    if isinstance(obj, (int, float)):
        if obj < 0:
            _fail("rho0 must be >= 0")
        return float(obj)
    _check_keys(obj, "rho0", ("values",))
    vals = np.asarray(obj["values"], dtype=float)
    field = DensityField(torus, vals)
    if n_cells is not None and field.n_cells != n_cells:
        _fail(f"rho0 grid has {field.n_cells} cells per axis, expected {n_cells}")
    return field


def _rho0_json(rho0):
    if isinstance(rho0, DensityField):
        return {"values": rho0.values.tolist()}
    return rho0


# -- simulate -----------------------------------------------------------------

_SIM_REQUIRED = ("torus", "kernel", "potential", "rho0", "t_end", "n_traj", "seed")
_SIM_OPTIONAL = ("subcommand", "epsilon", "snapshots", "record_events",
                 "exclude_mover", "estimator", "threads")


def _resolve_simulate(cfg):
    _check_keys(cfg, "simulate config", _SIM_REQUIRED, _SIM_OPTIONAL)
    torus = _parse_torus(cfg["torus"])
    kernel = KernelSpec.from_json(cfg["kernel"])
    potential = PotentialSpec.from_json(cfg["potential"])
    if kernel.dim != torus.dim or potential.dim != torus.dim:
        _fail("kernel/potential dimension must match the torus")
    rho0 = _parse_rho0(cfg["rho0"], torus)
    est = cfg.get("estimator")
    if est is not None:
        _check_keys(est, "estimator", ("n_cells",), ("r_max", "n_bins"))
    resolved = {
        "subcommand": "simulate",
        "torus": torus.to_json(),
        "kernel": kernel.to_json(),
        "potential": potential.to_json(),
        "epsilon": float(cfg.get("epsilon", 1.0)),
        "rho0": _rho0_json(rho0),
        "t_end": float(cfg["t_end"]),
        "snapshots": [float(s) for s in cfg.get("snapshots", [cfg["t_end"]])],
        "n_traj": int(cfg["n_traj"]),
        "seed": int(cfg["seed"]),
        "record_events": bool(cfg.get("record_events", False)),
        "exclude_mover": bool(cfg.get("exclude_mover", False)),
        "estimator": None if est is None else {
            "n_cells": int(est["n_cells"]),
            "r_max": float(est.get("r_max", torus.side / 4.0)),
            "n_bins": int(est.get("n_bins", 20)),
        },
        "threads": int(cfg.get("threads", 1)),
    }
    objs = {"torus": torus, "kernel": kernel, "potential": potential, "rho0": rho0}
    return resolved, objs


def _validate_simulate(cfg):
    resolved, objs = _resolve_simulate(cfg)
    diags = []
    radius = max(objs["kernel"].support_radius, objs["potential"].support_radius)
    try:
        objs["torus"].require_fits(radius)
    except KawasakiError as exc:
        diags.append(str(exc))
    if resolved["epsilon"] <= 0:
        diags.append("epsilon must be positive")
    for s in resolved["snapshots"]:
        if not 0 <= s <= resolved["t_end"]:
            diags.append(f"snapshot {s} outside [0, t_end]")
    return resolved, diags


def _run_simulate(cfg, out_dir, seed_override, threads):
    resolved, objs = _validate_and_raise(_validate_simulate, cfg)
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    if threads is not None:
        resolved["threads"] = int(threads)
    _write_manifest(out_dir, "simulate", resolved)
    params = SimulationParams(
        torus=objs["torus"], kernel=objs["kernel"], potential=objs["potential"],
        epsilon=resolved["epsilon"], rho0=objs["rho0"], t_end=resolved["t_end"],
        snapshot_times=tuple(resolved["snapshots"]),
        record_events=resolved["record_events"],
        exclude_mover=resolved["exclude_mover"],
    )
    ensemble = simulate_ensemble(params, resolved["n_traj"], resolved["seed"],
                                 n_jobs=resolved["threads"])
    d = objs["torus"].dim
    cols = ",".join(f"x{k}" for k in range(d))
    with open(os.path.join(out_dir, "snapshots.csv"), "w") as fh:
        fh.write(f"traj_id,time,particle_id,{cols}\n")
        for ti, traj in enumerate(ensemble):
            for s, snap in zip(traj.snapshot_times, traj.snapshots):
                for pid in range(snap.shape[0]):
                    xs = ",".join(repr(float(v)) for v in snap[pid])
                    fh.write(f"{ti},{s!r},{pid},{xs}\n")
    if resolved["record_events"]:
        oldc = ",".join(f"old_x{k}" for k in range(d))
        newc = ",".join(f"new_x{k}" for k in range(d))
        with open(os.path.join(out_dir, "events.csv"), "w") as fh:
            fh.write(f"traj_id,time,mover,accepted,{oldc},{newc}\n")
            for ti, traj in enumerate(ensemble):
                for k in range(traj.n_events):
                    olds = ",".join(repr(float(v)) for v in traj.old_positions[k])
                    news = ",".join(repr(float(v)) for v in traj.new_positions[k])
                    fh.write(f"{ti},{float(traj.times[k])!r},{int(traj.movers[k])},"
                             f"{int(traj.accepted[k])},{olds},{news}\n")
    est_cfg = resolved["estimator"]
    if est_cfg is not None:
        r_edges = np.linspace(0.0, est_cfg["r_max"], est_cfg["n_bins"] + 1)
        for j, s in enumerate(resolved["snapshots"]):
            est = estimate_correlations(ensemble, s, est_cfg["n_cells"], r_edges,
                                        torus=objs["torus"])
            est.write_k1_csv(os.path.join(out_dir, f"k1_t{j}.csv"))
            est.write_k2_csv(os.path.join(out_dir, f"k2_t{j}.csv"))
            est.write_meta_json(os.path.join(out_dir, f"meta_t{j}.json"))
    return 0


# -- kinetic ------------------------------------------------------------------

_KIN_REQUIRED = ("torus", "n_cells", "kernel", "potential", "rho0", "dt", "t_end")
_KIN_OPTIONAL = ("subcommand", "method", "snapshots", "picard_tolerance",
                 "picard_max_iter", "seed", "threads")


def _resolve_kinetic(cfg):
    _check_keys(cfg, "kinetic config", _KIN_REQUIRED, _KIN_OPTIONAL)
    torus = _parse_torus(cfg["torus"])
    kernel = KernelSpec.from_json(cfg["kernel"])
    potential = PotentialSpec.from_json(cfg["potential"])
    if kernel.dim != torus.dim or potential.dim != torus.dim:
        _fail("kernel/potential dimension must match the torus")
    n_cells = int(cfg["n_cells"])
    rho0 = _parse_rho0(cfg["rho0"], torus, n_cells=None)
    if isinstance(rho0, float):
        rho0 = DensityField.constant(torus, n_cells, rho0)
    elif rho0.n_cells != n_cells:
        _fail(f"rho0 grid has {rho0.n_cells} cells per axis, expected {n_cells}")
    resolved = {
        "subcommand": "kinetic",
        "torus": torus.to_json(),
        "n_cells": n_cells,
        "kernel": kernel.to_json(),
        "potential": potential.to_json(),
        "rho0": {"values": rho0.values.tolist()},
        "dt": float(cfg["dt"]),
        "t_end": float(cfg["t_end"]),
        "method": cfg.get("method", "rk4"),
        "snapshots": [float(s) for s in cfg.get("snapshots", [cfg["t_end"]])],
        "picard_tolerance": float(cfg.get("picard_tolerance", 1e-10)),
        "picard_max_iter": int(cfg.get("picard_max_iter", 200)),
    }
    objs = {"torus": torus, "kernel": kernel, "potential": potential, "rho0": rho0}
    return resolved, objs


def _validate_kinetic(cfg):
    resolved, objs = _resolve_kinetic(cfg)
    diags = []
    if resolved["method"] not in ("rk4", "picard"):
        diags.append(f"method must be rk4 or picard, got {resolved['method']!r}")
    a = alpha(objs["kernel"])
    for spec, name in ((objs["kernel"], "kernel"), (objs["potential"], "potential")):
        if spec.family != "local" and spec.support_radius >= objs["torus"].side / 2:
            diags.append(f"minimal-image ambiguity: {name} support radius "
                         f"{spec.support_radius:g} >= L/2")
    if resolved["dt"] > 0.1 / a:
        diags.append(f"dt={resolved['dt']:g} violates the stability guard "
                     f"dt <= 0.1/alpha = {0.1 / a:g}")
    if resolved["method"] == "picard":
        try:
            q = contraction_factor(objs["rho0"].sup, a, mean_phi(objs["potential"]),
                                   resolved["t_end"])
            if q >= 1.0:
                diags.append(
                    f"Picard window not certified: contraction factor "
                    f"q(T)={q:.4f} >= 1 on [0, {resolved['t_end']:g}]")
        except NumericError as exc:
            diags.append(f"Picard window not certified: {exc}")
    return resolved, diags


def _run_kinetic(cfg, out_dir, seed_override, threads):
    resolved, objs = _validate_and_raise(_validate_kinetic, cfg)
    _write_manifest(out_dir, "kinetic", resolved)
    sts = sorted(resolved["snapshots"])
    if resolved["method"] == "rk4":
        traj = solve_kinetic(objs["rho0"], objs["kernel"], objs["potential"],
                             dt=resolved["dt"], t_end=resolved["t_end"],
                             snapshot_times=sts)
        fields = [(s, traj.snapshot_at(s).values) for s in sts]
        report = monitor_bounds(traj)
        with open(os.path.join(out_dir, "bounds.json"), "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        res = picard_solve(objs["rho0"], resolved["t_end"], objs["kernel"],
                           objs["potential"], tolerance=resolved["picard_tolerance"],
                           dt=resolved["dt"], max_iter=resolved["picard_max_iter"])
        fields = []
        for s in sts:
            k = int(round(s / res.dt))
            fields.append((s, res.fields[min(k, len(res.fields) - 1)]))
        with open(os.path.join(out_dir, "picard.json"), "w") as fh:
            json.dump({"q_bound": res.q_bound, "iterations": res.iterations,
                       "deltas": res.deltas, "ratios": res.ratios},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    with open(os.path.join(out_dir, "rho.csv"), "w") as fh:
        fh.write("time,cell_index,value\n")
        for s, vals in fields:
            for idx, v in enumerate(np.ravel(vals)):
                fh.write(f"{s!r},{idx},{float(v)!r}\n")
    return 0


# -- horizon ------------------------------------------------------------------

_HOR_REQUIRED = ("theta0", "alpha", "c_phi")
_HOR_OPTIONAL = ("subcommand", "mean_phi", "theta", "t", "u0", "windows")


def _resolve_horizon(cfg):
    _check_keys(cfg, "horizon config", _HOR_REQUIRED, _HOR_OPTIONAL)
    times = cfg.get("t", [])
    if isinstance(times, (int, float)):
        times = [times]
    windows = cfg.get("windows", [])
    resolved = {
        "subcommand": "horizon",
        "theta0": float(cfg["theta0"]),
        "alpha": float(cfg["alpha"]),
        "c_phi": float(cfg["c_phi"]),
        "mean_phi": None if cfg.get("mean_phi") is None else float(cfg["mean_phi"]),
        "theta": None if cfg.get("theta") is None else float(cfg["theta"]),
        "t": [float(t) for t in times],
        "u0": float(cfg.get("u0", 1.0)),
        "windows": [float(w) for w in windows],
    }
    return resolved, {}


def _validate_horizon(cfg):
    resolved, _ = _resolve_horizon(cfg)
    diags = []
    if resolved["alpha"] <= 0:
        diags.append("alpha must be positive")
    if resolved["c_phi"] < 0:
        diags.append("c_phi must be >= 0")
    if resolved["theta"] is not None and resolved["theta"] > resolved["theta0"]:
        diags.append("theta must be <= theta0")
    return resolved, diags


def _run_horizon(cfg, out_dir, seed_override, threads):
    resolved, _ = _validate_and_raise(_validate_horizon, cfg)
    _write_manifest(out_dir, "horizon", resolved)
    rep = horizon_report(
        resolved["theta0"], resolved["alpha"], resolved["c_phi"],
        mean_phi=resolved["mean_phi"], theta=resolved["theta"],
        times=resolved["t"], u0=resolved["u0"], windows=resolved["windows"],
    )
    rep.write_json(os.path.join(out_dir, "report.json"))
    return 0


# -- scale-sweep -------------------------------------------------------------

_SWEEP_REQUIRED = ("torus", "kernel", "potential", "epsilons", "rho0", "times",
                   "seed")
_SWEEP_OPTIONAL = ("subcommand", "n_traj_base", "n_traj", "n_cells", "r_max",
                   "n_bins", "dt", "budget_max_particles", "threads")


def _resolve_sweep(cfg):
    _check_keys(cfg, "scale-sweep config", _SWEEP_REQUIRED, _SWEEP_OPTIONAL)
    torus = _parse_torus(cfg["torus"])
    kernel = KernelSpec.from_json(cfg["kernel"])
    potential = PotentialSpec.from_json(cfg["potential"])
    if kernel.dim != torus.dim or potential.dim != torus.dim:
        _fail("kernel/potential dimension must match the torus")
    n_cells = int(cfg.get("n_cells", 64))
    rho0 = _parse_rho0(cfg["rho0"], torus, n_cells=n_cells)
    resolved = {
        "subcommand": "scale-sweep",
        "torus": torus.to_json(),
        "kernel": kernel.to_json(),
        "potential": potential.to_json(),
        "epsilons": [float(e) for e in cfg["epsilons"]],
        "rho0": _rho0_json(rho0),
        "times": [float(t) for t in cfg["times"]],
        "n_traj_base": int(cfg.get("n_traj_base", 200)),
        "n_traj": None if cfg.get("n_traj") is None else [int(n) for n in cfg["n_traj"]],
        "n_cells": n_cells,
        "r_max": float(cfg.get("r_max", torus.side / 4.0)),
        "n_bins": int(cfg.get("n_bins", 20)),
        "dt": None if cfg.get("dt") is None else float(cfg["dt"]),
        "budget_max_particles": float(cfg.get("budget_max_particles", 1e4)),
        "seed": int(cfg["seed"]),
        "threads": int(cfg.get("threads", 1)),
    }
    objs = {"torus": torus, "kernel": kernel, "potential": potential, "rho0": rho0}
    return resolved, objs


def _build_sweep_spec(resolved, objs):
    r_edges = tuple(np.linspace(0.0, resolved["r_max"], resolved["n_bins"] + 1))
    return SweepSpec(
        torus=objs["torus"], kernel=objs["kernel"], potential=objs["potential"],
        epsilons=tuple(resolved["epsilons"]), rho0=objs["rho0"],
        times=tuple(resolved["times"]), n_traj_base=resolved["n_traj_base"],
        n_traj=None if resolved["n_traj"] is None else tuple(resolved["n_traj"]),
        n_cells=resolved["n_cells"], r_edges=r_edges, dt=resolved["dt"],
        budget_max_particles=resolved["budget_max_particles"],
        base_seed=resolved["seed"], n_jobs=resolved["threads"],
    )


def _validate_sweep(cfg, include_budget=True):
    resolved, objs = _resolve_sweep(cfg)
    diags = []
    radius = max(objs["kernel"].support_radius, objs["potential"].support_radius)
    try:
        objs["torus"].require_fits(radius)
    except KawasakiError as exc:
        diags.append(str(exc))
    try:
        spec = _build_sweep_spec(resolved, objs)
        spec.validate()
        if include_budget:
            plan_budget(spec)
    except BudgetError as exc:
        diags.append(f"budget: {exc}")
    except KawasakiError as exc:
        diags.append(str(exc))
    return resolved, diags


def _run_sweep_cmd(cfg, out_dir, seed_override, threads):
    # budget is rechecked inside run_sweep so overruns exit with the budget
    # code rather than as a config error
    resolved, objs = _validate_and_raise(
        lambda c: _validate_sweep(c, include_budget=False), cfg)
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    if threads is not None:
        resolved["threads"] = int(threads)
    _write_manifest(out_dir, "scale-sweep", resolved)
    spec = _build_sweep_spec(resolved, objs)
    result = run_sweep(spec)
    report = convergence_report(result)
    write_sweep_outputs(result, out_dir, report=report)
    return 0


# -- shared driver ------------------------------------------------------------


def _validate_and_raise(validator, cfg):
    resolved_objs = validator(cfg)
    resolved, diags = resolved_objs[0], resolved_objs[1]
    if diags:
        raise ConfigError("; ".join(diags))
    # re-resolve to recover the spec objects (validators return only 2-tuples)
    return _RESOLVERS[resolved["subcommand"]](resolved)


_RESOLVERS = {
    "simulate": _resolve_simulate,
    "kinetic": _resolve_kinetic,
    "horizon": _resolve_horizon,
    "scale-sweep": _resolve_sweep,
}

_VALIDATORS = {
    "simulate": _validate_simulate,
    "kinetic": _validate_kinetic,
    "horizon": _validate_horizon,
    "scale-sweep": _validate_sweep,
}

_RUNNERS = {
    "simulate": _run_simulate,
    "kinetic": _run_kinetic,
    "horizon": _run_horizon,
    "scale-sweep": _run_sweep_cmd,
}


def _write_manifest(out_dir, subcommand, resolved):
    os.makedirs(out_dir, exist_ok=True)
    resolved = {k: v for k, v in resolved.items() if k != "subcommand"}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump({"subcommand": subcommand, "version": __version__,
                   "config": resolved}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_parser():
    p = argparse.ArgumentParser(prog="kawasaki",
                                description="Continuum hopping-particle toolkit")
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default="out")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
        if name == "horizon":
            sp.add_argument("--theta0", type=float, default=None)
            sp.add_argument("--alpha", type=float, default=None)
            sp.add_argument("--cphi", type=float, default=None)
            sp.add_argument("--theta", type=float, default=None)
            sp.add_argument("--t", type=float, default=None)
    return p


def _horizon_config_from_flags(args):
    cfg = {}
    if args.theta0 is not None:
        cfg["theta0"] = args.theta0
    if args.alpha is not None:
        cfg["alpha"] = args.alpha
    if args.cphi is not None:
        cfg["c_phi"] = args.cphi
    if args.theta is not None:
        cfg["theta"] = args.theta
    if args.t is not None:
        cfg["t"] = args.t
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "horizon" and args.config is None:
            cfg = _horizon_config_from_flags(args)
            if not cfg:
                _fail("horizon needs --config or --theta0/--alpha/--cphi flags")
        else:
            if args.config is None:
                _fail(f"{args.subcommand} requires --config FILE")
            cfg = _load_config(args.config)

        if args.subcommand == "validate":
            if "subcommand" not in cfg:
                _fail("validate needs a config carrying a 'subcommand' field")
            target = cfg["subcommand"]
            if target not in _VALIDATORS:
                _fail(f"unknown subcommand {target!r} in config")
            _, diags = _VALIDATORS[target](cfg)
            for d in diags:
                print(f"violation: {d}")
            return 0 if not diags else 1

        declared = cfg.get("subcommand")
        if declared is not None and declared != args.subcommand:
            _fail(f"config is for subcommand {declared!r}, invoked {args.subcommand!r}")
        cfg.setdefault("subcommand", args.subcommand)
        return _RUNNERS[args.subcommand](cfg, args.out, args.seed, args.threads)
    except BudgetError as exc:
        print(f"error (budget): {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error (numeric): {exc}", file=sys.stderr)
        return 2
    except KawasakiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
