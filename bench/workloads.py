"""The four benchmark workloads: seeded inputs, the timed body, the work size.

Each workload is driven the way a user drives it: through `kawasaki.cli.main`
in-process where a subcommand exists, and through the public library API
otherwise. Every call into kawasaki looks its target up on the module at call
time, so the span wrappers that `tracing.Tracer.install` rebinds are the
ones called.

All four are closed loops with a single caller: the next call is issued when
the previous one returns. Only `dense-2d` starts the ensemble process pool.
"""

import json
import math
import os

import numpy as np

import kawasaki
from kawasaki import cli

# -- sizes -----------------------------------------------------------------
# Chosen so that one fresh-interpreter run takes 1.5-2.5 s on a 2-core
# machine, which lets a measuring run collect several samples per workload.

SWEEP_N_TRAJ_BASE = 250
SWEEP_EPSILONS = (1.0, 0.5, 0.25)

KIN_RK4_DIRECT_CELLS = 1000
KIN_RK4_DIRECT_DT = 0.01
KIN_RK4_DIRECT_T = 0.4
KIN_FFT_CELLS = 1024
KIN_FFT_STEPS = 800
KIN_Q = 0.5

DENSE_SIDE = 40.0
DENSE_RHO0 = 2.0
DENSE_N_TRAJ = 2
DENSE_T_END = 0.25
DENSE_THREADS = 2

GIBBS_SIDE = 100.0
GIBBS_TARGET = 200.0
GIBBS_MOVES_PER_ROUND = 2000
GIBBS_SAMPLES = 10
GIBBS_THIN = 500
GIBBS_BURN_IN = 3000
GIBBS_T_END = 2.5  # five kernel times at alpha = 2


def _top_hat(radius, height, dim=1):
    return {"family": "top_hat", "radius": radius, "height": height, "dim": dim}


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def _cos_profile(rng, side, n_cells, mean, amp, waves):
    """mean + amp cos(2 pi waves x / side + random phase) at cell centres."""
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    x = (np.arange(n_cells) + 0.5) * side / n_cells
    return (mean + amp * np.cos(2.0 * math.pi * waves * x / side + phase)).tolist()


def _program_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


# -- seeded inputs ---------------------------------------------------------


def make_inputs(name, seed, work_dir):
    """Write the workload's inputs for `seed` under work_dir; return their paths.

    The same seed always gives the same files. The program sees only these
    files (CLI workloads) or the parameters read back from them (library).
    """
    rng = np.random.default_rng([seed, 7919])
    d = os.path.join(work_dir, "inputs")
    os.makedirs(d, exist_ok=True)
    out_dir = os.path.join(work_dir, "out")
    paths = {"dir": d, "out": out_dir}
    if name == "sweep-meanfield":
        paths["sweep"] = _write_json(os.path.join(d, "sweep.json"), {
            "subcommand": "scale-sweep",
            "torus": {"dim": 1, "side": 20.0},
            "kernel": _top_hat(2.0, 1.0),
            "potential": _top_hat(1.0, 3.0),
            "epsilons": list(SWEEP_EPSILONS),
            "rho0": {"values": _cos_profile(rng, 20.0, 32, 0.7, 0.35, 3)},
            "times": [1.0],
            "n_traj_base": SWEEP_N_TRAJ_BASE,
            "n_cells": 32, "r_max": 5.0, "n_bins": 20,
            "budget_max_particles": 10000,
            "seed": _program_seed(rng), "threads": 1,
        })
    elif name == "kinetic-grids":
        model = {"torus": {"dim": 1, "side": 20.0},
                 "kernel": _top_hat(0.5, 1.0), "potential": _top_hat(0.5, 1.0)}
        paths["direct"] = _write_json(os.path.join(d, "kinetic_direct.json"), {
            "subcommand": "kinetic", **model,
            "n_cells": KIN_RK4_DIRECT_CELLS,
            "rho0": {"values": _cos_profile(rng, 20.0, KIN_RK4_DIRECT_CELLS,
                                            0.55, 0.45, 1)},
            "dt": KIN_RK4_DIRECT_DT, "t_end": KIN_RK4_DIRECT_T,
            "method": "rk4", "snapshots": [0.0, KIN_RK4_DIRECT_T],
        })
        paths["model"] = _write_json(os.path.join(d, "window_model.json"), {
            **model, "n_cells": KIN_FFT_CELLS,
            "rho0": {"values": _cos_profile(rng, 20.0, KIN_FFT_CELLS, 0.55, 0.45, 1)},
            "q": KIN_Q, "steps": KIN_FFT_STEPS,
        })
    elif name == "dense-2d":
        paths["simulate"] = _write_json(os.path.join(d, "simulate.json"), {
            "subcommand": "simulate",
            "torus": {"dim": 2, "side": DENSE_SIDE},
            "kernel": _top_hat(1.0, 1.0, dim=2),
            "potential": {"family": "gaussian", "sigma": 0.5, "height": 1.0, "dim": 2},
            "epsilon": 1.0, "rho0": DENSE_RHO0, "t_end": DENSE_T_END,
            "snapshots": [0.0, DENSE_T_END], "n_traj": DENSE_N_TRAJ,
            "seed": _program_seed(rng), "record_events": True,
            "estimator": {"n_cells": 40, "r_max": 5.0, "n_bins": 25},
            "threads": DENSE_THREADS,
        })
    elif name == "equilibrium-gibbs":
        paths["gibbs"] = _write_json(os.path.join(d, "gibbs.json"), {
            "side": GIBBS_SIDE, "kernel": _top_hat(1.0, 1.0),
            "potential": _top_hat(1.0, 0.7), "target": GIBBS_TARGET,
            "moves_per_round": GIBBS_MOVES_PER_ROUND,
            "samples": GIBBS_SAMPLES, "thin": GIBBS_THIN, "burn_in": GIBBS_BURN_IN,
            "t_end": GIBBS_T_END, "r_max": 5.0, "n_bins": 25,
            "chain_seed": _program_seed(rng), "dynamics_seed": _program_seed(rng),
        })
    else:
        raise KeyError(f"unknown workload {name!r}")
    return paths


# -- timed bodies ----------------------------------------------------------
# Each returns the operations it made as (name, ok, detail) tuples.


def _cli(sub, config, out):
    rc = cli.main([sub, "--config", config, "--out", out])
    return (f"cli {sub} {os.path.basename(out)}", rc == 0, f"exit code {rc}")


def _run_sweep_meanfield(paths):
    return [_cli("scale-sweep", paths["sweep"], os.path.join(paths["out"], "sweep"))]


def _run_kinetic_grids(paths):
    with open(paths["model"]) as fh:
        model = json.load(fh)
    kernel = kawasaki.KernelSpec.from_json(model["kernel"])
    potential = kawasaki.PotentialSpec.from_json(model["potential"])
    a, mphi = kawasaki.alpha(kernel), kawasaki.mean_phi(potential)
    u0 = max(model["rho0"]["values"])
    T = kawasaki.find_T_for_q(model["q"], u0, a, mphi)
    ops = [("find_T_for_q", True, f"T = {T!r}")]
    d = paths["dir"]
    horizon = _write_json(os.path.join(d, "horizon.json"), {
        "subcommand": "horizon", "theta0": 0.0, "alpha": a,
        "c_phi": kawasaki.c_phi(potential), "mean_phi": mphi, "theta": -1.0,
        "t": [T], "u0": u0, "windows": [T],
    })
    window = {"subcommand": "kinetic", "torus": model["torus"],
              "n_cells": model["n_cells"], "kernel": model["kernel"],
              "potential": model["potential"], "rho0": model["rho0"],
              "dt": T / model["steps"], "t_end": T, "snapshots": [0.0, T]}
    fft = _write_json(os.path.join(d, "kinetic_fft.json"), {**window, "method": "rk4"})
    picard = _write_json(os.path.join(d, "kinetic_picard.json"),
                         {**window, "method": "picard"})
    out = paths["out"]
    ops.append(_cli("horizon", horizon, os.path.join(out, "horizon")))
    ops.append(_cli("kinetic", paths["direct"], os.path.join(out, "direct")))
    ops.append(_cli("kinetic", fft, os.path.join(out, "fft")))
    ops.append(_cli("kinetic", picard, os.path.join(out, "picard")))
    return ops


def _run_dense_2d(paths):
    return [_cli("simulate", paths["simulate"], os.path.join(paths["out"], "simulate"))]


def _run_equilibrium_gibbs(paths):
    with open(paths["gibbs"]) as fh:
        p = json.load(fh)
    torus = kawasaki.Torus(1, p["side"])
    kernel = kawasaki.KernelSpec.from_json(p["kernel"])
    potential = kawasaki.PotentialSpec.from_json(p["potential"])
    rng = np.random.default_rng(p["chain_seed"])
    z = kawasaki.calibrate_activity(torus, potential, p["target"], rng,
                                    moves_per_round=p["moves_per_round"])
    chain = kawasaki.GibbsSampler(torus, potential, z, rng,
                                  initial_count=p["target"])
    initials = chain.sample(p["samples"], thin_moves=p["thin"],
                            burn_in_moves=p["burn_in"])
    params = kawasaki.SimulationParams(
        torus=torus, kernel=kernel, potential=potential, rho0=p["target"] / p["side"],
        t_end=p["t_end"], snapshot_times=(p["t_end"],), record_events=False)
    ensemble = kawasaki.simulate_ensemble(params, len(initials), p["dynamics_seed"],
                                          initials=initials)
    edges = np.linspace(0.0, p["r_max"], p["n_bins"] + 1)
    before = kawasaki.estimate_pair_correlation(initials, 0.0, edges, torus=torus)
    after = kawasaki.estimate_pair_correlation(ensemble, p["t_end"], edges)
    out = paths["out"]
    os.makedirs(out, exist_ok=True)
    finals = [traj.snapshot_at(p["t_end"]) for traj in ensemble]
    np.savez(os.path.join(out, "configurations.npz"),
             **{f"initial_{i}": x for i, x in enumerate(initials)},
             **{f"final_{i}": x for i, x in enumerate(finals)})
    before.write_k2_csv(os.path.join(out, "k2_before.csv"))
    after.write_k2_csv(os.path.join(out, "k2_after.csv"))
    _write_json(os.path.join(out, "summary.json"), {"activity": z,
                                                    "n_samples": len(initials)})
    return [("calibrate_activity", True, f"z = {z!r}"),
            ("GibbsSampler.sample", True, f"{len(initials)} samples"),
            ("simulate_ensemble", True, f"{len(ensemble)} trajectories"),
            ("estimate_pair_correlation", True, "before and after")]


_BODIES = {
    "sweep-meanfield": _run_sweep_meanfield,
    "kinetic-grids": _run_kinetic_grids,
    "dense-2d": _run_dense_2d,
    "equilibrium-gibbs": _run_equilibrium_gibbs,
}


NAMES = tuple(_BODIES)


def run(name, paths):
    """The timed body of one workload run."""
    return _BODIES[name](paths)


# -- work size -------------------------------------------------------------


def work_units(name, paths):
    """Units of work one run completes: trajectories, or kinetic cell-steps.

    Read from the inputs and outputs after the timer stops. The kinetic count
    is RK4 cells x steps plus Picard cells x time-steps x sweeps.
    """
    if name == "sweep-meanfield":
        return sum(max(2, round(SWEEP_N_TRAJ_BASE * e)) for e in SWEEP_EPSILONS)
    if name == "dense-2d":
        return DENSE_N_TRAJ
    if name == "equilibrium-gibbs":
        return GIBBS_SAMPLES
    out = paths["out"]
    with open(os.path.join(out, "picard", "picard.json")) as fh:
        sweeps = json.load(fh)["iterations"]
    direct_steps = round(KIN_RK4_DIRECT_T / KIN_RK4_DIRECT_DT)
    return (KIN_RK4_DIRECT_CELLS * direct_steps
            + KIN_FFT_CELLS * KIN_FFT_STEPS * (1 + sweeps))
