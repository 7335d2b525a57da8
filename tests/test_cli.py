import dataclasses
import json
import math
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from kawasaki import (ConfigError, InvalidSpecError, KernelSpec, PotentialSpec, Torus,
                      contraction_factor)
from kawasaki import cli
from kawasaki.cli import COMMANDS, main, manifest_config, resolve

DEMO_CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs"


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def sim_config(**kw):
    cfg = {
        "torus": {"dim": 1, "side": 20.0},
        "kernel": {"family": "top_hat", "radius": 1.0, "height": 1.0, "dim": 1},
        "potential": {"family": "top_hat", "radius": 1.0, "height": 0.5, "dim": 1},
        "epsilon": 1.0,
        "rho0": 0.5,
        "t_end": 0.5,
        "snapshots": [0.5],
        "n_traj": 3,
        "seed": 11,
        "record_events": True,
        "estimator": {"n_cells": 10},
    }
    cfg.update(kw)
    return cfg


def kinetic_config(**kw):
    cfg = {
        "torus": {"dim": 1, "side": 20.0},
        "n_cells": 64,
        "kernel": {"family": "top_hat", "radius": 0.5, "height": 1.0, "dim": 1},
        "potential": {"family": "top_hat", "radius": 0.5, "height": 1.0, "dim": 1},
        "rho0": 0.5,
        "dt": 1e-3,
        "t_end": 0.02,
        "method": "rk4",
        "snapshots": [0.02],
    }
    cfg.update(kw)
    return cfg


def sweep_config(**kw):
    cfg = {
        "torus": {"dim": 1, "side": 20.0},
        "kernel": {"family": "top_hat", "radius": 1.0, "height": 1.0, "dim": 1},
        "potential": {"family": "top_hat", "radius": 1.0, "height": 1.0, "dim": 1},
        "epsilons": [1.0, 0.5],
        "rho0": 0.5,
        "times": [0.25],
        "n_traj_base": 40,
        "n_cells": 16,
        "n_bins": 8,
        "r_max": 4.0,
        "seed": 4,
    }
    cfg.update(kw)
    return cfg


def horizon_config(**kw):
    cfg = {"theta0": 0.0, "alpha": 1.0, "c_phi": 1.0, "theta": -1.0}
    cfg.update(kw)
    return cfg


CONFIGS = {"simulate": sim_config, "kinetic": kinetic_config,
           "horizon": horizon_config, "scale-sweep": sweep_config}


# -- validate ----------------------------------------------------------------------

def test_validate_well_formed_config(tmp_path, capsys):
    cfg = sim_config()
    cfg["subcommand"] = "simulate"
    path = write_json(tmp_path / "ok.json", cfg)
    assert main(["validate", "--config", path]) == 0
    assert capsys.readouterr().out == ""


def test_validate_flags_minimal_image_ambiguity(tmp_path, capsys):
    cfg = sim_config()
    cfg["subcommand"] = "simulate"
    cfg["kernel"]["radius"] = 10.0  # = L/2
    path = write_json(tmp_path / "bad.json", cfg)
    assert main(["validate", "--config", path]) == 1
    assert "minimal-image ambiguity" in capsys.readouterr().out


def test_validate_reports_sweep_model_and_ladder_errors_together(tmp_path, capsys):
    cfg = sweep_config(epsilons=[0.5, 1.0])
    cfg["subcommand"] = "scale-sweep"
    cfg["kernel"]["radius"] = 10.0  # = L/2
    path = write_json(tmp_path / "bad.json", cfg)
    assert main(["validate", "--config", path]) == 1
    out = capsys.readouterr().out
    assert "minimal-image ambiguity" in out
    assert "strictly decreasing" in out


@pytest.mark.parametrize("change, violations", [
    ({}, ["pair bins must stay below L/2 (minimal image)"]),
    ({"epsilons": [0.5, 1.0]}, ["pair bins must stay below L/2 (minimal image)",
                                "epsilons must be strictly decreasing"]),
], ids=["alone", "with a ladder error"])
def test_validate_reports_sweep_pair_bins_once(tmp_path, capsys, change, violations):
    # the pair bins are one rule of SweepSpec.violations, reported once
    cfg = {"subcommand": "scale-sweep", **sweep_config(r_max=10.5, **change)}
    path = write_json(tmp_path / "bad.json", cfg)
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr().out.splitlines() == [f"violation: {v}" for v in violations]


WIDE_KERNEL = {"family": "top_hat", "radius": 10.0, "height": 1.0, "dim": 1}  # = L/2


@pytest.mark.parametrize("change, violations", [
    ({"kernel": WIDE_KERNEL, "r_max": 10.5, "epsilons": [0.5, 1.0], "times": [-0.25]},
     ["minimal-image ambiguity: interaction radius 10 requires side > 40, got 20",
      "pair bins must stay below L/2 (minimal image)",
      "epsilons must be strictly decreasing",
      "comparison times must be >= 0"]),
    ({"times": []}, ["comparison times must be >= 0"]),
    ({"epsilons": []}, ["epsilons must lie in (0, 1]"]),
], ids=["four rules", "no times", "no epsilons"])
def test_validate_reports_every_sweep_violation(tmp_path, capsys, change, violations):
    cfg = {"subcommand": "scale-sweep", **sweep_config(**change)}
    path = write_json(tmp_path / "bad.json", cfg)
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr() == ("".join(f"violation: {v}\n" for v in violations), "")


def test_validate_reports_every_simulate_violation(tmp_path, capsys):
    cfg = sim_config(kernel=WIDE_KERNEL, snapshots=[0.25, 0.75],
                     estimator={"n_cells": 10, "r_max": 10.5}, subcommand="simulate")
    path = write_json(tmp_path / "bad.json", cfg)
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr() == (
        "violation: minimal-image ambiguity: interaction radius 10 requires side > 40, got 20\n"
        "violation: snapshot time 0.75 outside [0, 0.5]\n"
        "violation: pair bins must stay below L/2 (minimal image)\n", "")


def test_validate_reports_every_kinetic_violation(tmp_path, capsys):
    # <phi> = 1 and rho0 = 1: q(0.6) is far above 1; alpha = 1, so dt <= 0.1
    wide = {"family": "top_hat", "radius": 10.0, "height": 0.05, "dim": 1}
    cfg = kinetic_config(potential=wide, rho0=1.0, dt=0.2, t_end=0.6, method="picard",
                         snapshots=[0.3], subcommand="kinetic")
    path = write_json(tmp_path / "bad.json", cfg)
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr() == (
        "violation: minimal-image ambiguity: potential support radius 10 requires side > 20, "
        "got 20\n"
        "violation: dt=0.2 violates the stability guard dt <= 0.1/alpha = 0.1\n"
        "violation: snapshot time 0.3 is not on the dt grid over [0, 0.6]\n"
        "violation: Picard window not certified: contraction factor q(T)=63.8004 >= 1 "
        "on [0, 0.6]\n", "")


def test_validate_reports_every_horizon_violation(tmp_path, capsys):
    cfg = horizon_config(theta=1.0, t=[0.1, -1.0], windows=[0.01], subcommand="horizon")
    path = write_json(tmp_path / "bad.json", cfg)
    assert main(["validate", "--config", path]) == 1
    assert capsys.readouterr() == ("violation: theta (1.0) must be <= theta0 (0.0)\n"
                                   "violation: t must be >= 0, got -1.0\n"
                                   "violation: q(T) windows need mean_phi\n", "")


def test_validate_flags_uncertified_picard_window(tmp_path, capsys):
    # pick T with q(T) about 1.2 for u0 = alpha = <phi> = 1
    lo, hi = 0.0, math.log(2.0) * 0.999
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if contraction_factor(1.0, 1.0, 1.0, mid) < 1.2:
            lo = mid
        else:
            hi = mid
    cfg = kinetic_config(method="picard", t_end=round(0.5 * (lo + hi), 6),
                         rho0=1.0, snapshots=[])
    cfg["subcommand"] = "kinetic"
    path = write_json(tmp_path / "picard.json", cfg)
    assert main(["validate", "--config", path]) == 1
    out = capsys.readouterr().out
    assert "contraction factor" in out and "q(T)" in out


def test_validate_rejects_unknown_fields(tmp_path, capsys):
    cfg = sim_config(wobble=1)
    cfg["subcommand"] = "simulate"
    path = write_json(tmp_path / "unknown.json", cfg)
    assert main(["validate", "--config", path]) == 1


def test_validate_rejects_a_spec_without_a_finite_integral(tmp_path, capsys):
    # each of these ended validate in a ZeroDivisionError or OverflowError
    # traceback from the spec's integral
    for make in (lambda: PotentialSpec.exponential(1e-300, 1.0, dim=3),
                 lambda: KernelSpec.gaussian(1e300, 1.0, dim=3),
                 lambda: KernelSpec.top_hat(1e300, 1.0, dim=3),
                 lambda: KernelSpec.top_hat(1e200, 1e300, dim=1)):
        with pytest.raises(InvalidSpecError, match="must give a finite integral"):
            make()
    cube = {"torus": {"dim": 3, "side": 20.0}}
    hat = {"family": "top_hat", "radius": 0.5, "height": 1.0, "dim": 3}
    configs = [
        ("kinetic", kinetic_config(**cube, n_cells=8, kernel=hat, method="picard",
                                   potential={"family": "exponential", "rate": 1e-300,
                                              "height": 1.0, "dim": 3}),
         "potential: rate must give a finite integral over R^3, got rate=1e-300 with height=1.0"),
        ("kinetic", kinetic_config(**cube, n_cells=8, potential=hat,
                                   kernel={"family": "gaussian", "sigma": 1e300,
                                           "height": 1.0, "dim": 3}),
         "kernel: sigma must give a finite integral over R^3, got sigma=1e+300 with height=1.0"),
        ("scale-sweep", sweep_config(**cube, potential=hat,
                                     kernel={**hat, "radius": 1e300}),
         "kernel: radius must give a finite integral over R^3, got radius=1e+300 with height=1.0"),
    ]
    for sub, cfg, message in configs:
        path = write_json(tmp_path / "spec.json", {"subcommand": sub, **cfg})
        assert main(["validate", "--config", path]) == 1
        assert capsys.readouterr().err == f"error (config): {sub} config: {message}\n"


def test_validate_dt_guard_matches_solver(tmp_path, capsys):
    # alpha = 1, so the guard is dt <= 0.1; validate shares the solver's
    # round-off allowance at the boundary and rejects a real excess
    for dt, code in ((0.1 * (1 + 1e-13), 0), (0.101, 1)):
        cfg = kinetic_config(dt=dt, t_end=0.2, snapshots=[0.0], subcommand="kinetic")
        path = write_json(tmp_path / "kin.json", cfg)
        assert main(["validate", "--config", path]) == code
    assert "stability guard" in capsys.readouterr().out


@pytest.mark.parametrize("digits, message", [
    (401, "kinetic config: n_cells: must be a whole number >= 1, got 1000"),
    (5000, "config is not valid JSON: Exceeds the limit (4300 digits)"),
], ids=["past the float range", "past the int-string limit"])
def test_validate_refuses_an_integer_of_many_digits(tmp_path, capsys, digits, message):
    # past the float range, an OverflowError; past Python's int-string limit, a
    # ValueError from json.load: each ended validate in a traceback
    text = json.dumps(kinetic_config(subcommand="kinetic", n_cells="N"))
    (tmp_path / "kin.json").write_text(text.replace('"N"', "1" + "0" * (digits - 1)))
    assert main(["validate", "--config", str(tmp_path / "kin.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error (config): {message}")


def test_validate_flags_dt_too_small_for_t_end(tmp_path, capsys):
    # t_end / dt overflows: one violation, not an OverflowError traceback
    cfg = kinetic_config(dt=5e-324, subcommand="kinetic")
    path = write_json(tmp_path / "kin.json", cfg)
    assert main(["validate", "--config", path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("violation: dt=4.94066e-324 is too small")


@pytest.mark.parametrize("path", sorted(DEMO_CONFIGS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_demo_config_validates_and_resolves_to_a_fixed_point(path, capsys):
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    cfg = json.loads(path.read_text())
    table = COMMANDS[cfg.pop("subcommand")].table
    config = manifest_config(resolve(table, cfg))
    # a manifest of a manifest is identical
    assert manifest_config(resolve(table, json.loads(json.dumps(config)))) == config


# -- horizon -----------------------------------------------------------------------

def test_horizon_worked_example_json(tmp_path):
    path = write_json(tmp_path / "h.json",
                      {"theta0": 0.0, "alpha": 1.0, "c_phi": 1.0, "theta": -1.0})
    out = tmp_path / "hout"
    assert main(["horizon", "--config", path, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["T_of_theta"] == pytest.approx(0.032994017922656254, abs=1e-7)


def test_horizon_flags_without_config(tmp_path):
    out = tmp_path / "hout"
    code = main(["horizon", "--theta0", "0", "--alpha", "1", "--cphi", "1",
                 "--theta", "-1", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["T_of_theta"] == pytest.approx(0.032994017922656254, abs=1e-7)


@pytest.mark.parametrize("field, value", [
    ("c_phi", 1e-300), ("c_phi", 1e300), ("alpha", 1e300), ("windows", [1e300, 0.02]),
    ("mean_phi", 1e300), ("u0", 1e300), ("theta", -1000.0),
])
def test_horizon_past_the_float_range_ends_without_a_traceback(tmp_path, field, value):
    # each of these one-field edits of the demo config once raised a bare
    # OverflowError, from validate itself or from the run
    cfg = json.loads((DEMO_CONFIGS / "horizon.json").read_text())
    path = write_json(tmp_path / "h.json", {**cfg, field: value})
    assert main(["validate", "--config", path]) in (0, 1, 2, 3)
    assert main(["horizon", "--config", path, "--out", str(tmp_path / "out")]) in (0, 1, 2, 3)


# -- run / determinism ----------------------------------------------------------------

def test_simulate_outputs_and_rerun_identical(tmp_path):
    path = write_json(tmp_path / "sim.json", sim_config())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
    for name in ("snapshots.csv", "events.csv", "k1_t0.csv", "k2_t0.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "snapshots.csv").read_text().splitlines()[0]
    assert header == "traj_id,time,particle_id,x0"


def assert_serial_and_pooled_identical(tmp_path, sub, cfg, wanted):
    """Chunks reduced in the pool workers give the files of one serial chunk."""
    outs = []
    for threads in (1, 2):
        path = write_json(tmp_path / f"cfg{threads}.json", {**cfg, "threads": threads})
        outs.append(tmp_path / f"o{threads}")
        assert main([sub, "--config", path, "--out", str(outs[-1])]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert wanted <= set(names)
    for name in names:
        if name != "manifest.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    configs = [json.loads((o / "manifest.json").read_text())["config"] for o in outs]
    assert [c.pop("threads") for c in configs] == [1, 2] and configs[0] == configs[1]


def test_simulate_outputs_identical_serial_and_pooled(tmp_path):
    cfg = sim_config(n_traj=5, record_events=True, snapshots=[0.5, 0.25],
                     estimator={"n_cells": 7, "r_max": 3.3, "n_bins": 9})
    assert_serial_and_pooled_identical(
        tmp_path, "simulate", cfg, {"events.csv", "k1_t1.csv", "k2_t1.csv", "meta_t1.json"})


def test_scale_sweep_outputs_identical_serial_and_pooled(tmp_path):
    # 9 and 4 trajectories: both workers get chunks
    cfg = sweep_config(n_traj_base=9, times=[0.5, 0.25], n_cells=7, r_max=3.3, n_bins=9)
    assert_serial_and_pooled_identical(
        tmp_path, "scale-sweep", cfg,
        {"errors.csv", "report.json", "eps1_t1_k1.csv", "eps1_t1_k2.csv"})


# 1-d: in 2-d the sweep's product profile, on a 4x refined grid, peaks above
# what ten times the chunks would add
FREE = {"torus": {"dim": 1, "side": 20.0},
        "kernel": {"family": "top_hat", "radius": 1.0, "height": 1.0, "dim": 1},
        "potential": {"family": "top_hat", "radius": 1.0, "height": 0.0, "dim": 1},
        "rho0": 0.5}


def traced_peak(out, sub, cfg):
    """The traced peak of one CLI run that writes into the new directory `out`."""
    out.mkdir()
    path = write_json(out / "cfg.json", cfg)
    tracemalloc.start()
    try:
        assert main([sub, "--config", path, "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sub, threads", [
    pytest.param("simulate", 1, id="simulate"),
    pytest.param("scale-sweep", 1, id="scale-sweep"),
    pytest.param("simulate", 2, id="simulate-threads2"),
    pytest.param("scale-sweep", 2, id="scale-sweep-threads2"),
])
def test_main_process_memory_flat_in_n_traj(tmp_path, monkeypatch, sub, threads):
    """The main process folds each chunk's parts as the chunk arrives, so with
    chunks of one trajectory its traced peak does not grow with n_traj: ten
    times the trajectories would hold another ~0.9 MB of 2048-cell parts. A
    pool keeps a bounded number of chunks in flight, so it holds no more."""
    from kawasaki import cli, scaling, simulator

    monkeypatch.setattr(simulator, "_chunk_bounds", lambda dim, n, n_traj, *args:
                        np.arange(n_traj + 1))
    if threads > 1:
        # a slow consumer, so chunks the pool runs ahead wait in this process
        def slow(*args, **kwargs):
            for chunk in simulator.map_chunks(*args, **kwargs):
                time.sleep(0.03)
                yield chunk

        monkeypatch.setattr(cli, "map_chunks", slow)
        monkeypatch.setattr(scaling, "map_chunks", slow)

    def config(n_traj):
        if sub == "simulate":
            return {"subcommand": sub, **FREE, "t_end": 0.2, "snapshots": [0.1, 0.2],
                    "n_traj": n_traj, "seed": 3, "threads": threads,
                    "estimator": {"n_cells": 2048, "r_max": 4.0, "n_bins": 8}}
        # alpha = 2: both times lie on the reference grid of dt 0.05 / alpha = 0.025
        return {"subcommand": sub, **FREE, "epsilons": [1.0, 0.5], "times": [0.1, 0.2],
                "n_traj_base": n_traj, "n_cells": 2048, "r_max": 4.0, "n_bins": 8,
                "seed": 3, "threads": threads}

    traced_peak(tmp_path / "warm", sub, config(3))
    small = traced_peak(tmp_path / "small", sub, config(3))
    large = traced_peak(tmp_path / "large", sub, config(30))
    assert large <= small + (256 << 10), (small, large)


PINNED = [0.0, 1e-05, 5e-324, 0.1 + 0.2, 39.99999999999999, 1e16]


def test_csv_rows_keep_the_bytes_of_repr():
    from kawasaki import Torus, Trajectory
    from kawasaki.cli import _event_rows, _snapshot_rows

    xs = np.array(PINNED)
    traj = Trajectory(seed_key=(0,), torus=Torus(2, 40.0), n_particles=3, t_end=1e16,
                      snapshot_times=(5e-324, 0.1 + 0.2),
                      snapshots=[xs.reshape(3, 2), xs[::-1].reshape(3, 2)],
                      times=xs, movers=np.arange(6), old_positions=np.outer(xs, [1, 1]),
                      new_positions=np.column_stack([xs[::-1], xs]),
                      accepted=np.array([True, False] * 3))
    snaps = "".join(f"{4},{s!r},{pid},{','.join(map(repr, x))}\n"
                    for s, snap in zip(traj.snapshot_times, traj.snapshots)
                    for pid, x in enumerate(snap.tolist()))
    events = "".join(f"{4},{t!r},{m},{int(a)},{','.join(map(repr, old))},"
                     f"{','.join(map(repr, new))}\n"
                     for t, m, a, old, new in zip(
                         traj.times.tolist(), traj.movers.tolist(), traj.accepted.tolist(),
                         traj.old_positions.tolist(), traj.new_positions.tolist()))
    assert _snapshot_rows(4, traj) == snaps
    assert _event_rows(4, traj) == events
    assert "5e-324" in snaps and "1e+16" in events and "0.30000000000000004" in events


def assert_same_files(out1, out2, sub):
    """The two output directories hold the same files, byte for byte."""
    names = sorted(p.name for p in out1.iterdir())
    assert "manifest.json" in names and len(names) > 1, (sub, names)
    assert names == sorted(p.name for p in out2.iterdir()), sub
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (sub, name)


def test_manifest_round_trip_reproduces_outputs(tmp_path):
    # every output file, manifest.json included, of a run from a config and
    # of a run from that run's manifest is byte-identical
    runs = [
        ("simulate", sim_config(snapshots=[0.25, 0.5],
                                estimator={"n_cells": 10, "r_max": 3.0, "n_bins": 6})),
        ("kinetic", kinetic_config()),
        ("kinetic", kinetic_config(method="picard", dt=5e-4)),
        ("horizon", horizon_config()),
        ("scale-sweep", sweep_config()),
    ]
    for k, (sub, cfg) in enumerate(runs):
        path = write_json(tmp_path / f"cfg{k}.json", cfg)
        out1, out2 = tmp_path / f"{k}a", tmp_path / f"{k}b"
        assert main([sub, "--config", path, "--out", str(out1)]) == 0
        assert main([sub, "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert_same_files(out1, out2, sub)
    assert (tmp_path / "0a" / "events.csv").exists()


def test_kinetic_and_horizon_rerun_identical(tmp_path):
    # a plain rerun of one config gives the same files, manifest.json
    # included, byte for byte
    runs = [
        ("kinetic", kinetic_config(snapshots=[0.01, 0.02])),
        ("kinetic", kinetic_config(method="picard", dt=5e-4)),
        ("horizon", horizon_config(mean_phi=1.0, t=[0.05, 0.1], u0=0.8, windows=[0.05])),
    ]
    for k, (sub, cfg) in enumerate(runs):
        path = write_json(tmp_path / f"cfg{k}.json", cfg)
        out1, out2 = tmp_path / f"{k}a", tmp_path / f"{k}b"
        assert main([sub, "--config", path, "--out", str(out1)]) == 0
        assert main([sub, "--config", path, "--out", str(out2)]) == 0
        assert_same_files(out1, out2, sub)


def test_kinetic_run_outputs(tmp_path):
    path = write_json(tmp_path / "kin.json", kinetic_config())
    out = tmp_path / "kout"
    assert main(["kinetic", "--config", path, "--out", str(out)]) == 0
    assert (out / "bounds.json").exists()
    text = (out / "rho.csv").read_text()
    rows = text.splitlines()
    assert rows[0] == "time,cell_index,value"
    assert len(rows) == 1 + 64
    assert "np.float64" not in text
    for row in rows[1:]:
        t, idx, v = row.split(",")
        float(t), int(idx), float(v)
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["ok"] is True


def test_kinetic_picard_run_outputs(tmp_path):
    path = write_json(tmp_path / "kin.json",
                      kinetic_config(method="picard", dt=5e-4))
    out = tmp_path / "kout"
    assert main(["kinetic", "--config", path, "--out", str(out)]) == 0
    diag = json.loads((out / "picard.json").read_text())
    assert diag["q_bound"] < 1.0
    assert diag["deltas"][-1] <= 1e-10


def test_scale_sweep_cli_small(tmp_path):
    path = write_json(tmp_path / "sweep.json", sweep_config())
    out = tmp_path / "sout"
    assert main(["scale-sweep", "--config", path, "--out", str(out)]) == 0
    assert (out / "errors.csv").exists()
    rep = json.loads((out / "report.json").read_text())
    assert "convergence" in rep and len(rep["e1"]) == 2


def test_scale_sweep_of_one_epsilon_reports_a_null_slope(tmp_path):
    path = write_json(tmp_path / "sweep.json",
                      sweep_config(epsilons=[1.0], subcommand="scale-sweep"))
    assert main(["validate", "--config", path]) == 0
    out = tmp_path / "sout"
    assert main(["scale-sweep", "--config", path, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["convergence"]["slopes"] == {"0.25": None}


# -- exit codes -----------------------------------------------------------------------

def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1


def test_schema_violation_exits_1(tmp_path):
    path = write_json(tmp_path / "bad.json", sim_config(mystery_knob=3))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 1


def test_simulate_rejects_the_deleted_exclude_mover_field(tmp_path, capsys):
    # a manifest that still records the field is refused, not reinterpreted
    path = write_json(tmp_path / "old.json", sim_config(exclude_mover=False))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error (config): simulate config: unknown fields ['exclude_mover']\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field", ["n_traj", "dt"])
def test_scale_sweep_rejects_the_deleted_override_fields(tmp_path, capsys, field):
    # the counts and the reference step are derived; an old manifest that
    # still records an override is refused, not reinterpreted
    path = write_json(tmp_path / "old.json", sweep_config(**{field: None}))
    assert main(["scale-sweep", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error (config): scale-sweep config: unknown fields ['{field}']\n")
    assert not (tmp_path / "o").exists()


def test_config_field_count():
    # each new config field is a knob to document and test: this count moves
    # only on purpose, and ROADMAP.md quotes it
    tables = {**{name: command.table for name, command in COMMANDS.items()},
              "torus": dataclasses.fields(Torus), "spec": dataclasses.fields(KernelSpec),
              "estimator": cli._ESTIMATOR}
    found = [f"{name}.{field.name}" for name, table in tables.items() for field in table]
    assert len(found) == 56, found


def test_numeric_failure_exits_2(tmp_path):
    path = write_json(tmp_path / "kin.json",
                      kinetic_config(method="picard", picard_max_iter=1,
                                     picard_tolerance=1e-14))
    assert main(["kinetic", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_budget_overrun_exits_3(tmp_path):
    cfg = {
        "torus": {"dim": 1, "side": 20.0},
        "kernel": {"family": "top_hat", "radius": 1.0, "height": 1.0, "dim": 1},
        "potential": {"family": "top_hat", "radius": 1.0, "height": 1.0, "dim": 1},
        "epsilons": [1.0, 0.01],
        "rho0": 100.0,
        "times": [0.1],
        "n_traj_base": 4,
        "budget_max_particles": 1000,
        "seed": 1,
    }
    path = write_json(tmp_path / "sweep.json", cfg)
    assert main(["scale-sweep", "--config", path, "--out", str(tmp_path / "o")]) == 3


LOCAL = {"family": "local", "kappa": 1.0, "dim": 1}

BAD_CONFIGS = {
    "record_events-string": ("simulate", {"record_events": "false"}),
    "n_traj-fraction": ("simulate", {"n_traj": 2.7}),
    "seed-fraction": ("simulate", {"seed": 1.5}),
    "t_end-bool": ("simulate", {"t_end": True}),
    "epsilon-string": ("simulate", {"epsilon": "1"}),
    "threads-zero": ("simulate", {"threads": 0}),
    "estimator-n_cells-zero": ("simulate", {"estimator": {"n_cells": 0}}),
    "estimator-n_bins-zero": ("simulate", {"estimator": {"n_cells": 10, "n_bins": 0}}),
    "snapshots-scalar": ("simulate", {"snapshots": 0.2}),
    "sweep-n_bins-zero": ("scale-sweep", {"n_bins": 0}),
    "sweep-n_cells-fraction": ("scale-sweep", {"n_cells": 10.9}),
    "torus-dim-fraction": ("simulate", {"torus": {"dim": 1.5, "side": 20.0}}),
    "kernel-dim-fraction": ("kinetic", {"kernel": {"family": "top_hat", "radius": 0.5,
                                                   "height": 1.0, "dim": 1.5}}),
    "n_traj_base-zero": ("scale-sweep", {"n_traj_base": 0}),
    "u0-negative": ("horizon", {"u0": -1.0}),
    "t_end-infinite": ("kinetic", {"t_end": float("inf")}),
    # well-formed, but the run would fail only after writing the manifest
    "simulate-local-potential": ("simulate", {"potential": LOCAL}),
    "sweep-local-potential": ("scale-sweep", {"potential": LOCAL}),
    # alpha = 2: the kinetic reference grid has steps of 0.05 / alpha = 0.025
    "sweep-times-off-grid": ("scale-sweep", {"times": [0.01, 0.3]}),
    "sweep-dt-unstable": ("scale-sweep", {"dt": 1.0}),
    # pair bins beyond L/2 = 10, or thinner than 1e-9, failed only after the run
    "estimator-r_max-beyond-half": ("simulate", {"estimator": {"n_cells": 10,
                                                               "r_max": 10.5}}),
    "estimator-bins-too-thin": ("simulate", {"estimator": {"n_cells": 10, "r_max": 1e-8,
                                                           "n_bins": 20}}),
    "sweep-r_max-beyond-half": ("scale-sweep", {"r_max": 10.5}),
    "picard-t_end-zero": ("kinetic", {"method": "picard", "t_end": 0.0,
                                      "snapshots": [0.0]}),
    # the library rejects a spec of another dimension; resolve no longer does
    "potential-dim-not-torus": ("simulate", {"potential": {"family": "top_hat", "radius": 1.0,
                                                           "height": 0.5, "dim": 2}}),
    # a spec without its shape parameter raised a TypeError
    "kernel-radius-missing": ("kinetic", {"kernel": {"family": "top_hat", "dim": 1}}),
    # an unhashable family raised a TypeError
    "kernel-family-list": ("kinetic", {"kernel": {"family": ["top_hat"], "radius": 0.5,
                                                  "dim": 1}}),
    # horizon rules that failed only after writing the manifest, or not at all
    "horizon-t-negative": ("horizon", {"t": [-1.0]}),
    "horizon-window-too-long": ("horizon", {"mean_phi": 1.0, "windows": [5.0]}),
    "horizon-mean_phi-negative": ("horizon", {"mean_phi": -1.0, "windows": [0.01]}),
    "horizon-windows-without-mean_phi": ("horizon", {"windows": [0.01]}),
}


@pytest.mark.parametrize("sub, change", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_malformed_config_exits_1_before_any_output(tmp_path, capsys, sub, change):
    cfg = CONFIGS[sub](**change)
    path = write_json(tmp_path / "bad.json", cfg)
    out = tmp_path / "o"
    assert main([sub, "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error (config)")
    assert not (out / "manifest.json").exists()
    path = write_json(tmp_path / "validate.json", {"subcommand": sub, **cfg})
    assert main(["validate", "--config", path]) == 1


DEMOS = {path.stem: json.loads(path.read_text()) for path in DEMO_CONFIGS.glob("*.json")}
PARTS = {"torus": Torus, "kernel": KernelSpec, "potential": PotentialSpec}


def cli_part(cls, obj):
    """The CLI's torus or spec of obj, by the `cli._MODEL` field of its name."""
    (field,) = [f for f in cli._MODEL if PARTS[f.name] is cls]
    return resolve((field,), {field.name: obj})[field.name]


TOP_HAT = {"family": "top_hat", "dim": 1, "radius": 1.0}
FROM_JSON = {
    **{f"{stem}-{key}": (cls, cfg[key], cli_part(cls, cfg[key]))
       for stem, cfg in sorted(DEMOS.items()) for key, cls in PARTS.items()
       if key in cfg},
    "dim-integral-float": (KernelSpec, {**TOP_HAT, "dim": 3.0}, KernelSpec.top_hat(1.0, dim=3)),
    "dim-fraction": (KernelSpec, {**TOP_HAT, "dim": 1.5}, None),
    "dim-bool": (KernelSpec, {**TOP_HAT, "dim": True}, None),
    "dim-and-radius-strings": (KernelSpec, {**TOP_HAT, "dim": "2", "radius": "1.0"}, None),
    "sigma-bool": (KernelSpec, {"family": "gaussian", "dim": 1, "sigma": True}, None),
    "radius-null": (PotentialSpec, {**TOP_HAT, "radius": None}, None),
    "height-null": (PotentialSpec, {"family": "local", "dim": 1, "kappa": 1.0,
                                    "height": None}, None),
    "unused-rate-string": (KernelSpec, {**TOP_HAT, "rate": "2"}, None),
    "family-list": (KernelSpec, {**TOP_HAT, "family": ["top_hat"]}, None),
    "spec-list": (KernelSpec, ["top_hat", 1, 1.0], None),
    "spec-missing-dim": (KernelSpec, {"family": "top_hat", "radius": 1.0}, None),
    "spec-unknown-field": (KernelSpec, {**TOP_HAT, "wobble": 3.0}, None),
    "torus-fractions": (Torus, {"dim": 2.7, "side": "20"}, None),
    "torus-side-string": (Torus, {"dim": 2, "side": "20"}, None),
    "torus-side-bool": (Torus, {"dim": 1, "side": True}, None),
    "torus-list": (Torus, [1, 20.0], None),
    "torus-missing-side": (Torus, {"dim": 1}, None),
    "torus-unknown-field": (Torus, {"dim": 1, "side": 20.0, "shape": "cube"}, None),
}


@pytest.mark.parametrize("cls, obj, want", FROM_JSON.values(), ids=FROM_JSON.keys())
def test_from_json_accepts_what_the_cli_schema_accepts(cls, obj, want):
    # `want` is the CLI's spec or torus of obj, or None where the CLI refuses obj
    if want is None:
        with pytest.raises(ConfigError):
            cli_part(cls, obj)
        with pytest.raises(ConfigError):
            cls.from_json(obj)
    else:
        assert repr(cls.from_json(obj)) == repr(cli_part(cls, obj)) == repr(want)


@pytest.mark.parametrize("method", ["rk4", "picard"])
def test_off_grid_snapshots_rejected_on_both_methods(tmp_path, capsys, method):
    cfg = kinetic_config(method=method, snapshots=[0.0123, 7.0])
    path = write_json(tmp_path / "kin.json", cfg)
    out = tmp_path / "o"
    assert main(["kinetic", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error (config)")
    assert not (out / "manifest.json").exists()


def test_flag_overrides_only_declared_fields(tmp_path, capsys):
    sim = write_json(tmp_path / "sim.json", sim_config())
    out = tmp_path / "sim"
    assert main(["simulate", "--config", sim, "--out", str(out),
                 "--seed", "5", "--threads", "1"]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["seed"], config["threads"]) == (5, 1)
    hor = write_json(tmp_path / "h.json", horizon_config())
    out = tmp_path / "hor"
    assert main(["horizon", "--config", hor, "--out", str(out), "--theta", "-2"]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["theta"] == -2.0
    # kinetic and horizon take no seed or threads, as flags or as fields
    kin = write_json(tmp_path / "kin.json", kinetic_config())
    for argv in (["kinetic", "--config", kin, "--seed", "3"],
                 ["kinetic", "--config", kin, "--threads", "2"],
                 ["horizon", "--config", hor, "--seed", "3"],
                 ["horizon", "--config", hor, "--threads", "2"]):
        assert main(argv + ["--out", str(tmp_path / "no")]) == 1
        assert "does not apply" in capsys.readouterr().err
    for field in ("seed", "threads"):
        path = write_json(tmp_path / "kin.json", kinetic_config(**{field: 1}))
        assert main(["kinetic", "--config", path, "--out", str(tmp_path / "no")]) == 1
    assert not (tmp_path / "no").exists()


def test_subcommand_mismatch_rejected(tmp_path):
    cfg = sim_config()
    cfg["subcommand"] = "kinetic"
    path = write_json(tmp_path / "m.json", cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kawasaki.cli", "horizon", "--theta0", "0",
         "--alpha", "1", "--cphi", "1", "--theta", "-1", "--out",
         "/tmp/kawasaki_cli_probe"],
        capture_output=True, text=True)
    assert proc.returncode == 0
