"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q bench/test_bench.py

1. The count metrics of a traced run repeat exactly for one seed across two
   fresh-interpreter runs.
2. Every output check fails on a deliberately corrupted output.
3. The speed adjustment of timings reads the probes of its own window.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3
COUNTS = ("simulator.events", "simulator.accepted", "estimator.pairs", "gibbs.moves",
          "kinetic.rk4_steps", "kinetic.picard_sweeps", "cli.bytes_written")


def _rep(name, work, trace):
    os.makedirs(work)
    result = os.path.join(work, "result.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "rep.py"), "--workload", name,
                    "--seed", str(SEED), "--work", work, "--trace", str(trace),
                    "--spawned-at", repr(time.monotonic()), "--result", result],
                   env=env, check=True, timeout=300)
    with open(result) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_count_metrics_repeat_for_a_seed(name, tmp_path):
    first = _rep(name, str(tmp_path / "a"), trace=1)
    second = _rep(name, str(tmp_path / "b"), trace=1)
    assert first["error"] is None and second["error"] is None
    assert all(op[1] for op in first["ops"] + second["ops"])
    for key in COUNTS:
        assert first["layers"][key] == second["layers"][key], key
    exercised = {k for k in COUNTS if first["layers"][k]}
    assert exercised, "a workload must exercise at least one counted layer"


# -- corrupted outputs -----------------------------------------------------


def _edit_csv(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _drop_last_row(path):
    _edit_csv(path, lambda lines: lines[:-1])


def _scale_last_value(path, col, factor):
    def edit(lines):
        cells = lines[-1].split(",")
        cells[col] = repr(checks._rho_value(cells[col]) * factor)
        return lines[:-1] + [",".join(cells)]
    _edit_csv(path, edit)


def _nudge_last_coordinate(path):
    """Move one snapshot coordinate by one unit in the last place."""
    def edit(lines):
        cells = lines[-1].split(",")
        cells[-1] = repr(float(np.nextafter(float(cells[-1]), np.inf)))
        return lines[:-1] + [",".join(cells)]
    _edit_csv(path, edit)


def _edit_json(path, edit):
    with open(path) as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _edit_npz(path, edit):
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    edit(arrays)
    np.savez(path, **arrays)


def _thin_all(arrays):
    for k in arrays:
        arrays[k] = arrays[k][:150]


CORRUPTIONS = {
    "sweep-meanfield": {
        "eps*k1 integrates to eps*mean_count":
            lambda o: _scale_last_value(f"{o}/sweep/eps1_t0_k1.csv", 1, 1.001),
    },
    "kinetic-grids": {
        "kinetic mass conserved":
            lambda o: _scale_last_value(f"{o}/direct/rho.csv", 2, 1.001),
        "bounds.json ok":
            lambda o: _edit_json(f"{o}/fft/bounds.json", lambda j: j.update(ok=False)),
        "picard ratios <= 0.55":
            lambda o: _edit_json(f"{o}/picard/picard.json",
                                 lambda j: j["ratios"].append(0.9)),
        "picard within 1e-6 of rk4":
            lambda o: _scale_last_value(f"{o}/picard/rho.csv", 2, 1.0001),
        "vlasov_first_order == kinetic_rhs":
            lambda o: _drop_last_row(f"{o}/direct/rho.csv"),
        "horizon q(T) == 0.5":
            lambda o: _edit_json(f"{o}/horizon/report.json",
                                 lambda j: j["q_of_T"].update(
                                     {k: 0.6 for k in j["q_of_T"]})),
    },
    "dense-2d": {
        "particle count conserved":
            lambda o: _drop_last_row(f"{o}/simulate/snapshots.csv"),
        "events.csv rows == sum n_events":
            lambda o: _drop_last_row(f"{o}/simulate/events.csv"),
        "serial re-simulation matches snapshots.csv":
            lambda o: _nudge_last_coordinate(f"{o}/simulate/snapshots.csv"),
        "eps*k1 integrates to eps*mean_count":
            lambda o: _scale_last_value(f"{o}/simulate/k1_t1.csv", 1, 1.001),
    },
    "equilibrium-gibbs": {
        "particle count conserved":
            lambda o: _edit_npz(f"{o}/configurations.npz",
                                lambda a: a.update(final_3=a["final_3"][:-1])),
        "gibbs mean count within 10% of target":
            lambda o: _edit_npz(f"{o}/configurations.npz", _thin_all),
    },
}


@pytest.fixture(scope="module")
def honest_runs(tmp_path_factory):
    """One untraced run per workload, outputs kept, all checks passing."""
    base = tmp_path_factory.mktemp("honest")
    runs = {}
    for name in workloads.NAMES:
        work = str(base / name)
        result = _rep(name, work, trace=0)
        assert all(op[1] for op in result["ops"]), result["ops"]
        runs[name] = work
    return runs


def test_every_check_has_a_corruption(honest_runs):
    for name, work in honest_runs.items():
        found, _ = checks.run(name, workloads.make_inputs(name, SEED, work))
        assert {c[0] for c in found} == set(CORRUPTIONS[name]), name


@pytest.mark.parametrize("name,check", [(n, c) for n in sorted(CORRUPTIONS)
                                        for c in CORRUPTIONS[n]])
def test_check_fails_on_corrupted_output(name, check, honest_runs, tmp_path):
    work = str(tmp_path / name)
    shutil.copytree(honest_runs[name], work)
    paths = workloads.make_inputs(name, SEED, work)
    CORRUPTIONS[name][check](paths["out"])
    found, _ = checks.run(name, paths)
    verdict = {c[0]: c for c in found}[check]
    assert not verdict[1], verdict


def test_failed_cli_call_is_a_failed_operation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subcommand": "kinetic", "unknown_field": 1}))
    op = workloads._cli("kinetic", str(bad), str(tmp_path / "out"))
    assert op[1] is False and "exit code 1" in op[2]


def test_speed_reads_the_probes_of_its_window():
    loop, total = run.REFERENCE_S["loop"], run.REFERENCE_S["sum"]
    probes = [(0.5, "loop", loop), (0.6, "sum", total),
              (1.5, "loop", 2 * loop), (1.6, "sum", total),
              (2.5, "loop", 2 * loop), (2.6, "sum", 4 * total),
              (3.5, "loop", 10 * loop), (3.6, "sum", 4 * total)]
    assert run.speed(probes, 0.0, 1.0) == pytest.approx(1.0)
    # the slower probe sets the speed; the loop reading 5x its window's
    # median was preempted and is dropped
    assert run.speed(probes, 1.0, 4.0) == pytest.approx(0.5)
    assert run.speed(probes, 2.0, 4.0) == pytest.approx(0.25)
    # a window with no probe of a kind falls back to all probes of that kind
    assert run.speed(probes, 0.0, 0.55) == pytest.approx((1 + 1 + 0.25 + 0.25) / 4)
