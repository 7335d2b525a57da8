"""Output digests: the SHA-256 of every file that the four demo configs and
three stream probes write, pinned in digests.json with the python and numpy
versions and the platform they were recorded on.

Two runs of one tree agree by the reproducibility contract; these digests
also pin the bytes across commits, and across numpy versions, whose
Generator streams NEP 19 lets change. The probes are the demo `simulate`
with its event log (a one-cell top-hat table), a 2-d Gaussian `simulate`
whose table has 5 cells per axis, with events, and the positions a
`GibbsSampler` returns for one seed. After a deliberate change of outputs,
record them again with `python tests/test_digests.py`.
"""

import hashlib
import json
import pathlib
import platform
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
RECORD = HERE / "digests.json"
CONFIGS = HERE.parent / "demos" / "configs"

sys.path.insert(0, str(HERE.parent / "src"))

from kawasaki import GibbsSampler, PotentialSpec, Torus  # noqa: E402
from kawasaki.cli import main  # noqa: E402

GAUSSIAN_2D = {
    "subcommand": "simulate",
    "torus": {"dim": 2, "side": 20.0},
    "kernel": {"family": "gaussian", "sigma": 0.5, "height": 1.0, "dim": 2},
    "potential": {"family": "gaussian", "sigma": 0.5, "height": 1.0, "dim": 2},
    "epsilon": 1.0,
    "rho0": 2.25,
    "t_end": 0.3,
    "snapshots": [0.0, 0.3],
    "n_traj": 2,
    "seed": 11,
    "record_events": True,
    "estimator": {"n_cells": 10, "r_max": 2.0, "n_bins": 10},
}


def cli_cases():
    """Every case run through the command line tool: name -> config."""
    cases = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
    cases["simulate-events"] = {**cases["simulate"], "record_events": True, "n_traj": 8}
    cases["simulate-2d-gaussian"] = GAUSSIAN_2D
    return cases


def gibbs_positions():
    """The bytes of the positions one seeded Gibbs chain samples."""
    sampler = GibbsSampler(Torus(2, 20.0), PotentialSpec.gaussian(0.5, 1.0, dim=2), 1.0,
                           np.random.default_rng(3), initial_count=40)
    return b"".join(np.ascontiguousarray(x).tobytes()
                    for x in sampler.sample(4, 200, burn_in_moves=200))


def digests(workdir):
    """The SHA-256 of every output of every case, keyed 'case/relative/path'."""
    workdir = pathlib.Path(workdir)
    out = {}
    for name, cfg in cli_cases().items():
        path, dest = workdir / f"{name}.json", workdir / name
        path.write_text(json.dumps(cfg))
        assert main([cfg["subcommand"], "--config", str(path), "--out", str(dest)]) == 0, name
        for f in sorted(dest.rglob("*")):
            if f.is_file():
                out[f"{name}/{f.relative_to(dest).as_posix()}"] = hashlib.sha256(
                    f.read_bytes()).hexdigest()
    out["gibbs/positions"] = hashlib.sha256(gibbs_positions()).hexdigest()
    return out


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def test_outputs_match_the_recorded_digests(tmp_path):
    record = json.loads(RECORD.read_text())
    got = digests(tmp_path)
    differ = sorted(name for name in record["files"].keys() | got.keys()
                    if record["files"].get(name) != got.get(name))
    assert not differ, (
        f"{len(differ)} outputs differ from those recorded with python "
        f"{record['python']}, numpy {record['numpy']} on {record['platform']} "
        f"(here: {environment()}): " + ", ".join(differ))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = digests(tmp)
    RECORD.write_text(json.dumps({**environment(), "files": files}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"recorded {len(files)} digests in {RECORD}")
