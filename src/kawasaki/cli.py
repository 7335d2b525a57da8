"""Command-line entry point.

    kawasaki <simulate|kinetic|horizon|scale-sweep|validate>
             --config FILE [--out DIR] [--seed N] [--threads N]

Each subcommand declares its config as one table of fields: a name, a typed
parser that holds the field's constraint, and a default (or REQUIRED).
`resolve` walks a table once. It rejects missing and unknown fields and any
value of the wrong type, and fills in the defaults. The value rules are the
library's: `torus`, `kernel` and `potential` are parsed by the `from_json` of
their class, and every scalar is checked by `errors._require_number` or
`errors._require_flag`; no value is coerced.
The resolved values feed the library's list of violations, which `validate`
reports, the run, and manifest.json, which echoes them with the package
version; feeding a manifest back as --config reproduces the run byte-for-byte.

--seed and --threads (simulate, scale-sweep) and the horizon flags --theta0,
--alpha, --cphi, --theta and --t override the config field of the same name;
a flag whose field the subcommand lacks is an error. Exit codes: 0 success,
1 configuration error, 2 numeric error, 3 budget error.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
from collections import ChainMap
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import (BudgetError, ConfigError, KawasakiError, NumericError,
                     _require_fields, _require_flag, _require_number, collect_violations)
from .estimator import check_pair_bins, chunk_parts, fold_estimates, write_json
from .fields import DensityField
from .horizon import horizon_report, violations as horizon_violations
from .kernels import KernelSpec, PotentialSpec
from .kinetic import (monitor_bounds, picard_solve, snapshot_steps, solve_kinetic,
                      violations as kinetic_violations)
from .scaling import SweepSpec, run_sweep, write_sweep_outputs
from .simulator import SimulationParams, map_chunks
from .torus import Torus


def _fail(msg):
    raise ConfigError(msg)


# -- the schema ---------------------------------------------------------------

REQUIRED = object()


class Field(NamedTuple):
    name: str
    parse: Callable  # (value, ctx) -> resolved value; raises ConfigError
    default: object = REQUIRED  # a value, or a function of ctx


def resolve(table, cfg, outer=None):
    """Resolve the JSON object `cfg` against `table` in one walk.

    Rejects a non-object, missing required fields and unknown fields. Each
    value goes through its field's parser; an absent field takes its default.
    Parsers and default functions see the values resolved so far, backed by
    `outer`, the resolved values of the enclosing object.
    """
    _require_fields(cfg, [f.name for f in table if f.default is REQUIRED],
                    [f.name for f in table])
    vals = {}
    ctx = ChainMap(vals, outer or {})
    for name, parse, default in table:
        if name in cfg:
            value = cfg[name]
        else:
            value = default(ctx) if callable(default) else default
        try:
            vals[name] = parse(value, ctx)
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return vals


def manifest_config(vals):
    """The JSON form of resolved values, as manifest.json records them."""
    def to_json(value):
        if isinstance(value, DensityField):
            return {"values": value.values.tolist()}
        return value.to_json() if hasattr(value, "to_json") else value
    return {name: to_json(value) for name, value in vals.items()}


# -- field parsers ------------------------------------------------------------


# the library's value rules; `resolve` names the field
_real = lambda v, ctx: _require_number(None, v)
_nonneg = lambda v, ctx: _require_number(None, v, 0)
_positive = lambda v, ctx: _require_number(None, v, 0, strict=True)
_count = lambda v, ctx: _require_number(None, v, 1, integer=True)
_seed = lambda v, ctx: _require_number(None, v, 0, integer=True)
_flag = lambda v, ctx: _require_flag(None, v)


def _choice(*options):
    def parse(v, ctx):
        if v not in options:
            _fail(f"must be one of {list(options)}, got {v!r}")
        return v
    return parse


def _list(item):
    def parse(v, ctx):
        if not isinstance(v, list):
            _fail(f"must be a JSON list, got {v!r}")
        return [item(x, ctx) for x in v]
    return parse


def _optional(parse):
    return lambda v, ctx: None if v is None else parse(v, ctx)


def _times(v, ctx):
    """A list of reals; the horizon --t flag gives a single number."""
    return _list(_real)(v if isinstance(v, list) else [v], ctx)


def _grid(v, ctx):
    try:
        arr = np.asarray(v)
    except ValueError:
        arr = None
    if not isinstance(v, list) or arr is None or arr.dtype.kind not in "iuf":
        _fail("must be a rectangular list of numbers")
    return arr


def _rho0(expand):
    """A constant density, or {"values": grid} matching n_cells where the table
    declares it; with `expand`, a constant becomes that grid."""
    def parse(v, ctx):
        if not isinstance(v, dict):
            c = _nonneg(v, ctx)
            return DensityField.constant(ctx["torus"], ctx["n_cells"], c) if expand else c
        field = DensityField(ctx["torus"], resolve((Field("values", _grid),), v)["values"])
        if "n_cells" in ctx and field.n_cells != ctx["n_cells"]:
            _fail(f"grid has {field.n_cells} cells per axis, expected {ctx['n_cells']}")
        return field
    return parse


_PAIR_BINS = (Field("r_max", _positive, lambda ctx: ctx["torus"].side / 4.0),
              Field("n_bins", _count, 20))
_ESTIMATOR = (Field("n_cells", _count), *_PAIR_BINS)

_MODEL = (
    Field("torus", lambda v, ctx: Torus.from_json(v)),
    Field("kernel", lambda v, ctx: KernelSpec.from_json(v)),
    Field("potential", lambda v, ctx: PotentialSpec.from_json(v)),
)


# -- simulate -----------------------------------------------------------------

_SIMULATE = _MODEL + (
    Field("epsilon", _positive, 1.0),
    Field("rho0", _rho0(expand=False)),
    Field("t_end", _nonneg),
    Field("snapshots", _list(_real), lambda ctx: [ctx["t_end"]]),
    Field("n_traj", _count),
    Field("seed", _seed),
    Field("record_events", _flag, False),
    Field("estimator", _optional(lambda v, ctx: resolve(_ESTIMATOR, v, ctx)), None),
    Field("threads", _count, 1),
)


def _sim_params(v):
    return SimulationParams(
        torus=v["torus"], kernel=v["kernel"], potential=v["potential"],
        epsilon=v["epsilon"], rho0=v["rho0"], t_end=v["t_end"],
        snapshot_times=tuple(v["snapshots"]), record_events=v["record_events"],
    )


def _pair_edges(est_cfg):
    return np.linspace(0.0, est_cfg["r_max"], est_cfg["n_bins"] + 1)


def _check_simulate(v):
    est_cfg = v["estimator"]
    return _sim_params(v).violations() + collect_violations(
        lambda: est_cfg and check_pair_bins(_pair_edges(est_cfg), v["torus"]))


def _snapshot_rows(ti, traj):
    d = traj.torus.dim
    text = []
    for s, snap in zip(traj.snapshot_times, traj.snapshots):
        row = f"{ti},{s!r},%d," + ",".join(["%r"] * d) + "\n"
        text += [row % (pid, *xs) for pid, xs in enumerate(snap.tolist())]
    return "".join(text)


def _event_rows(ti, traj):
    row = f"{ti},%r,%d,%d," + ",".join(["%r"] * (2 * traj.torus.dim)) + "\n"
    return "".join([row % (t, m, a, *old, *new) for t, m, a, old, new in zip(
        traj.times.tolist(), traj.movers.tolist(), traj.accepted.tolist(),
        traj.old_positions.tolist(), traj.new_positions.tolist())])


def _chunk_outputs(record_events, times, n_cells, r_edges, first, trajectories):
    """What `simulate` writes of one chunk of trajectories, the first of them
    trajectory `first`: its snapshots.csv rows, its events.csv rows, and its
    `chunk_parts`. It runs in the pool worker that simulated the chunk."""
    rows = list(enumerate(trajectories, first))
    snaps = "".join(_snapshot_rows(ti, traj) for ti, traj in rows)
    events = "".join(_event_rows(ti, traj) for ti, traj in rows) if record_events else ""
    return snaps, events, chunk_parts(times, n_cells, r_edges, first, trajectories)


def _run_simulate(v, out_dir):
    est_cfg = v["estimator"]
    n_cells = r_edges = None
    if est_cfg is not None:
        n_cells, r_edges = est_cfg["n_cells"], _pair_edges(est_cfg)
    reduce = functools.partial(_chunk_outputs, v["record_events"], v["snapshots"],
                               n_cells, r_edges)
    chunks = map_chunks(_sim_params(v), v["n_traj"], v["seed"], reduce,
                        n_jobs=v["threads"])
    d = v["torus"].dim
    cols = ",".join(f"x{k}" for k in range(d))
    with contextlib.ExitStack() as files:
        snaps = files.enter_context(open(os.path.join(out_dir, "snapshots.csv"), "w"))
        snaps.write(f"traj_id,time,particle_id,{cols}\n")
        if v["record_events"]:
            events = files.enter_context(open(os.path.join(out_dir, "events.csv"), "w"))
            events.write(f"traj_id,time,mover,accepted,{cols.replace('x', 'old_x')},"
                         f"{cols.replace('x', 'new_x')}\n")

        def written(chunks):
            # each chunk's rows are written as it arrives, in chunk order
            for snap_rows, event_rows, parts in chunks:
                snaps.write(snap_rows)
                if v["record_events"]:
                    events.write(event_rows)
                yield parts

        ests = fold_estimates(written(chunks), v["torus"], v["snapshots"], n_cells,
                              r_edges)
    if est_cfg is None:
        return
    for j, est in enumerate(ests):
        est.write_k1_csv(os.path.join(out_dir, f"k1_t{j}.csv"))
        est.write_k2_csv(os.path.join(out_dir, f"k2_t{j}.csv"))
        est.write_meta_json(os.path.join(out_dir, f"meta_t{j}.json"))


# -- kinetic ------------------------------------------------------------------

_KINETIC = _MODEL + (
    Field("n_cells", _count),
    Field("rho0", _rho0(expand=True)),
    Field("dt", _positive),
    Field("t_end", _nonneg),
    Field("method", _choice("rk4", "picard"), "rk4"),
    Field("snapshots", _list(_real), lambda ctx: [ctx["t_end"]]),
    Field("picard_tolerance", _positive, 1e-10),
    Field("picard_max_iter", _count, 200),
)


def _check_kinetic(v):
    return kinetic_violations(v["rho0"], v["kernel"], v["potential"], v["dt"],
                              v["t_end"], v["snapshots"], v["method"])


def _run_kinetic(v, out_dir):
    sts = sorted(v["snapshots"])
    if v["method"] == "rk4":
        traj = solve_kinetic(v["rho0"], v["kernel"], v["potential"], dt=v["dt"],
                             t_end=v["t_end"], snapshot_times=sts)
        fields = [(s, traj.snapshot_at(s).values) for s in sts]
        write_json(os.path.join(out_dir, "bounds.json"), monitor_bounds(traj).to_json())
    else:
        res = picard_solve(v["rho0"], v["t_end"], v["kernel"], v["potential"],
                           tolerance=v["picard_tolerance"], dt=v["dt"],
                           max_iter=v["picard_max_iter"])
        steps = snapshot_steps(sts, v["t_end"], v["dt"])
        fields = [(s, res.fields[k]) for s, k in zip(sts, steps)]
        write_json(os.path.join(out_dir, "picard.json"),
                   {"q_bound": res.q_bound, "iterations": res.iterations,
                    "deltas": res.deltas, "ratios": res.ratios})
    with open(os.path.join(out_dir, "rho.csv"), "w") as fh:
        fh.write("time,cell_index,value\n")
        for s, vals in fields:
            for idx, x in enumerate(np.ravel(vals)):
                fh.write(f"{s!r},{idx},{float(x)!r}\n")


# -- horizon ------------------------------------------------------------------

_HORIZON = (
    Field("theta0", _real),
    Field("alpha", _positive),
    Field("c_phi", _nonneg),
    Field("mean_phi", _optional(_real), None),
    Field("theta", _optional(_real), None),
    Field("t", _times, []),
    Field("u0", _nonneg, 1.0),
    Field("windows", _list(_real), []),
)


def _horizon_args(v):
    return {("times" if name == "t" else name): value for name, value in v.items()}


def _check_horizon(v):
    return horizon_violations(**_horizon_args(v))


def _run_horizon(v, out_dir):
    write_json(os.path.join(out_dir, "report.json"),
               horizon_report(**_horizon_args(v)).to_json())


# -- scale-sweep -------------------------------------------------------------

_SWEEP = _MODEL + (
    Field("epsilons", _list(_real)),
    Field("n_cells", _count, 64),
    Field("rho0", _rho0(expand=False)),
    Field("times", _list(_real)),
    Field("n_traj_base", _count, 200),
    *_PAIR_BINS,
    Field("budget_max_particles", _positive, 1e4),
    Field("seed", _seed),
    Field("threads", _count, 1),
)


def _sweep_spec(v):
    return SweepSpec(
        torus=v["torus"], kernel=v["kernel"], potential=v["potential"],
        epsilons=tuple(v["epsilons"]), rho0=v["rho0"], times=tuple(v["times"]),
        n_traj_base=v["n_traj_base"], n_cells=v["n_cells"], r_edges=tuple(_pair_edges(v)),
        budget_max_particles=v["budget_max_particles"], base_seed=v["seed"],
        n_jobs=v["threads"],
    )


def _check_sweep(v):
    spec = _sweep_spec(v)
    diags = spec.violations()
    if not diags:
        spec.validate()  # BudgetError: exit 3 from a run, a violation from validate
    return diags


def _run_sweep(v, out_dir):
    result = run_sweep(_sweep_spec(v))
    write_sweep_outputs(result, out_dir)


# -- shared driver ------------------------------------------------------------


class Command(NamedTuple):
    table: tuple
    check: Callable  # resolved values -> the library's list of violations
    run: Callable  # (resolved values, out_dir) -> None


COMMANDS = {
    "simulate": Command(_SIMULATE, _check_simulate, _run_simulate),
    "kinetic": Command(_KINETIC, _check_kinetic, _run_kinetic),
    "horizon": Command(_HORIZON, _check_horizon, _run_horizon),
    "scale-sweep": Command(_SWEEP, _check_sweep, _run_sweep),
}

def _load_config(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read config {path}: {exc.strerror}")
    except ValueError as exc:  # JSONDecodeError, or an int literal past Python's digit limit
        _fail(f"config is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        _fail("config must be a JSON object")
    # accept a manifest written by a previous run
    if set(obj) == {"subcommand", "version", "config"} and isinstance(obj["config"], dict):
        return {"subcommand": obj["subcommand"], **obj["config"]}
    return obj


def _build_parser():
    p = argparse.ArgumentParser(prog="kawasaki",
                                description="Continuum hopping-particle toolkit")
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name in (*COMMANDS, "validate"):
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        sp.add_argument("--out", default="out")
        # every other flag overrides the config field named by its dest
        sp.add_argument("--seed", type=int)
        sp.add_argument("--threads", type=int)
        if name == "horizon":
            for flag in ("theta0", "alpha", "cphi", "theta", "t"):
                sp.add_argument(f"--{flag}", type=float,
                                dest="c_phi" if flag == "cphi" else flag)
    return p


def _resolve_args(args):
    """The subcommand a config is for, and its values resolved once."""
    if args.config is None and args.subcommand != "horizon":
        _fail(f"{args.subcommand} requires --config FILE")
    cfg = {} if args.config is None else _load_config(args.config)
    sub = args.subcommand
    if sub == "validate":
        sub = cfg.get("subcommand")
        if not isinstance(sub, str) or sub not in COMMANDS:
            _fail(f"validate needs a config whose 'subcommand' is one of "
                  f"{list(COMMANDS)}, got {sub!r}")
    declared = cfg.pop("subcommand", sub)
    if declared != sub:
        _fail(f"config is for subcommand {declared!r}, invoked {sub!r}")
    table = COMMANDS[sub].table
    for name, value in vars(args).items():
        if name in ("subcommand", "config", "out") or value is None:
            continue
        if not any(f.name == name for f in table):
            _fail(f"--{name} does not apply to {sub}")
        cfg[name] = value
    if args.config is None and not cfg:
        _fail("horizon needs --config or --theta0/--alpha/--cphi flags")
    try:
        return sub, resolve(table, cfg)
    except ConfigError as exc:
        raise ConfigError(f"{sub} config: {exc}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    validating = args.subcommand == "validate"
    try:
        sub, vals = _resolve_args(args)
        command = COMMANDS[sub]
        try:
            diags = [str(d) for d in command.check(vals)]
        except BudgetError as exc:
            if not validating:
                raise
            diags = [f"budget: {exc}"]
        if validating:
            for d in diags:
                print(f"violation: {d}")
            return 1 if diags else 0
        if diags:
            _fail("; ".join(diags))
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "manifest.json"),
                   {"subcommand": sub, "version": __version__,
                    "config": manifest_config(vals)})
        command.run(vals, args.out)
        return 0
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
