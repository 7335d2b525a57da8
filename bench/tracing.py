"""Span tracing of the kawasaki layers, installed from outside the package.

`Tracer.install` rebinds the public entry points of the kawasaki modules, in
every kawasaki namespace that imported them, to wrappers that record spans:
name, layer, start, end, parent span and process. Calls made once per event
(energy queries, displacement refills, ...) are not spans but "leaf"
aggregates, a count and a total time kept on the enclosing span, so a traced
run stays close to an untraced one. Spans are kept in memory and written once,
when the run ends.

A span's self time is its duration minus the time its child spans and leaf
aggregates cover. Ensemble workers forked by the process pool inherit the
wrappers; each worker hands the spans it recorded back on the trajectory it
returns, and the parent adopts them under its `simulate_ensemble` span.
"""

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

_clock = time.perf_counter
_SHIP_ATTR = "_bench_spans"


def _simulate_info(args, kwargs, out):
    return {"n_events": int(out.n_events), "n_accepted": int(out.n_accepted)}


def _pair_info(args, kwargs, out):
    ensemble, t = args[0], args[1]
    ns = [(traj.snapshot_at(t) if hasattr(traj, "snapshot_at") else traj).shape[0]
          for traj in ensemble]
    return {"snapshots": len(ns), "pairs": sum(n * (n - 1) for n in ns)}


def _rk4_info(args, kwargs, out):
    return {"steps": len(out.times) - 1}


def _picard_info(args, kwargs, out):
    return {"sweeps": int(out.iterations)}


def _gibbs_run_info(args, kwargs, out):
    n_moves = args[1] if len(args) > 1 else kwargs["n_moves"]
    return {"moves": int(n_moves)}


def _convolve_leaf_name(args):
    return "kinetic.convolve.pow2" if args[0].is_pow2 else "kinetic.convolve.other"


# (module, attribute, layer, kind, info hook). A "leaf" records a count and a
# total time on the enclosing span; a "span" records a span of its own.
TARGETS = [
    ("kawasaki.cli", "main", "cli", "span", None),
    ("kawasaki.scaling", "run_sweep", "scaling", "span", None),
    ("kawasaki.scaling", "convergence_report", "scaling", "span", None),
    ("kawasaki.scaling", "write_sweep_outputs", "scaling", "span", None),
    ("kawasaki.simulator", "simulate_ensemble", "simulator", "span", None),
    ("kawasaki.simulator", "simulate", "simulator", "span", _simulate_info),
    ("kawasaki.simulator", "interaction_energy", "simulator", "leaf", None),
    ("kawasaki.simulator", "sample_poisson_positions", "simulator", "leaf", None),
    ("kawasaki.kernels", "sample_displacement", "kernels", "leaf", None),
    ("kawasaki.estimator", "estimate_correlations", "estimator", "span", None),
    ("kawasaki.estimator", "estimate_density", "estimator", "span", None),
    ("kawasaki.estimator", "estimate_pair_correlation", "estimator", "span",
     _pair_info),
    ("kawasaki.estimator", "radial_product_profile", "estimator", "span", None),
    ("kawasaki.kinetic", "solve_kinetic", "kinetic", "span", _rk4_info),
    ("kawasaki.kinetic", "monitor_bounds", "kinetic", "span", None),
    ("kawasaki.kinetic", "picard_solve", "kinetic", "span", _picard_info),
    ("kawasaki.kinetic", "tabulate", "kinetic", "leaf", None),
    ("kawasaki.kinetic", "TabulatedKernel.convolve", "kinetic", "leaf",
     _convolve_leaf_name),
    ("kawasaki.horizon", "horizon_report", "horizon", "span", None),
    ("kawasaki.horizon", "find_T_for_q", "horizon", "span", None),
    ("kawasaki.horizon", "contraction_factor", "horizon", "leaf", None),
    ("kawasaki.gibbs", "calibrate_activity", "gibbs", "span", None),
    ("kawasaki.gibbs", "GibbsSampler.sample", "gibbs", "span", None),
    ("kawasaki.gibbs", "GibbsSampler.run", "gibbs", "span", _gibbs_run_info),
]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self._count = 0
        self._undo = []

    # -- recording -------------------------------------------------------

    def open(self, name, layer):
        self._count += 1
        span = {"id": f"{os.getpid()}:{self._count}", "name": name, "layer": layer,
                "start": _clock(), "end": None,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "pid": os.getpid(), "leaves": {}, "info": {}}
        self.stack.append(span)
        return span

    def close(self, span):
        span["end"] = _clock()
        self.stack.pop()
        self.spans.append(span)

    def _leaf(self, name, layer, seconds):
        if not self.stack:
            return
        agg = self.stack[-1]["leaves"].setdefault(name, [layer, 0, 0.0])
        agg[1] += 1
        agg[2] += seconds

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, fn, name, layer, info):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if info is not None:
                span["info"].update(info(args, kwargs, out))
            if name == "simulator.simulate" and os.getpid() != tracer.pid:
                setattr(out, _SHIP_ATTR, tracer._take_worker_spans())
            elif name == "simulator.simulate_ensemble":
                for traj in out:
                    tracer.spans.extend(traj.__dict__.pop(_SHIP_ATTR, ()))
            return out
        return wrapped

    def _leaf_wrapper(self, fn, name, layer, name_of):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leaf(name if name_of is None else name_of(args), layer,
                             _clock() - t0)
        return wrapped

    def _take_worker_spans(self):
        pid = os.getpid()
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = [s for s in self.spans if s["pid"] != pid]
        return mine

    def install(self):
        """Rebind every target in every loaded kawasaki namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kawasaki" or n.startswith("kawasaki."))]
        for mod_name, attr, layer, kind, hook in TARGETS:
            owner = importlib.import_module(mod_name)
            short = mod_name.split(".")[-1]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, meth)
            name = f"{short}.{meth}"
            if kind == "span":
                wrapper = self._span_wrapper(original, name, layer, hook)
            else:
                wrapper = self._leaf_wrapper(original, name, layer, hook)
            if cls_name:
                self._rebind(owner, meth, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, key, wrapper):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"main_pid": self.pid, "spans": self.spans}, fh)


# -- per-layer metrics -----------------------------------------------------


def _dur(span):
    return span["end"] - span["start"]


def layer_metrics(trace):
    """Per-layer metrics of one traced run from its written span list.

    Returns (metrics, self_by_layer): `self_by_layer` holds the self time of
    every layer in the run's own process, which sums to the root span.
    """
    spans = trace["spans"]
    main_pid = trace["main_pid"]
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            child_time[s["parent"]] += _dur(s)

    def self_time(s):
        return (_dur(s) - child_time[s["id"]]
                - sum(agg[2] for agg in s["leaves"].values()))

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(_dur(s) for s in named(name))

    def info_sum(name, key):
        return sum(s["info"].get(key, 0) for s in named(name))

    def leaf(key, within=None):
        count = secs = 0.0
        for s in spans:
            if within is not None and s["name"] != within:
                continue
            agg = s["leaves"].get(key)
            if agg is not None:
                count += agg[1]
                secs += agg[2]
        return int(count), secs

    def ancestor_in_layer(s, layer):
        p = by_id.get(s["parent"])
        while p is not None:
            if p["layer"] == layer:
                return True
            p = by_id.get(p["parent"])
        return False

    def busy(layer):
        """Time inside the layer: outermost spans plus leaves called from outside."""
        secs = sum(_dur(s) for s in spans
                   if s["layer"] == layer and not ancestor_in_layer(s, layer))
        for s in spans:
            if s["layer"] == layer or ancestor_in_layer(s, layer):
                continue
            secs += sum(agg[2] for agg in s["leaves"].values() if agg[0] == layer)
        return secs

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    sim_busy = total("simulator.simulate")
    events = info_sum("simulator.simulate", "n_events")
    accepted = info_sum("simulator.simulate", "n_accepted")
    energy_calls, energy_s = leaf("simulator.interaction_energy")
    _, disp_in_sim = leaf("kernels.sample_displacement", within="simulator.simulate")
    _, init_in_sim = leaf("simulator.sample_poisson_positions",
                          within="simulator.simulate")
    _, energy_in_sim = leaf("simulator.interaction_energy", within="simulator.simulate")
    m["simulator.busy_s"] = sim_busy
    m["simulator.events"] = events
    m["simulator.accepted"] = accepted
    m["simulator.envelope_efficiency"] = ratio(accepted, events)
    m["simulator.events_per_s"] = ratio(events, sim_busy)
    m["simulator.us_per_event"] = 1e6 * ratio(sim_busy, events)
    m["simulator.energy_calls"] = energy_calls
    m["simulator.energy_s"] = energy_s
    m["simulator.energy_us"] = 1e6 * ratio(energy_s, energy_calls)
    m["simulator.self_s"] = sim_busy - energy_in_sim - disp_in_sim - init_in_sim
    m["kernels.displacement_s"] = leaf("kernels.sample_displacement")[1]
    m["simulator.initial_s"] = leaf("simulator.sample_poisson_positions")[1]

    pair_s = total("estimator.estimate_pair_correlation")
    pairs = info_sum("estimator.estimate_pair_correlation", "pairs")
    m["estimator.density_s"] = total("estimator.estimate_density")
    m["estimator.pair_s"] = pair_s
    m["estimator.product_profile_s"] = total("estimator.radial_product_profile")
    m["estimator.snapshots"] = info_sum("estimator.estimate_pair_correlation",
                                        "snapshots")
    m["estimator.pairs"] = pairs
    m["estimator.pairs_per_s"] = ratio(pairs, pair_s)

    pow2_calls, pow2_s = leaf("kinetic.convolve.pow2")
    other_calls, other_s = leaf("kinetic.convolve.other")
    picard_s = total("kinetic.picard_solve")
    sweeps = info_sum("kinetic.picard_solve", "sweeps")
    m["kinetic.rk4_s"] = total("kinetic.solve_kinetic")
    m["kinetic.rk4_steps"] = info_sum("kinetic.solve_kinetic", "steps")
    m["kinetic.monitor_s"] = total("kinetic.monitor_bounds")
    m["kinetic.convolve_calls"] = pow2_calls + other_calls
    m["kinetic.convolve_s.pow2"] = pow2_s
    m["kinetic.convolve_s.other"] = other_s
    m["kinetic.tabulate_s"] = leaf("kinetic.tabulate")[1]
    m["kinetic.picard_s"] = picard_s
    m["kinetic.picard_sweeps"] = sweeps
    m["kinetic.picard_s_per_sweep"] = ratio(picard_s, sweeps)

    horizon_spans = [s for s in spans if s["layer"] == "horizon"]
    m["horizon.calls"] = len(horizon_spans) + leaf("horizon.contraction_factor")[0]
    m["horizon.busy_s"] = busy("horizon")

    m["scaling.sweep_s"] = total("scaling.run_sweep")
    m["scaling.self_s"] = sum(self_time(s) for s in named("scaling.run_sweep"))
    m["scaling.write_s"] = total("scaling.write_sweep_outputs")

    gibbs_run_s = total("gibbs.run")
    gibbs_moves = info_sum("gibbs.run", "moves")
    m["gibbs.moves"] = gibbs_moves
    m["gibbs.run_s"] = gibbs_run_s
    m["gibbs.moves_per_s"] = ratio(gibbs_moves, gibbs_run_s)
    m["gibbs.calibrate_s"] = total("gibbs.calibrate_activity")

    m["cli.main_s"] = total("cli.main")
    m["cli.self_s"] = sum(self_time(s) for s in named("cli.main"))

    self_by_layer = defaultdict(float)
    for s in spans:
        if s["pid"] != main_pid:
            continue
        self_by_layer[s["layer"]] += self_time(s)
        for agg in s["leaves"].values():
            self_by_layer[agg[0]] += agg[2]
    return m, dict(self_by_layer)
