"""The repository benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/kawasaki`. The run
starts workload runs one after another, each in a fresh interpreter
(`bench/rep.py`), so imports, kernel tabulation and pool start-up are paid as
a user pays them. It keeps starting them until the next one would end after
`--seconds`, with at least three samples. Inputs are generated from `--seed`
(the same seed gives the same inputs) and every run's outputs are checked
after its timer stops.

`--trace 0` reports the end-to-end metrics: the median over runs of wall time,
work per second, peak RSS and set-up time. The three timings are adjusted for
the speed of the CPUs during the run, because on a shared host that speed
drifts by 1.5x and more, within seconds and over minutes (see `speed`); the
raw medians are printed as well. `--trace 1` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones (raw medians), plus the tracing overhead.
Human-readable lines come first, including median, quartiles and sample count
of every timing and a machine block; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where `failed / attempted` is the share of failed operations (CLI calls,
library calls and output checks). Measurement acts only on the benchmark's
own processes and changes no system setting: a single-worker run is pinned to
one CPU (`sched_setaffinity` on its own process), and while a run works this
process times a short fixed loop or array sum on the run's CPUs every 20 ms.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")  # workloads and metric units
WORK = os.path.join(ROOT, ".bench_work")
MIN_RUNS = 3
RUN_TIMEOUT_S = 150.0
PROBE_GAP_S = 0.02
PROBE_LOOP = 8000  # iterations of the pure-Python loop probe
PROBE_FLOATS = 1 << 17  # three 1 MiB arrays for the sum probe
# Each probe's duration on an uncontended core of the 2-vCPU Intel Xeon host
# the bounds were set on (its 1st percentile there); adjusted timings are
# seconds at that speed.
REFERENCE_S = {"loop": 250e-6, "sum": 300e-6}

# What `work_per_adj_s` and `work_per_s` count, which layers each workload
# exercises and which it bypasses (where an optimisation of that layer should
# show no change); why each was chosen is the `why` of its entry in
# BENCHMARK.json.
WORKLOADS = {
    "sweep-meanfield": {
        "work_per_s": "traj_per_s",
        "exercises": ["cli", "scaling", "simulator", "kernels", "estimator",
                      "kinetic (32-cell power-of-two reference)"],
        "bypasses": ["kinetic non-power-of-two route", "picard", "horizon", "gibbs",
                     "process pool"],
        "loop": "closed, 1 caller", "workers": 1,
    },
    "kinetic-grids": {
        "work_per_s": "cell_steps_per_s",
        "exercises": ["cli", "kinetic (direct and FFT convolution, RK4, Picard, "
                      "monitors)", "horizon"],
        "bypasses": ["simulator", "kernels sampling", "estimator", "scaling", "gibbs"],
        "loop": "closed, 1 caller", "workers": 1,
    },
    "dense-2d": {
        "work_per_s": "traj_per_s",
        "exercises": ["cli (snapshots.csv, events.csv)", "simulator (pool of 2)",
                      "kernels", "estimator (large n)"],
        "bypasses": ["kinetic", "horizon", "scaling", "gibbs"],
        "loop": "closed, 1 caller", "workers": 2,
    },
    "equilibrium-gibbs": {
        "work_per_s": "traj_per_s",
        "exercises": ["gibbs", "simulator (given initials)", "kernels",
                      "estimator (raw arrays)"],
        "bypasses": ["cli", "kinetic", "horizon", "scaling", "process pool"],
        "loop": "closed, 1 caller", "workers": 1,
    },
}

END_TO_END = {  # name: its value in one untraced run
    "wall_adj_s": lambda r: r["wall_s"] * r["wall_speed"],
    "work_per_adj_s": lambda r: r["work"] / (r["wall_s"] * r["wall_speed"]),
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
    "setup_s": lambda r: r["setup_s"] * r["setup_speed"],
}
RAW = {  # name: (unit, its value in one untraced run); printed, not reported
    "wall_s": ("s", lambda r: r["wall_s"]),
    "work_per_s": ("1/s", lambda r: r["work"] / r["wall_s"]),
    "setup_raw_s": ("s", lambda r: r["setup_s"]),
    "speed": ("x", lambda r: r["wall_speed"]),
}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _probe_loop(arrays):
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i
    return time.perf_counter() - t0


def _probe_sum(arrays):
    t0 = time.perf_counter()
    np.add(arrays[0], arrays[1], out=arrays[2])
    return time.perf_counter() - t0


PROBES = (("loop", _probe_loop), ("sum", _probe_sum))


def speed(probes, start, end):
    """CPU speed over [start, end], relative to the reference speed.

    On a shared host each CPU switches, many times a second, between full
    speed and about 1/1.6 of it; other tenants' use of the shared cache and
    memory slows work by up to 2x more; and the mix drifts over minutes. Two
    probes sample it on the run's CPUs while the run works: a loop that stays
    in L1, and a sum over arrays larger than a core's L2. For each, the mean
    of reference / reading over its readings in the window is a speed. The
    lower of the two is taken, because each probe misses part of a slowdown
    that the other sees. A time multiplied by it is the time the same work
    takes at the reference speed. A reading over 2.5x the median of its kind
    in the window was preempted and is dropped.
    """
    speeds = []
    for kind, reference in REFERENCE_S.items():
        every = [s for _, k, s in probes if k == kind]
        inside = [s for t, k, s in probes if k == kind and start <= t <= end] or every
        typical = statistics.median(inside)
        speeds.append(statistics.fmean(reference / s for s in inside
                                       if s <= 2.5 * typical))
    return min(speeds)


def _start_run(args, index, trace, env, cpus):
    """One workload run in a fresh interpreter on `cpus`; returns its result dict."""
    run_dir = os.path.join(args.work, f"run{index}")
    os.makedirs(run_dir)
    result_path = os.path.join(run_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--work", run_dir, "--trace", str(trace), "--result", result_path]
    os.sched_setaffinity(0, cpus)  # the run and its pool workers inherit it
    probes = []  # (time.monotonic() after the probe, its kind, its seconds)
    order = sorted(cpus)
    arrays = np.random.default_rng(0).random((3, PROBE_FLOATS))
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        while proc.poll() is None and time.monotonic() - spawned < RUN_TIMEOUT_S:
            time.sleep(PROBE_GAP_S)
            # every CPU of the run gets both kinds of probe in turn
            n = len(probes)
            os.sched_setaffinity(0, {order[n % len(order)]})
            kind, probe = PROBES[n // len(order) % len(PROBES)]
            seconds = probe(arrays)
            probes.append((time.monotonic(), kind, seconds))
        code = "timeout" if proc.poll() is None else proc.returncode
    finally:
        # pool workers share the run's session; none may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    result = None
    if code == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
    shutil.rmtree(run_dir, ignore_errors=True)
    if result is None:
        result = {"ops": [["workload run", False, f"exit {code}"]], "error": code}
    else:
        began = spawned + result["setup_s"]  # the first timed call
        result["setup_speed"] = speed(probes, spawned, began)
        result["wall_speed"] = speed(probes, began, began + result["wall_s"])
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def machine_block(runs):
    """Where and on what the numbers were measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "kawasaki")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "speed": statistics.median(r.get("wall_speed", 0.0) for r in runs),
        "probe_reference_s": REFERENCE_S,
        "pinning": "each single-worker run is pinned to one CPU; pool workloads "
                   "are not pinned",
        "note": "measurement acts only on the benchmark's own processes; "
                "other load on the machine is not controlled",
    }


def _summary(name, unit, values):
    q1, q3 = _quartiles(values)
    return (f"  {name:<32} median {statistics.median(values):.6g} {unit}"
            f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "kawasaki", "__init__.py")):
        print(f"error: no kawasaki sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    args.work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(args.work)
    cpus = os.sched_getaffinity(0)
    run_cpus = {min(cpus)} if WORKLOADS[args.workload]["workers"] == 1 else cpus
    runs = []
    start = time.monotonic()
    try:
        while True:
            trace = args.trace and len(runs) % 2 == 1
            runs.append(_start_run(args, len(runs), int(trace), env, run_cpus))
            elapsed = time.monotonic() - start
            typical = statistics.median(r["elapsed_s"] for r in runs)
            enough = len(runs) >= (2 * MIN_RUNS if args.trace else MIN_RUNS)
            if enough and elapsed + typical > args.seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(args.work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    elapsed = time.monotonic() - start

    ops = [op for r in runs for op in r["ops"]]
    good = [r for r in runs if r.get("error") is None]
    plain = [r for r in good if not r["trace"]]
    traced = [r for r in good if r["trace"]]
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
             f"{len(runs)} runs in {elapsed:.1f} s "
             f"({len(traced)} traced, {len(runs) - len(good)} failed)"]
    lines.append(f"  about: {json.dumps(WORKLOADS[args.workload])}")
    samples = {}  # metric name -> per-run values
    if plain:
        for name, value in END_TO_END.items():
            samples[name] = [value(r) for r in plain]
        for name, (_, value) in RAW.items():
            samples[name] = [value(r) for r in plain]
    if traced and plain:
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        for r in traced:
            # the self times of every layer of the run's own process cover it
            covered = sum(r["self_by_layer"].values())
            gap = abs(covered - r["wall_s"])
            ok = gap <= abs(overhead) + 0.05 * r["wall_s"]
            ops.append(["trace self times sum to wall_s", ok,
                        f"gap {gap:.3g} s on wall {r['wall_s']:.3g} s"])
        for name in traced[0]["layers"]:
            samples[name] = [r["layers"][name] for r in traced]
        samples["trace.overhead_s"] = [overhead]
        shares = {k: round(v, 4) for k, v in sorted(
            traced[0]["self_by_layer"].items(), key=lambda kv: -kv[1])}
        lines.append(f"  self time by layer in the first traced run (s): {shares}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update((name, unit) for name, (unit, _) in RAW.items())
    lines.append("end to end (untraced runs):" if not args.trace
                 else "end to end of the untraced runs, then per layer (traced runs):")
    for name, values in samples.items():
        label = name
        if name.startswith("work_per_"):
            label = f"{name} = {WORKLOADS[args.workload]['work_per_s']}"
        lines.append(_summary(label, units.get(name, "?"), values))
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                           "unit": m["unit"]}
               for m in wanted if m["name"] in samples}
    missing = [m["name"] for m in wanted if m["name"] not in samples]

    failed = sum(1 for op in ops if not op[1])
    lines.append(f"  checks_failed_frac {failed}/{len(ops)} = "
                 f"{failed / len(ops) if ops else 0.0:.4g}")
    lines += [f"  FAILED {op[0]}: {op[2]}" for op in ops if not op[1]]
    lines += [r["error"] for r in runs if isinstance(r.get("error"), str)]
    if good:
        lines.append(f"  verdicts (not counted): {json.dumps(good[0]['verdicts'])}")
    lines.append(f"machine {json.dumps(machine_block(runs))}")
    print("\n".join(lines))
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
