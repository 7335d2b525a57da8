"""One workload run in a fresh interpreter; `run.py` starts one per sample.

    python3 bench/rep.py --workload NAME --seed N --work DIR --trace 0|1
                         --spawned-at MONOTONIC --result FILE

Set-up (interpreter start, `import kawasaki`, input generation) ends at the
first timed call; the timed region ends when the last output is written.
Output checks run after that and are not timed. The result is one JSON file.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import kawasaki
import kawasaki.cli  # noqa: F401

import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rss_mb(who):
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0


def _bytes_under(path):
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(kawasaki.__file__).startswith(src):
        print(f"kawasaki was imported from {kawasaki.__file__}, not {src}",
              file=sys.stderr)
        return 2

    name = args.workload
    paths = workloads.make_inputs(name, args.seed, args.work)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    t0 = time.monotonic()
    root = tracer.open("bench.run", "bench") if tracer else None
    try:
        ops = workloads.run(name, paths)
        error = None
    except Exception as exc:  # a failed workload is reported, not raised
        ops = [("workload", False, f"{type(exc).__name__}: {exc}")]
        error = traceback.format_exc()
    if root is not None:
        tracer.close(root)
    t1 = time.monotonic()
    peak_rss = _rss_mb(resource.RUSAGE_SELF)
    worker_rss = _rss_mb(resource.RUSAGE_CHILDREN)

    result = {"workload": name, "seed": args.seed, "trace": args.trace,
              "setup_s": t0 - args.spawned_at, "wall_s": t1 - t0,
              "peak_rss_mb": peak_rss}
    if tracer is not None:
        tracer.uninstall()
        trace_path = os.path.join(args.work, "spans.json")
        tracer.write(trace_path)
        with open(trace_path) as fh:
            metrics, self_by_layer = tracing.layer_metrics(json.load(fh))
        metrics["simulator.worker_peak_rss_mb"] = worker_rss
        # bytes of every output the CLI wrote; none when the CLI was bypassed
        metrics["cli.bytes_written"] = (
            _bytes_under(paths["out"]) if metrics["cli.main_s"] else 0)
        result["layers"] = metrics
        result["self_by_layer"] = self_by_layer

    verdicts = {}
    if error is None:
        found, verdicts = checks.run(name, paths)
        ops = ops + found
        result["work"] = workloads.work_units(name, paths)
    result["ops"] = [list(op) for op in ops]
    result["verdicts"] = verdicts
    result["error"] = error
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
