"""erlangreg benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...      # the four workloads in turn
    python3 bench/run.py --smoke                 # tiny inputs, every workload, both modes

Run it from a checkout: it puts the checkout's src/ on PYTHONPATH, pins
BLAS/OpenMP to one thread, and makes every input from --seed.  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it repeats the same work with span wrappers installed and
reports the per-layer metrics.  The last line of standard output is one
JSON object; lines before it are a readable report.  See bench/README.md
for the workloads, metrics and how they interact.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ["cli-batch", "stream-sample", "stream-block", "design-sweep"]
PROBE_REPEATS = 3

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms": "ms",
}


def pin_environment():
    """One BLAS/OpenMP thread, and the checkout's src/ first on the import path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    prior = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + prior if prior else "")
    sys.path.insert(0, SRC)


def environment_info():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def probe(args, repeats, workdir):
    """Medians over fresh interpreters running bench/probe.py.

    Returns (scaled process wall, scaled value the probe printed or None).
    """
    import speed
    walls, printed = [], []
    for _ in range(repeats):
        with open(os.path.join(workdir, "probe.out"), "w+") as out, \
                open(os.path.join(workdir, "probe.err"), "w+") as err:
            code, wall, scaled, _ = speed.run_process(
                [sys.executable, os.path.join(BENCH_DIR, "probe.py"), *args], os.environ,
                stdout=out, stderr=err)
            out.seek(0)
            err.seek(0)
            text, message = out.read().strip(), err.read().strip()
        if code != 0:
            raise RuntimeError(f"probe {args} failed: {message[-500:]}")
        walls.append(scaled)
        if text:
            printed.append(float(text) * scaled / wall)
    return statistics.median(walls), (statistics.median(printed) if printed else None)


def end_to_end(outcome, setup_s):
    throughput = outcome.throughput
    if throughput is None:
        throughput = outcome.work / outcome.busy if outcome.busy > 0 else math.nan
    return {
        "setup_s": setup_s,
        "peak_rss_mb": outcome.peak_rss_mb,
        "throughput_per_s": throughput,
        "latency_ms": outcome.typical() * 1e3,
    }


def per_layer(ctx, workloads, spans, name, base, traced, import_s):
    """Per-layer metrics: span statistics of the traced pass plus outside measurements."""
    if traced.snapshots:
        snapshots = []
        for path in traced.snapshots:
            with open(path) as fh:
                snapshots.append(json.load(fh))
        snapshot = spans.merge(snapshots)
    else:
        snapshot = spans.merge([ctx.tracer.snapshot()])
    values = spans.layer_metrics(snapshot)
    units = {k: v[0] for k, v in spans.TRACED.items()}
    # Span times are wall clock; put them on the same nominal scale as the
    # end-to-end metrics, using the traced pass's overall speed factor.
    factor = traced.busy / traced.raw_busy if traced.raw_busy > 0 else 1.0
    for metric, unit in units.items():
        if unit in ("s", "us") and values[metric] is not None:
            values[metric] *= factor
    outside = {
        "cli.import_s": ("s", import_s),
        "cli.bytes_out": ("B", base.layer.get("cli.bytes_out", 0.0)),
        "design.accepted_frac": ("count", workloads.accepted_designs(ctx.er)
                                 if name == "design-sweep" else 0.0),
        "estimator.sigma2_rel_err_max": ("rel", base.layer.get("estimator.sigma2_rel_err_max",
                                                              0.0)),
        "detectors.events": ("count", base.layer.get("detectors.events", 0.0)),
        "detectors.exceed_frac": ("frac", base.layer.get("detectors.exceed_frac", 0.0)),
        "trace.overhead_frac": ("frac", traced.busy / base.busy - 1.0 if base.busy > 0
                                else math.nan),
    }
    for metric, (unit, value) in outside.items():
        units[metric] = unit
        values[metric] = value
    return values, units, snapshot["missing"]


def run_workload(name, seed, seconds, trace, smoke):
    import erlangreg
    import spans
    import workloads

    origin = os.path.dirname(os.path.abspath(erlangreg.__file__))
    if os.path.dirname(origin) != SRC:
        raise RuntimeError(f"imported erlangreg from {origin}, not from {SRC}")
    workdir = os.path.join(ROOT, ".bench_build", "erlangreg-bench", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = workloads.Context(erlangreg, seed, workdir, smoke)
        if name == "cli-batch":
            ctx.cli = workloads.CliBatch(ctx)
        repeats = 1 if smoke else PROBE_REPEATS
        run = workloads.WORKLOADS[name]
        if not trace:
            setup_s, _ = probe(["setup", name, workdir], repeats, workdir)
            outcomes = [run(ctx, seconds=seconds)]
            values = end_to_end(outcomes[0], setup_s)
            units = dict(END_TO_END)
            missing = []
        else:
            if name == "cli-batch":
                probe(["setup", name, workdir], 1, workdir)
            _, import_s = probe(["import"], repeats, workdir)
            base = run(ctx, seconds=seconds)
            ctx.tracer = spans.Tracer()
            traced = run(ctx, ops=base.ops, tracer=ctx.tracer)
            outcomes = [base, traced]
            values, units, missing = per_layer(ctx, workloads, spans, name, base, traced,
                                               import_s)
        return outcomes, values, units, missing
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(name, seed, trace, env, outcomes, values, units, missing):
    """Readable lines, then the result object."""
    import speed
    attempted = sum(o.ops for o in outcomes)
    failed = sum(len(o.failed) for o in outcomes)
    print(f"# erlangreg benchmark: workload={name} seed={seed} trace={trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    first = outcomes[0]
    for metric, (value, unit, note) in first.report.items():
        print(f"#   {metric} = {value:.6g} {unit}  ({note})")
    print(f"#   host speed: calibration loop {first.calibration_ms:.4g} ms (nominal "
          f"{speed.NOMINAL_MS} ms); timed work {first.raw_busy:.4g} s unscaled, "
          f"{first.busy:.4g} s scaled")
    print(f"#   error_rate = {failed / max(attempted, 1):.6g}  ({failed} of {attempted} "
          f"operations failed)")
    for o in outcomes:
        for problem in o.problems:
            print(f"#   FAILED: {problem}")
    metrics = {}
    undefined = []
    for metric, value in values.items():
        tag = ""
        if value is None:
            tag = "  (missing: traced name not present)"
            value = 0.0
        elif not math.isfinite(value):
            # No successful operation to time: left out of the result, which
            # is then not correct.
            tag = "  (missing: no successful operation)"
            undefined.append(metric)
        print(f"# {metric} = {value:.6g} {units[metric]}{tag}")
        if metric not in undefined:
            metrics[metric] = {"value": float(value), "unit": units[metric]}
    if missing:
        print("# missing spans: " + ", ".join(missing))
    result = {"correct": failed == 0 and not undefined, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    results_dir = os.path.join(ROOT, ".bench_build", "erlangreg-bench", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "trace": trace, "env": env,
                   "report": {k: v[:2] for k, v in first.report.items()},
                   "missing": missing, **result}, fh, indent=1)
    return result


def run_all(args, names):
    """Each workload in its own process; prints their reports and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    modes = (0, 1) if args.smoke else (args.trace,)
    for name in names:
        for trace in modes:
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"], default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; with no --workload runs all four, traced and not")
    args = parser.parse_args(argv)
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required")
        args.workload = "all"
    if args.smoke:
        args.seconds = min(args.seconds, 0.5)

    if not os.path.isfile(os.path.join(SRC, "erlangreg", "__init__.py")):
        print(f"error: no package source at {SRC}/erlangreg; run from a checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    if args.workload == "all":
        return run_all(args, WORKLOAD_NAMES)
    env = environment_info()
    try:
        outcomes, values, units, missing = run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.smoke)
        result = report(args.workload, args.seed, args.trace, env, outcomes, values, units,
                        missing)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
