"""Command-line front end: design, analyze, run, detect, simulate.

The JSON design document written by `design` is the only contract between
commands; every other command loads one and uses its stored matrices as
they are.  Data travels as headered CSV with 17-significant-digit floats,
so files round-trip losslessly and diff cleanly.

Exit codes: 0 success, 2 usage error, 3 numerical or data rejection.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from .design import DesignError, DesignSpec, build_realization
from .detectors import ChangeDetector, EdgeDetector, PeakDetector
from .document import (
    design_to_document,
    document_from_json,
    document_to_json,
    realization_from_document,
)
from .estimator import run_sequence
from .response import response_report
from .scenarios import (
    TargetScenario,
    simulate_target,
    synth_change_waveform,
    synth_edge_waveform,
    synth_peak_waveform,
)
from .weights import WeightSpec

__all__ = ["main", "build_parser"]

_RUN_CHUNK = 8192


def _fmt(value) -> str:
    """17 significant digits: enough for a lossless float round trip."""
    return format(float(value), ".17g")


@contextlib.contextmanager
def _open_out(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


@contextlib.contextmanager
def _open_in(path):
    if path is None or path == "-":
        yield sys.stdin
    else:
        with open(path, "r", newline="") as fh:
            yield fh


def _delay_flag(text: str):
    if text.strip().lower() == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}")


def _load_design(path):
    with _open_in(path) as fh:
        document = document_from_json(fh.read())
    return realization_from_document(document)


def _numeric_column(fh):
    """Yield floats from a strictly single-column CSV.

    A non-numeric first row is accepted as the header; any later
    non-numeric or multi-field row is an error naming its line, and so is
    any NaN or infinite value (a `nan` first row included), because one
    such sample would turn every later output into NaN.  Blank rows (for
    example a trailing newline) are skipped.
    """
    reader = csv.reader(fh)
    for lineno, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != 1:
            raise ValueError(
                f"line {lineno}: expected a single numeric column, got {len(row)} fields"
            )
        text = row[0].strip()
        try:
            value = float(text)
        except ValueError:
            if lineno == 1:
                continue
            raise ValueError(f"line {lineno}: not numeric: {text!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"line {lineno}: not finite: {text!r}")
        yield value


# ---------------------------------------------------------------------------
# Subcommands


def cmd_design(args) -> int:
    spec = DesignSpec(
        weight=WeightSpec(kappa=args.kappa, p=args.p),
        model_order=args.kx,
        n_outputs=args.kt,
        delay=args.q,
        sample_period=args.ts,
    )
    realization = build_realization(spec)
    requested = "auto" if args.q is None else args.q
    document = design_to_document(realization, requested)
    with _open_out(args.out) as fh:
        fh.write(document_to_json(document))
    return 0


def cmd_analyze(args) -> int:
    realization = _load_design(args.design)
    report = response_report(realization, args.grid_size)

    n_outputs = realization.spec.n_outputs
    header = ["f"]
    for k in range(n_outputs):
        header += [f"h{k}_re", f"h{k}_im"]
    header.append("distortion")
    with _open_out(args.out) as fh:
        fh.write(",".join(header) + "\n")
        for i, f in enumerate(report.freqs):
            fields = [_fmt(f)]
            for k in range(n_outputs):
                h = report.responses[k, i]
                fields += [_fmt(h.real), _fmt(h.imag)]
            fields.append(_fmt(report.distortion[i]))
            fh.write(",".join(fields) + "\n")

    spec = realization.spec
    summary = {
        "kappa": spec.weight.kappa,
        "p": spec.weight.p,
        "model_order": spec.model_order,
        "n_outputs": spec.n_outputs,
        "delay": spec.delay,
        "sample_period": spec.sample_period,
        "grid_size": args.grid_size,
        "cutoff_frequency": report.f_c,
        "group_delay_dc": report.group_delay_dc,
        "vrf": realization.vrf.tolist(),
    }
    summary_path = args.summary_out
    if summary_path is None:
        if args.out is None or args.out == "-":
            raise ValueError("--summary-out is required when the CSV goes to stdout")
        summary_path = args.out + ".summary.json"
    with _open_out(summary_path) as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0


def cmd_run(args) -> int:
    realization = _load_design(args.design)
    n_outputs = realization.spec.n_outputs
    header = (
        ["n"]
        + [f"estimate_{k}" for k in range(n_outputs)]
        + ["sigma_eps2"]
        + [f"var_{k}" for k in range(n_outputs)]
    )
    state = None
    next_n = 0
    # printf-style row template: %-formatting is much faster than per-value
    # format() calls, which matters at the promised streaming throughput.
    row_template = "%d," + ",".join(["%.17g"] * (2 * n_outputs + 1)) + "\n"
    with _open_in(args.input) as src, _open_out(args.out) as dst:
        dst.write(",".join(header) + "\n")
        chunk: list[float] = []

        def flush(chunk):
            nonlocal state, next_n
            result, state = run_sequence(
                realization, np.array(chunk), args.sigma0_sq, state
            )
            columns = [range(next_n, next_n + len(chunk))]
            columns += result.estimates.tolist()
            columns.append(result.sigma_eps2.tolist())
            columns += result.variances.tolist()
            dst.write("".join(row_template % row for row in zip(*columns)))
            next_n += len(chunk)

        for value in _numeric_column(src):
            chunk.append(value)
            if len(chunk) >= _RUN_CHUNK:
                flush(chunk)
                chunk = []
        if chunk:
            flush(chunk)
    return 0


def cmd_detect(args) -> int:
    realization = _load_design(args.design)
    if args.kind == "edge":
        detector = EdgeDetector(realization, args.threshold, args.sigma0_sq)
    elif args.kind == "peak":
        detector = PeakDetector(realization, args.threshold, args.sigma0_sq)
    else:
        if args.design_b is None:
            raise ValueError("change detection needs --design-b (the slow filter)")
        realization_b = _load_design(args.design_b)
        detector = ChangeDetector(
            realization, realization_b, args.threshold, args.sigma0_sq
        )

    with _open_in(args.input) as src:
        values = np.array(list(_numeric_column(src)))
    z = detector.run(values) if values.size else np.empty(0)
    detector.finish()
    kinds = {event.n: event.kind for event in detector.events}

    with _open_out(args.out) as fh:
        fh.write("n,z,event\n")
        for n, value in enumerate(z):
            fh.write(f"{n},{_fmt(value)},{kinds.get(n, '')}\n")
    return 0


def cmd_simulate(args) -> int:
    if args.scenario in ("target-constant-accel", "target-random-accel"):
        mode = "constant" if args.scenario == "target-constant-accel" else "gaussian"
        accel = args.accel
        if accel is None:
            accel = -20.0 if mode == "constant" else 100.0
        scenario = TargetScenario(
            sample_period=args.ts,
            n_samples=args.n_samples if args.n_samples is not None else 200,
            initial_position=args.x0,
            initial_velocity=args.v0,
            accel_mode=mode,
            accel_value=accel,
            noise_std=args.noise_std,
            seed=args.seed,
        )
        truth, measurements = simulate_target(scenario)
        with _open_out(args.out) as fh:
            fh.write("n,position,velocity,acceleration,measurement\n")
            for n in range(truth.shape[0]):
                fields = [str(n)] + [_fmt(v) for v in truth[n]] + [_fmt(measurements[n])]
                fh.write(",".join(fields) + "\n")
        return 0

    generators = {
        "edge": synth_edge_waveform,
        "peak": synth_peak_waveform,
        "change": synth_change_waveform,
    }
    generator = generators[args.scenario]
    n_samples = args.n_samples if args.n_samples is not None else 400
    clean, noisy = generator(args.seed, n_samples, args.noise_std)
    with _open_out(args.out) as fh:
        fh.write("n,clean,measurement\n")
        for n in range(n_samples):
            fh.write(f"{n},{_fmt(clean[n])},{_fmt(noisy[n])}\n")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erlangreg",
        description="Design and run recursive polynomial regression filters "
        "with Erlang error weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser(
        "design", help="build a filter and write its design document"
    )
    p_design.add_argument("--kappa", type=int, required=True, help="weight shape parameter")
    p_design.add_argument("--p", type=float, required=True, help="decay factor in (0, 1)")
    p_design.add_argument("--kx", type=int, required=True, help="polynomial coefficients fitted")
    p_design.add_argument("--kt", type=int, default=1, help="derivative outputs (default 1)")
    p_design.add_argument(
        "--q",
        type=_delay_flag,
        default=None,
        help="evaluation delay in samples, or 'auto' for the variance optimum (default auto)",
    )
    p_design.add_argument("--ts", type=float, default=1.0, help="sample period in seconds")
    p_design.add_argument("--out", default=None, help="document path (default stdout)")
    p_design.set_defaults(func=cmd_design)

    p_analyze = sub.add_parser(
        "analyze", help="frequency response and summary metrics of a design"
    )
    p_analyze.add_argument("--design", required=True, help="design document path")
    p_analyze.add_argument("--grid-size", type=int, default=2048, help="frequency grid points")
    p_analyze.add_argument("--out", required=True, help="response CSV path")
    p_analyze.add_argument(
        "--summary-out",
        default=None,
        help="summary JSON path (default: response path + '.summary.json')",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_run = sub.add_parser(
        "run", help="stream a measurement column through a designed filter"
    )
    p_run.add_argument("--design", required=True, help="design document path")
    p_run.add_argument("--input", default=None, help="single-column CSV (default stdin)")
    p_run.add_argument(
        "--sigma0-sq", type=float, default=0.0, help="prior noise variance at startup"
    )
    p_run.add_argument("--out", default=None, help="estimates CSV path (default stdout)")
    p_run.set_defaults(func=cmd_run)

    p_detect = sub.add_parser("detect", help="threshold detection on a measurement column")
    p_detect.add_argument(
        "--kind", required=True, choices=["edge", "peak", "change"], help="detector type"
    )
    p_detect.add_argument("--design", required=True, help="design document path")
    p_detect.add_argument(
        "--design-b",
        default=None,
        help="slow-filter document for change detection (same p, orders, and delay)",
    )
    p_detect.add_argument("--threshold", type=float, required=True, help="|Z| event threshold")
    p_detect.add_argument("--input", default=None, help="single-column CSV (default stdin)")
    p_detect.add_argument(
        "--sigma0-sq", type=float, default=0.0, help="prior noise variance at startup"
    )
    p_detect.add_argument("--out", default=None, help="detections CSV path (default stdout)")
    p_detect.set_defaults(func=cmd_detect)

    p_sim = sub.add_parser("simulate", help="write a reproducible test scenario")
    p_sim.add_argument(
        "--scenario",
        required=True,
        choices=[
            "target-constant-accel",
            "target-random-accel",
            "edge",
            "peak",
            "change",
        ],
        help="scenario name",
    )
    p_sim.add_argument("--seed", type=int, default=0, help="random seed")
    p_sim.add_argument("--n-samples", type=int, default=None, help="record length")
    p_sim.add_argument("--noise-std", type=float, default=0.5, help="measurement noise deviation")
    p_sim.add_argument("--ts", type=float, default=0.01, help="sample period (target scenarios)")
    p_sim.add_argument("--x0", type=float, default=1000.0, help="initial position (target)")
    p_sim.add_argument("--v0", type=float, default=20.0, help="initial velocity (target)")
    p_sim.add_argument(
        "--accel",
        type=float,
        default=None,
        help="constant acceleration, or its deviation for the random variant",
    )
    p_sim.add_argument("--out", default=None, help="scenario CSV path (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (DesignError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
