"""Command-line front end: design, analyze, run, detect, simulate.

The JSON design document written by `design` is the only contract between
commands; every other command loads one and uses its stored matrices as
they are.  Data travels as headered CSV with 17-significant-digit floats,
so files round-trip losslessly and diff cleanly.  Every float field is
exactly what '%.17g' writes; _csvtext lays out whole blocks of rows in
numpy, with exact integer arithmetic for finite 1e-11 <= |x| < 1e15 and
'%.17g' itself for every other value.

Every command writes bytes to a binary stream: a file opened "wb", or
standard output's buffer after its text layer is flushed.  A command that
writes CSV creates one _csvtext.CsvWriter on that stream and passes every
block through it, so all blocks are laid out in the writer's one bytearray
and go out without a text layer.  Fresh buffers for every block cost a
`run` of 1e6 rows 98k-134k minor page faults; the reused one, about 8k,
5k of them the interpreter's and numpy's start-up.

Every command reads bytes too, a file opened "rb" or standard input's
buffer.  json.loads reads a design document's bytes as UTF-8, -16 or -32,
so `--design -` loads what `--design PATH` loads under any locale.

`run` and `detect` stream their input in blocks of 8192 values, counted
from the first value, so their memory stays flat as the input grows and
no whole-input product rounds differently with the BLAS thread count.
They read it by one rule for a file and standard input: its text is that
of open(path, newline="", errors="surrogateescape").  They read 64 KB
chunks split at each newline and parse each line with float().  A chunk
whose bytes the text layer could read otherwise (a byte outside ASCII
after line 1, a carriage return not before a newline, a NUL, a quote), a
line that is not one finite number, or one longer than the csv field
limit sends its block and the rest of the input to the line parser, which
names the bad line.
`detect` holds back only the rows an open exceedance run may still mark.
Input rejected in its first block leaves no output file; a bad row in a
later block exits 3 and leaves the rows written before it.

Standard input feeds one reader: `run` or `detect` with `--design -` (or
`--design-b -`) and no `--input` file is a usage error.  So is an output
that names a file the command reads (analyze's summary at its default
path too), and an `analyze --summary-out` that names its `--out`, `-`
included: opening the output would truncate it.

Exit codes: 0 success, 2 usage error, 3 numerical or data rejection.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import csv
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from ._csvtext import CsvWriter
from .design import DesignError, DesignSpec, build_realization
from .detectors import ChangeDetector, EdgeDetector, PeakDetector
from .document import (
    design_to_document,
    document_from_json,
    document_to_json,
    realization_from_document,
)
from .estimator import StreamingEstimator
from .network import _PIECE
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

# One input block is one whole piece of the stream's grid, the sample
# numbers where run_block cuts a stream, so the CLI's floats are those of
# one library call.
_RUN_CHUNK = _PIECE
# Bytes per read of a column: less than csv.field_size_limit()'s default.
_READ = 1 << 16


@contextlib.contextmanager
def _open_out(path):
    """A binary stream to path, or to standard output for None and '-'."""
    if path is None or path == "-":
        sys.stdout.flush()
        yield sys.stdout.buffer
    else:
        with open(path, "wb") as fh:
            yield fh


@contextlib.contextmanager
def _open_in(path):
    """A binary stream of path, or standard input's buffer for None and '-'."""
    if path is None or path == "-":
        yield sys.stdin.buffer
    else:
        with open(path, "rb") as fh:
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


def _numeric_column(rows, start=1):
    """Yield floats from the csv rows of a strictly single-column CSV.

    rows are numbered from start.  A non-numeric row 1 is accepted as the
    header; any later non-numeric or multi-field row is an error naming its
    line, and so is any NaN or infinite value (a `nan` first row included);
    the estimator would reject it too, but by sample index, not by line.
    So is a field longer than csv.field_size_limit().  Blank rows (for
    example a trailing newline) are skipped.
    """
    lineno = start - 1
    try:
        for lineno, row in enumerate(rows, start=start):
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
    except csv.Error as exc:
        raise ValueError(f"line {lineno + 1}: {exc}") from None


class _Rest(io.RawIOBase):
    """The bytes of head, then the rest of stream; closing it leaves stream open."""

    def __init__(self, head, stream):
        self._head = memoryview(head)
        self._stream = stream

    def readable(self):
        return True

    def readinto(self, b):
        taken = min(len(b), len(self._head))
        b[:taken] = self._head[:taken]
        self._head = self._head[taken:]
        return taken or self._stream.readinto(b)


def _first_row(line):
    """The csv row of text line 1, or None if the text layer's line 1 differs.

    The text layer also ends a line at a carriage return, which csv rejects
    inside a line; a quoted field left open runs on into the next line; and
    csv before Python 3.11 rejects a NUL.
    """
    if "\r" in line[:-1] or "\0" in line:
        return None
    rows = csv.reader([line + "\n", ""])
    row = next(rows)
    return row if rows.line_num == 1 else None


def _column_blocks(fh):
    """Yield the values of a single-column CSV as float64 arrays of _RUN_CHUNK.

    fh is a binary stream.  Every array but the last holds exactly
    _RUN_CHUNK values, counted from the first value, so results do not
    depend on where the lines fall.  The stream's text is read as by
    open(path, newline="", errors="surrogateescape"): the locale's codec,
    csv's line ends, and an undecodable byte kept as a lone surrogate, which
    then fails as a numbered "not numeric" line.

    The stream is read in chunks of _READ bytes, each split at every
    newline into bytes lines.  Line 1 (header or value) is decoded and goes
    through _numeric_column, unless the text layer would read it otherwise
    (_first_row).  Each later block of lines goes through float() and one
    isfinite check.  Bytes and text lines can part only where a chunk
    holds a byte outside ASCII, a carriage return not directly before a
    newline, a NUL or a quote.  Such a chunk, a line longer than _READ or
    than csv.field_size_limit(), a block that fails float() or isfinite,
    or a codec that does not read ASCII as ASCII sends its block and the
    rest of the stream to _numeric_column, numbered from the block's first
    line, so every input is accepted or rejected by its rules and messages.

    An unbuffered stream (io.RawIOBase), which may return a few bytes a
    read, is read through an io.BufferedReader, so each chunk is one full
    read; the reader is detached when the blocks end, which leaves fh open.
    """
    if isinstance(fh, io.RawIOBase):
        buffered = io.BufferedReader(fh, _READ)
        try:
            yield from _column_blocks(buffered)
        finally:
            buffered.detach()
        return
    limit = csv.field_size_limit()
    codec = codecs.lookup(io.TextIOWrapper(io.BytesIO()).encoding).name
    lineno, head = 1, None      # the block's first line; its values before pending
    pending, tail = [], b""     # the block's whole lines from there; the line after them

    def text_rest():
        """_numeric_column's blocks from the block's first line on."""
        rest = _Rest(b"\n".join([*pending, tail]), fh)
        text = io.TextIOWrapper(rest, errors="surrogateescape", newline="")
        values = itertools.chain(head or (), _numeric_column(csv.reader(text), lineno))
        while (block := np.fromiter(itertools.islice(values, _RUN_CHUNK), float)).size:
            yield block

    if codec not in ("utf-8", "ascii"):
        yield from text_rest()
        return
    eof = False
    while not eof:
        chunk = fh.read(_READ)
        eof = not chunk
        data = tail + chunk
        lines = data.split(b"\n")
        tail = lines.pop()
        if eof and tail:
            lines.append(tail)
            tail = b""
        pending += lines
        if len(tail) > _READ or len(data) > limit and max(map(len, lines), default=0) > limit:
            yield from text_rest()
            return
        if head is None:
            if not pending:
                continue
            row = _first_row(pending[0].decode(codec, "surrogateescape"))
            if row is None:
                yield from text_rest()
                return
            head = list(_numeric_column([row]))
            data = data[len(pending.pop(0)) + 1:]
            lineno = 2
        if (
            not data.isascii()
            or b"\0" in data
            or b'"' in data
            or b"\r" in data
            and data.count(b"\r") - data.count(b"\r\n") - data.endswith(b"\r")
        ):
            yield from text_rest()
            return
        while len(pending) >= _RUN_CHUNK - len(head) or eof and (head or pending):
            count = min(len(pending), _RUN_CHUNK - len(head))
            try:
                block = np.fromiter(map(float, head + pending[:count]), float, len(head) + count)
            except ValueError:
                block = None
            if block is None or not np.isfinite(block).all():
                yield from text_rest()
                return
            yield block
            del pending[:count]
            lineno += count
            head = []


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
        fh.write(document_to_json(document).encode("ascii"))
    return 0


def _summary_path(args):
    """analyze's summary path: --summary-out, else the CSV's path plus
    '.summary.json', or None when the CSV goes to standard output."""
    if args.summary_out is None and args.out != "-":
        return args.out + ".summary.json"
    return args.summary_out


def cmd_analyze(args) -> int:
    # A usage error leaves nothing written, so the summary path comes first.
    summary_path = _summary_path(args)
    if summary_path is None:
        raise ValueError("--summary-out is required when the CSV goes to stdout")
    realization = _load_design(args.design)
    report = response_report(realization, args.grid_size)

    n_outputs = realization.spec.n_outputs
    header = ["f"]
    for k in range(n_outputs):
        header += [f"h{k}_re", f"h{k}_im"]
    header.append("distortion")
    columns = [report.freqs]
    for h in report.responses:
        columns += [h.real, h.imag]
    columns.append(report.distortion)
    with _open_out(args.out) as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        CsvWriter(fh).write(columns)

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
    with _open_out(summary_path) as fh:
        fh.write((json.dumps(summary, indent=2) + "\n").encode("ascii"))
    return 0


def _read_ahead(blocks):
    """The same blocks, with the first one parsed now.

    Commands read ahead before they open their output, so that input
    rejected in its first block leaves no output file behind.
    """
    first = list(itertools.islice(blocks, 1))
    return itertools.chain(first, blocks)


def cmd_run(args) -> int:
    realization = _load_design(args.design)
    estimator = StreamingEstimator(realization, args.sigma0_sq)
    n_outputs = realization.spec.n_outputs
    header = (
        ["n"]
        + [f"estimate_{k}" for k in range(n_outputs)]
        + ["sigma_eps2"]
        + [f"var_{k}" for k in range(n_outputs)]
    )
    next_n = 0
    with _open_in(args.input) as src:
        blocks = _read_ahead(_column_blocks(src))
        with _open_out(args.out) as dst:
            dst.write((",".join(header) + "\n").encode("ascii"))
            writer = CsvWriter(dst)
            for block in blocks:
                result = estimator.extend(block)
                columns = [*result.estimates, result.sigma_eps2, *result.variances]
                writer.write(columns, start=next_n)
                next_n += block.size
    return 0


def cmd_detect(args) -> int:
    if args.kind != "change" and args.design_b is not None:
        raise ValueError(f"--design-b is for --kind change only, not --kind {args.kind}")
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

    # Rows are written once no later event can land on them: all but those
    # from the open exceedance run's current extremum onward.
    held_n = 0                  # number of the first row not yet written
    held_z = np.empty(0)        # z of the rows from held_n onward
    written_events = 0

    def write(writer, stop):
        nonlocal held_n, held_z, written_events
        count = stop - held_n
        marks = {event.n - held_n: event.kind for event in detector.events[written_events:]}
        written_events = len(detector.events)
        writer.write([held_z[:count]], start=held_n, text=marks)
        held_n, held_z = stop, held_z[count:]

    with _open_in(args.input) as src:
        blocks = _read_ahead(_column_blocks(src))
        with _open_out(args.out) as fh:
            fh.write(b"n,z,event\n")
            writer = CsvWriter(fh)
            for block in blocks:
                held_z = np.concatenate([held_z, detector.run(block)])
                write(writer, detector._settled_count())
            detector.finish()
            write(writer, held_n + len(held_z))
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
            fh.write(b"n,position,velocity,acceleration,measurement\n")
            CsvWriter(fh).write([*truth.T, measurements], start=0)
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
        fh.write(b"n,clean,measurement\n")
        CsvWriter(fh).write([clean, noisy], start=0)
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


def _stdin_readers(args) -> list:
    """The options of a command line that read standard input.

    A design given as '-' reads it, and so does the input of run and
    detect unless it names a file.
    """
    readers = [flag for flag, dest in (("--design", "design"), ("--design-b", "design_b"))
               if getattr(args, dest, None) == "-"]
    if getattr(args, "input", "") in (None, "-"):
        readers.append("--input")
    return readers


def _same_file(a, b) -> bool:
    """Whether two path options name one file; '-' names only itself."""
    if a == b:
        return True
    if "-" in (a, b):
        return False
    try:
        return os.path.samefile(a, b)
    except OSError:  # a path that does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _overwrites(args) -> list:
    """(output, other) option pairs where the output would overwrite the
    other's file.

    An output may not name a file the command reads, and analyze's summary,
    at its default path too, may not name the CSV, standard output ('-')
    included.
    """
    def files(named):
        return [(flag, path) for flag, path in named if path not in (None, "-")]
    summary = _summary_path(args) if hasattr(args, "summary_out") else None
    outputs = files([("--out", args.out), ("--summary-out", summary)])
    inputs = files((flag, getattr(args, dest, None)) for flag, dest in
                   (("--input", "input"), ("--design", "design"), ("--design-b", "design_b")))
    pairs = [(out, given) for out, out_path in outputs for given, in_path in inputs
             if _same_file(out_path, in_path)]
    if summary is not None and _same_file(summary, args.out):
        pairs.append(("--summary-out", "--out"))
    return pairs


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # The first reader would drain standard input and leave the next
        # nothing, so the command is refused before anything is read.
        readers = _stdin_readers(args)
        if len(readers) > 1:
            parser.error(f"standard input can feed only one of {', '.join(readers)}; "
                         f"give the others a file")
        # Opening an output truncates it, so one that names an input would
        # destroy the data before it is read, and analyze's summary would
        # overwrite its CSV.
        clashes = _overwrites(args)
        if clashes:
            parser.error("; ".join(f"{out} names the same file as {other}"
                                   for out, other in clashes) + "; give it another path")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (DesignError, ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
