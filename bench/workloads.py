"""The four benchmark workloads.

Each workload is one closed loop: a single caller issues the next operation
only after the previous one returned, with no extra threads.  A workload
runs until `seconds` have been measured or `ops` operations are done, then
checks what the package returned against the independent references in
reference.py.  Every failed check marks its operation failed; none are
dropped.

Workloads return an Outcome; run.py turns outcomes into metrics.
"""

import contextlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import designs
import signals
import speed
from reference import WlsOracle, event_mismatches, missed_breaks, run_events

EST_TOL = 1e-9      # estimate error allowed per unit of the window's magnitude
SIGMA2_TOL = 1e-6   # relative noise-variance error allowed
# The same, in windows that hold the 1e6 offset segment of stream-block: the
# known cancellation in power - |beta|^2 leaves about 4e-3 there.
SIGMA2_OFFSET_TOL = 1e-2
Z_TOL = 1e-6        # statistic error allowed per unit of |z|
CLI_TOL = 1e-12     # CLI output against the library, per unit of magnitude
RESPONSE_TOL = 1e-7  # response and noise-gain error, relative to the filter's size
CHECK_STRIDE = 997   # sample stride between reference fits


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    ops: int = 0                     # operations attempted
    failed: set = field(default_factory=set)
    latencies: object = ()           # scaled seconds per operation (numpy array)
    work: float = 0.0                # work items (samples, rows, designs) done
    busy: float = 0.0                # scaled seconds inside the timed operations
    raw_busy: float = 0.0            # the same, unscaled
    calibration_ms: float = 0.0      # median calibration loop time (speed.py)
    peak_rss_mb: float = 0.0
    throughput: float = None         # work per second; work / busy when None
    snapshots: list = field(default_factory=list)   # span snapshots of traced children
    windows: object = None           # speed.Windows of the timed operations, if any
    report: dict = field(default_factory=dict)      # name -> (value, unit, note)
    layer: dict = field(default_factory=dict)       # per-layer values measured outside spans
    problems: list = field(default_factory=list)    # human-readable failure notes

    def timed(self, windows):
        """Take the operation times of a speed.Windows as this outcome's."""
        scaled = windows.scaled()
        self.windows = windows
        self.latencies = scaled
        self.busy = float(scaled.sum())
        self.raw_busy = float(windows.times.sum())
        self.calibration_ms = windows.calibration_median()
        return scaled

    def percentile(self, q):
        """Percentile q of the scaled operation times, in seconds (NaN if none)."""
        return float(np.percentile(self.latencies, q)) if len(self.latencies) else math.nan

    def typical(self):
        """Typical scaled operation time: see speed.Windows.typical."""
        if self.windows is not None:
            return self.windows.typical()
        return float(np.median(self.latencies)) if len(self.latencies) else math.nan

    def fail(self, op, note):
        self.failed.add(op)
        if len(self.problems) < 20:
            self.problems.append(note)


class Context:
    """Run-wide settings: the package, the seed, a scratch directory, sizes."""

    def __init__(self, er, seed, workdir, smoke=False):
        self.er, self.seed, self.workdir, self.smoke = er, seed, workdir, smoke
        self.cli = None       # CliBatch input and pipeline, for cli-batch
        self.tracer = None    # spans.Tracer of a traced pass

    def size(self, full, smoke):
        return smoke if self.smoke else full


def _self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def _traced(tracer):
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def _warm_up(work):
    """Run work() before the clock starts.  An exception is not counted here:
    the timed loop meets the same fault and counts it there."""
    try:
        work()
    except Exception:  # noqa: BLE001
        pass


def _deadline(seconds):
    return time.perf_counter() + seconds if seconds is not None else math.inf


class _FitChecker:
    """Compares estimates, noise variance and statistics with batch WLS fits."""

    def __init__(self, realization, outcome):
        spec = realization.spec
        self.oracle = WlsOracle(spec.weight.kappa, spec.weight.p, spec.model_order,
                                spec.n_outputs, spec.delay, spec.sample_period)
        self.vrf = self.oracle.vrf()
        self.outcome = outcome
        self.sigma2_err = 0.0

    def start(self):
        """First sample index with a full reference window."""
        return self.oracle.length - 1

    def fit(self, xs, n):
        return self.oracle.fit(xs[n + 1 - self.oracle.length: n + 1])

    def check(self, op, xs, n, estimates, sigma2, sigma2_tol=SIGMA2_TOL):
        """Check one sample's outputs; returns (reference estimates, sigma2, sigma2 error)."""
        ref_est, ref_sigma2 = self.fit(xs, n)
        scale = 1.0 + float(np.max(np.abs(xs[n + 1 - self.oracle.length: n + 1])))
        err = float(np.max(np.abs(np.asarray(estimates) - ref_est)))
        if not err <= EST_TOL * scale:
            self.outcome.fail(op, f"sample {n}: estimate off by {err:.3g} (scale {scale:.3g})")
        rel = abs(float(sigma2) - ref_sigma2) / ref_sigma2
        self.sigma2_err = max(self.sigma2_err, rel)
        if not rel <= sigma2_tol:
            self.outcome.fail(op, f"sample {n}: sigma2 relative error {rel:.3g}")
        return ref_est, ref_sigma2, rel


def _check_z(outcome, op, n, got, want, what):
    if not abs(got - want) <= Z_TOL * (1.0 + abs(want)):
        outcome.fail(op, f"sample {n}: {what} statistic {got!r}, reference {want!r}")


def _finish(outcome, op, detectors):
    """finish() each detector; a raising one fails operation op."""
    for detector in detectors:
        try:
            detector.finish()
        except Exception as exc:  # counted against the last operation
            outcome.fail(op, f"{type(detector).__name__}.finish: {type(exc).__name__}: {exc}")


def _check_events(outcome, detector, z, threshold, kinds, op_of, what):
    expected = run_events(z, threshold, *kinds)
    got = [(e.n, e.z, e.kind) for e in detector.events]
    for n in event_mismatches(got, expected):
        outcome.fail(op_of(n), f"{what} event mismatch at sample {n}")
    return len(got)


# ---------------------------------------------------------------------------
# stream-sample: per-sample update() on three consumers of each sample


def stream_sample(ctx, seconds=None, ops=None, tracer=None):
    er = ctx.er
    real = designs.build_named(er, designs.WORKLOAD_DESIGNS["stream-sample"])
    base, fast, slow = real["BASE"], real["FAST"], real["SLOW"]
    n_total = ctx.size(1 << 20, 4000)
    xs, _ = signals.trend_signal(signals.rng_for(ctx.seed, 1), n_total)
    out = Outcome()

    def consumers():
        return (er.StreamingEstimator(base), er.EdgeDetector(base, designs.EDGE_THRESHOLD),
                er.ChangeDetector(fast, slow, designs.CHANGE_THRESHOLD))

    # Warm-up on other objects and other data, so lazy set-up and caches
    # are settled before the clock starts.
    def warm_up():
        warm, _ = signals.trend_signal(signals.rng_for(ctx.seed, 2), ctx.size(3000, 200))
        c = consumers()
        for x in warm.tolist():
            c[0].update(x), c[1].update(x), c[2].update(x)

    _warm_up(warm_up)

    est, edge, change = consumers()
    # Every per-sample buffer is filled now, so peak RSS does not grow with
    # the number of samples the run gets through.
    windows = speed.Windows(n_total)
    z_edge = np.full(n_total, np.nan)
    z_change = np.full(n_total, np.nan)
    frames = {}
    limit = min(n_total, ops) if ops is not None else n_total
    deadline = _deadline(seconds)
    perf = time.perf_counter
    values = xs.tolist()
    n = 0
    with _traced(tracer):
        while n < limit:
            x = values[n]
            t0 = perf()
            try:
                frame = est.update(x)
                ze = edge.update(x)
                zc = change.update(x)
            except Exception as exc:  # a failing call ends the loop; it is counted
                out.fail(n, f"sample {n}: {type(exc).__name__}: {exc}")
                n += 1
                break
            t1 = perf()
            windows.add(t1 - t0)
            z_edge[n] = ze
            z_change[n] = zc
            if n % CHECK_STRIDE == 0:
                frames[n] = (frame.estimates.copy(), frame.sigma_eps2)
            n += 1
            if t1 >= deadline:
                break
        _finish(out, n - 1, (edge, change))
    done = n - len(out.failed)
    out.ops = n
    lat = out.timed(windows)
    out.work = done
    out.peak_rss_mb = _self_rss_mb()

    checker = _FitChecker(base, out)
    fast_ref = WlsOracle(*designs.FAST, fast.spec.delay)
    slow_ref = WlsOracle(*designs.SLOW, slow.spec.delay)
    vrf_fast, vrf_slow = fast_ref.vrf()[0, 0], slow_ref.vrf()[0, 0]
    first = max(checker.start(), fast_ref.length - 1, slow_ref.length - 1)
    for m, (estimates, sigma2) in frames.items():
        if m < first or m >= done:
            continue
        ref_est, ref_sigma2, _ = checker.check(m, xs, m, estimates, sigma2)
        _check_z(out, m, m, z_edge[m],
                 ref_est[1] / math.sqrt(ref_sigma2 * checker.vrf[1, 1]), "edge")
        fa, sa = fast_ref.fit(xs[m + 1 - fast_ref.length: m + 1])
        fb, sb = slow_ref.fit(xs[m + 1 - slow_ref.length: m + 1])
        variance = sa * vrf_fast + sb * vrf_slow
        _check_z(out, m, m, z_change[m], (fa[0] - fb[0]) / math.sqrt(variance), "change")
    events = _check_events(out, edge, z_edge[:done], designs.EDGE_THRESHOLD,
                           ("rising-edge", "falling-edge"), lambda i: i, "edge")
    events += _check_events(out, change, z_change[:done], designs.CHANGE_THRESHOLD,
                            ("break-up", "break-down"), lambda i: i, "change")

    note = f"n={done}"
    out.report["sample.latency_us.p50"] = (out.percentile(50) * 1e6, "us", note)
    out.report["sample.latency_us.p99"] = (out.percentile(99) * 1e6, "us", note)
    out.layer["detectors.events"] = events
    exceed = np.concatenate([np.abs(z_edge[:done]) > designs.EDGE_THRESHOLD,
                             np.abs(z_change[:done]) > designs.CHANGE_THRESHOLD])
    out.layer["detectors.exceed_frac"] = float(np.mean(exceed)) if done else 0.0
    out.layer["estimator.sigma2_rel_err_max"] = checker.sigma2_err
    return out


# ---------------------------------------------------------------------------
# stream-block: packets of log-uniform size through the block paths


def stream_block(ctx, seconds=None, ops=None, tracer=None):
    er = ctx.er
    real = designs.build_named(er, designs.WORKLOAD_DESIGNS["stream-block"])
    wide, base, fast, slow = real["WIDE"], real["BASE"], real["FAST"], real["SLOW"]
    round_len = ctx.size(1_000_000, 30_000)
    offset_span = (round_len * 2 // 5, round_len // 2)
    out = Outcome()
    checker = _FitChecker(wide, out)
    stats = {"events": 0, "exceed": 0, "z": 0, "sigma2_clean": 0.0, "sigma2_offset": 0.0}

    def consumers():
        return (er.StreamingEstimator(wide), er.EdgeDetector(base, designs.EDGE_THRESHOLD),
                er.PeakDetector(wide, designs.PEAK_THRESHOLD),
                er.ChangeDetector(fast, slow, designs.CHANGE_THRESHOLD))

    def warm_up():
        warm, _ = signals.trend_signal(signals.rng_for(ctx.seed, 3), ctx.size(20_000, 2000))
        c = consumers()
        pos = 0
        for size in signals.packet_sizes(signals.rng_for(ctx.seed, 4), warm.size):
            chunk = warm[pos:pos + size]
            c[0].extend(chunk), c[1].run(chunk), c[2].run(chunk), c[3].run(chunk)
            pos += size

    _warm_up(warm_up)

    deadline = _deadline(seconds)
    limit = ops if ops is not None else math.inf
    perf = time.perf_counter
    windows = speed.Windows()
    sizes_done = []
    packet = 0
    round_no = 0
    stop = False
    while not stop:
        xs, _ = signals.trend_signal(signals.rng_for(ctx.seed, 10, round_no), round_len,
                                     offset_span)
        sizes = signals.packet_sizes(signals.rng_for(ctx.seed, 20, round_no), round_len)
        est, edge, peak, change = consumers()
        z_parts = ([], [], [])
        sampled = {}
        first_packet = packet
        starts = []
        pos = 0
        with _traced(tracer):
            for size in sizes:
                chunk = xs[pos:pos + size]
                t0 = perf()
                try:
                    result = est.extend(chunk)
                    ze = edge.run(chunk)
                    zp = peak.run(chunk)
                    zc = change.run(chunk)
                except Exception as exc:  # counted; the round cannot continue
                    out.fail(packet, f"packet {packet}: {type(exc).__name__}: {exc}")
                    packet += 1
                    stop = True
                    break
                t1 = perf()
                windows.add(t1 - t0)
                sizes_done.append(size)
                for part, z in zip(z_parts, (ze, zp, zc)):
                    part.append(z)
                for n in range(-(-pos // CHECK_STRIDE) * CHECK_STRIDE, pos + size, CHECK_STRIDE):
                    sampled[n] = (result.estimates[:, n - pos].copy(),
                                  float(result.sigma_eps2[n - pos]))
                starts.append(pos)
                pos += size
                packet += 1
                if packet >= limit or t1 >= deadline:
                    stop = True
                    break
            _finish(out, packet - 1, (edge, peak, change))

        starts_arr = np.asarray(starts, dtype=np.int64)

        def op_of(n, first_packet=first_packet, starts_arr=starts_arr):
            return first_packet + max(int(np.searchsorted(starts_arr, n, side="right")) - 1, 0)

        for n, (estimates, sigma2) in sampled.items():
            if n < checker.start():
                continue
            touched = offset_span[0] <= n < offset_span[1] + checker.oracle.length
            tol = SIGMA2_OFFSET_TOL if touched else SIGMA2_TOL
            *_, rel = checker.check(op_of(n), xs, n, estimates, sigma2, tol)
            key = "sigma2_offset" if touched else "sigma2_clean"
            stats[key] = max(stats[key], rel)
        for detector, part, threshold, kinds, what in (
            (edge, z_parts[0], designs.EDGE_THRESHOLD, ("rising-edge", "falling-edge"), "edge"),
            (peak, z_parts[1], designs.PEAK_THRESHOLD, ("peak", None), "peak"),
            (change, z_parts[2], designs.CHANGE_THRESHOLD, ("break-up", "break-down"), "change"),
        ):
            z = np.concatenate(part) if part else np.empty(0)
            stats["events"] += _check_events(out, detector, z, threshold, kinds, op_of, what)
            stats["exceed"] += int(np.count_nonzero(np.abs(z) > threshold))
            stats["z"] += z.size
        round_no += 1

    out.ops = packet
    lat = out.timed(windows)
    out.work = float(sum(sizes_done))
    out.peak_rss_mb = _self_rss_mb()
    note = f"n={lat.size} packets"
    out.report["block.samples_per_s"] = (out.work / out.busy, "1/s", f"{int(out.work)} samples")
    out.report["block.packet_latency_ms.p50"] = (out.percentile(50) * 1e3, "ms", note)
    out.report["block.packet_latency_ms.p99"] = (out.percentile(99) * 1e3, "ms", note)
    out.report["sigma2_rel_err_max.clean"] = (stats["sigma2_clean"], "rel",
                                              f"gated at {SIGMA2_TOL:g}")
    out.report["sigma2_rel_err_max.offset"] = (stats["sigma2_offset"], "rel",
                                               f"1e6 offset segment, gated at {SIGMA2_OFFSET_TOL:g}")
    out.layer["detectors.events"] = stats["events"]
    out.layer["detectors.exceed_frac"] = stats["exceed"] / max(stats["z"], 1)
    out.layer["estimator.sigma2_rel_err_max"] = checker.sigma2_err
    return out


# ---------------------------------------------------------------------------
# design-sweep: the whole design-to-analysis chain over a fixed design grid


def _design_chain(er, design):
    realization = designs.build(er, design)
    text = er.document_to_json(er.design_to_document(realization, "auto"))
    loaded = er.realization_from_document(er.document_from_json(text))
    return realization, loaded, er.response_report(loaded, 2048)


def _check_design(out, op, design, realization, loaded, report):
    kappa, p, kx, kt = design
    q = realization.spec.delay
    if loaded.spec.delay != q or not np.array_equal(loaded.state_output,
                                                      realization.state_output) \
            or not np.array_equal(loaded.vrf, realization.vrf):
        out.fail(op, f"{design}: document round trip changed the realization")
    ref = WlsOracle(kappa, p, kx, kt, q)
    size = np.abs(ref.rows).sum(axis=1)
    vrf_ref = ref.vrf()
    vrf_err = np.abs(realization.vrf - vrf_ref) / np.sqrt(np.outer(np.diag(vrf_ref),
                                                                   np.diag(vrf_ref)))
    if not np.max(vrf_err) <= RESPONSE_TOL:
        out.fail(op, f"{design}: noise gain off by {np.max(vrf_err):.3g}")
    if kx > 1:
        gain = [float((ref.rows_at(d)[0] ** 2).sum()) for d in (q - 0.01, q, q + 0.01)]
        if not gain[1] <= min(gain[0], gain[2]) * (1 + 1e-12):
            out.fail(op, f"{design}: delay {q} is not the minimum-variance delay")
    picks = np.linspace(0, report.freqs.size - 1, 16).astype(int)
    omegas = 2 * np.pi * report.freqs[picks]
    h_ref = ref.response(omegas)
    h_err = np.abs(report.responses[:, picks] - h_ref) / size[:, None]
    if not np.max(h_err) <= RESPONSE_TOL:
        out.fail(op, f"{design}: frequency response off by {np.max(h_err):.3g}")

    def dist(f):
        w = 2 * np.pi * np.atleast_1d(f)
        return np.abs(ref.response(w)[0] - np.exp(-1j * q * w)) ** 2

    if report.f_c is not None:
        if not abs(float(dist(report.f_c)[0]) - 0.5) <= 1e-3:
            out.fail(op, f"{design}: distortion at f_c={report.f_c} is not 1/2")
    elif np.any(dist(report.freqs[picks]) >= 0.5):
        out.fail(op, f"{design}: no cutoff reported but distortion reaches 1/2")
    # With one coefficient the output does not depend on the delay, so only
    # higher orders must show it as their DC group delay.
    if kx > 1 and not abs(report.group_delay_dc - q) <= 1e-4 * max(1.0, q):
        out.fail(op, f"{design}: DC group delay {report.group_delay_dc} vs delay {q}")


def design_sweep(ctx, seconds=None, ops=None, tracer=None):
    er = ctx.er
    out = Outcome()
    order = designs.sweep_order(signals.rng_for(ctx.seed, 30))
    for i in order[:2]:
        _warm_up(lambda: _design_chain(er, designs.SWEEP[i]))
    deadline = _deadline(seconds)
    limit = ops if ops is not None else math.inf
    perf = time.perf_counter
    windows = speed.Windows()
    k = 0
    with _traced(tracer):  # the checks call nothing in the package
        while k < limit:
            design = designs.SWEEP[order[k % len(order)]]
            t0 = perf()
            try:
                result = _design_chain(er, design)
            except Exception as exc:  # counted as a failed design
                out.fail(k, f"{design}: {type(exc).__name__}: {exc}")
                result = None
            t1 = perf()
            if result is not None:
                windows.add(t1 - t0)
                # Checked off the clock and then dropped, so memory stays flat.
                _check_design(out, k, design, *result)
            k += 1
            if t1 >= deadline:
                break
    out.ops = k
    lat = out.timed(windows)
    out.work = lat.size
    out.peak_rss_mb = _self_rss_mb()
    note = f"n={lat.size} designs"
    out.report["design.latency_ms.p50"] = (out.percentile(50) * 1e3, "ms", note)
    out.report["design.latency_ms.p90"] = (out.percentile(90) * 1e3, "ms", note)
    return out


def accepted_designs(er):
    """Designs of the ROADMAP conditioning grid that build_realization accepts."""
    accepted = 0
    for kappa, p, kx in designs.ROADMAP_GRID:
        try:
            designs.build(er, (kappa, p, kx, 1))
            accepted += 1
        except er.DesignError:
            pass
    return accepted


# ---------------------------------------------------------------------------
# cli-batch: the command-line pipeline as separate processes on a 1e6-row file


class CliBatch:
    """Input file and pipeline for cli-batch; one pass = five CLI processes."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.rows = ctx.size(1_000_000, 20_000)
        self.xs, self.breaks = signals.trend_signal(signals.rng_for(ctx.seed, 40), self.rows)
        self.data = os.path.join(ctx.workdir, "data.csv")
        with open(self.data, "w") as fh:
            fh.write("x\n")
            fh.write("\n".join(map(repr, self.xs.tolist())))
            fh.write("\n")
        self.base = os.path.join(ctx.workdir, "base.json")

    def path(self, name):
        return os.path.join(self.ctx.workdir, name)

    def commands(self):
        """(label, argv tail) of one pass; the slow design reads the fast delay."""
        fk, fp, fkx, fkt = designs.FAST
        sk, sp, skx, skt = designs.SLOW
        yield "design", ["design", "--kappa", str(fk), "--p", repr(fp), "--kx", str(fkx),
                         "--kt", str(fkt), "--out", self.path("fast.json")]
        try:
            with open(self.path("fast.json")) as fh:
                q = repr(json.load(fh)["spec"]["delay"])
        except (OSError, ValueError, KeyError, TypeError):
            q = "auto"      # the fast design failed; detect will fail and be counted
        yield "design", ["design", "--kappa", str(sk), "--p", repr(sp), "--kx", str(skx),
                         "--kt", str(skt), "--q", q, "--out", self.path("slow.json")]
        yield "analyze", ["analyze", "--design", self.path("fast.json"),
                          "--out", self.path("response.csv")]
        yield "run", ["run", "--design", self.base, "--input", self.data,
                      "--out", self.path("run.csv")]
        yield "detect", ["detect", "--kind", "change", "--design", self.path("fast.json"),
                         "--design-b", self.path("slow.json"),
                         "--threshold", repr(designs.CHANGE_THRESHOLD),
                         "--input", self.data, "--out", self.path("detect.csv")]

    def outputs(self):
        names = ["fast.json", "slow.json", "response.csv", "response.csv.summary.json",
                 "run.csv", "detect.csv"]
        return [self.path(n) for n in names]


def cli_batch(ctx, seconds=None, ops=None, tracer=None):
    batch = ctx.cli
    out = Outcome()
    env = dict(os.environ)
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    limit = ops if ops is not None else math.inf
    walls = {"design": [], "analyze": [], "run": [], "detect": []}
    raw = {"run": [], "detect": []}
    calibrations = []
    pass_times = []     # scaled wall of each pass whose five commands all succeeded
    passes = 0
    start = time.perf_counter()
    while out.ops < limit:
        pass_time = 0.0
        for label, tail in batch.commands():
            op = out.ops
            out.ops += 1
            if tracer is not None:
                snap = batch.path(f"trace-{op}.json")
                argv = [sys.executable, os.path.join(bench_dir, "traced_cli.py"), snap, "--"]
                out.snapshots.append(snap)
            else:
                argv = [sys.executable, "-m", "erlangreg.cli"]
            with open(batch.path("stderr.txt"), "w+") as err:
                code, wall, scaled, rss = speed.run_process(argv + tail, env, stderr=err)
                err.seek(0)
                message = err.read().strip()
            out.peak_rss_mb = max(out.peak_rss_mb, rss)
            if code != 0:
                out.fail(op, f"{label} exited with {code}: {message[-300:]}")
                pass_time = math.nan
                continue
            pass_time += scaled
            out.busy += scaled
            out.raw_busy += wall
            calibrations.append(speed.NOMINAL_MS * wall / scaled)
            walls[label].append(scaled)
            raw.get(label, []).append(wall)
        if math.isfinite(pass_time):
            pass_times.append(pass_time)
        passes += 1
        elapsed = time.perf_counter() - start
        # A pass outlasts short runs; start another only if it fits.
        if seconds is not None and elapsed * (passes + 1) / passes > seconds:
            break
    out.latencies = np.asarray(pass_times)
    out.calibration_ms = float(np.median(calibrations)) if calibrations else math.nan

    def median(values):
        return float(np.median(values)) if values else math.nan

    run_s, detect_s = median(walls["run"]), median(walls["detect"])
    out.work = 2 * batch.rows
    rows = f"{batch.rows} rows"
    out.report["cli.run.samples_per_s"] = (batch.rows / run_s, "1/s", rows)
    out.report["cli.detect.samples_per_s"] = (batch.rows / detect_s, "1/s", rows)
    out.report["cli.design_s"] = (float(np.mean(walls["design"] or [math.nan])), "s",
                                  "process wall, mean of fast and slow")
    out.report["cli.analyze_s"] = (median(walls["analyze"]), "s", "process wall")
    # The test gate times the unscaled wall clock, so its margin is unscaled too.
    out.report["cli.run.gate_margin"] = (batch.rows / median(raw["run"]) / 1e5, "x",
                                         "unscaled, over the 1e5 samples/s test gate")
    out.throughput = 2 * batch.rows / (run_s + detect_s)
    _check_cli(ctx, batch, out, first_op=out.ops - 5)
    out.layer["cli.bytes_out"] = sum(os.path.getsize(p) for p in batch.outputs()
                                     if os.path.exists(p))
    return out


def _check_cli(ctx, batch, out, first_op):
    """Check the last pass's outputs; ops first_op..first_op+4 are its commands."""
    er = ctx.er
    op_design, op_analyze, op_run, op_detect = first_op + 1, first_op + 2, first_op + 3, first_op + 4
    try:
        with open(batch.path("fast.json")) as fh:
            fast = er.realization_from_document(er.document_from_json(fh.read()))
        with open(batch.path("slow.json")) as fh:
            slow = er.realization_from_document(er.document_from_json(fh.read()))
        with open(batch.base) as fh:
            base = er.realization_from_document(er.document_from_json(fh.read()))
    except (OSError, ValueError) as exc:
        out.fail(op_design, f"design documents unusable: {exc}")
        return
    if slow.spec.delay != fast.spec.delay:
        out.fail(op_design, "slow design does not share the fast delay")

    # analyze: response table against the WLS impulse response.
    try:
        table = np.loadtxt(batch.path("response.csv"), delimiter=",", skiprows=1, ndmin=2)
        with open(batch.path("response.csv.summary.json")) as fh:
            json.load(fh)["cutoff_frequency"]
        kt = fast.spec.n_outputs
        h = table[:, 1:1 + 2 * kt:2] + 1j * table[:, 2:2 + 2 * kt:2]
        ref = WlsOracle(*designs.FAST, fast.spec.delay)
        picks = np.linspace(0, table.shape[0] - 1, 16).astype(int)
        err = np.abs(h[picks].T - ref.response(2 * np.pi * table[picks, 0]))
        if table.shape[0] != 2048 or not np.max(err / np.abs(ref.rows).sum(axis=1)[:, None]) \
                <= RESPONSE_TOL:
            out.fail(op_analyze, "analyze response table disagrees with the reference")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        out.fail(op_analyze, f"analyze output unusable: {exc}")

    xs = batch.xs
    # run: every row equals the library's block run; sampled rows match WLS.
    checker = _FitChecker(base, out)
    try:
        rows = np.loadtxt(batch.path("run.csv"), delimiter=",", skiprows=1, ndmin=2)
        lib, _ = er.run_sequence(base, xs)
        want = np.vstack([np.arange(xs.size), lib.estimates, lib.sigma_eps2, lib.variances]).T
        scale = 1.0 + np.abs(want).max(axis=0)
        if rows.shape != want.shape or not np.all(np.abs(rows - want) <= CLI_TOL * scale):
            out.fail(op_run, "run rows differ from run_sequence on the same data")
        kt = base.spec.n_outputs
        for n in range(checker.start(), xs.size, CHECK_STRIDE * 10):
            checker.check(op_run, xs, n, rows[n, 1:1 + kt], rows[n, 1 + kt])
    except (OSError, ValueError, IndexError) as exc:
        out.fail(op_run, f"run output unusable: {exc}")
    out.layer["estimator.sigma2_rel_err_max"] = checker.sigma2_err

    # detect: events equal a run-extremum pass over z; planted breaks found.
    try:
        zcol = np.loadtxt(batch.path("detect.csv"), delimiter=",", skiprows=1, usecols=1)
        got = []
        with open(batch.path("detect.csv")) as fh:
            next(fh)
            for line in fh:
                n, z, kind = line.rstrip("\n").split(",")
                if kind:
                    got.append((int(n), float(z), kind))
        expected = run_events(zcol, designs.CHANGE_THRESHOLD, "break-up", "break-down")
        if zcol.size != xs.size or event_mismatches(got, expected):
            out.fail(op_detect, "detect events differ from a run-extremum pass over z")
        missed = missed_breaks(batch.breaks, [e[0] for e in got])
        if missed:
            out.fail(op_detect, f"detect missed {len(missed)} planted breaks, first {missed[0]}")
        out.layer["detectors.events"] = len(got)
        out.layer["detectors.exceed_frac"] = float(
            np.mean(np.abs(zcol) > designs.CHANGE_THRESHOLD))
    except (OSError, ValueError, IndexError) as exc:
        out.fail(op_detect, f"detect output unusable: {exc}")


WORKLOADS = {
    "cli-batch": cli_batch,
    "stream-sample": stream_sample,
    "stream-block": stream_block,
    "design-sweep": design_sweep,
}
