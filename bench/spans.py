"""Per-layer spans around calls into the package, recorded from outside it.

Tracer.install() replaces each entry point named in SPANS with a timing
wrapper, wherever the package holds a reference to it (module attributes,
re-exports and class attributes), and uninstall() puts the originals back.
A name that no longer exists is recorded as missing instead of failing, so
refactors that delete or merge functions leave the trace usable; private
names are wrapped only when present.

Each span records calls, inclusive time, self time (inclusive minus the
time of wrapped calls made inside it) and entries (calls made from outside
its own layer).  layer_metrics() turns a snapshot of those into the
per-layer metrics the benchmark reports.
"""

import importlib
import statistics
import sys
import time
from collections import defaultdict


def _stage_samples(args, result):
    return args[0].order * len(args[1])


def _text_bytes_out(args, result):
    return len(result)


def _text_bytes_in(args, result):
    return len(args[0])


# (layer, name inside erlangreg.<layer>, options).  keep: store every call's
# duration; count: (counter, hook(args, result) -> amount); generator: time
# each item the generator yields instead of the call that creates it.
SPANS = [
    ("cli", "cmd_design", {}),
    ("cli", "cmd_analyze", {}),
    ("cli", "cmd_run", {}),
    ("cli", "cmd_detect", {}),
    ("cli", "_numeric_column", {"generator": "cli.rows_in"}),
    ("document", "design_to_document", {}),
    ("document", "document_to_json", {"count": ("document.bytes", _text_bytes_out)}),
    ("document", "document_from_json", {"count": ("document.bytes", _text_bytes_in)}),
    ("document", "realization_from_document", {}),
    ("design", "build_realization", {}),
    ("variance", "optimal_delay", {}),
    ("variance", "vrf_matrix", {}),
    ("weights", "erlang_sum", {}),
    ("response", "response_report", {}),
    ("response", "response_matrix", {}),
    ("response", "bandwidth", {}),
    ("response", "frequency_response", {}),
    ("network", "run_block", {"count": ("network.stage_samples", _stage_samples)}),
    ("estimator", "run_sequence", {}),
    ("estimator", "update", {}),
    ("estimator", "StreamingEstimator.update", {"keep": True}),
    ("estimator", "StreamingEstimator.extend", {}),
    ("detectors", "EdgeDetector.update", {"keep": True}),
    ("detectors", "PeakDetector.update", {"keep": True}),
    ("detectors", "ChangeDetector.update", {"keep": True}),
    ("detectors", "EdgeDetector.run", {}),
    ("detectors", "PeakDetector.run", {}),
    ("detectors", "ChangeDetector.run", {}),
    ("detectors", "_RunMarker.update", {}),
    ("detectors", "_RunMarker.flush", {}),
]


class Tracer:
    """Span statistics for one process; install() it around the traced work."""

    def __init__(self):
        self.spans = {}                      # name -> [calls, inclusive, self, entries]
        self.durations = defaultdict(list)   # name -> seconds per call (keep spans)
        self.counters = defaultdict(float)
        self.missing = set()                 # span or counter names not measurable
        self._stack = []
        self._undo = []

    # -- installation -----------------------------------------------------
    def install(self):
        for layer, name, options in SPANS:
            full = f"{layer}.{name}"
            try:
                module = importlib.import_module(f"erlangreg.{layer}")
            except ImportError:
                self._mark_missing(full, options)
                continue
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self._mark_missing(full, options)
                continue
            self.spans.setdefault(full, [0, 0.0, 0.0, 0])
            if "generator" in options:
                wrapper = self._wrap_generator(full, layer, original, options["generator"])
            else:
                wrapper = self._wrap(full, layer, original, options)
            if owner is module:
                self._patch_everywhere(original, wrapper)
            else:
                had = attr in vars(owner)
                prior = vars(owner).get(attr)
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, had, prior))

    def uninstall(self):
        for owner, attr, had, prior in reversed(self._undo):
            if had:
                setattr(owner, attr, prior)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _mark_missing(self, full, options):
        self.missing.add(full)
        if "generator" in options:
            self.missing.add(options["generator"])
        if "count" in options:
            self.missing.add(options["count"][0])

    def _patch_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "erlangreg" or mod_name.startswith("erlangreg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, True, original))

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, full, layer, fn, options):
        stack, stat, perf = self._stack, self.spans[full], time.perf_counter
        durations = self.durations[full] if options.get("keep") else None
        counter, hook = options.get("count", (None, None))

        def wrapper(*args, **kwargs):
            frame = [0.0, layer]
            entry = not stack or stack[-1][1] != layer
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                stat[3] += entry
                if durations is not None:
                    durations.append(elapsed)
            if hook is not None:
                try:
                    self.counters[counter] += hook(args, result)
                except (AttributeError, TypeError, IndexError):
                    self.missing.add(counter)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, full, layer, fn, counter):
        stack, stat, perf, counters = self._stack, self.spans[full], time.perf_counter, self.counters

        def wrapper(*args, **kwargs):
            stat[0] += 1
            stat[3] += not stack or stack[-1][1] != layer
            inner = fn(*args, **kwargs)
            while True:
                start = perf()
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = perf() - start
                    stat[1] += elapsed
                    stat[2] += elapsed
                    if stack:
                        stack[-1][0] += elapsed
                counters[counter] += 1
                yield value

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------
    def snapshot(self):
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "durations": {k: list(v) for k, v in self.durations.items()},
            "counters": dict(self.counters),
            "missing": sorted(self.missing),
        }


def merge(snapshots):
    """Sum several processes' snapshots into one."""
    out = {"spans": {}, "durations": defaultdict(list), "counters": defaultdict(float),
           "missing": set()}
    for snap in snapshots:
        for name, values in snap["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, values in snap["durations"].items():
            out["durations"][name].extend(values)
        for name, value in snap["counters"].items():
            out["counters"][name] += value
        out["missing"].update(snap["missing"])
    # A span measured in any process is not missing.
    out["missing"] -= set(out["spans"]) | set(out["counters"])
    out["missing"] = sorted(out["missing"])
    return out


# name -> (unit, kind, span or counter names).  Times named *_self_s or
# format_s/dump_s are self times; other *_s are inclusive.
TRACED = {
    "cli.parse_s": ("s", "incl", ["cli._numeric_column"]),
    "cli.format_s": ("s", "self", ["cli.cmd_design", "cli.cmd_analyze", "cli.cmd_run",
                                   "cli.cmd_detect"]),
    "cli.rows_in": ("count", "counter", ["cli.rows_in"]),
    "document.load_s": ("s", "incl", ["document.document_from_json",
                                      "document.realization_from_document"]),
    "document.dump_s": ("s", "self", ["document.design_to_document",
                                      "document.document_to_json"]),
    "document.bytes": ("B", "counter", ["document.bytes"]),
    "design.build_s": ("s", "incl", ["design.build_realization"]),
    "variance.optimal_delay_s": ("s", "incl", ["variance.optimal_delay"]),
    "variance.vrf_matrix_s": ("s", "incl", ["variance.vrf_matrix"]),
    "weights.erlang_sum_s": ("s", "incl", ["weights.erlang_sum"]),
    "weights.erlang_sum_calls": ("count", "calls", ["weights.erlang_sum"]),
    "response.report_s": ("s", "incl", ["response.response_report"]),
    "response.response_matrix_s": ("s", "incl", ["response.response_matrix"]),
    "response.bandwidth_s": ("s", "incl", ["response.bandwidth"]),
    "response.frequency_response_calls": ("count", "calls", ["response.frequency_response"]),
    "network.run_block_s": ("s", "incl", ["network.run_block"]),
    "network.run_block_calls": ("count", "calls", ["network.run_block"]),
    "network.stage_samples": ("count", "counter", ["network.stage_samples"]),
    "estimator.run_sequence_self_s": ("s", "self", ["estimator.run_sequence"]),
    "estimator.calls": ("count", "entries", [
        "estimator.run_sequence", "estimator.update", "estimator.StreamingEstimator.update",
        "estimator.StreamingEstimator.extend"]),
    "estimator.update_us.p50": ("us", "p50_us", ["estimator.StreamingEstimator.update"]),
    "detectors.run_self_s": ("s", "self", ["detectors.EdgeDetector.run",
                                           "detectors.PeakDetector.run",
                                           "detectors.ChangeDetector.run"]),
    "detectors.marker_s": ("s", "incl", ["detectors._RunMarker.update",
                                         "detectors._RunMarker.flush"]),
    "detectors.update_us.p50": ("us", "p50_us", ["detectors.EdgeDetector.update",
                                                 "detectors.PeakDetector.update",
                                                 "detectors.ChangeDetector.update"]),
}


def layer_metrics(snapshot):
    """name -> value from a (merged) snapshot; None marks a missing metric."""
    spans, counters = snapshot["spans"], snapshot["counters"]
    out = {}
    for name, (_, kind, sources) in TRACED.items():
        if kind == "counter":
            present = [s for s in sources if s not in snapshot["missing"]]
        else:
            present = [s for s in sources if s in spans]
        if not present:
            out[name] = None
        elif kind == "counter":
            out[name] = float(sum(counters.get(s, 0.0) for s in present))
        elif kind == "p50_us":
            values = [d for s in present for d in snapshot["durations"].get(s, [])]
            out[name] = statistics.median(values) * 1e6 if values else 0.0
        else:
            column = {"calls": 0, "incl": 1, "self": 2, "entries": 3}[kind]
            out[name] = float(sum(spans[s][column] for s in present))
    return out
