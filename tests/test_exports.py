"""Every exported name resolves, so deletions leave no stale exports."""

import importlib
import pkgutil

import pytest

import erlangreg

_MODULES = sorted(info.name for info in pkgutil.iter_modules(erlangreg.__path__))


@pytest.mark.parametrize("module", ["erlangreg"] + [f"erlangreg.{m}" for m in _MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from erlangreg import *", namespace)
    assert set(erlangreg.__all__) <= set(namespace)


# The public surface, pinned: adding or removing an export is a deliberate
# edit here.  Helpers that only the package itself calls (steady states,
# basis changes, the synthesis matrix, the scenario noise source, the DC
# group delay behind response_report) stay importable from their modules
# but are not exported.  Streams are objects: the estimator and the
# detectors own their state, and run_sequence is the one function that
# takes a state and returns it.
PUBLIC_NAMES = {
    "WeightSpec", "WeightMoments", "DispersionReport", "erlang_sum", "weight_moments",
    "dispersion",
    "run_block",
    "DesignError", "IllConditionedDesignError", "DesignSpec", "FilterRealization",
    "VrfReport", "vrf_matrix", "optimal_delay", "build_realization",
    "ResponseReport", "response_matrix", "response_report",
    "EstimatorState", "EstimateFrame", "SequenceResult", "StreamingEstimator", "run_sequence",
    "Event", "EdgeDetector", "PeakDetector", "ChangeDetector",
    "TargetScenario", "simulate_target", "synth_edge_waveform", "synth_peak_waveform",
    "synth_change_waveform",
    "design_to_document", "document_to_json", "document_from_json",
    "realization_from_document",
}


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 36
    assert set(erlangreg.__all__) == PUBLIC_NAMES | {"__version__"}
