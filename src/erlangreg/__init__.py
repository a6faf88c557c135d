"""Recursive polynomial regression filters with Erlang error weights.

Design-time analysis (noise gains, optimal delays, frequency response,
weight dispersion) and a constant-cost streaming runtime (derivative
estimates with covariance, edge/peak/trend-break detectors), plus
reproducible test scenarios and a file-driven command line.
"""

from .weights import (
    WeightSpec,
    WeightMoments,
    DispersionReport,
    erlang_sum,
    weight_moments,
    dispersion,
)
from .network import run_block
from .design import (
    DesignError,
    IllConditionedDesignError,
    DesignSpec,
    FilterRealization,
    VrfReport,
    vrf_matrix,
    optimal_delay,
    build_realization,
)
from .response import (
    ResponseReport,
    response_matrix,
    response_report,
)
from .estimator import (
    EstimatorState,
    EstimateFrame,
    SequenceResult,
    StreamingEstimator,
    run_sequence,
)
from .detectors import (
    Event,
    EdgeDetector,
    PeakDetector,
    ChangeDetector,
)
from .scenarios import (
    TargetScenario,
    simulate_target,
    synth_edge_waveform,
    synth_peak_waveform,
    synth_change_waveform,
)
from .document import (
    design_to_document,
    document_to_json,
    document_from_json,
    realization_from_document,
)

__version__ = "0.1.0"

__all__ = [
    "WeightSpec",
    "WeightMoments",
    "DispersionReport",
    "erlang_sum",
    "weight_moments",
    "dispersion",
    "run_block",
    "DesignError",
    "IllConditionedDesignError",
    "DesignSpec",
    "FilterRealization",
    "VrfReport",
    "vrf_matrix",
    "optimal_delay",
    "build_realization",
    "ResponseReport",
    "response_matrix",
    "response_report",
    "EstimatorState",
    "EstimateFrame",
    "SequenceResult",
    "StreamingEstimator",
    "run_sequence",
    "Event",
    "EdgeDetector",
    "PeakDetector",
    "ChangeDetector",
    "TargetScenario",
    "simulate_target",
    "synth_edge_waveform",
    "synth_peak_waveform",
    "synth_change_waveform",
    "design_to_document",
    "document_to_json",
    "document_from_json",
    "realization_from_document",
    "__version__",
]
