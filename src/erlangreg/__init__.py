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
    normalizer,
    weight_moments,
    dispersion,
)
from .network import (
    run_block,
    steady_state_vector,
    impulse_to_weight_transform,
)
from .design import (
    DesignError,
    IllConditionedDesignError,
    DesignSpec,
    FilterRealization,
    overlap_matrix,
    squared_overlap_matrix,
    orthonormal_transforms,
    synthesis_matrix,
    build_realization,
)
from .variance import (
    VrfReport,
    vrf_matrix,
    vrf_by_parseval,
    delay_polynomial,
    optimal_delay,
)
from .response import (
    ResponseReport,
    frequency_response,
    response_matrix,
    distortion,
    bandwidth,
    group_delay_dc,
    response_report,
)
from .estimator import (
    EstimatorState,
    EstimateFrame,
    SequenceResult,
    StreamingEstimator,
    new_estimator,
    current_frame,
    update,
    coefficients,
    run_sequence,
)
from .detectors import (
    Event,
    ChangeDetectorConfig,
    EdgeDetector,
    PeakDetector,
    ChangeDetector,
)
from .scenarios import (
    TargetScenario,
    make_rng,
    gaussian_noise,
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
    "normalizer",
    "weight_moments",
    "dispersion",
    "run_block",
    "steady_state_vector",
    "impulse_to_weight_transform",
    "DesignError",
    "IllConditionedDesignError",
    "DesignSpec",
    "FilterRealization",
    "overlap_matrix",
    "squared_overlap_matrix",
    "orthonormal_transforms",
    "synthesis_matrix",
    "build_realization",
    "VrfReport",
    "vrf_matrix",
    "vrf_by_parseval",
    "delay_polynomial",
    "optimal_delay",
    "ResponseReport",
    "frequency_response",
    "response_matrix",
    "distortion",
    "bandwidth",
    "group_delay_dc",
    "response_report",
    "EstimatorState",
    "EstimateFrame",
    "SequenceResult",
    "StreamingEstimator",
    "new_estimator",
    "current_frame",
    "update",
    "coefficients",
    "run_sequence",
    "Event",
    "ChangeDetectorConfig",
    "EdgeDetector",
    "PeakDetector",
    "ChangeDetector",
    "TargetScenario",
    "make_rng",
    "gaussian_noise",
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
