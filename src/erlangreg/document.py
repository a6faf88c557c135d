"""Serialization of a finished design to a JSON document and back.

The document is the only artifact the command-line tools pass between each
other: `design` writes one, every other command reads one.  It carries the
resolved parameters plus every runtime matrix, so loading never repeats
design-time numerics and a document built on one machine runs identically
on another.
"""

from __future__ import annotations

import json

import numpy as np

from .design import DesignError, DesignSpec, FilterRealization, TransformSet
from .network import build_network
from .weights import WeightSpec

__all__ = [
    "FORMAT_TAG",
    "FORMAT_VERSION",
    "design_to_document",
    "document_to_json",
    "document_from_json",
    "realization_from_document",
]

FORMAT_TAG = "erlang-regression-design"
FORMAT_VERSION = 1

_ARRAY_FIELDS = (
    "steady_second",
    "overlap",
    "to_orthonormal",
    "from_orthonormal",
    "synthesis",
    "coeff_output",
    "state_output",
    "power_output",
)


def design_to_document(realization: FilterRealization, requested_delay="auto") -> dict:
    """Flatten a realization to a JSON-ready dict.

    requested_delay records what the user asked for ("auto" or a number);
    spec.delay always holds the resolved value actually built.
    """
    from .response import bandwidth, group_delay_dc

    spec = realization.spec
    t = realization.transforms
    return {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "spec": {
            "kappa": spec.weight.kappa,
            "p": spec.weight.p,
            "model_order": spec.model_order,
            "n_outputs": spec.n_outputs,
            "delay": spec.delay,
            "requested_delay": requested_delay,
            "sample_period": spec.sample_period,
        },
        "analysis": {
            "vrf": realization.vrf.tolist(),
            "cutoff_frequency": bandwidth(realization),
            "group_delay_dc": group_delay_dc(realization),
        },
        "realization": {
            "residual_mass": realization.residual_mass,
            "steady_second": realization.steady_second.tolist(),
            "overlap": t.overlap.tolist(),
            "to_orthonormal": t.to_orthonormal.tolist(),
            "from_orthonormal": t.from_orthonormal.tolist(),
            "synthesis": t.synthesis.tolist(),
            "coeff_output": t.coeff_output.tolist(),
            "state_output": t.state_output.tolist(),
            "power_output": t.power_output.tolist(),
        },
    }


def document_to_json(document: dict) -> str:
    return json.dumps(document, indent=2) + "\n"


def document_from_json(text: str) -> dict:
    """Parse and validate a design document; raises DesignError if unusable."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DesignError(f"design document is not valid JSON: {exc}") from exc
    _validate(document)
    return document


def _validate(document: dict) -> None:
    if not isinstance(document, dict):
        raise DesignError("design document must be a JSON object")
    tag = document.get("format")
    if tag != FORMAT_TAG:
        raise DesignError(f"unrecognized design document format: {tag!r}")
    version = document.get("version")
    if version != FORMAT_VERSION:
        raise DesignError(f"unsupported design document version: {version!r}")
    for section in ("spec", "analysis", "realization"):
        if not isinstance(document.get(section), dict):
            raise DesignError(f"design document is missing its {section!r} section")
    spec = document["spec"]
    for key in ("kappa", "p", "model_order", "n_outputs", "delay", "sample_period"):
        if key not in spec:
            raise DesignError(f"design document spec is missing {key!r}")
    realization = document["realization"]
    for key in ("residual_mass",) + _ARRAY_FIELDS:
        if key not in realization:
            raise DesignError(f"design document realization is missing {key!r}")


def realization_from_document(document: dict) -> FilterRealization:
    """Reconstruct the runtime object from stored matrices.

    Nothing is recomputed: the arrays come straight from the document, and
    only the structural cascade matrices (which are fully determined by the
    decay and the orders) are rebuilt.  Fields the runtime does not read,
    such as the weight normalizer `gamma` and the signal cascade's fixed
    point `steady_first` that older documents carry, are ignored.
    """
    _validate(document)
    raw_spec = document["spec"]
    try:
        spec = DesignSpec(
            weight=WeightSpec(kappa=int(raw_spec["kappa"]), p=float(raw_spec["p"])),
            model_order=int(raw_spec["model_order"]),
            n_outputs=int(raw_spec["n_outputs"]),
            delay=float(raw_spec["delay"]),
            sample_period=float(raw_spec["sample_period"]),
        )
    except (TypeError, ValueError) as exc:
        raise DesignError(f"design document spec is invalid: {exc}") from exc

    raw = document["realization"]
    arrays = {}
    for key in _ARRAY_FIELDS:
        arr = np.array(raw[key], dtype=float)
        arr.flags.writeable = False
        arrays[key] = arr
    _check_shapes(spec, arrays)

    vrf = np.array(document["analysis"].get("vrf"), dtype=float)
    if vrf.shape != (spec.n_outputs, spec.n_outputs):
        raise DesignError(
            f"design document vrf has shape {vrf.shape}, "
            f"expected {(spec.n_outputs, spec.n_outputs)}"
        )
    vrf.flags.writeable = False

    transforms = TransformSet(
        overlap=arrays["overlap"],
        to_orthonormal=arrays["to_orthonormal"],
        from_orthonormal=arrays["from_orthonormal"],
        synthesis=arrays["synthesis"],
        coeff_output=arrays["coeff_output"],
        state_output=arrays["state_output"],
        power_output=arrays["power_output"],
    )
    return FilterRealization(
        spec=spec,
        first_net=build_network(spec.n_first_states, spec.weight.p),
        second_net=build_network(spec.n_second_states, spec.weight.p),
        transforms=transforms,
        steady_second=arrays["steady_second"],
        residual_mass=float(raw["residual_mass"]),
        vrf=vrf,
    )


def _check_shapes(spec: DesignSpec, arrays: dict) -> None:
    n1, n2 = spec.n_first_states, spec.n_second_states
    k, m = spec.n_outputs, spec.model_order
    expected = {
        "steady_second": (n2,),
        "overlap": (m, m),
        "to_orthonormal": (m, m),
        "from_orthonormal": (m, m),
        "synthesis": (k, m),
        "coeff_output": (m, n1),
        "state_output": (k, n1),
        "power_output": (n2,),
    }
    for key, shape in expected.items():
        if arrays[key].shape != shape:
            raise DesignError(
                f"design document field {key!r} has shape {arrays[key].shape}, "
                f"expected {shape}"
            )
