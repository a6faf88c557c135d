"""Serialization of a finished design to a JSON document and back.

The document is the only artifact the command-line tools pass between each
other: `design` writes one, every other command reads one.  It carries the
resolved parameters plus every runtime matrix, so loading never repeats
design-time numerics and a document built on one machine runs identically
on another.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .design import DesignError, DesignSpec, FilterRealization
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

_SPEC_NUMBERS = ("kappa", "p", "model_order", "n_outputs", "delay", "sample_period")

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
            **{key: getattr(realization, key).tolist() for key in _ARRAY_FIELDS},
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
    for key in _SPEC_NUMBERS:
        if key not in spec:
            raise DesignError(f"design document spec is missing {key!r}")
    realization = document["realization"]
    for key in ("residual_mass",) + _ARRAY_FIELDS:
        if key not in realization:
            raise DesignError(f"design document realization is missing {key!r}")


def realization_from_document(document: dict) -> FilterRealization:
    """Reconstruct the runtime object from stored matrices.

    Nothing is recomputed: the arrays come straight from the document, and
    the cascades are fully determined by the spec.  Fields the runtime does
    not read,
    such as the weight normalizer `gamma` and the signal cascade's fixed
    point `steady_first` that older documents carry, are ignored.
    """
    _validate(document)
    raw_spec = document["spec"]
    for key in _SPEC_NUMBERS:
        _finite_number("spec", key, raw_spec[key])
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
    residual_mass = _finite_number("realization", "residual_mass", raw["residual_mass"])
    if not residual_mass > 0.0:
        raise DesignError(
            f"design document realization field 'residual_mass' must be positive, "
            f"got {residual_mass!r}"
        )
    arrays = {key: _finite_array("realization", key, raw[key]) for key in _ARRAY_FIELDS}
    _check_shapes(spec, arrays)

    vrf = _finite_array("analysis", "vrf", document["analysis"].get("vrf"))
    if vrf.shape != (spec.n_outputs, spec.n_outputs):
        raise DesignError(
            f"design document vrf has shape {vrf.shape}, "
            f"expected {(spec.n_outputs, spec.n_outputs)}"
        )

    return FilterRealization(spec=spec, residual_mass=residual_mass, vrf=vrf, **arrays)


def _finite_number(section: str, key: str, value) -> float:
    """value as a float; DesignError naming the field unless it is a finite number.

    json.loads accepts the tokens NaN and Infinity, and a non-finite number
    in a design runs without error but yields NaN estimates or a zero noise
    variance, so that no detector ever alarms.
    """
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise DesignError(
            f"design document {section} field {key!r} is not a number: {value!r}"
        ) from exc
    if not math.isfinite(number):
        raise DesignError(f"design document {section} field {key!r} is not finite: {number!r}")
    return number


def _finite_array(section: str, key: str, value) -> np.ndarray:
    """value as a read-only float array; DesignError naming the field unless all finite."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DesignError(
            f"design document {section} field {key!r} is not a numeric array: {exc}"
        ) from exc
    finite = np.isfinite(arr)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        index = np.unravel_index(bad[0], arr.shape)
        raise DesignError(
            f"design document {section} field {key!r} holds {bad.size} non-finite "
            f"value(s), first {float(arr[index])!r} at {tuple(int(i) for i in index)}"
        )
    arr.flags.writeable = False
    return arr


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
