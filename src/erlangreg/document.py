"""Serialization of a finished design to a JSON document and back.

The document is the only artifact the command-line tools pass between each
other: `design` writes one, every other command reads one.  It carries the
resolved parameters plus every runtime matrix, so loading never repeats
design-time numerics and a document built on one machine runs identically
on another.  Its analysis section holds only the noise gain matrix `vrf`,
which the runtime reads; the frequency metrics (cutoff frequency, DC group
delay) are computed by `analyze` from the loaded realization.  The text is
exactly json's indent-2 output: json.dumps(document, indent=2) plus a newline.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers

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
FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)

_SPEC_NUMBERS = ("kappa", "p", "model_order", "n_outputs", "delay", "sample_period")
_SPEC_INTEGERS = ("kappa", "model_order", "n_outputs")

_ARRAY_FIELDS = (
    "steady_second",
    "from_orthonormal",
    "coeff_output",
    "state_output",
    "power_output",
)


def design_to_document(realization: FilterRealization, requested_delay="auto") -> dict:
    """Flatten a realization to a JSON-ready dict.

    requested_delay records what the user asked for ("auto" or a number);
    spec.delay always holds the resolved value actually built.
    """
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
        },
        "realization": {
            "residual_mass": realization.residual_mass,
            **{key: getattr(realization, key).tolist() for key in _ARRAY_FIELDS},
        },
    }


def document_to_json(document: dict) -> str:
    """The document's text: exactly json.dumps(document, indent=2) + "\n".

    json's indented output is written by its pure-Python encoder, one
    generator step per value; this writer joins each list of floats from
    float.__repr__ in one pass and escapes keys and strings with json's own
    C encoder.  A value it does not write as json would, such as a subclass
    of a JSON type, a non-string key or a self-referencing container,
    leaves the whole document to json.dumps.
    """
    try:
        return _json_text(document, "") + "\n"
    except (_Unhandled, RecursionError):
        return json.dumps(document, indent=2) + "\n"


class _Unhandled(Exception):
    """A value _json_text leaves to json.dumps."""


_escape = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, pad: str) -> str:
    """value as json.dumps(..., indent=2) writes it at the nesting of pad."""
    kind = type(value)
    if kind is float:
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    inner = pad + "  "
    glue = ",\n" + inner
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        try:
            body = glue.join(map(float.__repr__, value))
        except TypeError:  # an entry that is not a float
            body = None
        if body is None or "n" in body:  # json spells nan and inf otherwise
            body = glue.join([_json_text(item, inner) for item in value])
        return f"[\n{inner}{body}\n{pad}]"
    if kind is dict:
        if not value:
            return "{}"
        if not all(type(key) is str for key in value):
            raise _Unhandled
        body = glue.join([f"{_escape(key)}: {_json_text(item, inner)}"
                          for key, item in value.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    raise _Unhandled


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
    # True == 1 and 2.0 == 2 in Python, so membership alone would take them.
    if type(version) is not int or version not in _READABLE_VERSIONS:
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
    not read, such as the overlap, to_orthonormal and synthesis arrays of
    version 1, the weight normalizer `gamma` and the signal cascade's
    fixed point `steady_first`, or the `cutoff_frequency` and
    `group_delay_dc` analysis fields that older documents carry, are
    ignored.
    """
    _validate(document)
    raw_spec = document["spec"]
    number = {key: _finite_number("spec", key, raw_spec[key]) for key in _SPEC_NUMBERS}
    for key in _SPEC_INTEGERS:
        if not number[key].is_integer():
            raise DesignError(
                f"design document spec field {key!r} must be an integer, got {raw_spec[key]!r}"
            )
        number[key] = int(number[key])
    try:
        spec = DesignSpec(
            weight=WeightSpec(kappa=number["kappa"], p=number["p"]),
            model_order=number["model_order"],
            n_outputs=number["n_outputs"],
            delay=number["delay"],
            sample_period=number["sample_period"],
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

    Only a JSON number counts: float() would also take the string "2" and
    the boolean true.  json.loads accepts the tokens NaN and Infinity, and a
    non-finite number in a design runs without error but yields NaN
    estimates or a zero noise variance, so that no detector ever alarms.
    A float or an int, what json.loads makes of a number, skips the ABC
    test, which costs several times the rest.
    """
    kind = type(value)
    if kind is not float and kind is not int and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise DesignError(f"design document {section} field {key!r} is not a number: {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise DesignError(f"design document {section} field {key!r} is not finite: {number!r}")
    return number


def _finite_array(section: str, key: str, value) -> np.ndarray:
    """value as a read-only float array; DesignError naming the field unless all finite.

    Only JSON numbers count: the float conversion would also take the
    string "1.5" and the boolean true.  Once the conversion has found the
    nesting depth, one walk over the innermost lists collects the entry
    types.
    """
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DesignError(
            f"design document {section} field {key!r} is not a numeric array: {exc}"
        ) from exc
    entries = value if arr.ndim else [value]
    for _ in range(arr.ndim - 1):
        entries = itertools.chain.from_iterable(entries)
    if not set(map(type, entries)).isdisjoint((str, bool)):
        raise DesignError(
            f"design document {section} field {key!r} is not a numeric array: "
            f"it holds a string or a boolean"
        )
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
        "from_orthonormal": (m, m),
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
