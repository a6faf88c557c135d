"""Serialization of a finished design to a JSON document and back.

The document is the only artifact the command-line tools pass between each
other: `design` writes one, every other command reads one.  It carries the
resolved parameters plus every runtime matrix, so loading never repeats
design-time numerics and a document built on one machine runs identically
on another.  Its analysis section holds only the noise gain matrix `vrf`,
which the runtime reads; the frequency metrics (cutoff frequency, DC group
delay) are computed by `analyze` from the loaded realization.  The text is
exactly json's indent-2 output: json.dumps(document, indent=2) plus a newline.

Writing and reading take one pass over the numbers each way.  The writer
fills a text template made once per array shape, with one %-formatting
call, for any document with design_to_document's keys and plain finite
numbers, and leaves every other document to json.dumps.  The loader walks
the fields once: each array is built with one np.array, and its entries
are checked in one pass (exactly a float or an int, and finite), so the
DesignError of a bad document names the first field at fault.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from functools import lru_cache

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

# The keys of design_to_document's document, in its order.
_SECTIONS = ("format", "version", "spec", "analysis", "realization")
_SPEC_KEYS = ("kappa", "p", "model_order", "n_outputs", "delay", "requested_delay",
              "sample_period")
_REALIZATION_KEYS = ("residual_mass",) + _ARRAY_FIELDS


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
    generator step per value.  A document with exactly design_to_document's
    keys, in order, whose arrays are lists of plain finite floats and ints
    and whose other values are strings or such numbers, is instead written
    by one %-formatting call into the text of its array shape (see
    _template): %r writes each number as json does, and json's own C
    encoder escapes the strings.  Any other document is json.dumps'.
    """
    if type(document) is dict and tuple(document) == _SECTIONS:
        spec, analysis, raw = document["spec"], document["analysis"], document["realization"]
        if (type(spec) is dict and tuple(spec) == _SPEC_KEYS
                and type(analysis) is dict and tuple(analysis) == ("vrf",)
                and type(raw) is dict and tuple(raw) == _REALIZATION_KEYS):
            plain = _plain_arrays([analysis["vrf"], *map(raw.__getitem__, _ARRAY_FIELDS)])
            head = list(map(_scalar_text, (document["format"], document["version"],
                                           *spec.values())))
            residual = _scalar_text(raw["residual_mass"])
            if plain is not None and None not in head and residual is not None:
                shape, entries = plain
                cut = sum(shape[0])  # the vrf entries, which come before residual_mass
                return _template(shape) % (*head, *entries[:cut], residual, *entries[cut:])
    return json.dumps(document, indent=2) + "\n"


_escape = json.encoder.encode_basestring_ascii
_LIST = frozenset((list,))
_NUMBER = frozenset((float, int))


def _scalar_text(value):
    """value as json writes it, if a string or a plain finite number; else None."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int or (kind is float and value - value == 0.0):
        return repr(value)
    return None


def _plain_arrays(arrays):
    """(shape, entries) of arrays, or None unless all are plain and finite.

    arrays are vrf and the _ARRAY_FIELDS, in that order, as lists: the
    matrices vrf, from_orthonormal, coeff_output and state_output of list
    rows.  shape holds the row lengths of each matrix and the length of
    each vector; entries every entry, in document order.  One pass over the
    entries checks that each is exactly a float or an int and sums them in
    Python floats: the sum is finite only if every entry is finite and in
    the float range, and it fails, without a warning, only for such entries
    whose sum overflows.
    """
    vrf, steady, square, coeff, state, power = arrays
    if not (_LIST.issuperset(map(type, arrays))
            and _LIST.issuperset(map(type, itertools.chain(vrf, square, coeff, state)))):
        return None
    flat = itertools.chain.from_iterable
    entries = [*flat(vrf), *steady, *flat(square), *flat(coeff), *flat(state), *power]
    if not _NUMBER.issuperset(map(type, entries)):
        return None
    try:
        total = sum(entries, 0.0)
    except OverflowError:  # an integer past the float range
        return None
    if not total - total == 0.0:
        return None
    shape = (tuple(map(len, vrf)), len(steady), tuple(map(len, square)),
             tuple(map(len, coeff)), tuple(map(len, state)), len(power))
    return shape, entries


@lru_cache(maxsize=64)
def _template(shape) -> str:
    """Text of a design document of shape, with a slot for each value.

    json.dumps writes it from a skeleton of the document's keys: each
    scalar becomes a %s slot, for its text, and each array entry a %r
    slot.  No key holds a % sign.
    """
    vrf, steady, square, coeff, state, power = shape

    def matrix(rows):
        return [["%r"] * n for n in rows]

    skeleton = {
        "format": "%s",
        "version": "%s",
        "spec": dict.fromkeys(_SPEC_KEYS, "%s"),
        "analysis": {"vrf": matrix(vrf)},
        "realization": dict(zip(_REALIZATION_KEYS, (
            "%s", ["%r"] * steady, matrix(square), matrix(coeff), matrix(state),
            ["%r"] * power))),
    }
    text = json.dumps(skeleton, indent=2) + "\n"
    return text.replace('"%s"', "%s").replace('"%r"', "%r")


def document_from_json(text: str | bytes) -> dict:
    """Parse and validate a design document; raises DesignError if unusable.

    Bytes are decoded as json.loads decodes them: UTF-8, -16 or -32.
    """
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
    if "vrf" not in document["analysis"]:
        raise DesignError("design document analysis is missing 'vrf'")
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
    ignored.  The arrays are read-only.

    One walk checks the fields in turn: the entries of each realization
    array (_finite_array), then their shapes against the spec, then vrf;
    the first field at fault is named in the DesignError.
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
    vrf = _finite_array("analysis", "vrf", document["analysis"]["vrf"])
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
    string "1.5" and the boolean true, and reads a null as NaN.  Once the
    conversion has found the nesting depth, one pass checks that every
    entry is exactly a float or an int, and their sum in Python floats is
    finite only if every entry is.  Entries of another type are looked at
    again, for the string, boolean and null errors; they and a sum that is
    not finite, as that of finite entries may overflow, leave the finite
    check to the array.
    """
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DesignError(
            f"design document {section} field {key!r} is not a numeric array: {exc}"
        ) from exc
    arr.flags.writeable = False
    entries = value if arr.ndim else [value]
    for _ in range(arr.ndim - 1):
        entries = [*itertools.chain.from_iterable(entries)]
    if not _NUMBER.issuperset(map(type, entries)):
        types = set(map(type, entries))
        if not types.isdisjoint((str, bool)):
            raise DesignError(
                f"design document {section} field {key!r} is not a numeric array: "
                f"it holds a string or a boolean"
            )
        if type(None) in types:
            raise DesignError(
                f"design document {section} field {key!r} is not a numeric array: it holds a null"
            )
    elif math.isfinite(sum(entries, 0.0)):
        return arr
    finite = np.isfinite(arr)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        index = np.unravel_index(bad[0], arr.shape)
        raise DesignError(
            f"design document {section} field {key!r} holds {bad.size} non-finite "
            f"value(s), first {float(arr[index])!r} at {tuple(int(i) for i in index)}"
        )
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
