import json
import math
from fractions import Fraction
import re
import warnings
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from erlangreg import (
    DesignError,
    IllConditionedDesignError,
    design_to_document,
    document_from_json,
    document_to_json,
    erlang_sum,
    realization_from_document,
    response_report,
    run_sequence,
)
from erlangreg import response
from erlangreg.network import steady_state_vector

from oracles import DESIGN_GRID, build

DATA = Path(__file__).parent / "data"


def _round_trip(real, requested="auto"):
    text = document_to_json(design_to_document(real, requested))
    return realization_from_document(document_from_json(text))


_FAST_DELAY = build(0, 0.8, 2, kt=2).spec.delay


# (kappa, p, kx, kt, requested delay, sample period): two three-output cubic
# designs, the README's fast and slow pair, one coefficient, one output of a
# long cascade and a sample period other than 1.
@pytest.mark.parametrize("kappa, p, kx, kt, requested, ts", [
    pytest.param(2, 0.8, 3, 3, "auto", 1.0, id="kappa2-p0.8"),
    pytest.param(2, 0.9, 3, 3, "auto", 1.0, id="d"),
    pytest.param(0, 0.8, 2, 2, "auto", 1.0, id="fast"),
    pytest.param(3, 0.8, 2, 1, _FAST_DELAY, 1.0, id="slow"),
    pytest.param(0, 0.8, 1, 1, "auto", 1.0, id="k1"),
    pytest.param(4, 0.95, 3, 1, "auto", 1.0, id="kt1"),
    pytest.param(2, 0.9, 3, 3, "auto", 0.01, id="ts"),
])
def test_round_trip_is_bit_exact(kappa, p, kx, kt, requested, ts):
    # Compared as uint64 views: assert_array_equal would take -0.0 for 0.0.
    real = build(kappa, p, kx, kt=kt, q=None if requested == "auto" else requested, ts=ts)
    text = document_to_json(design_to_document(real, requested))
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert not re.search(r"NaN|Infinity", text)
    assert json.loads(text)["spec"]["requested_delay"] == requested
    loaded = realization_from_document(document_from_json(text))
    assert loaded.spec == real.spec
    for key in ("vrf", "state_output", "coeff_output", "power_output", "steady_second",
                "from_orthonormal"):
        got, want = getattr(loaded, key), getattr(real, key)
        assert got.shape == want.shape, key
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), key
    assert loaded.residual_mass == real.residual_mass


_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf,
                           -math.inf]) | st.floats()
_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é☃\U0001f600\ud800az')) | st.text()
_JSON_VALUES = st.recursive(
    _FLOATS | st.integers() | st.booleans() | st.none() | _TEXT,
    lambda children: (st.lists(_FLOATS) | st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(_TEXT, children)),
    max_leaves=20,
)


@hypothesis.settings(max_examples=150)
@hypothesis.given(_JSON_VALUES)
def test_document_text_is_json_indent_2(value):
    assert document_to_json(value) == json.dumps(value, indent=2) + "\n"


class _Ratio(float):
    pass


@pytest.mark.parametrize("value", [
    {1: 2.0}, {"a": {None: [1.0]}}, [_Ratio(1.5), 2.0], [_Ratio("nan")], {"x": (1, _Ratio(2.0))},
    [True, 1.0], [1.0, 2], {"deep": [[[[]]]], "e": {}}, "text", 2.5, None,
])
def test_document_text_leaves_other_values_to_json(value):
    # Non-string keys and subclasses of JSON types are json.dumps' to write.
    assert document_to_json(value) == json.dumps(value, indent=2) + "\n"


def test_self_referencing_document_fails_as_json_does():
    loop = {"a": []}
    loop["a"].append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        document_to_json(loop)


def test_design_documents_are_json_indent_2_text():
    # Every accepted design of the grid, with one output and with up to three.
    written = 0
    for kappa, p, kx in DESIGN_GRID:
        for kt in sorted({1, min(kx, 3)}):
            try:
                real = build(kappa, p, kx, kt=kt)
            except IllConditionedDesignError:
                continue
            for requested in ("auto", real.spec.delay):
                document = design_to_document(real, requested)
                text = document_to_json(document)
                assert text == json.dumps(document, indent=2) + "\n"
                assert not re.search(r"NaN|Infinity", text)
            written += 1
    assert written == 198


def test_document_records_request_and_resolution():
    real = build(0, 0.8, 2, kt=1, q=None)
    doc = design_to_document(real, "auto")
    assert doc["spec"]["requested_delay"] == "auto"
    assert doc["spec"]["delay"] == pytest.approx(8.50, abs=0.01)
    # The frequency metrics are not stored; the loaded realization gives them.
    assert set(doc["analysis"]) == {"vrf"}
    report = response_report(_round_trip(real))
    assert report.f_c == pytest.approx(0.042, abs=0.001)
    assert report.group_delay_dc == pytest.approx(8.50, abs=1e-4)


def test_document_writer_does_no_frequency_analysis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("design_to_document evaluated a frequency response")

    monkeypatch.setattr(response, "_state_responses", refuse)
    real = build(2, 0.8, 3, kt=3, q=None)
    loaded = _round_trip(real)
    np.testing.assert_array_equal(loaded.state_output, real.state_output)


def test_loaded_matrices_are_read_only():
    real = build(1, 0.8, 2, kt=2, q=4.0)
    loaded = _round_trip(real, 4.0)
    with pytest.raises(ValueError):
        loaded.state_output[0, 0] = 1.0


def test_rejects_malformed_documents():
    real = build(0, 0.8, 2, kt=1, q=8.5)
    doc = design_to_document(real, 8.5)

    with pytest.raises(DesignError):
        document_from_json("not json at all{")
    with pytest.raises(DesignError):
        document_from_json(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(DesignError, match="must be a JSON object"):
        document_from_json("[]")
    bad = json.loads(document_to_json(doc))
    del bad["analysis"]
    with pytest.raises(DesignError, match="missing its 'analysis' section"):
        document_from_json(json.dumps(bad))
    bad = json.loads(document_to_json(doc))
    del bad["spec"]["delay"]
    with pytest.raises(DesignError, match="spec is missing 'delay'"):
        document_from_json(json.dumps(bad))
    bad = json.loads(document_to_json(doc))
    bad["spec"]["kappa"] = None
    with pytest.raises(DesignError, match="spec field 'kappa' is not a number"):
        realization_from_document(document_from_json(json.dumps(bad)))
    for value in ([[1.0, 2.0], [3.0]], [["a", "b"]]):
        bad = json.loads(document_to_json(doc))
        bad["realization"]["coeff_output"] = value
        with pytest.raises(DesignError, match="'coeff_output' is not a numeric array"):
            realization_from_document(document_from_json(json.dumps(bad)))
    bad = json.loads(document_to_json(doc))
    bad["analysis"]["vrf"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(DesignError, match=re.escape("vrf has shape (2, 2), expected (1, 1)")):
        realization_from_document(document_from_json(json.dumps(bad)))

    # True == 1 and 2.0 == 2 in Python; only the integers 1 and 2 are versions.
    for version in (0, 3, 99, True, False, 1.0, 2.0, "2"):
        bad = json.loads(document_to_json(doc))
        bad["version"] = version
        with pytest.raises(DesignError, match=re.escape(f"version: {version!r}")):
            document_from_json(json.dumps(bad))

    bad = json.loads(document_to_json(doc))
    del bad["realization"]["coeff_output"]
    with pytest.raises(DesignError):
        document_from_json(json.dumps(bad))
    bad = json.loads(document_to_json(doc))
    del bad["analysis"]["vrf"]
    with pytest.raises(DesignError, match="analysis is missing 'vrf'"):
        document_from_json(json.dumps(bad))

    bad = json.loads(document_to_json(doc))
    bad["realization"]["state_output"] = [[1.0, 2.0, 3.0]]
    with pytest.raises(DesignError):
        realization_from_document(bad)

    bad = json.loads(document_to_json(doc))
    bad["spec"]["p"] = 1.5
    with pytest.raises(DesignError):
        realization_from_document(bad)

    # json.loads takes the tokens NaN and Infinity; a design holding one
    # would run to NaN estimates or a zero noise variance (no detector
    # could alarm), so every non-finite number is rejected by its field.
    nan, inf = float("nan"), float("inf")
    cases = [
        ("spec", "p", nan),
        ("spec", "delay", inf),
        ("spec", "sample_period", inf),
        ("spec", "sample_period", nan),
        ("spec", "kappa", inf),
        ("spec", "model_order", nan),
        ("spec", "n_outputs", -inf),
        ("realization", "residual_mass", inf),
        ("realization", "residual_mass", nan),
        ("realization", "residual_mass", 0.0),
        ("realization", "residual_mass", -2.5),
    ]
    for section, key, value in cases:
        bad = json.loads(document_to_json(doc))
        bad[section][key] = value
        with pytest.raises(DesignError, match=repr(key)):
            realization_from_document(document_from_json(json.dumps(bad)))
    fields = [("realization", key) for key in doc["realization"] if key != "residual_mass"]
    for section, key in fields + [("analysis", "vrf")]:
        for value in (nan, inf, -inf):
            bad = json.loads(document_to_json(doc))
            row = bad[section][key]
            if isinstance(row[-1], list):
                row = row[-1]
            row[-1] = value
            text = json.dumps(bad)
            assert "NaN" in text or "Infinity" in text
            with pytest.raises(DesignError, match=f"{key!r}.*non-finite"):
                realization_from_document(document_from_json(text))

    # int() truncated kappa 2.5 to 2 (and the design ran), and float() or
    # the float array conversion took JSON strings and booleans.
    cases = [
        ("spec", "kappa", 2.5, "'kappa' must be an integer, got 2.5"),
        ("spec", "model_order", 3.9, "'model_order' must be an integer, got 3.9"),
        ("spec", "n_outputs", 2.2, "'n_outputs' must be an integer, got 2.2"),
        ("spec", "kappa", "2", "'kappa' is not a number: '2'"),
        ("spec", "n_outputs", "2", "'n_outputs' is not a number: '2'"),
        ("spec", "kappa", True, "'kappa' is not a number: True"),
        ("spec", "p", "0.8", "'p' is not a number: '0.8'"),
        ("spec", "delay", False, "'delay' is not a number: False"),
        ("spec", "sample_period", "1", "'sample_period' is not a number: '1'"),
        ("spec", "kappa", 10**400, "'kappa' is not finite: inf"),
        ("realization", "residual_mass", "1646.66", "'residual_mass' is not a number: '1646.66'"),
        ("realization", "power_output", ["1.0", "-3.0", "2.0"],
         "'power_output' is not a numeric array: it holds a string or a boolean"),
        ("realization", "power_output", [1.0, True, 2.0],
         "'power_output' is not a numeric array: it holds a string or a boolean"),
        ("realization", "coeff_output", [[1.0, "0"], [0.0, 1.0]],
         "'coeff_output' is not a numeric array: it holds a string or a boolean"),
        ("analysis", "vrf", [[True]], "'vrf' is not a numeric array: it holds a string or a boolean"),
        # np.array(None, dtype=float) is NaN, and so is a null entry, but a
        # null is no number, finite or not.
        ("analysis", "vrf", None, "'vrf' is not a numeric array: it holds a null"),
        ("analysis", "vrf", [[None]], "'vrf' is not a numeric array: it holds a null"),
        ("realization", "power_output", None,
         "'power_output' is not a numeric array: it holds a null"),
        ("realization", "power_output", [1.0, None, 2.0],
         "'power_output' is not a numeric array: it holds a null"),
        ("realization", "coeff_output", [[1.0, None], [0.0, 1.0]],
         "'coeff_output' is not a numeric array: it holds a null"),
        ("realization", "steady_second", [None, None],
         "'steady_second' is not a numeric array: it holds a null"),
    ]
    for section, key, value, message in cases:
        bad = json.loads(document_to_json(doc))
        bad[section][key] = value
        with pytest.raises(DesignError, match=re.escape(message)):
            realization_from_document(document_from_json(json.dumps(bad)))
    # An integral float is an integer.
    good = json.loads(document_to_json(doc))
    good["spec"]["model_order"] = 2.0
    assert realization_from_document(good).spec.model_order == 2


def _check_version_1_document(real, extra):
    # A document the version-1 writer produced (design --kappa 2 --p 0.8
    # --kx 3 --kt 3) carries overlap, to_orthonormal and synthesis, and
    # older ones also the weight normalizer gamma or the signal cascade's
    # fixed point steady_first (passed in `extra`).  The runtime reads none of
    # them: the document loads to the arrays of a fresh build, bit for bit,
    # and runs as the version-2 document does.
    doc = json.loads((DATA / "design_v1_kappa2_p0.8_kx3_kt3.json").read_text())
    assert doc["version"] == 1
    assert {"overlap", "to_orthonormal", "synthesis"} <= set(doc["realization"])
    assert not set(extra) & set(doc["realization"])
    doc["realization"].update(extra)
    v1 = realization_from_document(document_from_json(json.dumps(doc)))

    assert v1.spec == real.spec
    assert v1.residual_mass == real.residual_mass
    for key in ("steady_second", "from_orthonormal", "coeff_output", "state_output",
                "power_output", "vrf"):
        np.testing.assert_array_equal(getattr(v1, key), getattr(real, key), err_msg=key)

    v2_doc = design_to_document(real)
    assert v2_doc["version"] == 2
    assert not {"overlap", "to_orthonormal", "synthesis"} & set(v2_doc["realization"])
    v2 = _round_trip(real)
    xs = np.random.Generator(np.random.PCG64(12)).standard_normal(50) + 3.0
    via_v1, _ = run_sequence(v1, xs)
    via_v2, _ = run_sequence(v2, xs)
    np.testing.assert_array_equal(via_v1.estimates, via_v2.estimates)
    np.testing.assert_array_equal(via_v1.sigma_eps2, via_v2.sigma_eps2)
    np.testing.assert_array_equal(via_v1.variances, via_v2.variances)


def test_document_with_gamma_field_still_loads():
    real = build(2, 0.8, 3, kt=3, q=None)
    _check_version_1_document(real, {"gamma": 1.0 / erlang_sum(2, 0.8)})


def test_document_with_steady_first_field_still_loads():
    real = build(2, 0.8, 3, kt=3, q=None)
    steady_first = steady_state_vector(real.spec.n_first_states, 0.8).tolist()
    _check_version_1_document(real, {"steady_first": steady_first})


def test_loaded_realization_runs_identically():
    real = build(2, 0.85, 2, kt=2, q=None)
    loaded = _round_trip(real)
    rng = np.random.Generator(np.random.PCG64(11))
    xs = rng.standard_normal(100) + 3.0
    direct, _ = run_sequence(real, xs)
    via_doc, _ = run_sequence(loaded, xs)
    np.testing.assert_array_equal(direct.estimates, via_doc.estimates)
    np.testing.assert_array_equal(direct.sigma_eps2, via_doc.sigma_eps2)


def test_design_documents_are_written_from_their_template(monkeypatch):
    # A document as design_to_document makes it never reaches json.dumps,
    # whatever its requested delay; its text is json's all the same.
    real = build(2, 0.9, 3, kt=3, q=None)
    documents = [design_to_document(real, requested) for requested in ("auto", 12.5, 12)]
    texts = [json.dumps(document, indent=2) + "\n" for document in documents]

    def refuse(*args, **kwargs):
        raise AssertionError("a design document went to json.dumps")

    monkeypatch.setattr(json, "dumps", refuse)
    assert [document_to_json(document) for document in documents] == texts


def _design_document():
    return design_to_document(build(1, 0.8, 2, kt=2, q=None), "auto")


def _edits():
    """Documents that are not design_to_document's, each with its name."""
    def reordered(document):
        return dict(reversed(list(document.items())))

    yield "extra key", lambda d: d.update(extra=1.0)
    yield "extra spec key", lambda d: d["spec"].update(extra=1.0)
    yield "missing key", lambda d: d["realization"].pop("power_output")
    yield "keys out of order", lambda d: d.update(reordered(d))
    yield "spec keys out of order", lambda d: d.update(spec=reordered(d["spec"]))
    yield "bool scalar", lambda d: d["spec"].update(requested_delay=True)
    yield "bool entry", lambda d: d["analysis"]["vrf"][1].__setitem__(0, False)
    yield "None scalar", lambda d: d["spec"].update(requested_delay=None)
    yield "None entry", lambda d: d["realization"]["power_output"].__setitem__(0, None)
    yield "NaN scalar", lambda d: d["spec"].update(delay=math.nan)
    yield "NaN entry", lambda d: d["realization"]["coeff_output"][0].__setitem__(1, math.nan)
    yield "inf residual", lambda d: d["realization"].update(residual_mass=-math.inf)
    yield "np.float64 scalar", lambda d: d["spec"].update(p=np.float64(0.8))
    yield "np.float64 entry", lambda d: d["analysis"]["vrf"][0].__setitem__(0, np.float64(0.5))
    yield "ragged array", lambda d: d["realization"]["state_output"][1].pop()
    yield "vector for matrix", lambda d: d["analysis"].update(vrf=[1.0, 2.0])
    yield "matrix for vector", lambda d: d["realization"].update(steady_second=[[1.0], [2.0]])
    yield "tuple row", lambda d: d["realization"].update(
        from_orthonormal=[tuple(row) for row in d["realization"]["from_orthonormal"]])
    yield "set row", lambda d: d["analysis"].update(vrf=[{1.0}, {2.0}])
    yield "integer entries", lambda d: d["analysis"].update(vrf=[[1, 0], [0, 1]])
    yield "integer past the float range", lambda d: d["analysis"]["vrf"][0].__setitem__(
        0, 10**400)
    yield "sum past the float range", lambda d: d["analysis"].update(vrf=[[1e308] * 2] * 2)
    yield "empty document", lambda d: d.clear()
    yield "string with escapes", lambda d: d.update(format='erlang"\\\n☃')


@pytest.mark.parametrize("name, edit", list(_edits()), ids=[name for name, _ in _edits()])
def test_any_other_document_is_json_indent_2(name, edit):
    document = _design_document()
    edit(document)
    try:
        expected = json.dumps(document, indent=2) + "\n"
    except TypeError:  # a set is no JSON value
        with pytest.raises(TypeError):
            document_to_json(document)
        return
    assert document_to_json(document) == expected


def test_finite_entries_whose_sum_overflows_load_as_they_are():
    # Each field's check sums its entries in Python floats; a sum that
    # overflows sends the field to the array's own finite check, which
    # takes it: no warning, and the stored values, bit for bit.
    document = json.loads(document_to_json(_design_document()))
    document["analysis"]["vrf"] = [[1e308, 1e308], [1e308, 1.7976931348623157e308]]
    document["realization"]["power_output"] = [1e308, -1e308]
    document["realization"]["steady_second"] = [1e308, 1]
    text = document_to_json(document)
    assert text == json.dumps(document, indent=2) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = realization_from_document(document_from_json(text))
    for key, value in (("vrf", document["analysis"]["vrf"]),
                       *((key, document["realization"][key]) for key in
                         ("steady_second", "from_orthonormal", "coeff_output",
                          "state_output", "power_output"))):
        got = getattr(loaded, key)
        assert np.array_equal(got.view(np.uint64), np.array(value, dtype=float).view(np.uint64))
        assert not got.flags.writeable


_ARRAYS = [("analysis", "vrf")] + [
    ("realization", key) for key in
    ("steady_second", "from_orthonormal", "coeff_output", "state_output", "power_output")
]


@pytest.mark.parametrize("section, key", _ARRAYS)
def test_a_malformed_array_is_named_as_before(section, key):
    # The loader's one per-field walk words each fault as the per-field
    # checks always have.
    document = json.loads(document_to_json(_design_document()))
    value = document[section][key]
    matrix = isinstance(value[0], list)
    last = (len(value) - 1, len(value[-1]) - 1) if matrix else (len(value) - 1,)
    shape = (len(value), len(value[0])) if matrix else (len(value),)
    short = (shape[0] - 1,) + shape[1:]

    def put(entry):
        edited = json.loads(json.dumps(value))
        (edited[-1] if matrix else edited)[-1] = entry
        return edited

    name = f"design document {section} field {key!r}"
    where = "vrf" if key == "vrf" else f"field {key!r}"
    cases = [
        (put("0.5"), f"{name} is not a numeric array: it holds a string or a boolean"),
        (put("abc"), f"{name} is not a numeric array: could not convert string to float: 'abc'"),
        (put(True), f"{name} is not a numeric array: it holds a string or a boolean"),
        (put(None), f"{name} is not a numeric array: it holds a null"),
        (put(math.nan), f"{name} holds 1 non-finite value(s), first nan at {last}"),
        (put(-math.inf), f"{name} holds 1 non-finite value(s), first -inf at {last}"),
        (value[:-1] + [value[-1][:-1]] if matrix else put([0.5, 0.5]),
         f"{name} is not a numeric array: setting an array element with a sequence"),
        (value[:-1], f"design document {where} has shape {short}, expected {shape}"),
        (put(10**400), f"{name} is not a numeric array: int too large to convert to float"),
    ]
    for bad, message in cases:
        document[section][key] = bad
        with pytest.raises(DesignError) as caught:
            realization_from_document(document)
        # numpy words the end of a ragged array's error in its own way.
        assert str(caught.value).startswith(message), (bad, str(caught.value))
        if "sequence" not in message:
            assert str(caught.value) == message


@pytest.mark.parametrize("kind", [np.float64, Fraction])
def test_entries_of_other_number_types_load_as_floats(kind):
    # A document built in Python may hold numbers json.loads never makes;
    # they load to the arrays of their float values.
    document = json.loads(document_to_json(_design_document()))
    want = realization_from_document(document)
    document["analysis"]["vrf"] = [[kind(v) for v in row] for row in document["analysis"]["vrf"]]
    for key in ("steady_second", "power_output"):
        document["realization"][key] = [kind(v) for v in document["realization"][key]]
    for key in ("from_orthonormal", "coeff_output", "state_output"):
        document["realization"][key] = [[kind(v) for v in row]
                                        for row in document["realization"][key]]
    assert {type(v) for v in document["realization"]["power_output"]} == {kind}
    loaded = realization_from_document(document)
    for key in ("vrf", "steady_second", "from_orthonormal", "coeff_output", "state_output",
                "power_output"):
        got, expected = getattr(loaded, key), getattr(want, key)
        assert got.dtype == np.float64 and not got.flags.writeable
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), key


def test_entries_are_checked_before_shapes():
    # A short steady_second and a NaN in the later coeff_output: every
    # realization array's entries are checked before any shape, so the
    # error names the NaN.
    document = json.loads(document_to_json(_design_document()))
    document["realization"]["steady_second"] = document["realization"]["steady_second"][:-1]
    document["realization"]["coeff_output"][0][1] = math.nan
    with pytest.raises(DesignError) as caught:
        realization_from_document(document)
    assert str(caught.value) == (
        "design document realization field 'coeff_output' holds 1 non-finite value(s), "
        "first nan at (0, 1)")
