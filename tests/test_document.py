import json

import numpy as np
import pytest

from erlangreg import (
    DesignError,
    design_to_document,
    document_from_json,
    document_to_json,
    realization_from_document,
)

from oracles import build


def _round_trip(real, requested="auto"):
    text = document_to_json(design_to_document(real, requested))
    return realization_from_document(document_from_json(text))


def test_round_trip_is_bit_exact():
    real = build(2, 0.8, 3, kt=3, q=None)
    loaded = _round_trip(real)
    assert loaded.spec == real.spec
    np.testing.assert_array_equal(loaded.vrf, real.vrf)
    np.testing.assert_array_equal(loaded.state_output, real.state_output)
    np.testing.assert_array_equal(loaded.coeff_output, real.coeff_output)
    np.testing.assert_array_equal(loaded.power_output, real.power_output)
    np.testing.assert_array_equal(loaded.steady_second, real.steady_second)
    np.testing.assert_array_equal(loaded.from_orthonormal, real.from_orthonormal)
    assert loaded.residual_mass == real.residual_mass


def test_document_records_request_and_resolution():
    real = build(0, 0.8, 2, kt=1, q=None)
    doc = design_to_document(real, "auto")
    assert doc["spec"]["requested_delay"] == "auto"
    assert doc["spec"]["delay"] == pytest.approx(8.50, abs=0.01)
    assert doc["analysis"]["cutoff_frequency"] == pytest.approx(0.042, abs=0.001)
    assert doc["analysis"]["group_delay_dc"] == pytest.approx(8.50, abs=1e-4)


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

    bad = json.loads(document_to_json(doc))
    bad["version"] = 99
    with pytest.raises(DesignError):
        document_from_json(json.dumps(bad))

    bad = json.loads(document_to_json(doc))
    del bad["realization"]["coeff_output"]
    with pytest.raises(DesignError):
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


def test_document_with_gamma_field_still_loads():
    # Older version-1 documents also carry the weight normalizer gamma,
    # which the runtime never reads; they must load as before.
    from erlangreg import erlang_sum

    real = build(2, 0.8, 3, kt=3, q=None)
    doc = json.loads(document_to_json(design_to_document(real)))
    assert "gamma" not in doc["realization"]
    doc["realization"]["gamma"] = 1.0 / erlang_sum(2, 0.8)
    loaded = realization_from_document(document_from_json(json.dumps(doc)))
    assert loaded.spec == real.spec
    assert loaded.residual_mass == real.residual_mass
    np.testing.assert_array_equal(loaded.state_output, real.state_output)
    np.testing.assert_array_equal(loaded.vrf, real.vrf)


def test_document_with_steady_first_field_still_loads():
    # Older version-1 documents also carry the signal cascade's fixed point
    # steady_first, which the runtime no longer reads; they must load and
    # run as before.
    from erlangreg import run_sequence, steady_state_vector

    real = build(2, 0.8, 3, kt=3, q=None)
    doc = json.loads(document_to_json(design_to_document(real)))
    assert "steady_first" not in doc["realization"]
    doc["realization"]["steady_first"] = steady_state_vector(real.spec.n_first_states, 0.8).tolist()
    loaded = realization_from_document(document_from_json(json.dumps(doc)))
    assert loaded.spec == real.spec
    np.testing.assert_array_equal(loaded.state_output, real.state_output)
    np.testing.assert_array_equal(loaded.steady_second, real.steady_second)
    xs = np.random.Generator(np.random.PCG64(12)).standard_normal(50) + 3.0
    direct, _ = run_sequence(real, xs)
    via_doc, _ = run_sequence(loaded, xs)
    np.testing.assert_array_equal(direct.estimates, via_doc.estimates)
    np.testing.assert_array_equal(direct.sigma_eps2, via_doc.sigma_eps2)


def test_loaded_realization_runs_identically():
    from erlangreg import run_sequence

    real = build(2, 0.85, 2, kt=2, q=None)
    loaded = _round_trip(real)
    rng = np.random.Generator(np.random.PCG64(11))
    xs = rng.standard_normal(100) + 3.0
    direct, _ = run_sequence(real, xs)
    via_doc, _ = run_sequence(loaded, xs)
    np.testing.assert_array_equal(direct.estimates, via_doc.estimates)
    np.testing.assert_array_equal(direct.sigma_eps2, via_doc.sigma_eps2)
