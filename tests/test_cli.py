import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from erlangreg import (
    ChangeDetector,
    EdgeDetector,
    PeakDetector,
    StreamingEstimator,
    TargetScenario,
    response_report,
    run_sequence,
    simulate_target,
    synth_change_waveform,
)
from erlangreg import cli
from erlangreg.cli import _READ, _RUN_CHUNK, _column_blocks, _numeric_column, main
from erlangreg.document import (
    design_to_document,
    document_from_json,
    document_to_json,
    realization_from_document,
)

from oracles import package_env, template_rows


def _read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def _design(tmp_path, name, kappa, p, kx, kt=1, q=None, ts=1.0):
    path = tmp_path / name
    argv = [
        "design",
        "--kappa", str(kappa),
        "--p", str(p),
        "--kx", str(kx),
        "--kt", str(kt),
        "--ts", str(ts),
        "--out", str(path),
    ]
    if q is not None:
        argv += ["--q", str(q)]
    assert main(argv) == 0
    return path


def _extract_measurements(scenario_csv, out_path, column="measurement"):
    header, rows = _read_csv(scenario_csv)
    idx = header.index(column)
    with open(out_path, "w") as fh:
        fh.write("x\n")
        for row in rows:
            fh.write(row[idx] + "\n")
    return out_path


def _analyze_summary(tmp_path, design):
    out = tmp_path / "resp.csv"
    assert main(["analyze", "--design", str(design), "--out", str(out)]) == 0
    return json.loads((tmp_path / "resp.csv.summary.json").read_text())


def test_design_document_on_stdout(capsys, tmp_path):
    assert main(["design", "--kappa", "0", "--p", "0.8", "--kx", "2"]) == 0
    text = capsys.readouterr().out
    document = document_from_json(text)
    assert document["spec"]["requested_delay"] == "auto"
    assert document["spec"]["delay"] == pytest.approx(8.50, abs=0.01)
    assert document["analysis"]["vrf"][0][0] == pytest.approx(0.056, abs=0.001)
    path = tmp_path / "d.json"
    path.write_text(text)
    assert _analyze_summary(tmp_path, path)["cutoff_frequency"] == pytest.approx(
        0.042, abs=0.001)


def test_design_example_high_shape(tmp_path):
    path = _design(tmp_path, "d.json", kappa=3, p=0.85, kx=2)
    document = document_from_json(path.read_text())
    assert document["spec"]["delay"] == pytest.approx(30.77, abs=0.01)
    assert document["analysis"]["vrf"][0][0] == pytest.approx(0.022, abs=0.001)
    assert _analyze_summary(tmp_path, path)["cutoff_frequency"] == pytest.approx(
        0.019, abs=0.001)


def test_design_document_carries_no_frequency_analysis(tmp_path):
    # analyze computes the cutoff frequency and the DC group delay; the
    # design document keeps only the noise gains the runtime reads.  A
    # one-coefficient design records its realized DC group delay too.
    for shape in (dict(kappa=2, p=0.9, kx=3, kt=3), dict(kappa=0, p=0.8, kx=1)):
        path = _design(tmp_path, "d.json", **shape)
        document = json.loads(path.read_text())
        assert set(document["analysis"]) == {"vrf"}
        summary = _analyze_summary(tmp_path, path)
        q = summary["delay"]
        assert q == document["spec"]["delay"]
        assert abs(summary["group_delay_dc"] - q) <= 1e-12 * max(1.0, q), shape


def test_design_rejects_invalid_p(capsys):
    assert main(["design", "--kappa", "0", "--p", "1.0", "--kx", "2"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["1e200", "1e100"])
def test_design_with_overflowing_delay_exits_3_without_output(tmp_path, capsys, q):
    # 1e200 used to escape as an OverflowError traceback and exit 1; 1e100
    # printed a numpy RuntimeWarning and wrote NaN and Infinity into the
    # document, which run then rejected.
    out = tmp_path / "d.json"
    argv = ["design", "--kappa", "2", "--p", "0.9", "--kx", "3", "--kt", "3", "--q", q]
    assert main(argv + ["--out", str(out)]) == 3
    assert f"delay {float(q)!r} overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, cause", [
    ("--kappa 300 --p 0.99 --kx 1", "overflow the float range (kappa=300, p=0.99, model_order=1)"),
    ("--kappa 120 --p 0.999 --kx 1", "overflow the float range (kappa=120, p=0.999, model_order=1)"),
    ("--kappa 80 --p 0.99 --kx 2", "overflow the float range (kappa=80, p=0.99, model_order=2)"),
    ("--kappa 2 --p 1e-300 --kx 2", "p=1e-300 is so small that its square"),
    ("--kappa 2 --p 0.9 --kx 3 --kt 3 --ts 1e-200", "sample period 1e-200 overflows"),
])
def test_design_names_the_real_cause_and_writes_nothing(tmp_path, capsys, args, cause):
    # The first two exited 1 with a traceback; the others exited 3 naming
    # no design, p = 0.0, or the auto delay with advice to pin another.
    out = tmp_path / "d.json"
    assert main(["design", *args.split(), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert cause in err and "pin a delay" not in err
    assert not out.exists()


@pytest.mark.parametrize("ts", ["1e200", "1e160"])
def test_design_with_underflowing_derivative_gains_writes_nothing(tmp_path, capsys, ts):
    # Exited 0 with a second derivative of noise gain 0 and readout row 0,
    # on which detect --kind peak wrote z = 0 on every row.
    out = tmp_path / "d.json"
    argv = ["design", "--kappa", "2", "--p", "0.9", "--kx", "3", "--kt", "3", "--ts", ts]
    assert main(argv + ["--out", str(out)]) == 3
    assert f"sample period {float(ts)!r} underflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kappa", ["86", "100"])
def test_design_whose_finite_sums_pass_order_171_exits_3(tmp_path, capsys, kappa):
    # Rejected while these sums overflowed; once they were summed, the
    # design built and its level read -6.6e126 for data around 5.
    out = tmp_path / "d.json"
    assert main(["design", "--kappa", kappa, "--p", "1e-8", "--kx", "1", "--out", str(out)]) == 3
    assert f"past 171, where its cascade of {int(kappa) + 1} stages" in capsys.readouterr().err
    assert not out.exists()


def test_design_usage_error_is_exit_2():
    assert main(["design", "--kappa", "0", "--p", "0.8"]) == 2
    assert main(["design", "--kappa", "0", "--p", "0.8", "--kx", "2", "--q", "soon"]) == 2


def test_analyze_grid_and_summary(tmp_path):
    design = _design(tmp_path, "d.json", kappa=0, p=0.8, kx=2)
    out = tmp_path / "resp.csv"
    assert main(["analyze", "--design", str(design), "--out", str(out)]) == 0

    header, rows = _read_csv(out)
    assert header == ["f", "h0_re", "h0_im", "distortion"]
    assert len(rows) == 2048
    # The f = 0 row is the ideal smoother: unit gain, no distortion.
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows[0][3]) == pytest.approx(0.0, abs=1e-20)

    summary = json.loads((tmp_path / "resp.csv.summary.json").read_text())
    assert summary["delay"] == pytest.approx(8.50, abs=0.01)
    assert summary["cutoff_frequency"] == pytest.approx(0.042, abs=0.001)


def test_analyze_slow_filter_summary(tmp_path):
    design = _design(tmp_path, "b.json", kappa=3, p=0.8, kx=2)
    out = tmp_path / "resp.csv"
    summary_path = tmp_path / "sum.json"
    assert main([
        "analyze", "--design", str(design), "--out", str(out),
        "--summary-out", str(summary_path),
    ]) == 0
    summary = json.loads(summary_path.read_text())
    assert summary["delay"] == pytest.approx(22.41, abs=0.01)
    assert summary["cutoff_frequency"] == pytest.approx(0.0256, abs=0.001)


def test_analyze_rejects_zero_grid(tmp_path, capsys):
    design = _design(tmp_path, "d.json", kappa=0, p=0.8, kx=2)
    rc = main(["analyze", "--design", str(design), "--grid-size", "0",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_oversized_size_exits_3_without_output(tmp_path, capsys, command):
    # 1e12 float64 values ask for 7.3 TiB, which numpy refuses at once
    # with a MemoryError; that used to escape as a traceback and exit 1.
    out = tmp_path / "big.csv"
    if command == "analyze":
        design = _design(tmp_path, "d.json", kappa=0, p=0.8, kx=2)
        argv = ["analyze", "--design", str(design), "--grid-size", "1000000000000"]
    else:
        argv = ["simulate", "--scenario", "edge", "--n-samples", "1000000000000"]
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err
    assert list(tmp_path.glob("big.csv*")) == []


def test_analyze_to_stdout_without_summary_writes_nothing(tmp_path, capsys):
    # The usage error comes before the table: standard output stays empty.
    design = _design(tmp_path, "d.json", kappa=0, p=0.8, kx=2)
    assert main(["analyze", "--design", str(design), "--grid-size", "5", "--out", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --summary-out is required when the CSV goes to stdout\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["d.json"]


def test_analyze_missing_document(tmp_path, capsys):
    rc = main(["analyze", "--design", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["analysis"].pop("vrf"), "analysis is missing 'vrf'"),
    (lambda doc: doc["analysis"].update(vrf=None),
     "'vrf' is not a numeric array: it holds a null"),
    (lambda doc: doc["realization"]["power_output"].__setitem__(0, None),
     "'power_output' is not a numeric array: it holds a null"),
], ids=["missing-vrf", "null-vrf", "null-entry"])
def test_missing_or_null_array_field_exits_3(tmp_path, capsys, edit, message):
    design = _design(tmp_path, "d.json", kappa=1, p=0.8, kx=2, kt=2)
    doc = json.loads(design.read_text())
    edit(doc)
    design.write_text(json.dumps(doc))
    data = tmp_path / "in.csv"
    data.write_text("x\n1.0\n2.0\n")
    capsys.readouterr()
    assert main(["run", "--design", str(design), "--input", str(data),
                 "--out", str(tmp_path / "out.csv")]) == 3
    err = capsys.readouterr().err
    assert message in err and "non-finite" not in err


def test_run_constant_input_is_flat(tmp_path):
    design = _design(tmp_path, "d.json", kappa=1, p=0.8, kx=2, kt=2)
    data = tmp_path / "in.csv"
    data.write_text("x\n" + "7.5\n" * 40)
    out = tmp_path / "out.csv"
    assert main(["run", "--design", str(design), "--input", str(data),
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["n", "estimate_0", "estimate_1", "sigma_eps2", "var_0", "var_1"]
    assert len(rows) == 40
    for row in rows:
        assert float(row[1]) == pytest.approx(7.5, abs=1e-9)
        assert abs(float(row[2])) < 1e-9


def test_run_empty_input(tmp_path):
    design = _design(tmp_path, "d.json", kappa=0, p=0.8, kx=1, kt=1, q=0.0)
    data = tmp_path / "in.csv"
    data.write_text("")
    out = tmp_path / "out.csv"
    assert main(["run", "--design", str(design), "--input", str(data),
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert rows == []


def test_run_rejects_non_numeric_row(tmp_path, capsys):
    design = _design(tmp_path, "d.json", kappa=0, p=0.8, kx=1, kt=1, q=0.0)
    data = tmp_path / "in.csv"
    data.write_text("x\n1.0\n2.0\nbroken\n4.0\n")
    rc = main(["run", "--design", str(design), "--input", str(data),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 3
    assert "line 4" in capsys.readouterr().err


def test_run_rejects_non_finite_row(tmp_path, capsys):
    design = _design(tmp_path, "d.json", kappa=0, p=0.8, kx=1, kt=1, q=0.0)
    data = tmp_path / "in.csv"
    data.write_text("x\n1.0\n2.0\ninf\n4.0\n")
    rc = main(["run", "--design", str(design), "--input", str(data),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 3
    assert "line 4: not finite: 'inf'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "detect"])
def test_non_finite_design_document_exits_3(tmp_path, capsys, command):
    design = _design(tmp_path, "d.json", kappa=2, p=0.8, kx=2, kt=2)
    document = json.loads(design.read_text())
    document["realization"]["state_output"][0][1] = float("nan")
    document["realization"]["residual_mass"] = float("inf")
    design.write_text(json.dumps(document))
    data = tmp_path / "in.csv"
    data.write_text("x\n1.0\n2.0\n3.0\n")
    out = tmp_path / "out.csv"
    argv = [command, "--design", str(design), "--input", str(data), "--out", str(out)]
    if command == "detect":
        argv += ["--kind", "edge", "--threshold", "3"]
    assert main(argv) == 3
    assert "'residual_mass' is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value, cause", [
    ("kappa", 2.5, "'kappa' must be an integer, got 2.5"),
    ("n_outputs", "2", "'n_outputs' is not a number: '2'"),
])
def test_run_rejects_a_spec_number_it_would_coerce(tmp_path, capsys, field, value, cause):
    # kappa 2.5 ran as kappa 2 and exited 0.
    design = _design(tmp_path, "d.json", kappa=2, p=0.8, kx=2, kt=2)
    document = json.loads(design.read_text())
    document["spec"][field] = value
    design.write_text(json.dumps(document))
    data = tmp_path / "in.csv"
    data.write_text("x\n1.0\n2.0\n3.0\n")
    out = tmp_path / "out.csv"
    assert main(["run", "--design", str(design), "--input", str(data), "--out", str(out)]) == 3
    assert cause in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "detect"])
@pytest.mark.parametrize("prior", ["nan", "inf", "-1"])
def test_bad_prior_variance_exits_before_any_output(tmp_path, capsys, command, prior):
    design = _design(tmp_path, "d.json", kappa=2, p=0.8, kx=2, kt=2)
    data = tmp_path / "in.csv"
    data.write_text("x\n1.0\n2.0\n3.0\n")
    out = tmp_path / "out.csv"
    argv = [command, "--design", str(design), "--input", str(data),
            "--sigma0-sq", prior, "--out", str(out)]
    if command == "detect":
        argv += ["--kind", "edge", "--threshold", "3"]
    assert main(argv) == 3
    assert "sigma0_sq must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_multiple_columns(tmp_path, capsys):
    design = _design(tmp_path, "d.json", kappa=0, p=0.8, kx=1, kt=1, q=0.0)
    data = tmp_path / "in.csv"
    data.write_text("1.0\n2.0,3.0\n")
    rc = main(["run", "--design", str(design), "--input", str(data),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 3
    assert "line 2" in capsys.readouterr().err


def test_run_matches_library_across_chunks(tmp_path):
    # 9000 samples spans two internal chunks; the file path must agree with
    # the library path to the last printed digit.
    design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=2, kt=2)
    rng = np.random.Generator(np.random.PCG64(31))
    xs = 50.0 + rng.standard_normal(9000)
    data = tmp_path / "in.csv"
    with open(data, "w") as fh:
        fh.write("x\n")
        fh.writelines(f"{float(v)!r}\n" for v in xs)
    out = tmp_path / "out.csv"
    assert main(["run", "--design", str(design), "--input", str(data),
                 "--out", str(out)]) == 0

    real = realization_from_document(document_from_json(design.read_text()))
    expected, _ = run_sequence(real, xs)
    header, rows = _read_csv(out)
    assert len(rows) == 9000
    got = np.array([[float(v) for v in row] for row in rows])
    assert np.array_equal(got[:, 0], np.arange(9000))
    np.testing.assert_allclose(got[:, 1:3].T, expected.estimates, rtol=1e-15, atol=0)
    np.testing.assert_allclose(got[:, 3], expected.sigma_eps2, rtol=1e-15, atol=0)


def test_run_tracks_constant_acceleration(tmp_path):
    # Scenario-1 measurements through the low-gain tracking design: the
    # acceleration estimate must hold within its own 3-sigma band of the
    # true -20 for nearly all post-transient samples.
    scenario = tmp_path / "scenario.csv"
    assert main(["simulate", "--scenario", "target-constant-accel",
                 "--seed", "0", "--out", str(scenario)]) == 0
    measurements = _extract_measurements(scenario, tmp_path / "meas.csv")

    design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=3, kt=3, ts=0.01)
    out = tmp_path / "out.csv"
    assert main(["run", "--design", str(design), "--input", str(measurements),
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    hits = 0
    total = 0
    for row in rows[101:]:
        accel = float(row[3])
        band = 3.0 * np.sqrt(float(row[7]))
        total += 1
        hits += abs(accel - (-20.0)) <= band
    assert hits / total >= 0.95


def test_detect_peak_fires_once_in_window(tmp_path):
    scenario = tmp_path / "peak.csv"
    assert main(["simulate", "--scenario", "peak", "--seed", "1",
                 "--out", str(scenario)]) == 0
    measurements = _extract_measurements(scenario, tmp_path / "meas.csv")
    design = _design(tmp_path, "d.json", kappa=2, p=0.8, kx=3, kt=3)
    out = tmp_path / "det.csv"
    assert main(["detect", "--kind", "peak", "--design", str(design),
                 "--threshold", "10", "--input", str(measurements),
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["n", "z", "event"]
    events = [(int(row[0]), row[2]) for row in rows if row[2]]
    assert len(events) == 1
    n, kind = events[0]
    assert kind == "peak"
    assert 280 <= n <= 320


def test_detect_change_fires_at_both_edges(tmp_path):
    scenario = tmp_path / "change.csv"
    assert main(["simulate", "--scenario", "change", "--seed", "5",
                 "--out", str(scenario)]) == 0
    measurements = _extract_measurements(scenario, tmp_path / "meas.csv")
    design_a = _design(tmp_path, "a.json", kappa=0, p=0.8, kx=2)
    design_b = _design(tmp_path, "b.json", kappa=3, p=0.8, kx=2, q=8.5)
    out = tmp_path / "det.csv"
    assert main(["detect", "--kind", "change", "--design", str(design_a),
                 "--design-b", str(design_b), "--threshold", "3",
                 "--input", str(measurements), "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    events = [int(row[0]) for row in rows if row[2]]
    assert len(events) >= 2
    assert any(120 <= n <= 200 for n in events)
    assert any(230 <= n <= 310 for n in events)


def test_detect_infinite_threshold_is_silent(tmp_path):
    scenario = tmp_path / "peak.csv"
    assert main(["simulate", "--scenario", "peak", "--seed", "1",
                 "--out", str(scenario)]) == 0
    measurements = _extract_measurements(scenario, tmp_path / "meas.csv")
    design = _design(tmp_path, "d.json", kappa=2, p=0.8, kx=3, kt=3)
    out = tmp_path / "det.csv"
    assert main(["detect", "--kind", "peak", "--design", str(design),
                 "--threshold", "inf", "--input", str(measurements),
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out)
    assert all(not row[2] for row in rows)


def test_detect_nan_threshold_exits_3(tmp_path, capsys):
    design = _design(tmp_path, "d.json", kappa=2, p=0.8, kx=2, kt=2)
    data = tmp_path / "in.csv"
    data.write_text("x\n1.0\n2.0\n")
    out = tmp_path / "det.csv"
    assert main(["detect", "--kind", "edge", "--design", str(design), "--threshold", "nan",
                 "--input", str(data), "--out", str(out)]) == 3
    assert "threshold must not be NaN" in capsys.readouterr().err
    assert not out.exists()


def test_detect_rejects_non_finite_first_row(tmp_path, capsys):
    # A first row that parses as a float is data, not a header.
    design = _design(tmp_path, "d.json", kappa=2, p=0.8, kx=2, kt=2)
    data = tmp_path / "in.csv"
    data.write_text("nan\n1.0\n2.0\n3.0\n4.0\n")
    out = tmp_path / "out.csv"
    rc = main(["detect", "--kind", "edge", "--design", str(design),
               "--threshold", "3", "--input", str(data), "--out", str(out)])
    assert rc == 3
    assert "line 1: not finite: 'nan'" in capsys.readouterr().err
    assert not out.exists()


def test_detect_rejects_insufficient_outputs(tmp_path, capsys):
    design = _design(tmp_path, "d.json", kappa=0, p=0.8, kx=2, kt=1)
    data = tmp_path / "in.csv"
    data.write_text("1.0\n2.0\n")
    rc = main(["detect", "--kind", "edge", "--design", str(design),
               "--threshold", "3", "--input", str(data),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert "n_outputs" in capsys.readouterr().err


def test_detect_change_needs_second_design(tmp_path, capsys):
    design = _design(tmp_path, "a.json", kappa=0, p=0.8, kx=2)
    data = tmp_path / "in.csv"
    data.write_text("1.0\n")
    rc = main(["detect", "--kind", "change", "--design", str(design),
               "--threshold", "3", "--input", str(data),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert "design-b" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["edge", "peak"])
def test_detect_rejects_a_second_design_unless_change(kind, tmp_path, capsys):
    # --design-b is checked before any design is loaded or output opened:
    # a path that does not exist names the option, not the file.
    design = _design(tmp_path, "a.json", kappa=2, p=0.8, kx=3, kt=3)
    data = tmp_path / "in.csv"
    data.write_text("1.0\n")
    out = tmp_path / "o.csv"
    rc = main(["detect", "--kind", kind, "--design", str(design),
               "--design-b", str(tmp_path / "no" / "such" / "file.json"),
               "--threshold", "3", "--input", str(data), "--out", str(out)])
    assert rc == 3
    assert "--design-b" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, readers", [
    (["run", "--design", "-"], ["--design", "--input"]),
    (["run", "--design", "-", "--input", "-"], ["--design", "--input"]),
    (["detect", "--kind", "edge", "--threshold", "3", "--design", "-"], ["--design", "--input"]),
    (["detect", "--kind", "change", "--threshold", "3", "--design", "A", "--design-b", "-",
      "--input", "-"], ["--design-b", "--input"]),
    (["detect", "--kind", "change", "--threshold", "3", "--design", "-", "--design-b", "-",
      "--input", "x.csv"], ["--design", "--design-b"]),
])
def test_one_standard_input_feeds_one_reader(command, readers, tmp_path, capsys, monkeypatch):
    # The design read would drain standard input and leave no samples: a
    # usage error, naming both options, before anything is read or written.
    design = _design(tmp_path, "a.json", kappa=0, p=0.8, kx=2, kt=2)
    stdin = io.BytesIO(design.read_bytes())
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text("1.0\n")
    argv = [str(design) if arg == "A" else arg for arg in command]
    capsys.readouterr()
    assert main(argv + ["--out", "o.csv"]) == 2
    captured = capsys.readouterr()
    assert f"standard input can feed only one of {', '.join(readers)}" in captured.err
    assert captured.out == ""
    assert stdin.tell() == 0
    assert not (tmp_path / "o.csv").exists()
    # With the samples in a file, the design comes from standard input.
    if command[0] == "run":
        stdin.seek(0)
        assert main(["run", "--design", "-", "--input", "x.csv", "--out", "o.csv"]) == 0
        assert (tmp_path / "o.csv").read_text().splitlines()[1] == "0,1,0,0,0,0"


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16", "utf-32"])
def test_a_design_document_loads_alike_by_path_and_standard_input(
        encoding, tmp_path, monkeypatch, capsysbinary):
    # A document is read as bytes and json.loads decodes it, so standard
    # input loads what the path loads, in each encoding json reads, whatever
    # codec standard input's text layer has.
    text = _design(tmp_path, "a.json", kappa=0, p=0.8, kx=2, kt=2).read_text()
    design = tmp_path / "e.json"
    design.write_bytes(text.encode(encoding))
    data = tmp_path / "x.csv"
    data.write_text("x\n1.0\n2.5\n")
    argv = ["run", "--input", str(data), "--out", "-", "--design"]
    capsysbinary.readouterr()
    outcomes = [(main(argv + [str(design)]), *capsysbinary.readouterr())]
    for codec in ("utf-8", "utf-16", "latin-1"):
        stdin = io.TextIOWrapper(io.BytesIO(design.read_bytes()), encoding=codec)
        monkeypatch.setattr(sys, "stdin", stdin)
        outcomes.append((main(argv + ["-"]), *capsysbinary.readouterr()))
    assert outcomes[0][::2] == (0, b"")
    assert outcomes[0][1].splitlines()[1] == b"0,1,0,0,0,0"
    assert outcomes == outcomes[:1] * 4


def test_the_console_entry_reads_a_design_on_standard_input_as_bytes(tmp_path):
    # Under PYTHONIOENCODING=utf-16 standard input's text layer would read
    # a UTF-8 document as UTF-16; its buffer reads what the path reads.
    design = _design(tmp_path, "d.json", kappa=0, p=0.8, kx=2, kt=2)
    data = tmp_path / "x.csv"
    data.write_text("x\n1.0\n2.5\n")
    argv = [sys.executable, "-m", "erlangreg.cli", "run", "--input", str(data), "--design"]
    env = package_env(PYTHONIOENCODING="utf-16")
    by_path = subprocess.run(argv + [str(design)], env=env, capture_output=True,
                             stdin=subprocess.DEVNULL, timeout=120)
    with open(design, "rb") as fh:
        by_stdin = subprocess.run(argv + ["-"], env=env, capture_output=True, stdin=fh,
                                  timeout=120)
    assert (by_path.returncode, by_path.stderr) == (0, b"")
    assert (by_stdin.returncode, by_stdin.stdout, by_stdin.stderr) == (
        0, by_path.stdout, b"")


def test_detect_change_rejects_mismatched_delay(tmp_path, capsys):
    design_a = _design(tmp_path, "a.json", kappa=0, p=0.8, kx=2)
    design_b = _design(tmp_path, "b.json", kappa=3, p=0.8, kx=2)  # optimum 22.41
    data = tmp_path / "in.csv"
    data.write_text("1.0\n")
    rc = main(["detect", "--kind", "change", "--design", str(design_a),
               "--design-b", str(design_b), "--threshold", "3",
               "--input", str(data), "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert "delay" in capsys.readouterr().err


def test_version_1_and_version_2_documents_give_the_same_bytes(tmp_path):
    # The version-1 fixture was written by `design --kappa 2 --p 0.8 --kx 3
    # --kt 3` before the format dropped its overlap, to_orthonormal and
    # synthesis arrays; every command reading it must write what the
    # version-2 document of the same arrays gives.
    v1 = Path(__file__).parent / "data" / "design_v1_kappa2_p0.8_kx3_kt3.json"
    v2 = tmp_path / "v2.json"
    real = realization_from_document(document_from_json(v1.read_bytes()))
    v2.write_text(document_to_json(design_to_document(real)))
    assert json.loads(v2.read_text())["version"] == 2
    xs = np.random.Generator(np.random.PCG64(8)).standard_normal(3000)
    xs[1500:] += 0.02 * np.arange(1500)
    np.savetxt(tmp_path / "x.csv", xs)
    commands = {
        "run": ["run"],
        "edge": ["detect", "--kind", "edge", "--threshold", "3"],
        "peak": ["detect", "--kind", "peak", "--threshold", "3"],
        "analyze": ["analyze", "--grid-size", "64"],
    }
    for name, argv in commands.items():
        outputs = []
        for version, doc in (("v1", v1), ("v2", v2)):
            out = tmp_path / f"{name}-{version}.csv"
            summary = tmp_path / f"{name}-{version}.json"
            if name == "analyze":
                argv_in = ["--summary-out", str(summary)]
            else:
                argv_in = ["--input", str(tmp_path / "x.csv")]
                summary.write_text("")
            assert main(argv + argv_in + ["--design", str(doc), "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1], name


def test_simulate_row_counts(tmp_path):
    target = tmp_path / "t.csv"
    assert main(["simulate", "--scenario", "target-constant-accel",
                 "--out", str(target)]) == 0
    header, rows = _read_csv(target)
    assert header == ["n", "position", "velocity", "acceleration", "measurement"]
    assert len(rows) == 200

    peak = tmp_path / "p.csv"
    assert main(["simulate", "--scenario", "peak", "--out", str(peak)]) == 0
    header, rows = _read_csv(peak)
    assert header == ["n", "clean", "measurement"]
    assert len(rows) == 400


def test_simulate_same_seed_same_bytes(tmp_path):
    digests = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["simulate", "--scenario", "target-random-accel",
                     "--seed", "9", "--out", str(path)]) == 0
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]

    other = tmp_path / "c.csv"
    assert main(["simulate", "--scenario", "target-random-accel",
                 "--seed", "10", "--out", str(other)]) == 0
    assert hashlib.sha256(other.read_bytes()).hexdigest() != digests[0]


@pytest.mark.parametrize("argv", [
    ["--scenario", "target-constant-accel", "--ts", "nan"],
    ["--scenario", "target-random-accel", "--ts", "inf"],
    ["--scenario", "target-constant-accel", "--x0", "nan"],
    ["--scenario", "target-constant-accel", "--v0=-inf"],
    ["--scenario", "target-constant-accel", "--accel", "nan"],
    ["--scenario", "target-random-accel", "--noise-std", "nan"],
    ["--scenario", "edge", "--noise-std", "nan"],
    ["--scenario", "change", "--noise-std", "inf"],
    ["--scenario", "peak", "--noise-std=-1"],
], ids=["ts-nan", "ts-inf", "x0-nan", "v0-inf", "accel-nan", "target-noise-nan",
        "edge-noise-nan", "change-noise-inf", "peak-noise-negative"])
def test_simulate_rejects_non_finite_parameters(tmp_path, capsys, argv):
    out = tmp_path / "s.csv"
    assert main(["simulate", *argv, "--n-samples", "5", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("scenario,n_samples,shortest", [
    ("edge", "100", 151), ("change", "150", 151), ("peak", "3", 4), ("peak", "0", 4),
    ("edge", "-3", 151),
])
def test_simulate_rejects_records_too_short(tmp_path, capsys, scenario, n_samples, shortest):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--scenario", scenario, "--n-samples", n_samples,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: n_samples must be at least {shortest} ")
    assert not out.exists()


def test_simulate_unknown_scenario_is_usage_error():
    assert main(["simulate", "--scenario", "tsunami"]) == 2


def test_run_throughput_on_a_million_samples(tmp_path):
    design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=2, kt=2)
    n = 1_000_000
    rng = np.random.Generator(np.random.PCG64(42))
    xs = 10.0 + rng.standard_normal(n)
    data = tmp_path / "big.csv"
    with open(data, "w") as fh:
        fh.write("x\n")
        fh.writelines(f"{float(v)!r}\n" for v in xs)
    out = tmp_path / "big_out.csv"
    start = time.perf_counter()
    assert main(["run", "--design", str(design), "--input", str(data),
                 "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert n / elapsed >= 1e5, f"throughput {n / elapsed:,.0f} samples/s"
    with open(out) as fh:
        assert sum(1 for _ in fh) == n + 1


def _values_text(n, seed=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [f"{float(v)!r}\n" for v in 3.0 + rng.standard_normal(n)]


def _corpus():
    """name -> (file bytes, start of the error message or None)."""
    lines = _values_text(20_000)
    at = 9_000      # inside the second block

    def with_row(row, header=True):
        body = lines[:at] + [row] + lines[at:]
        return ("x\n" if header else "") + "".join(body)

    def straddling(row):
        # row starts 2 bytes before a read-chunk boundary, so its first
        # character, ASCII or 3 bytes long, is cut by it.
        head = "x\n" + "".join(lines[:4_000])
        assert len(head) > _READ
        return head[:_READ - 3] + "\n" + row + head[_READ - 3:] + "".join(lines[4_000:])

    wide = "0." + "0" * 140_000 + "1\n"     # float() parses it; csv rejects it
    text = {
        "header": ("x\n" + "".join(lines), None),
        "no-header": ("".join(lines), None),
        "crlf": ("x\r\n" + "".join(v.replace("\n", "\r\n") for v in lines), None),
        "cr-only": ("x\r" + "".join(v.replace("\n", "\r") for v in lines), None),
        "quoted-header": ('"x"\n' + "".join(lines), None),
        "quoted-value": (with_row('"1.5"\n'), None),
        "padded": (with_row("   1.5 \t\n"), None),
        "underscore": (with_row("1_000\n"), None),
        "blank-middle": (with_row("\n"), None),
        "blank-first": ("\n" + "".join(lines), None),
        "blank-end": ("x\n" + "".join(lines) + "\n\n", None),
        "header-only": ("x\n", None),
        "empty": ("", None),
        "one-value": ("2.5", None),
        "second-field": (with_row("1.0,2.0\n"), f"line {at + 2}: "),
        "bad-row": (with_row("broken\n"), f"line {at + 2}: "),
        "nan": (with_row("nan\n", header=False), f"line {at + 1}: "),
        "header-after-blank": ("\nx\n1.0\n", "line 2: "),
        "oversized": (with_row(wide), f"line {at + 2}: "),
        "oversized-header": (wide + "".join(lines), "line 1: "),
        # A lone carriage return ends a line for the text reader, which
        # numbers a bad row in a later block one line further on.
        "cr-cr-lf": (with_row("1.0\r\r\n" + "".join(lines[:8_500]) + "broken\n"),
                     f"line {at + 8_504}: "),
        "cr-only-short": ("x\r1.5\r2.5\r", None),
        "wide-digits": (with_row("\uff11.\uff15\n"), None),     # float() reads 1.5
        "nul": (with_row("1.\x005\n"), f"line {at + 2}: "),
        "bom": ("\ufeffx\n" + "".join(lines), None),
        "row-across-chunks": (straddling("12.5\n"), None),
        "wide-digit-across-chunks": (straddling("\uff11.\uff15\n"), None),
        # Line 1 as the text layer reads it: a quoted field left open runs
        # on (here to the end of the input), and a lone carriage return ends
        # the line.
        "open-quote-header": ('"x\n' + "".join(lines), "line 1: field larger than field limit"),
        "cr-in-header": ("x\r1.5\n" + "".join(lines), None),
        "bom-quoted-header": ('\ufeff"x"\n' + "".join(lines), None),
        "quoted-header-crlf": ('"x"\r\n' + "".join(v.replace("\n", "\r\n") for v in lines), None),
    }
    data = {name: (body.encode(), error) for name, (body, error) in text.items()}
    # A byte the codec cannot decode is kept as a lone surrogate: a header
    # holding one is a header, and a later row fails as not numeric.
    data["undecodable"] = (with_row("1.5\n").encode().replace(b"1.5\n", b"1.\xff\n"),
                           f"line {at + 2}: not numeric: '1.\\udcff'")
    data["undecodable-header"] = (b"x\xff\n" + "".join(lines).encode(), None)
    return data


_CORPUS = _corpus()


def _line_parser_outcome(path):
    """Values and error of _numeric_column over the text of path."""
    with open(path, newline="", errors="surrogateescape") as fh:
        try:
            return list(_numeric_column(csv.reader(fh))), None
        except ValueError as exc:
            return None, str(exc)


def _blocks_outcome(fh):
    try:
        return list(_column_blocks(fh)), None
    except ValueError as exc:
        return None, str(exc)


def _assert_same_outcome(outcome, expected):
    (blocks, error), (values, expected_error) = outcome, expected
    assert error == expected_error
    if error is None:
        assert all(block.size == _RUN_CHUNK for block in blocks[:-1])
        assert all(0 < block.size <= _RUN_CHUNK for block in blocks)
        got = np.concatenate(blocks) if blocks else np.empty(0)
        assert np.array_equal(got, np.array(values))


class _Pipe(io.RawIOBase):
    """A stream that cannot seek and hands out at most `size` bytes a read."""

    def __init__(self, data, size):
        self.source = io.BytesIO(data)
        self.size = size

    def readable(self):
        return True

    def read(self, n=-1):
        return self.source.read(self.size if n < 0 else min(n, self.size))

    def readinto(self, b):
        return self.source.readinto(memoryview(b)[:self.size])


def _run_both_ways(argv, data, monkeypatch, capsysbinary):
    """(exit code, stdout, stderr) of main(argv) reading data by --input, then by stdin."""
    outcomes = []
    for stdin in (None, io.TextIOWrapper(io.BufferedReader(_Pipe(data.read_bytes(), _READ)))):
        monkeypatch.setattr(sys, "stdin", stdin)
        rc = main(argv + (["--input", str(data)] if stdin is None else []))
        outcomes.append((rc, *capsysbinary.readouterr()))
    return outcomes


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_block_reader_agrees_with_line_parser(tmp_path, monkeypatch, capsysbinary, name):
    # The bytes reader and the line parser give the same values, and the
    # same error, on every input; run and detect give the same bytes
    # reading it from a file and from standard input.
    body, error_start = _CORPUS[name]
    data = tmp_path / "in.csv"
    data.write_bytes(body)
    expected = _line_parser_outcome(data)
    with open(data, "rb") as fh:
        _assert_same_outcome(_blocks_outcome(fh), expected)
    values, error = expected
    if error_start is None:
        assert error is None
    else:
        assert error.startswith(error_start)

    design = _design(tmp_path, "d.json", kappa=0, p=0.8, kx=2, kt=2, q=0.0)
    for argv in (["run"], ["detect", "--kind", "edge", "--threshold", "3"]):
        argv += ["--design", str(design), "--out", "-"]
        by_file, by_stdin = _run_both_ways(argv, data, monkeypatch, capsysbinary)
        assert by_stdin == by_file
        rc, out, err = by_file
        if error is None:
            assert (rc, err) == (0, b"")
            assert len(out.splitlines()) == len(values) + 1
        else:
            assert rc == 3
            assert err == f"error: {error}\n".encode()


@pytest.mark.parametrize("size", [1, 4096, _READ])
@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_block_reader_on_a_stream_that_cannot_seek(tmp_path, name, size):
    data = tmp_path / "in.csv"
    data.write_bytes(_CORPUS[name][0])
    pipe = _Pipe(data.read_bytes(), size)
    assert not pipe.seekable()
    _assert_same_outcome(_blocks_outcome(pipe), _line_parser_outcome(data))


def test_block_reader_leaves_an_unbuffered_stream_open():
    # An unbuffered stream is read through a buffer that is detached, not
    # closed, when the blocks end or are abandoned.
    pipe = _Pipe(b"x\n1\n2\n", 1)
    assert np.concatenate(list(_column_blocks(pipe))).tolist() == [1.0, 2.0]
    assert not pipe.closed
    pipe = _Pipe(b"1\n" * (_RUN_CHUNK + 1), 1)
    blocks = _column_blocks(pipe)
    assert next(blocks).size == _RUN_CHUNK
    blocks.close()
    assert not pipe.closed


@pytest.mark.parametrize("name", ["header", "bom", "quoted-header", "bom-quoted-header",
                                  "quoted-header-crlf", "undecodable-header"])
def test_a_decoded_first_line_keeps_the_bytes_path(tmp_path, monkeypatch, name):
    # Line 1 is decoded by the bytes reader itself, so a BOM, a quoted or
    # an undecodable header does not send the input to the line parser.
    data = tmp_path / "in.csv"
    data.write_bytes(_CORPUS[name][0])
    made = []

    class CountedRest(cli._Rest):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cli, "_Rest", CountedRest)
    with open(data, "rb") as fh:
        _assert_same_outcome(_blocks_outcome(fh), _line_parser_outcome(data))
    assert made == []


@pytest.mark.parametrize("name", ["header", "crlf", "cr-only", "bom", "bad-row", "undecodable"])
def test_run_reads_redirected_and_piped_standard_input_as_a_file(tmp_path, name):
    data = tmp_path / "in.csv"
    data.write_bytes(_CORPUS[name][0])
    design = _design(tmp_path, "d.json", kappa=0, p=0.8, kx=1, kt=1, q=0.0)
    argv = [sys.executable, "-m", "erlangreg.cli", "run", "--design", str(design)]

    def run(extra=(), **stdin):
        done = subprocess.run(argv + list(extra), env=package_env(), capture_output=True,
                              timeout=120, **stdin)
        return done.returncode, done.stdout, done.stderr

    by_file = run(["--input", str(data)], stdin=subprocess.DEVNULL)
    assert by_file[0] == (3 if _CORPUS[name][1] else 0)
    with open(data, "rb") as fh:
        assert run(stdin=fh) == by_file
    assert run(input=data.read_bytes()) == by_file


@pytest.mark.parametrize("command", ["run", "detect"])
def test_oversized_field_exits_3(tmp_path, capsys, command):
    design = _design(tmp_path, "d.json", kappa=2, p=0.8, kx=2, kt=2)
    data = tmp_path / "in.csv"
    data.write_text("x\n1.0\n" + "1" * 140_000 + "\n2.0\n")
    argv = [command, "--design", str(design), "--input", str(data),
            "--out", str(tmp_path / "out.csv")]
    if command == "detect":
        argv += ["--kind", "edge", "--threshold", "3"]
    assert main(argv) == 3
    assert "line 3: field larger than field limit (131072)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "detect"])
def test_bad_row_after_first_block_keeps_earlier_rows(tmp_path, capsys, command):
    design = _design(tmp_path, "d.json", kappa=2, p=0.8, kx=2, kt=2)
    lines = _values_text(3 * _RUN_CHUNK)
    good, partial = tmp_path / "good.csv", tmp_path / "partial.csv"
    good.write_text("".join(lines))
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines[:_RUN_CHUNK + 10] + ["oops\n"] + lines[_RUN_CHUNK + 10:]))
    argv = [command, "--design", str(design)]
    if command == "detect":
        argv += ["--kind", "edge", "--threshold", "3"]
    assert main(argv + ["--input", str(good), "--out", str(tmp_path / "full.csv")]) == 0
    assert main(argv + ["--input", str(bad), "--out", str(partial)]) == 3
    assert f"line {_RUN_CHUNK + 11}: not numeric: 'oops'" in capsys.readouterr().err
    full = (tmp_path / "full.csv").read_text().splitlines()
    rows = partial.read_text().splitlines()
    # The first block's rows are written; the failing block's are not.
    assert _RUN_CHUNK - 100 < len(rows) - 1 <= _RUN_CHUNK
    assert rows == full[:len(rows)]


def test_detect_streams_blocks_like_the_library(tmp_path):
    # A step just before the first block boundary: its exceedance run peaks
    # in the first block but is still open when that block ends, so its
    # event lands on a row of the first block only during the second.
    design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=2, kt=2)
    rng = np.random.Generator(np.random.PCG64(8))
    xs = rng.standard_normal(20_000)
    xs[_RUN_CHUNK - 40:] += 25.0
    data = tmp_path / "in.csv"
    data.write_text("x\n" + "".join(f"{float(v)!r}\n" for v in xs))
    out = tmp_path / "det.csv"
    assert main(["detect", "--kind", "edge", "--design", str(design), "--threshold", "3",
                 "--input", str(data), "--out", str(out)]) == 0

    detector = EdgeDetector(realization_from_document(document_from_json(design.read_text())), 3)
    z = [detector.run(xs[:_RUN_CHUNK])]
    peak = detector._settled_count()
    assert peak < _RUN_CHUNK - 1
    z += [detector.run(xs[i:i + _RUN_CHUNK]) for i in range(_RUN_CHUNK, xs.size, _RUN_CHUNK)]
    detector.finish()
    kinds = {event.n: event.kind for event in detector.events}
    assert kinds[peak] == "rising-edge"
    expected = "n,z,event\n" + "".join(
        f"{n},{value:.17g},{kinds.get(n, '')}\n"
        for n, value in enumerate(np.concatenate(z).tolist())
    )
    assert out.read_text() == expected


def test_detect_memory_does_not_grow_with_input(tmp_path):
    design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=2, kt=2)
    argv = ["detect", "--kind", "edge", "--design", str(design), "--threshold", "3",
            "--out", str(tmp_path / "det.csv")]
    peaks = []
    for blocks in (1, 1, 12):
        data = tmp_path / "in.csv"
        data.write_text("x\n" + "".join(_values_text(blocks * _RUN_CHUNK)))
        tracemalloc.start()
        try:
            assert main(argv + ["--input", str(data)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # The first run pays one-off imports; 11 more blocks may add at most
    # what the events and the open run hold, far below one block of input.
    assert peaks[2] - peaks[1] < 0.5e6, peaks


# ---------------------------------------------------------------------------
# Byte identity: every command's CSV is what Python's '%d' and '%.17g' give
# for the library's numbers, row by row (tests/oracles.template_rows).


def _load(design):
    return realization_from_document(document_from_json(design.read_text()))


def _write_column(path, xs):
    path.write_text("x\n" + "".join(f"{float(v)!r}\n" for v in xs))
    return path


def _both_paths_input():
    """Exact zeros, then levels near 1e18 and 1e-13, then ordinary data.

    The zeros make warm-up rows of 0, the far levels values outside the
    formatter's fast range, and the last stretch values inside it; each of
    the last three stretches crosses a block boundary.
    """
    rng = np.random.Generator(np.random.PCG64(40))
    huge = 1e18 + 1e3 * rng.standard_normal(_RUN_CHUNK)
    tiny = 1e-13 * (1.0 + 0.01 * rng.standard_normal(_RUN_CHUNK))
    ordinary = 30.0 * np.sin(np.arange(_RUN_CHUNK + 500) / 300.0) + rng.standard_normal(
        _RUN_CHUNK + 500)
    return np.concatenate([np.zeros(300), huge, tiny, ordinary])


def _library_run(real, xs):
    stream, tables = StreamingEstimator(real), []
    for i in range(0, xs.size, _RUN_CHUNK):
        result = stream.extend(xs[i:i + _RUN_CHUNK])
        tables.append(np.vstack([result.estimates, result.sigma_eps2, result.variances]))
    table = np.concatenate(tables, axis=1)
    template = "%d," + ",".join(["%.17g"] * table.shape[0]) + "\n"
    return template_rows(template, [range(xs.size), *table])


def _library_detect(detector, xs):
    z = np.concatenate([detector.run(xs[i:i + _RUN_CHUNK])
                        for i in range(0, xs.size, _RUN_CHUNK)])
    detector.finish()
    kinds = {event.n: event.kind for event in detector.events}
    return template_rows("%d,%.17g,%s\n",
                         [range(z.size), z, [kinds.get(n, "") for n in range(z.size)]])


def test_run_bytes_match_the_oracle(tmp_path):
    design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=2, kt=2)
    xs = _both_paths_input()
    data = _write_column(tmp_path / "in.csv", xs)
    out = tmp_path / "run.csv"
    assert main(["run", "--design", str(design), "--input", str(data), "--out", str(out)]) == 0
    want = "n,estimate_0,estimate_1,sigma_eps2,var_0,var_1\n" + _library_run(_load(design), xs)
    text = out.read_text()
    assert text == want
    # Both formatter paths ran: zeros, values far outside the fast range
    # and ordinary ones.
    fields = [row.split(",") for row in text.splitlines()[1:]]
    assert all(f[2] == "0" for f in fields[1:300])
    assert any("e+17" in f[1] or "e+18" in f[1] for f in fields)
    assert any("e-13" in f[1] or "e-14" in f[1] for f in fields)
    assert any(len(f[1]) > 15 and 1.0 < abs(float(f[1])) < 100.0 for f in fields)


@pytest.mark.parametrize("kind", ["edge", "peak", "change"])
def test_detect_bytes_match_the_oracle(tmp_path, kind):
    xs = _both_paths_input()
    argv = ["detect", "--kind", kind, "--threshold", "3"]
    if kind == "change":
        fast = _design(tmp_path, "fast.json", kappa=0, p=0.8, kx=2, kt=2)
        slow = _design(tmp_path, "slow.json", kappa=3, p=0.8, kx=2, kt=1,
                       q=repr(_load(fast).spec.delay))
        detector = ChangeDetector(_load(fast), _load(slow), 3.0)
        argv += ["--design", str(fast), "--design-b", str(slow)]
    else:
        design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=3, kt=3)
        detector = (EdgeDetector if kind == "edge" else PeakDetector)(_load(design), 3.0)
        argv += ["--design", str(design)]
    data = _write_column(tmp_path / "in.csv", xs)
    out = tmp_path / "det.csv"
    assert main(argv + ["--input", str(data), "--out", str(out)]) == 0
    assert out.read_text() == "n,z,event\n" + _library_detect(detector, xs)
    assert detector.events


@pytest.mark.parametrize("event_n", [_RUN_CHUNK - 1, _RUN_CHUNK])
def test_detect_event_on_block_edge(tmp_path, event_n):
    # A 25-sigma step 33 samples earlier puts this design's rising-edge
    # event on the last row of the first block or the first of the second.
    design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=2, kt=2)
    xs = np.random.Generator(np.random.PCG64(3)).standard_normal(20_000)
    xs[event_n - 33:] += 25.0
    detector = EdgeDetector(_load(design), 3.0)
    want = _library_detect(detector, xs)
    assert (event_n, "rising-edge") in [(e.n, e.kind) for e in detector.events]
    data = _write_column(tmp_path / "in.csv", xs)
    out = tmp_path / "det.csv"
    assert main(["detect", "--kind", "edge", "--design", str(design), "--threshold", "3",
                 "--input", str(data), "--out", str(out)]) == 0
    assert out.read_text() == "n,z,event\n" + want


def _changing_layout_input():
    """Four blocks whose rows need different slot widths.

    A noisy first block makes wide fast-range fields; a jump of 1e17 and an
    exact return to the first sample make fields of 1e15 and more, of
    e-notation, subnormals and zeros, and edge events, in the second; small
    noise makes narrow fields in the third; the fourth is short.
    """
    rng = np.random.Generator(np.random.PCG64(41))
    x0 = 0.25
    wide = x0 + 3e6 * rng.standard_normal(_RUN_CHUNK)
    wide[0] = x0
    jump = np.full(_RUN_CHUNK, x0)
    jump[:200] += 1e17
    narrow = x0 + 1e-3 * rng.standard_normal(_RUN_CHUNK + 50)
    return np.concatenate([wide, jump, narrow])


@pytest.mark.parametrize("command", ["run", "detect"])
def test_rows_across_changing_layouts(tmp_path, command):
    design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=2, kt=2)
    xs = _changing_layout_input()
    data = _write_column(tmp_path / "in.csv", xs)
    out = tmp_path / "out.csv"
    argv = ["--design", str(design), "--input", str(data), "--out", str(out)]
    if command == "run":
        assert main(["run"] + argv) == 0
        want = "n,estimate_0,estimate_1,sigma_eps2,var_0,var_1\n" + _library_run(
            _load(design), xs)
    else:
        assert main(["detect", "--kind", "edge", "--threshold", "3"] + argv) == 0
        want = "n,z,event\n" + _library_detect(EdgeDetector(_load(design), 3.0), xs)
    text = out.read_text()
    assert text == want
    rows = [row.split(",") for row in text.splitlines()[1:]]
    blocks = [rows[i:i + _RUN_CHUNK] for i in range(0, len(rows), _RUN_CHUNK)]
    assert [len(block) for block in blocks] == [_RUN_CHUNK] * 3 + [50]
    floats = slice(1, 2) if command == "detect" else slice(1, None)
    values = [np.array([float(f) for row in block for f in row[floats]]) for block in blocks]
    size = [np.abs(v) for v in values]
    assert np.any(size[1] == 0.0)
    if command == "run":
        # Wide fast-range fields past the warm-up rows, then every kind,
        # then fields of one digit before the point.
        first = size[0].reshape(_RUN_CHUNK, -1)[10:]
        assert first.min() >= 1e-11 and 1e12 <= first.max() < 1e15
        assert np.any(size[1] >= 1e15)
        assert np.any((size[1] > 0.0) & (size[1] < 2.2250738585072014e-308))
        assert max(size[2].max(), size[3].max()) < 10.0
    else:
        assert {row[2] for row in blocks[1]} == {"", "rising-edge", "falling-edge"}
        assert {row[2] for row in blocks[3]} == {""}


@pytest.mark.parametrize("command", ["run", "detect", "edge"])
def test_standard_output_bytes_match_a_file(tmp_path, capsysbinary, command):
    # detect is the change detector on its fast/slow pair.
    xs = _both_paths_input()
    data = _write_column(tmp_path / "in.csv", xs)
    if command == "run":
        design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=2, kt=2)
        argv = ["run", "--design", str(design)]
    elif command == "edge":
        design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=3, kt=3)
        argv = ["detect", "--kind", "edge", "--design", str(design), "--threshold", "3"]
    else:
        fast = _design(tmp_path, "fast.json", kappa=0, p=0.8, kx=2, kt=2)
        slow = _design(tmp_path, "slow.json", kappa=3, p=0.8, kx=2, kt=1,
                       q=repr(_load(fast).spec.delay))
        argv = ["detect", "--kind", "change", "--design", str(fast), "--design-b", str(slow),
                "--threshold", "3"]
    argv += ["--input", str(data)]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsysbinary.readouterr()
    # Text already written to standard output comes first.
    print("before")
    assert main(argv + ["--out", "-"]) == 0
    assert capsysbinary.readouterr().out == b"before\n" + out.read_bytes()


class _ClosingPipe(io.RawIOBase):
    """A pipe whose reader goes away after `room` bytes."""

    def __init__(self, room):
        self.room = room

    def writable(self):
        return True

    def write(self, data):
        if self.room <= 0:
            raise BrokenPipeError(32, "Broken pipe")
        taken = min(len(data), self.room)
        self.room -= taken
        return taken


@pytest.mark.parametrize("command", ["run", "detect"])
def test_closed_pipe_exits_0(tmp_path, monkeypatch, command):
    design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=2, kt=2)
    data = _write_column(tmp_path / "in.csv", _both_paths_input())
    argv = [command, "--design", str(design), "--input", str(data), "--out", "-"]
    if command == "detect":
        argv[1:1] = ["--kind", "edge", "--threshold", "3"]
    pipe = _ClosingPipe(100_000)
    stdout = io.TextIOWrapper(io.BufferedWriter(pipe), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert pipe.room == 0
    pipe.room = math.inf     # let the wrapper close quietly
    stdout.close()


def test_analyze_bytes_match_the_oracle(tmp_path):
    design = _design(tmp_path, "d.json", kappa=2, p=0.9, kx=3, kt=3)
    out = tmp_path / "resp.csv"
    assert main(["analyze", "--design", str(design), "--grid-size", "300",
                 "--out", str(out)]) == 0
    report = response_report(_load(design), 300)
    columns = [report.freqs]
    for h in report.responses:
        columns += [h.real, h.imag]
    columns.append(report.distortion)
    header = "f,h0_re,h0_im,h1_re,h1_im,h2_re,h2_im,distortion\n"
    want = header + template_rows(",".join(["%.17g"] * len(columns)) + "\n", columns)
    assert out.read_text() == want


def test_simulate_bytes_match_the_oracle(tmp_path):
    # Zero starting conditions print as "-0" in the first rows.
    out = tmp_path / "z.csv"
    assert main(["simulate", "--scenario", "target-constant-accel", "--n-samples", "20",
                 "--x0=-0.0", "--v0=-0.0", "--accel=-0.0", "--out", str(out)]) == 0
    scenario = TargetScenario(sample_period=0.01, n_samples=20, initial_position=-0.0,
                              initial_velocity=-0.0, accel_mode="constant",
                              accel_value=-0.0, noise_std=0.5, seed=0)
    truth, measurements = simulate_target(scenario)
    want = "n,position,velocity,acceleration,measurement\n" + template_rows(
        "%d,%.17g,%.17g,%.17g,%.17g\n", [range(20), *truth.T, measurements])
    assert out.read_text() == want
    assert out.read_text().splitlines()[1].startswith("0,-0,-0,-0,")

    out = tmp_path / "t.csv"
    assert main(["simulate", "--scenario", "target-random-accel", "--seed", "4",
                 "--n-samples", "9000", "--x0", "1e17", "--out", str(out)]) == 0
    scenario = TargetScenario(sample_period=0.01, n_samples=9000, initial_position=1e17,
                              initial_velocity=20.0, accel_mode="gaussian",
                              accel_value=100.0, noise_std=0.5, seed=4)
    truth, measurements = simulate_target(scenario)
    want = "n,position,velocity,acceleration,measurement\n" + template_rows(
        "%d,%.17g,%.17g,%.17g,%.17g\n", [range(9000), *truth.T, measurements])
    assert out.read_text() == want

    out = tmp_path / "c.csv"
    assert main(["simulate", "--scenario", "change", "--seed", "4", "--n-samples", "9000",
                 "--out", str(out)]) == 0
    clean, noisy = synth_change_waveform(4, 9000, 0.5)
    want = "n,clean,measurement\n" + template_rows("%d,%.17g,%.17g\n",
                                                   [range(9000), clean, noisy])
    assert out.read_text() == want
