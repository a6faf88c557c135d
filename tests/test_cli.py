import csv
import hashlib
import json
import time

import numpy as np
import pytest

from erlangreg import run_sequence
from erlangreg.cli import main
from erlangreg.document import document_from_json, realization_from_document


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


def test_design_document_on_stdout(capsys):
    assert main(["design", "--kappa", "0", "--p", "0.8", "--kx", "2"]) == 0
    document = document_from_json(capsys.readouterr().out)
    assert document["spec"]["requested_delay"] == "auto"
    assert document["spec"]["delay"] == pytest.approx(8.50, abs=0.01)
    assert document["analysis"]["vrf"][0][0] == pytest.approx(0.056, abs=0.001)
    assert document["analysis"]["cutoff_frequency"] == pytest.approx(0.042, abs=0.001)


def test_design_example_high_shape(tmp_path):
    path = _design(tmp_path, "d.json", kappa=3, p=0.85, kx=2)
    document = document_from_json(path.read_text())
    assert document["spec"]["delay"] == pytest.approx(30.77, abs=0.01)
    assert document["analysis"]["vrf"][0][0] == pytest.approx(0.022, abs=0.001)
    assert document["analysis"]["cutoff_frequency"] == pytest.approx(0.019, abs=0.001)


def test_design_rejects_invalid_p(capsys):
    assert main(["design", "--kappa", "0", "--p", "1.0", "--kx", "2"]) == 3
    assert "error:" in capsys.readouterr().err


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


def test_analyze_missing_document(tmp_path, capsys):
    rc = main(["analyze", "--design", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


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
