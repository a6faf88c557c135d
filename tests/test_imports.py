"""Import and laziness guards: only block runs load scipy, only update() compiles.

Importing scipy.signal costs over a second of start-up, so the package, the
CLI's design/analyze commands and the per-sample path must load numpy only.
Each of those checks runs in a fresh interpreter, because this test process
has long since imported scipy through other tests.

Compiling a per-sample kernel costs about half a millisecond, so only the
first per-sample update() of a realization or a detector may build one;
designs, detector construction and block runs never do.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import erlangreg
from erlangreg import (
    ChangeDetector,
    DesignSpec,
    EdgeDetector,
    PeakDetector,
    StreamingEstimator,
    WeightSpec,
    build_realization,
    design_to_document,
    document_to_json,
    run_sequence,
)
from erlangreg import _kernel
from erlangreg.cli import main

_PACKAGE_ROOT = str(Path(erlangreg.__file__).resolve().parents[1])


def _scipy_modules_after(code: str, cwd) -> list[str]:
    """Run code in a fresh interpreter; return the scipy modules it loaded."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_PACKAGE_ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_package_import_loads_no_scipy(tmp_path):
    assert _scipy_modules_after("import erlangreg", tmp_path) == []


def test_cli_import_loads_no_scipy(tmp_path):
    assert _scipy_modules_after("import erlangreg.cli", tmp_path) == []


def test_cli_design_and_analyze_load_no_scipy(tmp_path):
    code = (
        "from erlangreg.cli import main\n"
        "assert main(['design', '--kappa', '4', '--p', '0.9', '--kx', '3',"
        " '--kt', '2', '--out', 'd.json']) == 0\n"
        "assert main(['analyze', '--design', 'd.json', '--out', 'r.csv']) == 0\n"
    )
    assert _scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "r.csv").exists()


def test_per_sample_update_loads_no_scipy(tmp_path):
    code = (
        "from erlangreg import (ChangeDetector, DesignSpec, EdgeDetector, PeakDetector,\n"
        "    StreamingEstimator, WeightSpec, build_realization)\n"
        "def design(kappa, kx, kt, delay=None):\n"
        "    return build_realization(DesignSpec(weight=WeightSpec(kappa=kappa, p=0.9),"
        " model_order=kx, n_outputs=kt, delay=delay))\n"
        "real = design(2, 3, 3)\n"
        "fast = design(0, 2, 1)\n"
        "slow = design(3, 2, 1, fast.spec.delay)\n"
        "consumers = [StreamingEstimator(real), EdgeDetector(real, 3.0),"
        " PeakDetector(real, 3.0), ChangeDetector(fast, slow, 3.0)]\n"
        "for x in (1.0, 2.0, 1.5, 3.0):\n"
        "    for consumer in consumers:\n"
        "        consumer.update(x)\n"
    )
    assert _scipy_modules_after(code, tmp_path) == []


def test_run_block_loads_scipy_signal(tmp_path):
    code = (
        "import numpy as np\n"
        "from erlangreg import run_block\n"
        "run_block(0.9, np.ones(4), np.zeros(2))\n"
    )
    assert "scipy.signal" in _scipy_modules_after(code, tmp_path)


def _design(kappa, kx, kt, delay=None):
    return build_realization(
        DesignSpec(weight=WeightSpec(kappa=kappa, p=0.9), model_order=kx, n_outputs=kt,
                   delay=delay)
    )


def test_only_per_sample_updates_build_kernels(monkeypatch, tmp_path):
    built = []
    build_kernel = _kernel._Source.build

    def counting(self, *args):
        built.append(args)
        return build_kernel(self, *args)

    monkeypatch.setattr(_kernel._Source, "build", counting)
    real = _design(2, 3, 3)
    fast = _design(0, 2, 1)
    slow = _design(3, 2, 1, fast.spec.delay)
    xs = np.random.Generator(np.random.PCG64(5)).standard_normal(200) + 2.0

    run_sequence(real, xs)
    est = StreamingEstimator(real)
    est.extend(xs)
    detectors = [EdgeDetector(real, 3.0), PeakDetector(real, 3.0), ChangeDetector(fast, slow, 3.0)]
    for detector in detectors:
        detector.run(xs)
        detector.finish()
    (tmp_path / "d.json").write_text(document_to_json(design_to_document(real)))
    np.savetxt(tmp_path / "x.csv", xs)
    detect = ["detect", "--threshold", "3"]
    for command in (["run"], detect + ["--kind", "edge"], detect + ["--kind", "peak"]):
        argv = command + ["--design", str(tmp_path / "d.json"), "--input", str(tmp_path / "x.csv"),
                          "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 0
    assert built == []

    # The first update() builds the kernel: once per realization for the
    # estimator, once per detector, also after a block run.
    est.update(1.0)
    est.update(2.0)
    StreamingEstimator(real).update(1.0)
    assert len(built) == 1
    for detector in detectors:
        detector.update(1.0)
        detector.update(2.0)
    assert len(built) == 4
