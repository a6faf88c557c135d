"""Import guard: only block runs load scipy.

Importing scipy.signal costs over a second of start-up, so the package, the
CLI's design/analyze commands and the per-sample path must load numpy only.
Each check runs in a fresh interpreter, because this test process has long
since imported scipy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import erlangreg

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
        "from erlangreg import DesignSpec, StreamingEstimator, WeightSpec, build_realization\n"
        "real = build_realization(DesignSpec(weight=WeightSpec(kappa=2, p=0.9),"
        " model_order=2, n_outputs=2))\n"
        "est = StreamingEstimator(real)\n"
        "for x in (1.0, 2.0, 1.5, 3.0):\n"
        "    est.update(x)\n"
    )
    assert _scipy_modules_after(code, tmp_path) == []


def test_run_block_loads_scipy_signal(tmp_path):
    code = (
        "import numpy as np\n"
        "from erlangreg import build_network, run_block\n"
        "run_block(build_network(2, 0.9), np.ones(4))\n"
    )
    assert "scipy.signal" in _scipy_modules_after(code, tmp_path)
