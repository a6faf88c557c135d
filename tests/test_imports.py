"""Import and laziness guards: no path loads scipy, only update() compiles.

Importing scipy.signal costs over a second of start-up, and the package
runs on numpy alone: the package, the CLI and every block and per-sample
path must load no scipy module.  Each of those checks runs in a fresh
interpreter, because this test process has long since imported scipy
through other tests.

Compiling a per-sample kernel costs one to a few milliseconds, so only
the first per-sample update() of a realization or a detector may build
one; designs, detector construction and block runs never do.
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


_BLOCK_RUNS = (
    "import numpy as np\n"
    "from erlangreg import (ChangeDetector, DesignSpec, EdgeDetector, PeakDetector,\n"
    "    StreamingEstimator, WeightSpec, build_realization, run_block, run_sequence)\n"
    "def design(kappa, kx, kt, delay=None):\n"
    "    return build_realization(DesignSpec(weight=WeightSpec(kappa=kappa, p=0.9),"
    " model_order=kx, n_outputs=kt, delay=delay))\n"
    "xs = 2.0 + np.sin(np.arange(10000) / 50.0)\n"
    "real = design(2, 3, 3)\n"
    "fast = design(0, 2, 1)\n"
    "slow = design(3, 2, 1, fast.spec.delay)\n"
    "run_block(0.9, xs, np.zeros(4))\n"
    "run_block(0.9, np.vstack([xs, xs * xs]), [np.zeros(4), np.zeros(2)])\n"
    "run_sequence(real, xs)\n"
    "StreamingEstimator(real).extend(xs)\n"
    "for detector in (EdgeDetector(real, 3.0), PeakDetector(real, 3.0),"
    " ChangeDetector(fast, slow, 3.0)):\n"
    "    detector.run(xs)\n"
)


def test_block_runs_load_no_scipy(tmp_path):
    assert _scipy_modules_after(_BLOCK_RUNS, tmp_path) == []


_CLI_RUN_AND_DETECT = (
    "from erlangreg.cli import main\n"
    "with open('x.csv', 'w') as fh:\n"
    "    fh.write('x\\n' + ''.join(f'{(n % 97) / 7.0!r}\\n' for n in range(9000)))\n"
    "for kappa, name in ((0, 'fast.json'), (3, 'slow.json')):\n"
    "    assert main(['design', '--kappa', str(kappa), '--p', '0.9', '--kx', '3',"
    " '--kt', '3', '--q', '8', '--out', name]) == 0\n"
    "assert main(['run', '--design', 'fast.json', '--input', 'x.csv', '--out', 'run.csv']) == 0\n"
    "for kind in ('edge', 'peak', 'change'):\n"
    "    slow = ['--design-b', 'slow.json'] if kind == 'change' else []\n"
    "    assert main(['detect', '--kind', kind, '--design', 'fast.json', *slow,"
    " '--threshold', '3', '--input', 'x.csv', '--out', kind + '.csv']) == 0\n"
)


def test_cli_run_and_detect_load_no_scipy(tmp_path):
    assert _scipy_modules_after(_CLI_RUN_AND_DETECT, tmp_path) == []
    assert len((tmp_path / "run.csv").read_text().splitlines()) == 9001
    for kind in ("edge", "peak", "change"):
        assert len((tmp_path / f"{kind}.csv").read_text().splitlines()) == 9001


def test_cli_runs_with_scipy_unavailable(tmp_path):
    # A meta-path finder that refuses every scipy module stands in for an
    # installation without scipy: design, run and detect must still work.
    blocker = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "        return None\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "try:\n"
        "    import scipy.signal\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('scipy was not blocked')\n"
    )
    assert _scipy_modules_after(blocker + _CLI_RUN_AND_DETECT + _BLOCK_RUNS, tmp_path) == []
    for name in ("run.csv", "edge.csv", "peak.csv", "change.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == 9001


def _design(kappa, kx, kt, delay=None):
    return build_realization(
        DesignSpec(weight=WeightSpec(kappa=kappa, p=0.9), model_order=kx, n_outputs=kt,
                   delay=delay)
    )


def test_only_per_sample_updates_build_kernels(tmp_path):
    _kernel._code.cache_clear()  # consumers of a shape seen before compile nothing

    def compiles():
        return _kernel._code.cache_info().misses

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
    assert compiles() == 0

    # The first update() compiles the kernel, also after a block run: once
    # per source text, so once for the estimators on real and once for the
    # edge and peak detectors, whose rows have the same zero pattern.
    est.update(1.0)
    est.update(2.0)
    StreamingEstimator(real).update(1.0)
    assert compiles() == 1
    for detector in detectors:
        detector.update(1.0)
        detector.update(2.0)
    assert compiles() == 3
