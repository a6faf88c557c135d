"""The README's examples run as written.

The library quickstart runs in a fresh directory holding a generated
measurements.txt, and the command-line pipeline runs under bash with
`erlangreg` standing for this interpreter's `-m erlangreg.cli`.
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from oracles import package_env

_README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, language: str) -> str:
    """The first fenced block of `language` under the `## section` heading."""
    text = _README.read_text()
    start = text.index(f"\n## {section}\n")
    end = text.find("\n## ", start + 1)
    match = re.search(rf"```{language}\n(.*?)```", text[start:end if end >= 0 else None], re.S)
    assert match, f"no {language} block under {section!r}"
    return match.group(1)


def test_library_quickstart_runs(tmp_path):
    rng = np.random.Generator(np.random.PCG64(3))
    np.savetxt(tmp_path / "measurements.txt", 5.0 + 0.01 * np.arange(300) + rng.standard_normal(300))
    done = subprocess.run(
        [sys.executable, "-c", _block("Library quickstart", "python")],
        cwd=tmp_path, env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    delay, gain = done.stdout.split()
    assert delay.startswith("26.2331")
    assert 0.0 < float(gain) < 1.0


def test_cli_pipeline_runs(tmp_path):
    script = (
        "set -e\n"
        f'erlangreg() {{ "{sys.executable}" -m erlangreg.cli "$@"; }}\n'
        + _block("Command-line pipeline", "sh")
    )
    done = subprocess.run(
        ["bash", "-c", script],
        cwd=tmp_path, env=package_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    # A row per sample of the change scenario, and a trend break among them.
    events = (tmp_path / "events.csv").read_text()
    assert len((tmp_path / "change.csv").read_text().splitlines()) == 401
    assert len(events.splitlines()) == 401
    assert ",break-" in events
