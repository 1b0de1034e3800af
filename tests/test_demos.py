"""Every script under demos/, and the README's "Library use" block, runs to
completion and prints exactly what it printed when pinned.

The demos call the library the way a reader would (``run_centralized``,
``train_stacked``, ``shipped``, ``run_federation``, ``score_params``), so a
change to those signatures, or to the fields they read, that forgets a demo
or the README fails here. Each demo's stdout is pinned by its SHA-256.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_dataset_tour": "5ea45b4044ccefe589ae3240f6822cf74dd7fc2c71f2c1acb842b7552f0b79b9",
    "02_local_vs_federated": "c400a1bf4216032b8bf65747a51ecaa5950a7e82b1393b598f456bb0d37aac06",
    "03_picking_the_epoch": "c064a0cb0a3a71faa859d3e8463ddf326b5a556aa0f84296ee389677817692df",
    "04_industrial_halting": "969669043ddd8da317d64f6a45bc525ab8b63becdda259c9b8fb7f248bb2f6b6",
}


def _run(args: list[str]) -> str:
    """stdout of the interpreter run on ``args`` from the repo root, with
    the package source on the path; fails on a non-zero exit."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_demos_exist():
    assert [p.stem for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    stdout = _run([str(script)])
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256[script.stem], stdout


def test_readme_library_use_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert _run(["-c", block]) == "0.9974999023399352\n"
