"""Every demo script runs to completion against the source tree, and prints
exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout, so that no refactor changes a demo silently;
# a deliberate change re-pins its hash and says why
DEMO_STDOUT_HASHES = {
    "01_groups_and_characters.py": "bfaa0db9aabdc05567dad7c67e0e5344d81835bf8ce48fa839c5258cf1e73784",
    "02_cyclotomic_arithmetic.py": "274a477f0ac5290a1e46f11ebb9e240c602fcf0dc7dfc50b137b7ed2b85c1a3e",
    "03_group_rings_and_fourier.py": "9dafe387e6e1d66a3d63c4b677340d3e42f5160f57b70e00b7e18415d493eddd",
    "04_stickelberger_pairing.py": "81cc242aef40a7f4684a3bf1461450ef91888613b9ee8e47310497f10bb8cd74",
    "05_period_fields_and_ideals.py": "cac9480c6adfabac3b14e23ebce7a70c8a3264c94421b7c4bda32036ea558e4f",
    "06_resolvends.py": "64e9619f588481d333d49f63fd8ecfcdda8a38f8ecd0d116184b70af88422035",
    "07_witnesses_and_product_laws.py": "79f905730af10a853785e826f74bd6fd62c434523f12ddf169215ba36c115349",
}


def test_demos_found():
    assert len(DEMOS) >= 7
    assert sorted(DEMO_STDOUT_HASHES) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_HASHES[demo.name]
