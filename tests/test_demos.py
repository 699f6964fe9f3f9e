"""Each demo's stdout, byte for byte.  The demos print Words, site lists
and reports, so these pin every place where a Word is made from the
integer site tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_output():
    assert len(DEMOS) == 7
    assert sorted(p.stem for p in (ROOT / "tests" / "data" / "demos").glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # pytest's -W error does not reach a subprocess, so the demo gets its own
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120, check=True
    )
    assert done.stdout == (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt").read_bytes()
