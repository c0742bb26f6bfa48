"""The demo scripts run to completion against this checkout's package."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import uaperceiver as ua

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(ua.__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    path = (str(SRC), os.environ.get("PYTHONPATH", ""))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name):
    assert run_demo(name).strip()


def test_demo_01_score_entries_match_their_formulas():
    out = run_demo("01_attention_bottleneck.py")
    lines = re.findall(r"(cross-attention|latent tower):\s+(\d+) \(= [^=]+= (.+)\)",
                       out)
    assert [kind for kind, _, _ in lines] == ["cross-attention", "latent tower"]
    for _, count, formula in lines:
        # "2*2*8*256" or "2*2*2*8^2"
        factors = [int(b) ** int(e or 1)
                   for b, e in re.findall(r"(\d+)(?:\^(\d+))?", formula)]
        assert int(count) == math.prod(factors)
