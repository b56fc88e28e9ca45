import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_separation_demo_end_to_end(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "separation_demo.py"),
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "q=2: 65536 substitutions, central, 576 nonzero values" \
        in done.stdout
    assert "after 6940 exhaustive substitutions" in done.stdout
    assert (tmp_path / "regev_q2.json").exists()


def test_verify_alt_set_past_the_last_variable(tmp_path):
    """The swap-centre separating polynomial uses x1, x2 only: a set
    naming x3 is not alternating, and the run still finishes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "separation_demo.py"),
         "--out-dir", str(tmp_path)],
        check=True, capture_output=True, env=env, timeout=300)
    done = subprocess.run(
        [sys.executable, "-m", "codimlab.cli", "verify-alt",
         "--poly", str(tmp_path / "swap_centre_separating.json"),
         "--instance", str(tmp_path / "swap_centre.json"),
         "--sets", "1-3", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["per_set"] == [False]
    assert report["alternating"] is False
    assert report["is_identity"] is False
