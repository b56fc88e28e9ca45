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
