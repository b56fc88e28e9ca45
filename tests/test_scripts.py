import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_codim_tables_runs_every_fixture_and_flavour(tmp_path):
    """Every fixture in every flavour it carries, through the lattice,
    with each table also written as CSV."""
    out = _script("codim_tables.py", "--n-max", "4",
                  "--csv-dir", str(tmp_path))
    tables, name = {}, None
    for line in out.splitlines():
        if line.startswith("== "):
            name = line.strip("= ")
            tables[name] = {}
        elif row := re.match(r"  n=\s*(\d+)  c_n=\s*(\d+)  ", line):
            tables[name][int(row[1])] = int(row[2])
    assert len(tables) == 17 and "refused" not in out
    assert all(sorted(rows) == [1, 2, 3, 4] for rows in tables.values())
    assert tables["sl2_trivial [ordinary]"][3] == 2
    assert tables["gl2_z2_graded [graded]"][3] == 8
    assert tables["metabelian_m3_cyclic [g_action]"][4] == 243
    assert tables["heisenberg [ordinary]"] == {1: 1, 2: 1, 3: 0, 4: 0}
    assert len(list(tmp_path.glob("*.csv"))) == 17


def test_codim_tables_reads_the_budget_like_the_cli():
    out = _script("codim_tables.py", "--n-max", "1", "--budget", "1e9")
    assert "refused" not in out and out.count("  n= 1  ") == 17
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "codim_tables.py"),
         "--n-max", "1", "--budget", "2.5"],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.endswith(
        "error: --budget must be a whole number, got '2.5'\n")


def test_exponent_survey_runs_every_fixture():
    out = _script("exponent_survey.py", "--n-max", "4")
    lines = out.splitlines()
    assert len(lines) == 20 and "refused" not in out
    assert ("heisenberg                d = 0   closed forms: "
            "nilpotent_zero=ok") in lines
    at = next(i for i, line in enumerate(lines)
              if line.startswith("sl2_trivial "))
    assert lines[at].split("closed forms: ")[0].split() == [
        "sl2_trivial", "d", "=", "3"]
    assert lines[at + 1].split() == ["c_n^(1/n):", "1/1", "1/1",
                                     "1259/1000", "313/200"]


def test_separation_demo_end_to_end(tmp_path):
    out = _script("separation_demo.py", "--out-dir", str(tmp_path))
    assert "q=2: 65536 substitutions, central, 576 nonzero values" in out
    assert "after 6940 exhaustive substitutions" in out
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
