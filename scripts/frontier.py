"""The frontier probe: the largest n at which each fixture and flavour
finishes its cocharacter under a wall cap.

For each bundled fixture and each flavour it carries, `cochar` runs at
n = 1, 2, ... through `codimlab.cli.main`, each n in a fresh Python
process on this checkout's src, with `--budget 1e400` so the guard
refuses nothing.  Each run prints one JSON line: fixture, flavour, n,
c_n, wall seconds (process start to exit), the child's peak resident
set in MiB and the sha256 of the report (the JSON the command prints,
which is CocharacterReport.to_json()).  A fixture and flavour stop at
the first n that runs over the cap (killed, status "over_cap"), that
fails (status "exit K"), or whose c_n is 0, after which every c_n is 0.

    python3 scripts/frontier.py --cap 60 --only metabelian_m3_cyclic:g_action
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# the fixtures and their flavours, read in a child so that the probe
# itself never imports codimlab: a child's ru_maxrss counts from the
# resident set of the process that spawned it
JOBS = """import json
from codimlab.fixtures import FIXTURE_BUILDERS, build_fixture
print(json.dumps([(name, flavour) for name in sorted(FIXTURE_BUILDERS)
                  for bench in [build_fixture(name)]
                  for flavour, carried in [("ordinary", True),
                                           ("graded", bench.grading),
                                           ("g_action", bench.action)]
                  if carried is not None]))"""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run(fixture: str, flavour: str, n: int, cap: float) -> dict:
    """One cochar run in a fresh process, killed past cap seconds."""
    with tempfile.TemporaryFile() as out:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "codimlab.cli", "cochar",
             "--algebra", fixture, "--flavor", flavour, "--n", str(n),
             "--format", "json", "--budget", "1e400"],
            stdout=out, stderr=subprocess.DEVNULL, env=child_env())
        over = False
        while not (done := os.wait4(proc.pid, os.WNOHANG))[0]:
            if time.monotonic() - start > cap:
                proc.kill()
                done, over = os.wait4(proc.pid, 0), True
                break
            time.sleep(0.005)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(done[1])
        out.seek(0)
        report = out.read().rstrip(b"\n")
    line = {"fixture": fixture, "flavour": flavour, "n": n, "c_n": None,
            "wall_s": round(wall, 3),
            "peak_rss_mib": round(done[2].ru_maxrss / 1024, 1),
            "sha256": None,
            "status": "over_cap" if over else (
                "ok" if proc.returncode == 0 else
                f"exit {proc.returncode}")}
    if line["status"] == "ok":
        line["c_n"] = json.loads(report)["codim_check"]
        line["sha256"] = hashlib.sha256(report).hexdigest()
    return line


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--cap", type=float, default=60.0,
                    help="wall seconds per run (default 60)")
    ap.add_argument("--only", action="append", metavar="FIXTURE[:FLAVOUR]",
                    help="probe only these; may be repeated")
    args = ap.parse_args()

    jobs = [tuple(job) for job in json.loads(subprocess.run(
        [sys.executable, "-c", JOBS], env=child_env(), check=True,
        capture_output=True, text=True).stdout)]
    if args.only:
        known = {f"{name}:{flavour}" for name, flavour in jobs} | {
            name for name, _ in jobs}
        unknown = sorted(set(args.only) - known)
        if unknown:
            ap.error("unknown fixture or flavour: " + ", ".join(unknown))
        jobs = [(name, flavour) for name, flavour in jobs
                if name in args.only or f"{name}:{flavour}" in args.only]
    for name, flavour in jobs:
        n = 0
        while True:
            n += 1
            line = run(name, flavour, n, args.cap)
            print(json.dumps(line), flush=True)
            if line["status"] != "ok" or line["c_n"] == 0:
                break


if __name__ == "__main__":
    main()
