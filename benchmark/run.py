"""Benchmark of codimlab: fixed job mixes timed end to end.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports codimlab from
./src and writes its inputs, plans and spans under ./.bench_out.

A run builds the workload's input documents from the seed (seed 0 uses
the bundled fixtures unchanged, seed k > 0 relabels each algebra's
basis), starts SETUP_SAMPLES fresh workers that only set up, then one
worker that also runs the job mix (see worker.py).  Every job's answer
is checked against answers.json, pinned from the parent commit, and
every repeated pass must print byte-identical stdout.  The last line
printed is one JSON object with the keys correct, attempted, failed
and metrics: with --trace 0 the end-to-end metrics (pass_ref, setup_s,
peak_rss_mib), with --trace 1 the per-layer metrics of one traced pass
in a fresh worker.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170
HERE = Path(__file__).resolve().parent


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    # No budget from the environment may turn a job into a refusal.
    # The hash seed is pinned so that set and dict iteration order, and
    # with it the work done, is the same in every run; the self-test
    # runs a second worker on another hash seed to show that stdout does
    # not depend on it.
    env = dict(os.environ)
    env.pop("CODIMLAB_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_worker(plan_path: Path, extra, deadline: float):
    """Start a worker and wait for READY; returns (process, setup s)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan",
           str(plan_path), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_worker_env())
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        _finish(proc, deadline)
        raise BenchError(f"worker did not set up (exit {proc.returncode})")
    return proc, setup


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the time limit") from None
    return out


def check_passes(job_list, passes, answers) -> list:
    """(pass, job index, reason) for every failed job."""
    problems = []
    first = passes[0]["jobs"]
    for p, record in enumerate(passes):
        for j, (argv, job) in enumerate(zip(job_list, record["jobs"])):
            jid = workloads.job_id(argv)
            if job["rc"] != 0:
                reason = (f"exit {job['rc']}: {job['stdout'][-300:]}"
                          f"{job['stderr'][-600:]}")
            elif jid not in answers:
                reason = "no pinned answer"
            else:
                try:
                    got = workloads.parse_answer(argv, job["stdout"])
                except (ValueError, KeyError, IndexError) as exc:
                    got = f"unreadable output ({exc})"
                if got != answers[jid]:
                    reason = f"answer {got!r}, pinned {answers[jid]!r}"
                elif job["stdout"] != first[j]["stdout"]:
                    reason = "stdout differs from pass 0"
                else:
                    continue
            problems.append((p, j, f"pass {p}: {jid}: {reason}"))
    return problems


def measure(job_list, seed: int, seconds: float, trace: int, root: Path,
            label: str):
    """One benchmark run of job_list; returns (result, passes)."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    src = root / "src"
    out_dir = root / ".bench_out" / label
    sys.path.insert(0, str(src))
    inputs = workloads.write_inputs(job_list, seed, out_dir / "inputs")
    plan_path = out_dir / "plan.json"
    plan_path.write_text(json.dumps(
        {"src": str(src), "jobs": job_list, "inputs": inputs}),
        encoding="utf-8")

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = _start_worker(plan_path, ["--setup-only"], deadline)
        _finish(proc, deadline)
        setups.append(setup)
    extra = ["--seconds", str(seconds), "--trace", str(trace)]
    proc, setup = _start_worker(plan_path, extra, deadline)
    setups.append(setup)
    out = _finish(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    passes = report["passes"]

    problems = check_passes(job_list, passes, workloads.load_answers())
    for _, _, reason in problems:
        print(reason, file=sys.stderr)
    attempted = len(passes) * len(job_list)

    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in passes[0]["layers"].items()}
    else:
        metrics = {
            "pass_ref": {"value": statistics.median(
                p["wall_s"] / p["ref_s"] for p in passes), "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": report["peak_rss_mib"],
                             "unit": "MiB"},
        }
    walls = ", ".join(f"{p['wall_s']:.3f} s" + (
        f" (kernel {p['ref_s'] * 1000:.2f} ms)" if "ref_s" in p else "")
        for p in passes)
    print(f"{label}: pass wall time {walls}, setup samples "
          f"{[round(s, 3) for s in setups]}, failed jobs {len(problems)}",
          file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(problems), "metrics": metrics}
    return result, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "codimlab" / "__init__.py").is_file():
        print("error: run from the root of a codimlab checkout "
              "(no src/codimlab here)", file=sys.stderr)
        return 2
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result, _ = measure(workloads.jobs(args.workload), args.seed,
                            args.seconds, args.trace, root, label)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
