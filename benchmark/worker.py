"""One benchmark worker: a fresh process that runs a job mix.

    python3 benchmark/worker.py --plan PLAN.json [--setup-only]
        [--seconds S] [--trace 0|1]

Set-up imports codimlab from the plan's source tree, then loads and
validates every input document, and prints READY.  The worker then
runs the plan's job list through `codimlab.cli.main` in passes, one
job after another (a closed loop with one client).  It starts another
pass while the elapsed time plus the longest pass so far fits in
--seconds, so a run makes at least one pass.  An untraced pass runs
under a `reference.HostGauge`, which times a fixed kernel about twice a
second; the pass reports its wall time without the kernel's, and the
kernel's mean time.

With --trace 1 the worker installs no gauge and makes exactly one
pass: codimlab memoises some functions (`mn_character`), so a later
pass in the same process would count fewer calls, and the per-layer
counts would depend on how many passes the host fits in.  The spans of
that pass go to spans.jsonl next to the plan.

The last line printed is a JSON object with every job's exit code,
wall time and stdout, the peak resident set, and with --trace 1 the
per-layer metrics of the pass.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference
import tracing
from workloads import COMMAND_GROUPS


def load_inputs(inputs: dict) -> None:
    from codimlab.documents import load_document, load_instance, load_poly

    for placeholder, path in inputs.items():
        kind = placeholder[1:].partition(":")[0]
        if kind == "doc":
            load_document(path)
        elif kind == "inst":
            load_instance(path).validate()
        else:
            load_poly(path)


def substitute(argv, inputs: dict) -> list:
    return [inputs.get(arg, arg) for arg in argv]


def run_job(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = "raised"
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return {"rc": rc, "s": elapsed, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def run_jobs(cli, job_list, inputs, tracer=None, pass_no=0):
    results = []
    start = time.perf_counter()
    for index, argv in enumerate(job_list):
        if tracer is not None:
            tracer.job = f"{pass_no}/{index}"
        results.append(run_job(cli, substitute(argv, inputs)))
    return results, time.perf_counter() - start


def run_pass(cli, job_list, inputs, tracer, pass_no) -> dict:
    if tracer is None:
        with reference.HostGauge() as gauge:
            results, wall = run_jobs(cli, job_list, inputs)
        # The first kernel sample is taken before the pass starts; the
        # others ran inside it and are not the jobs' time.
        return {"wall_s": wall - sum(gauge.samples[1:]),
                "ref_s": statistics.fmean(gauge.samples), "jobs": results}
    results, wall = run_jobs(cli, job_list, inputs, tracer, pass_no)
    spans, calls, trues = tracer.take()
    layers = tracing.layer_metrics(spans, calls, trues, tracer.missing)
    for group in sorted(set(COMMAND_GROUPS.values())):
        layers[f"cli.{group}.s"] = (sum(
            r["s"] for argv, r in zip(job_list, results)
            if COMMAND_GROUPS[argv[0]] == group), "s")
    layers["traced.wall_s"] = (wall, "s")
    return {"wall_s": wall, "jobs": results, "layers": layers,
            "spans": spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import codimlab
    import codimlab.cli as cli
    if src not in Path(codimlab.__file__).resolve().parents:
        print(f"codimlab was imported from {codimlab.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    load_inputs(plan["inputs"])
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        if tracer.missing:
            print("trace hooks not found: " + ", ".join(tracer.missing),
                  file=sys.stderr)
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        record = run_pass(cli, plan["jobs"], plan["inputs"], tracer,
                          len(passes))
        passes.append(record)
        longest = max(longest, record["wall_s"])
        if (tracer is not None
                or time.perf_counter() - start + longest > args.seconds):
            break
    if tracer is not None:
        tracer.uninstall()
        spans_path = Path(args.plan).with_name("spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in passes[0].pop("spans"):
                fh.write(json.dumps(span) + "\n")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"passes": passes, "peak_rss_mib": peak_kib / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
