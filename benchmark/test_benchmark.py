"""Fast self-test of the benchmark: every workload at degree <= 3.

    python3 -m pytest benchmark -q
"""
import json
import signal
import sys
import time
from pathlib import Path

import pytest

import reference
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, seed=0, trace=0, seconds=0.0, job_list=None):
    if job_list is None:
        job_list = workloads.jobs(workload, tiny=True)
    label = f"selftest-{workload}-seed{seed}-trace{trace}"
    return run.measure(job_list, seed, seconds, trace, ROOT, label)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    # A traced worker makes one cold pass however long the run may be.
    result, passes = _run(workload, trace=trace, seconds=float(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert len(passes) == 1
    assert result["attempted"] == len(workloads.jobs(workload, tiny=True))
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_seed_keeps_the_answers_of_seed_0():
    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            result, _ = _run(workload, seed=seed)
            assert result["correct"], (workload, seed)


def test_seed_relabels_algebras_only():
    job_list = workloads.jobs("certify", tiny=True)
    docs = {}
    for seed in (0, 3):
        paths = workloads.write_inputs(
            job_list, seed, ROOT / ".bench_out" / f"selftest-inputs{seed}")
        docs[seed] = {k: Path(p).read_text(encoding="utf-8")
                      for k, p in paths.items()}
    assert docs[0]["{inst:gl2_defining}"] == docs[3]["{inst:gl2_defining}"]
    assert docs[0]["{poly:regev_q1}"] == docs[3]["{poly:regev_q1}"]
    assert docs[0]["{doc:gl2_z2_action}"] != docs[3]["{doc:gl2_z2_action}"]


def test_stdout_is_identical_across_passes_and_runs(monkeypatch):
    first, passes_a = _run("codim-ladder", seed=4, seconds=1.0)
    pinned_env = run._worker_env
    monkeypatch.setattr(run, "_worker_env",
                        lambda: {**pinned_env(), "PYTHONHASHSEED": "1"})
    second, passes_b = _run("codim-ladder", seed=4)
    assert len(passes_a) >= 2 and first["correct"] and second["correct"]
    assert [j["stdout"] for j in passes_a[0]["jobs"]] \
        == [j["stdout"] for j in passes_b[0]["jobs"]]


def test_refused_job_counts_as_failed():
    job_list = workloads.jobs("codim-ladder", tiny=True)
    argv = job_list[1]
    argv[argv.index("--budget") + 1] = "1"
    result, passes = _run("codim-ladder", job_list=job_list)
    assert passes[0]["jobs"][1]["rc"] == 1
    assert result["failed"] == 1 and not result["correct"]


def test_wrong_answer_counts_as_failed():
    job_list = workloads.jobs("codim-ladder", tiny=True)
    passes = [{"jobs": [{"rc": 0, "stdout": "n,flavor,c_n,root_num,"
                         "root_den\n3,ordinary,3,1442,1000\n",
                         "stderr": ""}]}]
    problems = run.check_passes(job_list[:1], passes,
                                {workloads.job_id(job_list[0]): {"3": 2}})
    assert len(problems) == 1


def test_missing_hook_leaves_its_metric_out(monkeypatch):
    import codimlab.codim as codim

    gone = ("codim.gone", "codimlab.codim", "NoSuchRowSpace.add",
            tracing.SPAN)
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (gone,))
    monkeypatch.setitem(tracing.LAYER_METRICS, "codim.gone.s",
                        ("s", "s", ("codim.gone",)))
    original = codim.IntRowSpace.add
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == ["codim.gone"]
        assert codim.IntRowSpace.add is not original
        space = codim.IntRowSpace()
        assert space.add({0: 2, 3: 4}) and not space.add({0: 1, 3: 2})
    finally:
        tracer.uninstall()
    assert codim.IntRowSpace.add is original
    metrics = tracing.layer_metrics(*tracer.take(), tracer.missing)
    assert "codim.gone.s" not in metrics
    assert metrics["codim.rows.offered"] == (2, "count")
    assert metrics["codim.rows.yield"] == (0.5, "ratio")


def test_host_gauge_samples_inside_a_long_job():
    with reference.HostGauge() as gauge:
        end = time.perf_counter() + 3.5 * reference.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(gauge.samples) >= 4 and min(gauge.samples) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
