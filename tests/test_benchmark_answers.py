"""Every full-size benchmark job, run in-process at two seeds, prints
the answer pinned in benchmark/answers.json, so a wrong answer fails
here before a benchmark run reports it."""
import sys

import pytest

from codimlab.cli import main
from helpers import benchmark_module


@pytest.mark.parametrize("seed", [0, 3])
def test_full_jobs_print_the_pinned_answers(seed, tmp_path, capsys,
                                            monkeypatch):
    workloads = benchmark_module("workloads")
    # write_inputs imports the instances module by name
    monkeypatch.setitem(sys.modules, "instances",
                        benchmark_module("instances"))
    answers = workloads.load_answers()
    for workload in workloads.WORKLOADS:
        job_list = workloads.jobs(workload)
        paths = workloads.write_inputs(job_list, seed, tmp_path / workload)
        for argv in job_list:
            jid = workloads.job_id(argv)
            code = main([paths.get(arg, arg) for arg in argv])
            out = capsys.readouterr().out
            assert code == 0, jid
            assert workloads.parse_answer(argv, out) == answers[jid], jid
