"""One checked round of each benchmark workload, in process: every
request of perfbench's seed-1 streams goes through thetachar.cli.main
from emptied in-process caches, as perfbench sends it, and perfbench's
own checks (perfbench/checks.py) find no problem in the answers."""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    # run.py imports checks and checks imports workloads by name
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, PERFBENCH / (name + ".py"))
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


workloads, checks, run = map(_load, ("workloads", "checks", "run"))
PROGRAM = run.load_program()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_round_passes_the_benchmark_checks(workload):
    requests = workloads.WORKLOADS[workload](1)
    caches = run.program_caches()
    results = []
    for req in requests:
        for cached in caches:
            cached.cache_clear()
        results.append(run.call_cli(PROGRAM, req.argv))
    expected_ids = {req.suite: [cid for cid, _ in
                                PROGRAM.suites.suite_cases(req.suite)]
                    for req in requests if req.kind == "verify"}
    problems = run.check_round(requests, results, expected_ids)
    assert len(problems) == len(requests)
    assert [(req.label(), probs) for req, probs in zip(requests, problems)
            if probs] == []
