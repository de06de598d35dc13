"""Tests of tools/bench_pairs.py: its BENCH file verdicts and the
environment of its runs."""

import contextlib
import importlib.util
import io
import json
import pathlib
import subprocess

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("bench_pairs",
                                              TOOLS / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _entry(parent, change):
    return {"parent": bench_pairs.summary(parent),
            "change": bench_pairs.summary(change),
            "change_wins": sum(c < p for p, c in zip(parent, change))}


def test_verdicts():
    parent = [2.0, 2.1, 1.9, 2.05, 1.95, 2.0, 2.1, 1.9, 2.0, 2.02]
    faster = [1.3, 1.35, 1.25, 1.3, 1.32, 1.28, 1.3, 1.31, 1.29, 1.3]
    assert bench_pairs.verdict(_entry(parent, faster), 0.24) == "improved"
    # 8 wins of 10 is not enough for a gain, but it holds
    eight = faster[:8] + [2.5, 2.5]
    assert bench_pairs.verdict(_entry(parent, eight), 0.24) == "held"
    # a median gain inside the parent's interquartile range is no gain
    close = [p - 0.01 for p in parent]
    assert bench_pairs.verdict(_entry(parent, close), 0.24) == "held"
    slower = [p * 1.5 for p in parent]
    assert bench_pairs.verdict(_entry(parent, slower), 0.24) == "regressed"


def test_each_side_starts_from_source(monkeypatch, tmp_path):
    # every run of a side reads and writes bytecode only in that side's
    # own directory, empty at its first run, outside both checkouts and
    # gone when the tool ends
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for path in checkouts.values():
        path.mkdir()
    (checkouts["parent"] / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "run_s", "better": "lower",
                         "bound": 0.24}]}))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        cache = pathlib.Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cwd, cache, not any(cache.iterdir()),
                     "PYTHONDONTWRITEBYTECODE" in env))
        (cache / "compiled.pyc").write_text("")
        line = {"attempted": 1, "failed": 0,
                "metrics": {"run_s": {"value": 1.0, "unit": "s"}}}
        return subprocess.CompletedProcess(
            cmd, 0, "# loop\n%s\n" % json.dumps(line), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with contextlib.redirect_stderr(io.StringIO()):
        bench_pairs.main(["--parent", str(checkouts["parent"]),
                          "--change", str(checkouts["change"]),
                          "--pairs", "verify=2", "--out",
                          str(tmp_path / "out.json")])
    caches = {}
    for cwd, cache, empty, dont_write in seen:
        side = pathlib.Path(cwd).name
        assert empty == (side not in caches) and not dont_write
        assert caches.setdefault(side, cache) == cache
        assert not any(str(cache).startswith(str(path))
                       for path in checkouts.values())
    assert len(seen) == 4 and caches["parent"] != caches["change"]
    assert not any(cache.exists() for cache in caches.values())


def test_round_counts_are_recorded(monkeypatch, tmp_path):
    # each run's '# N rounds' line lands in the BENCH file, pair by pair
    # and side by side, so a peak_rss_mb rise can be read against them
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "peak_rss_mb", "better": "lower",
                         "bound": 0.05}]}))
    counts = iter([161, 231, 202, 144])

    def fake_run(cmd, cwd, env, **kwargs):
        line = {"attempted": 1, "failed": 0,
                "metrics": {"peak_rss_mb": {"value": 27.0, "unit": "MB"}}}
        return subprocess.CompletedProcess(cmd, 0, (
            "# workload expand, seed 1, 60 requests per round\n"
            "# %d rounds, run_s per round: 0.100 0.101\n"
            "# reference_loop_s 0.0400 before, 0.0410 after\n%s\n"
            % (next(counts), json.dumps(line))), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "out.json"
    with contextlib.redirect_stderr(io.StringIO()):
        bench_pairs.main(["--parent", str(tmp_path / "parent"),
                          "--change", str(tmp_path / "change"),
                          "--pairs", "expand=2", "--out", str(out)])
    # pair 0 runs parent first, pair 1 change first
    rounds = json.loads(out.read_text())["workloads"]["expand"]["rounds"]
    assert rounds == {"parent": [161, 144], "change": [231, 202]}
    assert bench_pairs.rounds_of({"info": ["tracing overhead_s 0.010: "
                                           "medians of 3 and 3 rounds"]}) \
        is None
