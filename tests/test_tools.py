"""Tests of the BENCH file verdicts in tools/bench_pairs.py."""

import importlib.util
import pathlib

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
