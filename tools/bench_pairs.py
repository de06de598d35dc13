"""Run perfbench on two checkouts in alternating pairs and write a BENCH file.

    git archive <parent-rev> | tar -x -C /tmp/parent
    python3 tools/bench_pairs.py --parent /tmp/parent --change . \
        --pairs expand=10 verify=3 transform=3 --seed 1 \
        --traced expand --out BENCH_6.json

Each pair runs `perfbench/run.py --workload W --seed S --seconds N
--trace 0` once in each checkout, one after the other, with the side
that goes first alternating from pair to pair so host drift lands on
both.  Pair k of a workload uses seed S + k on both sides.  For every
end-to-end metric the file holds each side's runs, median and quartiles,
and how many pairs the change won (lower is better for all of them;
ties count for neither side).  `--traced W` adds one `--trace 1` run per
side of workload W at seed S, with its per-layer metrics.  Runs are
strictly sequential: two at once would share the host's cores and
measure each other.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

END_TO_END = ("setup_s", "run_s", "req_p50_ms", "peak_rss_mb")
SIDES = ("parent", "change")


def run_bench(checkout, workload, seed, seconds, trace):
    """One perfbench run in `checkout`; its final JSON line and its
    '#' information lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["info"] = [ln[2:] for ln in lines[:-1] if ln.startswith("# ")]
    return out


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": q2, "q1": q1, "q3": q3}


def measure_pairs(dirs, workload, pairs, seed, seconds):
    runs = {side: [] for side in SIDES}
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            res = run_bench(dirs[side], workload, seed + k, seconds, 0)
            runs[side].append(res)
            print("%s pair %d %s: %s" % (
                workload, k, side,
                " ".join("%s=%.4g" % (m, res["metrics"][m]["value"])
                         for m in END_TO_END)), file=sys.stderr, flush=True)
    out = {"pairs": pairs, "seeds": [seed, seed + pairs - 1],
           "attempted": {s: sum(r["attempted"] for r in runs[s])
                         for s in SIDES},
           "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
           "metrics": {}}
    for m in END_TO_END:
        vals = {s: [r["metrics"][m]["value"] for r in runs[s]] for s in SIDES}
        entry = {s: summary(vals[s]) for s in SIDES}
        entry["unit"] = runs["parent"][0]["metrics"][m]["unit"]
        entry["change_wins"] = sum(c < p for p, c in
                                   zip(vals["parent"], vals["change"]))
        entry["ratio_of_medians"] = (entry["change"]["median"]
                                     / entry["parent"]["median"])
        out["metrics"][m] = entry
    out["reference_loop"] = {s: [r["info"][-1] for r in runs[s]]
                             for s in SIDES}
    return out


def parse_pairs(items):
    out = {}
    for item in items:
        name, _, n = item.partition("=")
        out[name] = int(n)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--pairs", nargs="+", required=True,
                   metavar="WORKLOAD=N")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--traced", nargs="*", default=[], metavar="WORKLOAD")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    report = {
        "command": "perfbench/run.py --seconds %g --trace 0" % args.seconds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {}, "traced": {},
    }
    for workload, n in parse_pairs(args.pairs).items():
        report["workloads"][workload] = measure_pairs(
            dirs, workload, n, args.seed, args.seconds)
    for workload in args.traced:
        report["traced"][workload] = {
            side: run_bench(dirs[side], workload, args.seed, args.seconds, 1)
            for side in SIDES}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
