"""Run perfbench on two checkouts in alternating pairs and write a BENCH file.

    git archive <parent-rev> | tar -x -C /tmp/parent
    python3 tools/bench_pairs.py --parent /tmp/parent --change . \
        --pairs expand=10 verify=3 transform=3 --seed 1 \
        --traced expand --out BENCH_7.json

Each pair runs `perfbench/run.py --workload W --seed S --seconds N
--trace 0` once in each checkout, one after the other, with the side
that goes first alternating from pair to pair so host drift lands on
both.  Pair k of a workload uses seed S + k on both sides.  Each side
compiles its bytecode into a fresh directory of its own
(PYTHONPYCACHEPREFIX) on its first run and reads it from there after,
so both start from source whatever __pycache__ their checkouts hold.
For every end-to-end metric the file holds each side's runs, median and
quartiles, how many pairs the change won (lower is better for all of
them; ties count for neither side), and a verdict read against the
metric's bound in BENCHMARK.json:

    improved    the change won at least nine tenths of the pairs, and its
                median is lower than the parent's by more than the
                parent's interquartile range;
    held        every change run beats every parent run, or the spread
                is within the bound and the change's median is no worse
                than the parent's by more than the bound;
    unresolved  either side's interquartile range, relative to its
                median, is wider than the bound;
    regressed   the change's median is worse by more than the bound.

`--traced W` adds one `--trace 1` run per side of workload W at seed S,
with its per-layer metrics.  Runs are strictly sequential: two at once
would share the host's cores and measure each other.

`--compare PREV.json` then prints, for each workload and end-to-end
metric, the change median of the `--out` file next to the change median
in PREV.json.  Without `--pairs` it only compares, reading `--out`:

    python3 tools/bench_pairs.py --out BENCH_9.json --compare BENCH_8.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

SIDES = ("parent", "change")


def run_bench(checkout, pycache, workload, seed, seconds, trace):
    """One perfbench run in `checkout`; its final JSON line and its
    '#' information lines.  The run reads and writes bytecode only under
    `pycache` (PYTHONPYCACHEPREFIX, with writing on), so it never reads
    a __pycache__ that the checkout holds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["info"] = [ln[2:] for ln in lines[:-1] if ln.startswith("# ")]
    return out


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": q2, "q1": q1, "q3": q3}


def load_bounds(checkout):
    """{metric: bound} of the end-to-end metrics in BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if any(m["better"] != "lower" for m in spec["end_to_end"]):
        raise SystemExit("bench_pairs: verdicts assume lower is better")
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def verdict(entry, bound):
    """improved, held, unresolved or regressed, for a lower-is-better
    metric."""
    parent, change = entry["parent"], entry["change"]
    if (10 * entry["change_wins"] >= 9 * len(parent["runs"])
            and parent["median"] - change["median"]
            > parent["q3"] - parent["q1"]):
        return "improved"
    if max(change["runs"]) < min(parent["runs"]):
        return "held"
    if any((side["q3"] - side["q1"]) > bound * side["median"]
           for side in (parent, change)):
        return "unresolved"
    if change["median"] > (1 + bound) * parent["median"]:
        return "regressed"
    return "held"


def measure_pairs(sides, bounds, workload, pairs, seed, seconds):
    runs = {side: [] for side in SIDES}
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            res = run_bench(*sides[side], workload, seed + k, seconds, 0)
            runs[side].append(res)
            print("%s pair %d %s: %s" % (
                workload, k, side,
                " ".join("%s=%.4g" % (m, res["metrics"][m]["value"])
                         for m in bounds)), file=sys.stderr, flush=True)
    out = {"pairs": pairs, "seeds": [seed, seed + pairs - 1],
           "attempted": {s: sum(r["attempted"] for r in runs[s])
                         for s in SIDES},
           "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
           "metrics": {}}
    for m, bound in bounds.items():
        vals = {s: [r["metrics"][m]["value"] for r in runs[s]] for s in SIDES}
        entry = {s: summary(vals[s]) for s in SIDES}
        entry["unit"] = runs["parent"][0]["metrics"][m]["unit"]
        entry["change_wins"] = sum(c < p for p, c in
                                   zip(vals["parent"], vals["change"]))
        entry["ratio_of_medians"] = (entry["change"]["median"]
                                     / entry["parent"]["median"])
        entry["bound"] = bound
        entry["verdict"] = verdict(entry, bound)
        out["metrics"][m] = entry
    out["reference_loop"] = {s: [r["info"][-1] for r in runs[s]]
                             for s in SIDES}
    return out


def compare(new, prev):
    """Table lines: each workload's end-to-end change medians in `new`
    next to those in `prev`, with their ratio."""
    lines = ["%-10s %-12s %12s %12s %7s" % ("workload", "metric", "previous",
                                             "new", "ratio")]
    for workload, entry in sorted(new["workloads"].items()):
        before = prev["workloads"].get(workload, {}).get("metrics", {})
        for metric, stats in sorted(entry["metrics"].items()):
            now = stats["change"]["median"]
            if metric in before:
                was = before[metric]["change"]["median"]
                lines.append("%-10s %-12s %12.4g %12.4g %7.3f" % (
                    workload, metric, was, now, now / was))
            else:
                lines.append("%-10s %-12s %12s %12.4g %7s" % (
                    workload, metric, "-", now, "-"))
    return lines


def parse_pairs(items):
    out = {}
    for item in items:
        name, _, n = item.partition("=")
        out[name] = int(n)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout of the parent")
    p.add_argument("--change", help="checkout of the change")
    p.add_argument("--pairs", nargs="+", metavar="WORKLOAD=N")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--traced", nargs="*", default=[], metavar="WORKLOAD")
    p.add_argument("--out", required=True)
    p.add_argument("--compare", metavar="PREV.json",
                   help="print --out's change medians next to PREV's")
    args = p.parse_args(argv)
    if args.pairs:
        if not (args.parent and args.change):
            p.error("--pairs needs --parent and --change")
        run_pairs(args)
    elif not args.compare:
        p.error("give --pairs to measure or --compare to compare")
    if args.compare:
        with open(args.out) as fh, open(args.compare) as prev:
            print("\n".join(compare(json.load(fh), json.load(prev))))
    return 0


def run_pairs(args):
    report = {
        "command": "perfbench/run.py --seconds %g --trace 0" % args.seconds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {}, "traced": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pycache_") as tmp:
        # each side's checkout and its own empty bytecode directory, so
        # both start from source
        sides = {}
        for side in SIDES:
            os.mkdir(os.path.join(tmp, side))
            sides[side] = (os.path.abspath(getattr(args, side)),
                           os.path.join(tmp, side))
        bounds = load_bounds(sides["parent"][0])
        for workload, n in parse_pairs(args.pairs).items():
            report["workloads"][workload] = measure_pairs(
                sides, bounds, workload, n, args.seed, args.seconds)
        for workload in args.traced:
            report["traced"][workload] = {
                side: run_bench(*sides[side], workload, args.seed,
                                args.seconds, 1)
                for side in SIDES}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
