"""Benchmark of the thetachar CLI: expand, verify and transform.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  One client issues one request at a time through the in-process
entry point thetachar.cli.main (a closed loop).  A round is the
workload's fixed set of requests; each request starts from emptied
in-process caches and the round from a fresh expansion-cache directory.
Rounds repeat until the next one would end past --seconds (at least one
runs).  Every answer is checked against properties the mathematics
forces (checks.py); an answer that fails a check counts as a failed
operation.  See README.md for the workloads and metrics.

--trace 0 prints the end-to-end metrics: setup_s, run_s, req_p50_ms and
peak_rss_mb.  --trace 1 alternates untraced and traced rounds and prints
the per-layer metrics (tracing.py) with the tracing overhead.
The last line of stdout is one JSON object; lines before it starting
with '#' are information, not metrics.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# expansion-cache directories of the rounds; removed after each round
WORK = os.path.join(HERE, "_work")

import checks  # noqa: E402
import workloads  # noqa: E402

# set-up is timed in fresh interpreters, some before the rounds and some
# after, so the median spans the run rather than one moment of it
SETUP_PROBES = (8, 7)


def load_program():
    """Import thetachar from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import thetachar.cli
        import thetachar.suites
    except ImportError as exc:
        raise SystemExit("perfbench: cannot import thetachar from %s: %s"
                         % (SRC, exc))
    where = os.path.dirname(os.path.abspath(thetachar.__file__))
    if where != os.path.join(SRC, "thetachar"):
        raise SystemExit("perfbench: thetachar came from %s, not %s"
                         % (where, SRC))
    return thetachar


def fresh_cache_dir():
    os.makedirs(WORK, exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK, prefix="cache-")
    os.environ["THETACHAR_CACHE_DIR"] = path
    return path


def setup(workload, seed):
    """Everything a run does before its first request."""
    program = load_program()
    program.caches = program_caches()
    requests = workloads.WORKLOADS[workload](seed)
    return program, requests, fresh_cache_dir()


def probe_setup(workload, seed):
    """Wall time from starting a fresh interpreter until it has set up
    and could send its first request."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    if rc != 0 or line.strip() != b"ready":
        raise SystemExit("perfbench: set-up probe failed with code %s" % rc)
    return elapsed


def reference_loop():
    """Median time of a fixed pure-Python loop: it tracks the host's
    speed, not the program's.  Like the program's series kernel, it
    multiplies Fractions into a dict keyed by exponent pairs."""
    times = []
    step = Fraction(3, 7)
    for _ in range(5):
        t0 = time.perf_counter()
        acc = {}
        for i in range(12_000):
            key = (i % 97, i % 89)
            acc[key] = acc.get(key, 0) + step * (i % 13)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def program_caches():
    """Every lru cache in the program's modules, found before the tracer
    hides them behind its wrappers."""
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "thetachar" or name.startswith("thetachar."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def call_cli(program, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = program.cli.main(list(argv))
    except Exception:
        rc = "exception: " + traceback.format_exc(limit=3)
    return rc, out.getvalue()


def check_round(requests, results, expected_ids):
    kind = requests[0].kind
    if kind == "expand":
        return checks.check_expand_round(requests, results)
    if kind == "transform":
        return [checks.check_transform(r, rc, out)
                for r, (rc, out) in zip(requests, results)]
    return [checks.check_verify(r, rc, out, expected_ids[r.suite])
            for r, (rc, out) in zip(requests, results)]


def run_round(program, requests, expected_ids, tracer=None):
    """One pass over the requests; returns (run_s, latencies, problems,
    per-layer metrics or None).  Each request starts from emptied
    in-process caches, as a fresh `thetachar` process would, so its cost
    does not depend on where the seed put it; the expansion cache on disk
    lasts the whole round."""
    cache = fresh_cache_dir()
    gc.collect()
    if tracer is not None:
        tracer.reset()
    latencies, results = [], []
    for req in requests:
        for cached in program.caches:
            cached.cache_clear()
        t = time.perf_counter()
        results.append(call_cli(program, req.argv))
        latencies.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.drain_caches()
    layer = tracer.metrics() if tracer is not None else None
    shutil.rmtree(cache, ignore_errors=True)
    return sum(latencies), latencies, \
        check_round(requests, results, expected_ids), layer


def run_rounds(program, requests, expected_ids, seconds, tracer=None):
    """Rounds until the next would end past `seconds`; at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start
                         + rounds[-1][0] <= seconds):
        rounds.append(run_round(program, requests, expected_ids, tracer))
    return rounds


def count_failures(requests, rounds):
    attempted = failed = 0
    for _, _, problems, _ in rounds:
        for req, probs in zip(requests, problems):
            attempted += 1
            if probs:
                failed += 1
                print("perfbench: FAILED %s: %s" % (req.label(),
                                                    "; ".join(probs)),
                      file=sys.stderr)
    return attempted, failed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        _, _, cache = setup(args.workload, args.seed)
        print("ready", flush=True)
        shutil.rmtree(cache, ignore_errors=True)
        return 0

    program, requests, cache = setup(args.workload, args.seed)
    shutil.rmtree(cache, ignore_errors=True)
    expected_ids = {}
    for req in requests:
        if req.kind == "verify":
            expected_ids[req.suite] = [
                cid for cid, _ in program.suites.suite_cases(req.suite)]
    ref_before = reference_loop()
    info = ["workload %s, seed %d, %d requests per round"
            % (args.workload, args.seed, len(requests))]

    if args.trace == 0:
        before, after = SETUP_PROBES
        probes = [probe_setup(args.workload, args.seed)
                  for _ in range(before)]
        rounds = run_rounds(program, requests, expected_ids, args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        probes += [probe_setup(args.workload, args.seed)
                   for _ in range(after)]
        # each request's median over the rounds, then the median request
        per_request = [statistics.median(ts)
                       for ts in zip(*(r[1] for r in rounds))]
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            "run_s": (statistics.median(r[0] for r in rounds), "s"),
            "req_p50_ms": (statistics.median(per_request) * 1e3, "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        info.append("%d rounds, run_s per round: %s" % (
            len(rounds), " ".join("%.3f" % r[0] for r in rounds)))
    else:
        import tracing
        tracer = tracing.Tracer()
        plain, traced = [], []
        start = time.perf_counter()
        # untraced and traced rounds alternate, so host drift during the
        # run lands on both sides of the overhead
        while not traced or (time.perf_counter() - start
                             + traced[-1][0] <= args.seconds):
            if len(plain) <= len(traced):
                plain.append(run_round(program, requests, expected_ids))
                continue
            tracer.install()
            try:
                traced.append(run_round(program, requests, expected_ids,
                                        tracer))
            finally:
                tracer.uninstall()
        rounds = plain + traced
        metrics = {}
        for name in traced[0][3]:
            value = statistics.median(r[3][name] for r in traced)
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = (value, unit)
        plain_s = statistics.median(r[0] for r in plain)
        traced_s = statistics.median(r[0] for r in traced)
        info.append("tracing overhead_s %.3f: traced run_s %.3f minus "
                    "untraced run_s %.3f, medians of %d and %d rounds"
                    % (traced_s - plain_s, traced_s, plain_s, len(traced),
                       len(plain)))
        if tracer.skipped:
            info.append("layers not found, reported as 0: %s"
                        % ", ".join(tracer.skipped))
        for note in sorted(set(tracer.notes)):
            info.append("note: %s" % note)

    attempted, failed = count_failures(requests, rounds)
    ref_after = reference_loop()
    info.append("reference_loop_s %.4f before, %.4f after (host speed, "
                "not a metric)" % (ref_before, ref_after))
    for line in info:
        print("# " + line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
