"""Spans around the program's layer functions, for the traced run.

The tracer replaces each listed public function by a wrapper in every
thetachar module namespace that holds it, so calls through any import
path are seen.  Each wrapped call is one span with a name, the span
that called it (per thread), its thread, its wall time and its thread
CPU time.  A span's self time is its thread CPU time minus the CPU time
its child spans cover; the tracer's own bookkeeping in a child counts
as covered, so it lands in no layer's self time.  Self time is CPU time
rather than wall time because verify runs its cases on a thread pool:
there a span's wall time includes waiting for the GIL while other cases
run, which suites.case.wait_s reports instead.  Spans are folded into
per-thread (name, parent) totals as they end and summed when a round is
read.

Nothing under src/ is changed: install() patches module attributes and
uninstall() puts the originals back.
"""

import functools
import sys
import threading
import time
from bisect import bisect_left

# (span name, module, attribute); "Class.method" patches a method.
# qseries.serialize folds three functions into one span name.
LAYERS = (
    ("qseries.mul", "thetachar.qseries", "mul"),
    ("qseries.invert_directed", "thetachar.qseries", "invert_directed"),
    ("qseries.as_series", "thetachar.qseries", "SeriesRatio.as_series"),
    ("qseries.equal_to_order", "thetachar.qseries", "equal_to_order"),
    ("qseries.serialize", "thetachar.qseries", "to_json_dict"),
    ("qseries.serialize", "thetachar.qseries", "from_json_dict"),
    ("qseries.serialize", "thetachar.qseries", "dumps_canonical"),
    ("theta.theta_shifted", "thetachar.theta", "theta_shifted"),
    ("theta.theta_product", "thetachar.theta", "theta_product"),
    ("theta.theta_numeric", "thetachar.theta", "theta_numeric"),
    ("mockpsi.psi_numeric", "thetachar.mockpsi", "psi_numeric"),
    ("mockpsi.phi_a11_numeric", "thetachar.mockpsi", "phi_a11_numeric"),
    ("characters.character_series", "thetachar.characters",
     "character_series"),
    ("characters.character_ratio", "thetachar.characters",
     "character_ratio"),
    ("modular.denominator_numeric", "thetachar.modular",
     "denominator_numeric"),
    ("modular.character_member_numeric", "thetachar.modular",
     "character_member_numeric"),
    ("modular.span_closure", "thetachar.modular", "span_closure"),
    ("cli.cmd_expand", "thetachar.cli", "cmd_expand"),
    # each case callable that suite_cases hands to run_suite is a span
    ("suites.case", "thetachar.suites", "suite_cases"),
)

# lru-cached builders whose cache_info() feeds the miss counts
CACHED = ("theta.theta_shifted", "theta.theta_product")
DISTINCT_ARGS = ("theta.theta_numeric", "modular.denominator_numeric")


def _mul_term_pairs(args, result):
    """Stored-term pairs mul visits: those whose q-exponents sum below
    the product's trust bound, on the common lattice."""
    a, b = args[0], args[1]
    ka = result.q_den // a.q_den
    kb = result.q_den // b.q_den
    qb = sorted(qn * kb for qn, _ in b.c)
    lim = result.order_n
    return sum(bisect_left(qb, lim - qn * ka) for qn, _ in a.c)


class _ThreadState:
    def __init__(self, gen):
        self.gen = gen
        self.stack = []
        self.spans = {}      # (name, parent) -> [calls, wall, cpu, self cpu]
        self.counts = {}     # counter name -> int
        self.args = {}       # span name -> set of argument tuples


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._gen = 0
        self._patches = []
        self.originals = {}
        self.skipped = []
        self.notes = []
        self._cache_totals = {}  # name -> [misses, entries] this round

    # -- per-thread state ------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None or st.gen != self._gen:
            st = _ThreadState(self._gen)
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def reset(self):
        """Forget all spans; the next round starts from zero."""
        with self._lock:
            self._gen += 1
            self._states = []
        self._cache_totals = {}

    def drain_caches(self):
        """Add the cached builders' statistics to the round's totals.
        Call it after each request, before the caches are cleared."""
        for name in CACHED:
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is None:
                continue
            info = info()
            tot = self._cache_totals.setdefault(name, [0, 0])
            tot[0] += info.misses
            tot[1] += info.currsize

    # -- wrapping --------------------------------------------------------

    def _hook(self, name):
        if name == "qseries.mul":
            def count_pairs(st, args, kwargs, result, frame):
                n = _mul_term_pairs(args, result)
                st.counts["qseries.mul.term_pairs"] = \
                    st.counts.get("qseries.mul.term_pairs", 0) + n
            return count_pairs
        if name in DISTINCT_ARGS:
            def remember(st, args, kwargs, result, frame):
                key = args + tuple(sorted(kwargs.items()))
                st.args.setdefault(name, set()).add(key)
            return remember
        if name == "cli.cmd_expand":
            def hit_or_miss(st, args, kwargs, result, frame):
                built = "characters.character_series" in frame[1]
                key = "cli.cache.misses" if built else "cli.cache.hits"
                st.counts[key] = st.counts.get(key, 0) + 1
            return hit_or_miss
        return None

    def _wrap(self, name, fn):
        tracer = self
        hook = [self._hook(name)]
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def span(*args, **kwargs):
            c_in = cpu()
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [0.0, set(), name]  # child cpu, child names, own name
            stack.append(frame)
            result = failed = None
            w0, c0 = perf(), cpu()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                # a span that raises (the padding retries do) still ends
                w1, c1 = perf(), cpu()
                stack.pop()
                key = (name, parent[2] if parent else None)
                agg = st.spans.get(key)
                if agg is None:
                    agg = st.spans[key] = [0, 0.0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += w1 - w0
                agg[2] += c1 - c0
                agg[3] += (c1 - c0) - frame[0]
                if hook[0] is not None and not failed:
                    try:
                        hook[0](st, args, kwargs, result, frame)
                    except (AttributeError, TypeError) as exc:
                        # the program's internals moved: keep timing,
                        # stop counting, and say so
                        tracer.notes.append("%s counter off: %s"
                                            % (name, exc))
                        hook[0] = None
                if parent is not None:
                    parent[0] += cpu() - c_in
                    parent[1].add(name)

        return span

    def _wrap_suite_cases(self, fn):
        tracer = self

        @functools.wraps(fn)
        def suite_cases(name):
            return tuple((cid, tracer._wrap("suites.case", case))
                         for cid, case in fn(name))

        return suite_cases

    def install(self):
        """Wrap every layer function that exists; list the others."""
        self.skipped = []
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "thetachar" or n.startswith("thetachar.")]
        for name, modname, attr in LAYERS:
            mod = sys.modules.get(modname)
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = vars(owner).get(fname) if owner is not None else None
            if orig is None:
                self.skipped.append("%s.%s" % (modname, attr))
                continue
            self.originals.setdefault(name, orig)
            wrapper = (self._wrap_suite_cases(orig) if name == "suites.case"
                       else self._wrap(name, orig))
            if owner_name:
                self._patch(owner, fname, orig, wrapper)
                continue
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- reading ---------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything since the last reset()."""
        with self._lock:
            states = list(self._states)
        spans, counts, args = {}, {}, {}
        for st in states:
            for key, agg in st.spans.items():
                tot = spans.setdefault(key, [0, 0.0, 0.0, 0.0])
                for i, v in enumerate(agg):
                    tot[i] += v
            for key, n in st.counts.items():
                counts[key] = counts.get(key, 0) + n
            for key, s in st.args.items():
                args.setdefault(key, set()).update(s)

        def total(name, i):
            return sum(agg[i] for (n, _), agg in spans.items() if n == name)

        out = {}
        for name in ("qseries.mul", "qseries.invert_directed",
                     "theta.theta_shifted", "theta.theta_product",
                     "theta.theta_numeric", "mockpsi.psi_numeric",
                     "mockpsi.phi_a11_numeric",
                     "characters.character_series",
                     "characters.character_ratio",
                     "modular.denominator_numeric",
                     "modular.character_member_numeric"):
            out[name + ".calls"] = total(name, 0)
        for name in ("qseries.mul", "qseries.invert_directed",
                     "qseries.as_series", "qseries.equal_to_order",
                     "qseries.serialize", "theta.theta_shifted",
                     "theta.theta_product", "theta.theta_numeric",
                     "mockpsi.psi_numeric", "mockpsi.phi_a11_numeric",
                     "characters.character_series",
                     "characters.character_ratio",
                     "modular.denominator_numeric",
                     "modular.character_member_numeric",
                     "modular.span_closure", "cli.cmd_expand"):
            out[name + ".self_s"] = total(name, 3)
        out["qseries.mul.term_pairs"] = counts.get("qseries.mul.term_pairs", 0)
        for name in CACHED:
            misses, entries = self._cache_totals.get(name, (0, 0))
            out[name + ".misses"] = misses
            if name == "theta.theta_shifted":
                out[name + ".duplicate_builds"] = misses - entries
        for name in DISTINCT_ARGS:
            out[name + ".distinct_args"] = len(args.get(name, ()))
        from_series = spans.get(("characters.character_ratio",
                                 "characters.character_series"), [0])[0]
        out["characters.pad_retries"] = \
            from_series - out["characters.character_series.calls"]
        cpu = total("suites.case", 2)
        out["suites.case.cpu_s"] = cpu
        out["suites.case.wait_s"] = total("suites.case", 1) - cpu
        out["cli.cache.hits"] = counts.get("cli.cache.hits", 0)
        out["cli.cache.misses"] = counts.get("cli.cache.misses", 0)
        return out
