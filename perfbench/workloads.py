"""Seeded request streams for the three workloads.

Every stream is a fixed multiset of CLI commands; the seed only orders
it.  The benchmark empties the program's in-process caches before each
request, so a request costs the same wherever the seed puts it, and
every round of every run does the same work.

The closed forms below are the paper's, written out here rather than
read from the program, so the checks built on them are independent of
the code under test:

    c = 6 (1 - M) / M
    NS:  h = j^2/M + 1/(4M) - 1/2,   s = 2j/M - 1
    R:   h = j^2/M + 1/(4M) - 1/4,   s = 2j/M

and the admissible labels j of level M are the half-odd integers (NS)
or the integers (R) in [-(M-1)/2, M/2].
"""

import dataclasses
import random
from fractions import Fraction

LEVELS = (1, 2, 3, 4)
SECTORS = ("NS", "R")
HALF = Fraction(1, 2)


def admissible_labels(M, sector):
    """The M labels j of level M in one sector, ascending."""
    lo, hi = Fraction(1 - M, 2), Fraction(M, 2)
    base = HALF if sector == "NS" else Fraction(0)
    out = []
    n = -M
    while base + n <= hi:
        if base + n >= lo:
            out.append(base + n)
        n += 1
    return tuple(out)


def central_charge(M):
    return Fraction(6 * (1 - M), M)


def weight_and_spin(M, j, sector):
    """(h, s) of the labelled module."""
    j = Fraction(j)
    if sector == "NS":
        return j * j / M + Fraction(1, 4 * M) - HALF, 2 * j / M - 1
    return j * j / M + Fraction(1, 4 * M) - Fraction(1, 4), 2 * j / M


def leading_q(M, j, sector):
    """The lowest q-exponent h - c/24 of the character."""
    return weight_and_spin(M, j, sector)[0] - central_charge(M) / 24


@dataclasses.dataclass(frozen=True)
class Request:
    """One CLI command and what the checks need to know about it."""
    kind: str           # "expand", "verify" or "transform"
    argv: tuple
    M: int = 0
    j: Fraction = Fraction(0)
    sector: str = ""
    sign: str = ""
    q_order: Fraction = Fraction(0)
    window: tuple = None     # explicit --x-window, else the default
    suite: str = ""
    which: str = ""
    statement: int = 0
    repeat_of: int = -1      # index of the request this one repeats

    def label(self):
        if self.kind == "expand":
            win = "" if self.window is None else " win=%s:%s" % self.window
            rep = " (repeat)" if self.repeat_of >= 0 else ""
            return "expand M=%d j=%s %s%s q=%s%s%s" % (
                self.M, self.j, self.sector, self.sign, self.q_order, win,
                rep)
        if self.kind == "verify":
            return "verify %s" % self.suite
        return "transform M=%d %s statement %d" % (self.M, self.which,
                                                   self.statement)


def _expand(M, j, sector, sign, q_order, window=None):
    argv = ["expand", "--M", str(M), "--j=%s" % j, "--sector", sector,
            "--sign", sign, "--q-order", str(q_order), "--format", "json"]
    if window is not None:
        argv.append("--x-window=%s:%s" % window)
    return Request("expand", tuple(argv), M=M, j=Fraction(j), sector=sector,
                   sign=sign, q_order=Fraction(q_order), window=window)


# base orders, dealt to the labels in turn; both signs of a label share
# one, so the -/+ partner check always has its pair
BASE_ORDERS = tuple(Fraction(n, 2) for n in range(3, 10))   # 3/2 .. 9/2

# (M, j, sector, order): + characters asked a second time at a higher
# order, which spreads the orders up to 16 and feeds the agreement check
HIGH_ORDERS = (
    (1, HALF, "NS", Fraction(16)),
    (1, Fraction(0), "R", Fraction(12)),
    (2, Fraction(1), "R", Fraction(10)),
    (2, HALF, "NS", Fraction(8)),
    (3, HALF, "NS", Fraction(6)),
    (4, Fraction(3, 2), "NS", Fraction(6)),
)

# (M, j, sector, sign, order, window as offsets from s): explicit
# windows, each holding the leading exponent s
WINDOWED = (
    (2, HALF, "NS", "+", Fraction(4), (-7, 1)),
    (3, HALF, "NS", "-", Fraction(3), (-3, 0)),
    (3, Fraction(1), "R", "+", Fraction(4), (-6, 2)),
    (4, HALF, "NS", "+", Fraction(3), (-2, 1)),
)

# every REPEAT_EVERY-th base request is asked again later in the stream
REPEAT_EVERY = 4


def expand_requests(seed):
    """All labels of M = 1..4 at a base order, both signs; the high
    orders; the explicit windows; then repeats placed after their
    originals.  The seed shuffles the stream."""
    base = []
    k = 0
    for M in LEVELS:
        for sector in SECTORS:
            for j in admissible_labels(M, sector):
                q = BASE_ORDERS[k % len(BASE_ORDERS)]
                k += 1
                for sign in ("+", "-"):
                    base.append(_expand(M, j, sector, sign, q))
    extra = [_expand(M, j, sector, "+", q) for M, j, sector, q in HIGH_ORDERS]
    for M, j, sector, sign, q, (lo, hi) in WINDOWED:
        s = weight_and_spin(M, j, sector)[1]
        extra.append(_expand(M, j, sector, sign, q, (s + lo, s + hi)))
    rng = random.Random(seed)
    stream = base + extra
    rng.shuffle(stream)
    for orig in base[::REPEAT_EVERY]:
        first = stream.index(orig)
        at = rng.randint(first + 1, len(stream))
        stream.insert(at, orig)
    out = []
    seen = {}
    for r in stream:
        if r in seen:
            r = dataclasses.replace(r, repeat_of=seen[r])
        else:
            seen[r] = len(out)
        out.append(r)
    return out


VERIFY_SUITES = ("theta", "psi", "characters", "reduction")


def verify_requests(seed):
    """One `verify --suite` per suite, with the program's default flags
    (so its default thread pool), in seeded order."""
    reqs = [Request("verify", ("verify", "--suite", name, "--format", "json"),
                    suite=name) for name in VERIFY_SUITES]
    random.Random(seed).shuffle(reqs)
    return reqs


# (M, statement, times asked) families run for both S and T at the
# program's seed 0; statement 1 at M = 3 and 4 takes 20 s to 60 s per
# transform and does not fit a round.  The families' costs jump from
# 0.7 s (M = 1, statement 1) to 2.3 s (M = 3, statement 2); asking
# M = 1, statement 1 three times puts the round's median request inside
# six like requests instead of across that gap, where it would follow
# the noise of two single requests.
TRANSFORM_FAMILIES = ((1, 1, 3), (1, 2, 1), (2, 1, 1), (2, 2, 1),
                      (3, 2, 1), (4, 2, 1))


def transform_requests(seed):
    reqs = [Request("transform",
                    ("transform", "--M", str(M), "--which", which,
                     "--statement", str(st), "--seed", "0"),
                    M=M, which=which, statement=st)
            for M, st, times in TRANSFORM_FAMILIES
            for which in ("S", "T") for _ in range(times)]
    random.Random(seed).shuffle(reqs)
    return reqs


WORKLOADS = {
    "expand": expand_requests,
    "verify": verify_requests,
    "transform": transform_requests,
}
