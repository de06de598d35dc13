"""Property checks on the program's answers.

Each check parses the CLI output itself (json, Fraction, complex) and
compares it with what the mathematics forces, never with a stored copy
of an earlier answer.  A check returns a list of problems; an empty
list means the answer passed.
"""

import cmath
import json
from fractions import Fraction

from workloads import leading_q, weight_and_spin

# the program's default --tol for transform; the benchmark never
# overrides it
TRANSFORM_TOL = 1e-9
MATRIX_TOL = 1e-6


# ---------------------------------------------------------------------
# expand


def parse_series(text):
    """(q_order, (lo, hi) window or None, {(q, x): (re, im)}) from the
    canonical JSON of one series, with Fraction exponents."""
    d = json.loads(text)
    q_den, x_den = int(d["q_den"]), int(d["x_den"])
    terms = {}
    for t in d["terms"]:
        key = (Fraction(t["q"], q_den), Fraction(t["x"], x_den))
        terms[key] = (Fraction(t["re"]), Fraction(t["im"]))
    win = d.get("x_window")
    if win is not None:
        win = (Fraction(win[0]), Fraction(win[1]))
    return Fraction(d["q_order"]), win, terms


def expected_window(req):
    if req.window is not None:
        return req.window
    s = weight_and_spin(req.M, req.j, req.sector)[1]
    return (s - 4, s + 2)


def check_expand(req, rc, text):
    """Checks that need only this one answer."""
    if rc != 0:
        return ["exit code %s" % rc]
    try:
        q_order, win, terms = parse_series(text)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return ["unparsable answer: %s" % exc]
    problems = []
    if q_order != req.q_order:
        problems.append("q_order %s, asked %s" % (q_order, req.q_order))
    want_win = expected_window(req)
    if win != want_win:
        return problems + ["x window %s, expected %s" % (win, want_win)]
    for (qe, xe), (re, im) in terms.items():
        if qe >= req.q_order or not win[0] <= xe <= win[1]:
            problems.append("term q^%s x^%s outside the request" % (qe, xe))
        if re.denominator != 1 or im.denominator != 1:
            problems.append("q^%s x^%s: %s+%si is not a Gaussian integer"
                            % (qe, xe, re, im))
        if req.sign == "+" and (im != 0 or re < 0):
            problems.append("q^%s x^%s: %s+%si is not a multiplicity"
                            % (qe, xe, re, im))
        if (re, im) == (0, 0):
            problems.append("stored zero at q^%s x^%s" % (qe, xe))
    lead = leading_q(req.M, req.j, req.sector)
    s = weight_and_spin(req.M, req.j, req.sector)[1]
    if lead < req.q_order:
        low = min((qe for qe, _ in terms), default=None)
        if low != lead:
            problems.append("lowest q-exponent %s, expected h-c/24 = %s"
                            % (low, lead))
        if terms.get((lead, s)) != (1, 0):
            problems.append("coefficient of q^%s x^%s is %s, expected 1"
                            % (lead, s, terms.get((lead, s))))
        above = [xe for qe, xe in terms if qe == lead and xe > s]
        if above:
            problems.append("x^%s above x^s at the lowest q-level"
                            % max(above))
    elif terms:
        problems.append("terms below the leading exponent %s" % lead)
    if req.M == 1 and terms != {(Fraction(0), Fraction(0)): (1, 0)}:
        problems.append("M=1 character is not the constant 1")
    return problems


def check_partner(minus_req, minus_text, plus_text):
    """ch^- equals ch^+ term by term times (-1)^(x - s)."""
    _, _, tm = parse_series(minus_text)
    _, _, tp = parse_series(plus_text)
    s = weight_and_spin(minus_req.M, minus_req.j, minus_req.sector)[1]
    problems = []
    for key in set(tm) | set(tp):
        xe = key[1]
        if (xe - s).denominator != 1:
            problems.append("x^%s is off the x^s + Z lattice" % xe)
            continue
        re, im = tp.get(key, (0, 0))
        if (xe - s) % 2:
            re, im = -re, -im
        if tm.get(key, (0, 0)) != (re, im):
            problems.append("ch- and ch+ differ at q^%s x^%s" % key)
    return problems


def check_orders_agree(low_text, high_text):
    """One label asked at two orders agrees below the lower one."""
    q_low, _, t_low = parse_series(low_text)
    _, _, t_high = parse_series(high_text)
    cut = {k: v for k, v in t_high.items() if k[0] < q_low}
    if cut != t_low:
        diff = sorted(set(cut.items()) ^ set(t_low.items()))
        return ["orders disagree below q^%s, first at q^%s x^%s"
                % (q_low, diff[0][0][0], diff[0][0][1])]
    return []


def check_expand_round(requests, results):
    """Problems per request for one expand round.

    results[i] is (exit code, stdout) of requests[i].  Pair checks are
    charged to the later member of the pair: the - sign, the higher
    order, the repeat.
    """
    problems = [check_expand(r, rc, out)
                for r, (rc, out) in zip(requests, results)]
    first = {}
    for i, r in enumerate(requests):
        if r.repeat_of < 0 and not problems[i]:
            first[(r.M, r.j, r.sector, r.sign, r.q_order, r.window)] = i
    for i, r in enumerate(requests):
        if problems[i]:
            continue
        text = results[i][1]
        if r.repeat_of >= 0:
            if text != results[r.repeat_of][1]:
                problems[i].append("repeat differs from its first answer")
            continue
        if r.window is not None:
            continue
        if r.sign == "-":
            k = first.get((r.M, r.j, r.sector, "+", r.q_order, None))
            if k is not None:
                problems[i] += check_partner(r, text, results[k][1])
        for (M, j, sector, sign, q, win), k in first.items():
            if ((M, j, sector, sign, win) == (r.M, r.j, r.sector, r.sign,
                                              None) and q < r.q_order):
                problems[i] += check_orders_agree(results[k][1], text)
    return problems


# ---------------------------------------------------------------------
# transform


def parse_member(member_id):
    """((eps, eps'), (j1, j2)) from "eps=1/2|eps'=0|j=(1,2)"."""
    parts = dict(p.split("=", 1) for p in member_id.split("|"))
    j1, j2 = parts["j"].strip("()").split(",")
    return ((Fraction(parts["eps"]), Fraction(parts["eps'"])),
            (Fraction(j1), Fraction(j2)))


def parse_certificate(text):
    d = json.loads(text)
    members = [parse_member(m) for m in d["family"]]
    coeffs = [[complex(c["re"], c["im"]) for c in row]
              for row in d["coefficients"]]
    n = len(members)
    if len(coeffs) != n or any(len(row) != n for row in coeffs):
        raise ValueError("coefficient matrix is not %d x %d" % (n, n))
    return d, members, coeffs


def predicted_t_rows(M, members):
    """Member (eps, eps'), (j1, j2) goes to e^{2 pi i j1 j2/M} e^{pi i eps'}
    times the member at block (eps + eps' mod 1, eps')."""
    index = {m: i for i, m in enumerate(members)}
    rows = []
    for (eps, eps_p), (j1, j2) in members:
        target = index[(((eps + eps_p) % 1, eps_p), (j1, j2))]
        phase = cmath.exp(2j * cmath.pi * float(j1 * j2 / M)
                          + 1j * cmath.pi * float(eps_p))
        row = [0j] * len(members)
        row[target] = phase
        rows.append(row)
    return rows


def signed_permutation_error(S):
    """Largest distance of S*S from a signed permutation matrix, or
    None when some row or column has no entry near +-1."""
    n = len(S)
    sq = [[sum(S[i][k] * S[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    worst = 0.0
    cols = set()
    for row in sq:
        big = max(range(n), key=lambda k: abs(row[k]))
        cols.add(big)
        unit = min(abs(row[big] - 1), abs(row[big] + 1))
        rest = max((abs(v) for k, v in enumerate(row) if k != big),
                   default=0.0)
        worst = max(worst, unit, rest)
    if len(cols) != n:
        return None
    return worst


def check_transform(req, rc, text):
    if rc != 0:
        return ["exit code %s" % rc]
    try:
        d, members, coeffs = parse_certificate(text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return ["unparsable certificate: %s" % exc]
    problems = []
    if (d["transform"], d["M"], d["statement"]) != (req.which, req.M,
                                                     req.statement):
        problems.append("certificate is for %s M=%s statement %s"
                        % (d["transform"], d["M"], d["statement"]))
    if not d["residual"] <= TRANSFORM_TOL:
        problems.append("residual %.3e above %g" % (d["residual"],
                                                   TRANSFORM_TOL))
    if req.M < 2:
        return problems     # rank deficient family: the fit is not unique
    if req.which == "T":
        try:
            pred = predicted_t_rows(req.M, members)
        except KeyError as exc:
            return problems + ["family not closed under T: %s" % (exc,)]
        dev = max(abs(a - b) for ra, rb in zip(coeffs, pred)
                  for a, b in zip(ra, rb))
        if dev > MATRIX_TOL:
            problems.append("T matrix off the predicted phases by %.3e"
                            % dev)
    else:
        err = signed_permutation_error(coeffs)
        if err is None or err > MATRIX_TOL:
            problems.append("S^2 is not a signed permutation (error %s)"
                            % err)
    return problems


# ---------------------------------------------------------------------
# verify


def check_verify(req, rc, text, expected_ids):
    """Every case passed and the case ids are the suite's registry."""
    if rc != 0:
        return ["exit code %s" % rc]
    try:
        reports = json.loads(text)["reports"]
        (report,) = reports
        ids = [c["id"] for c in report["cases"]]
        statuses = [c["status"] for c in report["cases"]]
    except (ValueError, KeyError, TypeError) as exc:
        return ["unparsable report: %s" % exc]
    problems = []
    if report["suite"] != req.suite:
        problems.append("report is for suite %r" % report["suite"])
    if ids != list(expected_ids):
        problems.append("case ids differ from the suite registry")
    bad = [i for i, s in zip(ids, statuses) if s != "pass"]
    if bad:
        problems.append("%d cases did not pass: %s" % (len(bad), bad[:3]))
    return problems

