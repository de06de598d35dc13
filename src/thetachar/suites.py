"""Named verification suites behind the `verify` command.

A suite is an ordered tuple of (case id, callable) rows.  A case takes
the SuiteConfig and returns a detail string; it fails by raising
(CaseFailure for a checked property, anything else counts too).  Most
rows hand a function to one of three runners, with q = cfg.q_order:

    _exact     it yields, given q, (lhs, rhs) series equal below q;
    _quotient  it yields (a, b) theta.ThetaQuotient pairs, equal below q
               cross-multiplied with their shared factors cancelled
               (ThetaQuotient.sides);
    _residual  it yields, given q, numeric differences under cfg.tol.

A pair whose two compared series hold no term below their bound fails
too, since it would pass whatever the code computes.

The checks that are one of a kind (M = 2 leading rows, nice
specialization, equivalence pairs, the vanishing scan, index sets, span
closure and T phases) are case functions of their own.

Quotient rows build the series of the factors their two sides do not
share, at orders computed from q and the exact valuations, and all rows
share the lru-cached builders in theta.  The reduction rows scan only
the in-range levels that characters.HEART_RANGES admits.
The psi suite's symmetry rows and the modular suite's psi-law and
denominator rows check the law tables of modular, from which the span
rows' predicted matrices are read: the span rows certify each family
once per transform with its predicted matrix, and the t-phases rows
check the predicted T phases and targets exactly on the member series
below q^6.  run_suite runs the cases one after another in registry
order, so reports are deterministic.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product as iproduct

from mpmath import mp

from .qseries import JacobiSeries, equal_to_order, eval_points
from .theta import (DEFAULT_DPS, THETA_LABELS, ThetaQuotient, theta_shifted,
                    theta_sum)
from .mockpsi import (HALF, PsiParams, PsiPlan, appell_tail,
                      phi_a11_numeric, psi_diag_ratio)
from .characters import (HEART_RANGES, HEARTS, SECTORS, SIGNS,
                         CharacterSpec, ReductionParams, central_charge,
                         character_ratio, character_series, dd_numerator,
                         denominator, denominator_theta_form, h_s_values,
                         index_set, nice_k1_values, nice_numerator,
                         nice_param_to_j, reduction_hs, vanishes)
from .modular import (block_law_residual, default_points,
                      denominator_transform_residual, family_members,
                      span_closure, t_law_on_series)


class CaseFailure(AssertionError):
    """A suite case found a violated property."""


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by all cases: trusted order for the exact checks,
    tolerance for the numeric ones, mpmath working precision."""
    q_order: Fraction = Fraction(8)
    tol: float = 1e-9
    dps: int = DEFAULT_DPS

    def echo(self):
        return {"q_order": str(Fraction(self.q_order)),
                "tol": self.tol,
                "precision_dps": self.dps}


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    status: str
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    cases: tuple
    wall_time: float
    config: dict

    @property
    def counts(self):
        return {s: sum(c.status == s for c in self.cases)
                for s in ("pass", "fail")}

    @property
    def ok(self):
        return self.counts["fail"] == 0

    def to_json_dict(self):
        return {
            "suite": self.suite,
            "cases": [{"id": c.case_id, "status": c.status,
                       "detail": c.detail} for c in self.cases],
            "wall_time": self.wall_time,
            "config": self.config,
        }

    def render_text(self):
        lines = []
        width = max((len(c.case_id) for c in self.cases), default=0)
        for c in self.cases:
            mark = {"pass": "[pass]", "fail": "[FAIL]"}[c.status]
            lines.append("%s %-*s  %s" % (mark, width, c.case_id, c.detail))
        n = self.counts
        lines.append("suite %s: %d pass, %d fail in %.2fs"
                     % (self.suite, n["pass"], n["fail"], self.wall_time))
        lines.append("config: q_order=%s tol=%g precision=%s dps"
                     % (self.config["q_order"], self.config["tol"],
                        self.config["precision_dps"]))
        return "\n".join(lines)


def _require(cond, msg):
    if not cond:
        raise CaseFailure(msg)


# ---------------------------------------------------------------------------
# row runners


def _has_term_below(s, q):
    bound = q * s.q_den
    return any(qn < bound for qn, _ in s.c)


def _pair_row(sides, pairs):
    """Row runner: for each pair that pairs(q) yields, sides(a, b, q)
    gives two series and a bound below which they are equal and one of
    them has a term, so that the pair compares something."""
    def run(cfg):
        q = Fraction(cfg.q_order)
        n = 0
        for n, (a, b) in enumerate(pairs(q), 1):
            lhs, rhs, bound = sides(a, b, q)
            _require(equal_to_order(lhs, rhs, bound),
                     "pair %d differs below q^%s" % (n, q))
            _require(_has_term_below(lhs, bound)
                     or _has_term_below(rhs, bound),
                     "pair %d compares no term below q^%s" % (n, q))
        _require(n > 0, "no pairs to compare")
        return "exact below q^%s over %d pair(s)" % (q, n)
    return run


_exact = partial(_pair_row, lambda a, b, q: (a, b, q))


def _quotient(pairs):
    """Row runner: each ThetaQuotient pair that pairs() yields is equal
    below q (ThetaQuotient.sides)."""
    return _pair_row(ThetaQuotient.sides, lambda q: pairs())


def _residual(residuals):
    """Row runner: each numeric difference that residuals(q) yields
    stays under cfg.tol in modulus."""
    def run(cfg):
        worst = [float(abs(r)) for r in residuals(Fraction(cfg.q_order))]
        _require(worst, "no residuals to bound")
        r = max(worst)
        _require(r < cfg.tol, "max residual %.3e over %d evaluations"
                 % (r, len(worst)))
        return "max residual %.1e over %d evaluations" % (r, len(worst))
    return run


# ---------------------------------------------------------------------------
# theta suite: exact and quotient rows


th, eta = ThetaQuotient.theta, ThetaQuotient.eta

# label -> (label, i-power of the phase) of the theta that a shift by
# half the period in tau turns it into
_TAU_HALF_MAP = {"00": ("10", 0), "01": ("11", 3), "10": ("00", 0),
                 "11": ("01", 3)}


def _half_period_shift(s, label):
    # theta_ab(s tau, z + s tau/2) = c q^{-s/8} x^{-1/2} theta_a'b'(s tau, z)
    other, k = _TAU_HALF_MAP[label]
    return [(th(label, s, 1, HALF * s),
             ThetaQuotient((Fraction(-s, 8), -HALF, k)) * th(other, s))]


def _eta_pentagonal(q):
    # eta = q^{1/24} sum_k (-1)^k q^{k(3k-1)/2}, on a q-lattice holding q
    den = math.lcm(24, q.denominator)
    k_max = math.isqrt(int(q) + 2) + 2
    terms = {((12 * k * (3 * k - 1) + 1) * den // 24, 0): (-1) ** (k % 2)
             for k in range(-k_max, k_max + 1)}
    return [(eta(1).series(q), JacobiSeries(den, 1, q * den, terms))]


def _theta_cases():
    # the product form of theta_ab agrees with its lattice sum
    rows = [("sum-vs-product/" + a, _exact(
        lambda q, a=a: [(theta_shifted(a, q), theta_sum(a, q))]))
        for a in THETA_LABELS]
    rows += [("tau-half-shift/" + a, _quotient(
        partial(_half_period_shift, 1, a))) for a in THETA_LABELS]
    # theta_00 theta_10 and theta_01 theta_11 at (2tau, z +- tau/2)
    # collapse to single thetas at (tau, z) times eta(2tau)^2/eta(tau)
    rows += [("tau-shift-pair/" + name, _quotient(lambda sg=sg: [
        (th(la, 2, 1, sg * HALF) * th(lb, 2, 1, sg * HALF) * eta(1),
         ThetaQuotient((Fraction(-1, 8), -sg * HALF, k)) * eta(2, 2)
         * th(tgt))
        for la, lb, tgt, k in (("00", "10", "00", 0),
                               ("01", "11", "01", 2 + sg))]))
        for name, sg in (("up", 1), ("down", -1))]
    rows += [
        # theta_00 theta_01 = eta^2/eta(2tau) theta_01(2tau, 2z), same for
        # theta_10 theta_11 -> theta_11(2tau, 2z)
        ("doubling", _quotient(lambda: [
            (th(la) * th(lb) * eta(2), eta(1, 2) * th(tgt, 2, 2))
            for la, lb, tgt in (("00", "01", "01"), ("10", "11", "11"))])),
        # theta_00 theta_10 and theta_01 theta_11 at (2tau, z) collapse to
        # theta_10, theta_11 at (tau, z) times eta(2tau)^2/eta(tau)
        ("scaled-pair", _quotient(lambda: [
            (th(la, 2) * th(lb, 2) * eta(1), eta(2, 2) * th(tgt))
            for la, lb, tgt in (("00", "10", "10"), ("01", "11", "11"))])),
    ]
    rows += [("full-tau-shift/" + a, _quotient(
        partial(_half_period_shift, 2, a))) for a in THETA_LABELS]
    # eta^3 theta_11(tau, 2z) = theta_00 theta_01 theta_10 theta_11
    rows.append(("quadruple-product", _quotient(lambda: [
        (eta(1, 3) * th("11", 1, 2),
         th("00") * th("01") * th("10") * th("11"))])))
    # theta_11(tau, z +- 1/2) = -+ theta_10(tau, z)
    rows += [("half-shift/" + name, _quotient(lambda sg=sg: [
        (th("11", 1, 1, 0, sg * HALF),
         ThetaQuotient((0, 0, 1 + sg)) * th("10"))]))
        for name, sg in (("plus", 1), ("minus", -1))]
    rows.append(("eta-pentagonal", _exact(_eta_pentagonal)))
    return tuple(("theta/" + cid, case) for cid, case in rows)


# ---------------------------------------------------------------------------
# psi suite: residual rows


def _block_residuals(law, offset, M, q):
    # one law of modular._BLOCK_LAWS for the four characteristic blocks
    # at five generic points of seed M + offset
    blocks = [PsiParams(M, eps_p + 1, eps_p, eps, eps_p)
              for eps in (Fraction(0), HALF) for eps_p in (Fraction(0), HALF)]
    return block_law_residual(blocks, law, default_points(5, seed=M + offset))


# (law, seed offset) of the blocks' symmetries
_PSI_SYMMETRIES = (("periodicity", 0), ("reflect-swap", 20), ("swap", 40),
                   ("reflect", 60))


def _diag_residuals(blocks, q, pts):
    # the exact four-theta series of each diagonal block, evaluated,
    # against the closed forms of all of them from one plan, one pass
    # per point
    at = [(p.tau, p.z1) for p in pts]
    ratios = []
    for pr in blocks:
        top, bottom = (eval_points(part.series(q), at)
                       for part in psi_diag_ratio(pr).parts())
        ratios.append([t / b for t, b in zip(top, bottom)])
    plan = PsiPlan(blocks, True)
    return [ratio[i] - closed
            for i, p in enumerate(pts)
            for ratio, closed in zip(ratios, plan.values(p.tau, p.z1, p.z1,
                                                         0))]


def _psi_diag_ratio(M, q):
    # the single-variable theta-quotient form of the diagonal block
    # agrees with the closed form numerically
    return _diag_residuals(
        [PsiParams(M, eps_p + 1, eps_p + 1, eps, eps_p)
         for eps, eps_p in iproduct((Fraction(0), HALF), repeat=2)],
        q, default_points(5, diagonal=True, seed=M + 80))


def _psi_cases():
    rows = [("%s/M%d" % (name, M), partial(_block_residuals, name, offset, M))
            for name, offset in _PSI_SYMMETRIES for M in (1, 2, 3, 4)]
    rows += [("diagonal-ratio/M%d" % M, partial(_psi_diag_ratio, M))
             for M in (1, 2, 3, 4)]
    rows += [
        # at M = 1 the (0,0) block -i eta^3 theta_11(2z) / theta_11(z)^2
        # collapses to the exact series -i th00 th01 th10 / th11
        ("m1-collapse", lambda q: _diag_residuals(
            [PsiParams(1, 0, 0, 0, 0)], q, default_points(5, diagonal=True,
                                                          seed=7))),
        # Phi1 against e^{-2 pi i m t} times its terms summed directly
        ("appell-prefactor", lambda q: [
            abs(phi_a11_numeric(m, 1, p.tau, p.z1, p.z2, p.t)
                - _appell_direct(m, p)) + appell_tail(
                m, 1, mp.mpc(p.tau), mp.mpc(p.z1), mp.mpc(p.z2), 5)
            for m in (1, 2) for p in default_points(3, seed=13)]),
    ]
    rows = [("psi/" + cid, _residual(fn)) for cid, fn in rows]
    rows.insert(-1, ("psi/appell-cutoff", _appell_cutoff))
    return tuple(rows)


def _appell_direct(m, p):
    # e^{-2 pi i m t} times Phi1's terms |j| <= 5 at shift 1, each from
    # its own two exponentials, sharing no running product with the sum
    tau, z1, z2 = (mp.mpc(v) for v in (p.tau, p.z1, p.z2))
    return mp.exp(-2j * mp.pi * m * mp.mpc(p.t)) * sum(
        mp.exp(2j * mp.pi * (m * j * (z1 + z2) + z1 + tau * (m * j * j + j)))
        / (1 - mp.exp(2j * mp.pi * (z1 + j * tau))) ** 2
        for j in range(-5, 6))


def _appell_cutoff(cfg):
    # the tail majorant at cutoff 1 must cover all that cutoff 60 adds;
    # at these points the terms past cutoff 1 lie between 1e-20 and
    # 1e-7, far above rounding, while past cutoff 8 they would be below
    # it and the check could not fail
    worst, n = 0.0, 0
    for m, s in ((1, Fraction(0)), (1, HALF), (2, 1)):
        for p in default_points(3, seed=11):
            args = (m, s, mp.mpc(p.tau), mp.mpc(p.z1), mp.mpc(p.z2), p.t)
            diff = abs(phi_a11_numeric(*args, j_cutoff=1, tail_tol=1)
                       - phi_a11_numeric(*args, j_cutoff=60))
            bound = appell_tail(*args[:5], j_cutoff=1)
            _require(diff <= bound, "cutoff-1 difference %.3e above its tail "
                     "majorant %.3e" % (diff, bound))
            worst, n = max(worst, float(diff / bound)), n + 1
    return ("cutoff-1 difference at most %.3f of its tail majorant over %d "
            "evaluations" % (worst, n))


# ---------------------------------------------------------------------------
# characters suite: quotient rows and the M = 2 leading rows


def _nice_params(M):
    """(twisted, heart, k1) of every nice reduced module at level M."""
    for twisted in (False, True):
        for heart in ("I", "III"):
            for k1 in nice_k1_values(M, heart):
                yield twisted, heart, k1


def _nice_consistency(M):
    # the theta-quotient numerator matches denominator times character
    for twisted, heart, k1 in _nice_params(M):
        j = nice_param_to_j(M, k1, heart, twisted)
        for sign in SIGNS:
            spec = CharacterSpec(M, j, "R" if twisted else "NS", sign)
            yield (nice_numerator(M, k1, heart, sign, twisted),
                   character_ratio(spec) * denominator(sign, spec.sector))


# (sector, j, sign) -> (constant i^k, labels a, b over d, e) of the
# M = 2 closed form  i^k eta(2tau)^3 theta_a(2tau, z + r tau)
# theta_b(tau, z) / (eta^3 theta_d(2tau, z + r tau) theta_e(2tau, 2z)),
# r = j in NS and 0 in R
_M2_CLOSED = {
    ("NS", HALF, "+"): (1, "00", "00", "10", "11"),
    ("NS", -HALF, "+"): (1, "00", "00", "10", "11"),
    ("NS", HALF, "-"): (0, "01", "01", "11", "11"),
    ("NS", -HALF, "-"): (2, "01", "01", "11", "11"),
    ("R", 0, "+"): (0, "00", "10", "10", "01"),
    ("R", 0, "-"): (0, "01", "11", "11", "01"),
    ("R", 1, "+"): (0, "10", "10", "00", "01"),
    ("R", 1, "-"): (2, "11", "11", "01", "01"),
}


def _m2_closed_ratio(sector, j, sign):
    """The eta/theta-quotient closed form of one M = 2 character."""
    k, a, b, d, e = _M2_CLOSED[(sector, j, sign)]
    r = j if sector == "NS" else 0
    return (ThetaQuotient((0, 0, k)) * eta(2, 3) * th(a, 2, 1, r) * th(b)
            / (eta(1, 3) * th(d, 2, 1, r) * th(e, 2, 2)))


# (sector, j, sign) -> the exact lowest-q row {x-exponent: coefficient}
_M2_LEADING = {
    ("NS", HALF, "+"): {-HALF: 1, Fraction(-5, 2): 1, Fraction(-9, 2): 1},
    ("NS", HALF, "-"): {-HALF: 1, Fraction(-5, 2): 1, Fraction(-9, 2): 1},
    ("NS", -HALF, "+"): {Fraction(-3, 2): 1, Fraction(-7, 2): 1,
                         Fraction(-11, 2): 1},
    ("NS", -HALF, "-"): {Fraction(-3, 2): 1, Fraction(-7, 2): 1,
                         Fraction(-11, 2): 1},
    ("R", 0, "+"): {0: 1},
    ("R", 0, "-"): {0: 1},
    ("R", 1, "+"): {1: 1, 0: 2, -1: 1},
    ("R", 1, "-"): {1: 1, 0: -2, -1: 1},
}
_M2_LABELS = (("NS", HALF), ("NS", -HALF), ("R", Fraction(0)),
              ("R", Fraction(1)))


def _case_m2_leading(sector, j, cfg):
    for sign in SIGNS:
        spec = CharacterSpec(2, j, sector, sign)
        h, s = h_s_values(spec)
        lead = -central_charge(2) / 24 + h
        ser = character_series(spec, lead + 1, (s - 5, s + 3))
        got = {}
        for qe, xe, c in ser.terms():
            if qe == lead:
                _require(c.im == 0, "non-real leading coefficient")
                got[xe] = c.re
        want = _M2_LEADING[(sector, j, sign)]
        _require(got == want, "sign %s leading row %s, expected %s"
                 % (sign, got, want))
    return "lowest q-exponent %s, x-rows exact, both signs" % lead


def _characters_cases():
    # every M = 1 character is the constant 1
    cases = [("m1-constant/%s%s" % (sector, sign), _quotient(
        lambda sector=sector, sign=sign: [(character_ratio(CharacterSpec(
            1, index_set(1, sector)[0], sector, sign)), ThetaQuotient())]))
        for sector in SECTORS for sign in SIGNS]
    cases += [("nice-consistency/M%d" % M,
               _quotient(partial(_nice_consistency, M))) for M in (2, 3, 4, 5)]
    # the closed form equals the character
    cases += [("m2-closed/%s/j=%s/%s" % (sector, j, sign), _quotient(
        lambda sector=sector, j=j, sign=sign: [
            (_m2_closed_ratio(sector, j, sign),
             character_ratio(CharacterSpec(2, j, sector, sign)))]))
        for sector, j in _M2_LABELS for sign in SIGNS]
    cases += [("m2-leading/%s/j=%s" % (sector, j),
               partial(_case_m2_leading, sector, j))
              for sector, j in _M2_LABELS]
    # eta^3 theta_11(tau, 2z) / theta_d^2 is three thetas over theta_d
    cases += [("denominator-forms/%s%s" % (sector, sign), _quotient(
        lambda sector=sector, sign=sign: [
            (denominator(sign, sector),
             denominator_theta_form(sign, sector))]))
        for sign in SIGNS for sector in SECTORS]
    # at 2k1 + k2 = M - 1 the two-index numerator is the diagonal one
    cases += [("dd-reduces-to-nice/M%d" % M, _quotient(lambda M=M: [
        (dd_numerator(M, k1, M - 1 - 2 * k1, heart, sign, tw),
         nice_numerator(M, k1, heart, sign, tw))
        for tw, heart, k1 in _nice_params(M) for sign in SIGNS]))
        for M in (2, 3, 4)]
    return tuple(("characters/" + cid, case) for cid, case in cases)


# ---------------------------------------------------------------------------
# reduction suite


def _case_nice_specialization(M, cfg):
    # nice_param_to_j asserts that the reduction tables at m = 1, m2 = 0
    # give the direct character (h, s) at the returned j
    n = 0
    for twisted, heart, k1 in _nice_params(M):
        nice_param_to_j(M, k1, heart, twisted)
        n += 1
    return "%d parameter tuples exact" % n


def _reduction_params(M, ms):
    """Every ReductionParams at level M with m in ms, ordered by m, m2,
    twisted, heart, k1 and k2: for each heart the levels that
    HEART_RANGES admits, k1 and k2 each from its smallest value up to
    2k1 + k2 = M + d, so every tuple built is in range."""
    for m in ms:
        for m2, twisted, heart in iproduct(range(m + 1), (False, True),
                                           HEARTS):
            k1_min, k2_min, d = HEART_RANGES[heart]
            for k1 in range(k1_min, (M + d - k2_min) // 2 + 1):
                for k2 in range(k2_min, M + d - 2 * k1 + 1):
                    yield ReductionParams(M, m, m2, k1, k2, heart, twisted)


# hearts I and IV (k1 shifted by one) describe the same module, as do
# III and II; their (h, s) must agree
_EQUIVALENT_HEARTS = {"I": "IV", "III": "II"}


def _case_equivalences(M, cfg):
    scan = {(p.M, p.m, p.m2, p.k1, p.k2, p.heart, p.twisted): p
            for p in _reduction_params(M, (1, 2, 3))}
    n = 0
    for pa in scan.values():
        other = _EQUIVALENT_HEARTS.get(pa.heart)
        pb = scan.get((M, pa.m, pa.m2, pa.k1 + 1, pa.k2, other, pa.twisted))
        if pb is not None:
            _require(reduction_hs(pa) == reduction_hs(pb),
                     "%s/%s pair differs at %s vs %s"
                     % (pa.heart, other, pa, pb))
            n += 1
    if M == 1:
        # hearts II and IV need 2k1 + k2 <= M with k1 >= 1
        _require(n == 0, "unexpected pairs at M = 1")
        return "vacuous: no I/IV or III/II pairs exist at M = 1"
    _require(n > 0, "no valid equivalence pairs found")
    return "%d pairs agree exactly" % n


def _case_vanishing_scan(M, cfg):
    n = 0
    coprime = [m for m in (1, 2, 3) if math.gcd(m, M) == 1]
    for p in _reduction_params(M, coprime):
        want = (p.heart in ("I", "III") and 2 * p.k1 + p.k2 + 1 == M
                and p.m2 == p.m)
        _require(vanishes(p) == want, "vanishing disagrees at %s" % (p,))
        n += 1
    _require(n > 0, "no valid parameters scanned")
    return "%d parameter tuples checked" % n


def _case_index_sets(cfg):
    for M in range(1, 9):
        for sector in SECTORS:
            js = index_set(M, sector)
            _require(len(js) == M, "index set size %d at M=%d" % (len(js), M))
            lo, hi = -Fraction(M - 1, 2), Fraction(M, 2)
            for j in js:
                _require(lo <= j <= hi, "index %s out of range" % j)
                frac_part = j - HALF if sector == "NS" else j
                _require(frac_part.denominator == 1,
                         "index %s off the %s lattice" % (j, sector))
    return "sizes and lattices exact for M range 1..8"


def _reduction_cases():
    cases = [("nice-specialization/M%d" % M,
              partial(_case_nice_specialization, M)) for M in range(1, 10)]
    cases += [("equivalence-pairs/M%d" % M, partial(_case_equivalences, M))
              for M in range(1, 8)]
    cases += [("vanishing-scan/M%d" % M, partial(_case_vanishing_scan, M))
              for M in range(1, 7)]
    cases.append(("index-sets", _case_index_sets))
    return tuple(("reduction/" + cid, case) for cid, case in cases)


# ---------------------------------------------------------------------------
# modular suite: residual rows and span certificates


def _case_span(M, statement, transform, cfg):
    n = len(family_members(M, statement))
    cert = span_closure(M, statement, transform,
                        default_points(3 * n, diagonal=True, seed=0))
    _require(cert.residual < cfg.tol, "span residual %.3e" % cert.residual)
    return ("family of %d, residual %.1e at %d points"
            % (len(cert.family), cert.residual, len(cert.points)))


def _case_t_phases(M, statement, cfg):
    # predicted_t_matrix's phases and targets, exactly on the series
    terms, bad = t_law_on_series(M, statement)
    _require(terms > 0, "no term below q^6")
    _require(not bad, "T law fails on the series of %s" % ", ".join(bad))
    return "predicted phases exact on %d terms below q^6" % terms


def _modular_cases():
    # the S and T laws of the characteristic blocks
    cases = [("psi-%s-law/M%d" % (law.lower(), M),
              _residual(partial(_block_residuals, law, offset, M)))
             for law, offset in (("S", 100), ("T", 120)) for M in (1, 2, 3)]
    # the S and T laws of the four denominators
    cases += [("denominator-" + w.lower(), _residual(lambda q, w=w: [
        denominator_transform_residual(sign, sector, w, p)
        for sign in SIGNS for sector in SECTORS
        for p in default_points(5, diagonal=True, seed=140)]))
        for w in "ST"]
    cases += [("span/%s/statement%d/M%d" % (t, s, M),
               partial(_case_span, M, s, t))
              for M in (1, 2, 3) for s in (1, 2) for t in "ST"]
    cases += [("t-phases/statement%d/M%d" % (s, M),
               partial(_case_t_phases, M, s))
              for M in (2, 3) for s in (1, 2)]
    return tuple(("modular/" + cid, case) for cid, case in cases)


# ---------------------------------------------------------------------------
# registry and runner


_BUILDERS = {
    "theta": _theta_cases,
    "psi": _psi_cases,
    "characters": _characters_cases,
    "reduction": _reduction_cases,
    "modular": _modular_cases,
}

SUITE_NAMES = tuple(_BUILDERS)


def suite_cases(name):
    """The ordered (case id, callable) tuple of one suite."""
    if name not in _BUILDERS:
        raise ValueError("unknown suite %r, want one of %s"
                         % (name, ", ".join(SUITE_NAMES)))
    return _BUILDERS[name]()


def _run_case(fn, config):
    try:
        detail = fn(config)
        return ("pass", detail or "")
    except Exception as exc:
        return ("fail", "%s: %s" % (type(exc).__name__, exc))


def run_suite(name, config=None):
    """Run a named suite and return its SuiteReport.

    The cases run at the config's mpmath precision, scoped to this call;
    cases must not change it.
    """
    config = config or SuiteConfig()
    cases = suite_cases(name)
    start = time.perf_counter()
    with mp.workdps(config.dps):
        results = [CaseResult(case_id, *_run_case(fn, config))
                   for case_id, fn in cases]
    wall = time.perf_counter() - start
    return SuiteReport(name, tuple(results), wall, config.echo())
