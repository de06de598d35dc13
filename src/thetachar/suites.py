"""Named verification suites behind the `verify` command.

A suite is an ordered tuple of (case id, callable) pairs.  Cases take
the SuiteConfig and return a detail string; they fail by raising
(CaseFailure for a checked property, anything else counts too) and may
raise SkipCase.  run_suite runs the cases one after another in registry
order, so reports are deterministic.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .qseries import (GaussianRational, JacobiSeries, SeriesRatio,
                      equal_to_order, mul, product, scale_monomial, add,
                      eval_numeric)
from .theta import (DEFAULT_DPS, eta, eta_pow_scaled, theta_shifted,
                    theta_sum)
from .mockpsi import (HALF, PsiParams, phi1_numeric, phi_a11_numeric,
                      psi_diag_ratio, psi_numeric)
from .characters import (CharacterSpec, ReductionParams, central_charge,
                         character_ratio, character_series, dd_numerator,
                         denominator, h_s_values, index_set, nice_numerator,
                         nice_param_to_j, reduction_hs, vanishes)
from .modular import (NumericPoint, default_points,
                      denominator_transform_residual, family_members,
                      predicted_t_matrix, psi_s_residual, psi_t_residual,
                      span_closure)


class CaseFailure(AssertionError):
    """A suite case found a violated property."""


class SkipCase(Exception):
    """A suite case does not apply under the given configuration."""


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
        n = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.cases:
            n[c.status] += 1
        return n

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
            mark = {"pass": "[pass]", "fail": "[FAIL]",
                    "skip": "[skip]"}[c.status]
            lines.append("%s %-*s  %s" % (mark, width, c.case_id, c.detail))
        n = self.counts
        lines.append("suite %s: %d pass, %d fail, %d skip in %.2fs"
                     % (self.suite, n["pass"], n["fail"], n["skip"],
                        self.wall_time))
        lines.append("config: q_order=%s tol=%g precision=%s dps"
                     % (self.config["q_order"], self.config["tol"],
                        self.config["precision_dps"]))
        return "\n".join(lines)


def _require(cond, msg):
    if not cond:
        raise CaseFailure(msg)


def ratio_pair_equal(build_a, build_b, q_order):
    """Cross-multiplied equality of two ratio builders below q_order.

    Negative valuations can leave the cross products trusted short of
    the request.  Both sides are built at q_order; if their cross order
    falls short, they are rebuilt once with the shortfall added, and a
    cross order still short of the request is a CaseFailure.
    """
    q_order = Fraction(q_order)
    ra, rb = build_a(q_order), build_b(q_order)
    short = q_order - ra.cross_order(rb)
    if short > 0:
        ra, rb = build_a(q_order + short), build_b(q_order + short)
        if ra.cross_order(rb) < q_order:
            raise CaseFailure("cross order never reached %s" % q_order)
    return ra.equals(rb, q_order)


def _one_ratio(q_order):
    one = JacobiSeries.one(q_order)
    return SeriesRatio(one, one)


# ---------------------------------------------------------------------------
# theta suite


def _case_sum_vs_product(label):
    def run(cfg):
        q = Fraction(cfg.q_order)
        _require(equal_to_order(theta_shifted(label, q, 1, 1, 0, 0),
                                theta_sum(label, q), q),
                 "product and sum forms of theta_%s disagree" % label)
        return "exact below q^%s" % q
    return run


_TAU_HALF_MAP = {
    "00": ("10", GaussianRational(1)),
    "01": ("11", GaussianRational(0, -1)),
    "10": ("00", GaussianRational(1)),
    "11": ("01", GaussianRational(0, -1)),
}


def _case_tau_half_shift(label):
    # theta_ab(tau, z + tau/2) = c q^{-1/8} x^{-1/2} theta_a'b'(tau, z)
    def run(cfg):
        q = Fraction(cfg.q_order)
        lhs = theta_shifted(label, q, 1, 1, HALF, 0)
        other, c = _TAU_HALF_MAP[label]
        rhs = scale_monomial(theta_shifted(other, q + 1, 1, 1, 0, 0),
                             Fraction(-1, 8), -HALF, c)
        _require(equal_to_order(lhs, rhs, q),
                 "tau/2 shift of theta_%s mismatches theta_%s"
                 % (label, other))
        return "exact below q^%s" % q
    return run


def _case_tau_shift_pair(sigma):
    # theta_00 theta_10 and theta_01 theta_11 at (2tau, z +- tau/2)
    # collapse to single thetas at (tau, z) times eta(2tau)^2/eta(tau)
    def run(cfg):
        q = Fraction(cfg.q_order)
        p = q + 1
        e1 = eta(p)
        e2sq = eta_pow_scaled(2, 2, p)
        r = HALF * sigma
        rows = (("00", "10", "00", GaussianRational(1)),
                ("01", "11", "01", GaussianRational(0, -sigma)))
        for la, lb, tgt, c in rows:
            lhs = product((theta_shifted(la, p, 2, 1, r, 0),
                           theta_shifted(lb, p, 2, 1, r, 0), e1))
            rhs = scale_monomial(
                mul(e2sq, theta_shifted(tgt, p, 1, 1, 0, 0)),
                Fraction(-1, 8), -sigma * HALF, c)
            _require(equal_to_order(lhs, rhs, q),
                     "pair %s*%s at shift %s*tau/2 mismatches theta_%s"
                     % (la, lb, sigma, tgt))
        return "both rows exact below q^%s" % q
    return run


def _case_doubling(cfg):
    # theta_00 theta_01 = eta^2/eta(2tau) theta_01(2tau, 2z), same for
    # theta_10 theta_11 -> theta_11(2tau, 2z)
    q = Fraction(cfg.q_order)
    p = q + 1
    e1sq = eta_pow_scaled(1, 2, p)
    e2 = eta_pow_scaled(2, 1, p)
    for la, lb, tgt in (("00", "01", "01"), ("10", "11", "11")):
        lhs = product((theta_shifted(la, p, 1, 1, 0, 0),
                       theta_shifted(lb, p, 1, 1, 0, 0), e2))
        rhs = mul(e1sq, theta_shifted(tgt, p, 2, 2, 0, 0))
        _require(equal_to_order(lhs, rhs, q),
                 "doubling of %s*%s mismatches theta_%s(2tau, 2z)"
                 % (la, lb, tgt))
    return "both rows exact below q^%s" % q


def _case_scaled_pair(cfg):
    # theta_00 theta_10 and theta_01 theta_11 at (2tau, z) collapse to
    # theta_10, theta_11 at (tau, z) times eta(2tau)^2/eta(tau)
    q = Fraction(cfg.q_order)
    p = q + 1
    e1 = eta(p)
    e2sq = eta_pow_scaled(2, 2, p)
    for la, lb, tgt in (("00", "10", "10"), ("01", "11", "11")):
        lhs = product((theta_shifted(la, p, 2, 1, 0, 0),
                       theta_shifted(lb, p, 2, 1, 0, 0), e1))
        rhs = mul(e2sq, theta_shifted(tgt, p, 1, 1, 0, 0))
        _require(equal_to_order(lhs, rhs, q),
                 "scaled pair %s*%s mismatches theta_%s" % (la, lb, tgt))
    return "both rows exact below q^%s" % q


def _case_full_tau_shift(label):
    # theta_ab(2tau, z + tau) = c q^{-1/4} x^{-1/2} theta_a'b'(2tau, z)
    def run(cfg):
        q = Fraction(cfg.q_order)
        p = q + 1
        lhs = theta_shifted(label, q, 2, 1, 1, 0)
        other, c = _TAU_HALF_MAP[label]
        rhs = scale_monomial(theta_shifted(other, p, 2, 1, 0, 0),
                             Fraction(-1, 4), -HALF, c)
        _require(equal_to_order(lhs, rhs, q),
                 "tau shift of theta_%s(2tau, .) mismatches theta_%s"
                 % (label, other))
        return "exact below q^%s" % q
    return run


def _case_quadruple(cfg):
    # eta^3 theta_11(tau, 2z) = theta_00 theta_01 theta_10 theta_11
    q = Fraction(cfg.q_order)
    p = q + 1
    lhs = mul(eta_pow_scaled(1, 3, p), theta_shifted("11", p, 1, 2, 0, 0))
    rhs = product(tuple(theta_shifted(lab, p, 1, 1, 0, 0)
                        for lab in ("00", "01", "10", "11")))
    _require(equal_to_order(lhs, rhs, q), "quadruple product violated")
    return "exact below q^%s" % q


def _case_half_shift(sigma):
    # theta_11(tau, z +- 1/2) = -+ theta_10(tau, z)
    def run(cfg):
        q = Fraction(cfg.q_order)
        lhs = theta_shifted("11", q, 1, 1, 0, sigma * HALF)
        rhs = scale_monomial(theta_shifted("10", q, 1, 1, 0, 0), 0, 0,
                             GaussianRational(-sigma))
        _require(equal_to_order(lhs, rhs, q),
                 "half shift by %s/2 violated" % sigma)
        return "exact below q^%s" % q
    return run


def _case_eta_pentagonal(cfg):
    # eta = q^{1/24} sum_k (-1)^k q^{k(3k-1)/2}
    q = Fraction(cfg.q_order)
    s = JacobiSeries.zero(q)
    k_max = math.isqrt(int(q) + 2) + 2
    for k in range(-k_max, k_max + 1):
        e = Fraction(k * (3 * k - 1), 2) + Fraction(1, 24)
        if e < q:
            s = add(s, JacobiSeries.monomial(e, 0, (-1) ** (k % 2), q))
    _require(equal_to_order(eta(q), s, q),
             "eta disagrees with the pentagonal number expansion")
    return "exact below q^%s" % q


def _theta_cases():
    cases = []
    for lab in ("00", "01", "10", "11"):
        cases.append(("theta/sum-vs-product/%s" % lab,
                      _case_sum_vs_product(lab)))
    for lab in ("00", "01", "10", "11"):
        cases.append(("theta/tau-half-shift/%s" % lab,
                      _case_tau_half_shift(lab)))
    cases.append(("theta/tau-shift-pair/up", _case_tau_shift_pair(1)))
    cases.append(("theta/tau-shift-pair/down", _case_tau_shift_pair(-1)))
    cases.append(("theta/doubling", _case_doubling))
    cases.append(("theta/scaled-pair", _case_scaled_pair))
    for lab in ("00", "01", "10", "11"):
        cases.append(("theta/full-tau-shift/%s" % lab,
                      _case_full_tau_shift(lab)))
    cases.append(("theta/quadruple-product", _case_quadruple))
    cases.append(("theta/half-shift/plus", _case_half_shift(1)))
    cases.append(("theta/half-shift/minus", _case_half_shift(-1)))
    cases.append(("theta/eta-pentagonal", _case_eta_pentagonal))
    return tuple(cases)


# ---------------------------------------------------------------------------
# psi suite


def _zero_t(points):
    return [NumericPoint(p.tau, p.z1, p.z2, 0) for p in points]


def _characteristic_blocks(M):
    blocks = []
    for eps in (Fraction(0), HALF):
        for eps_p in (Fraction(0), HALF):
            blocks.append(PsiParams(M, eps_p + 1, eps_p, eps, eps_p))
    return blocks


def _max_residual(values):
    return max(values) if values else 0.0


# (name, seed offset, index map, argument map, sign): the block at the
# mapped arguments equals sign(eps) times the block at the mapped
# indices; each case checks the four characteristic blocks at t = 0
_PSI_SYMMETRIES = (
    # index shift by (M, 0) costs the phase e^{2 pi i eps}
    ("periodicity", 0, lambda M, j, k: (j + M, k),
     lambda z1, z2: (z1, z2), lambda eps: 1 if eps == 0 else -1),
    # negating both z and swapping them maps (j, k) to (-k, -j) with a
    # global minus sign
    ("reflect-swap", 20, lambda M, j, k: (-k, -j),
     lambda z1, z2: (-z2, -z1), lambda eps: -1),
    # swapping z1, z2 swaps the indices
    ("swap", 40, lambda M, j, k: (k, j),
     lambda z1, z2: (z2, z1), lambda eps: 1),
    # negating both z negates the block at (-j, -k)
    ("reflect", 60, lambda M, j, k: (-j, -k),
     lambda z1, z2: (-z1, -z2), lambda eps: -1),
)


def _case_psi_symmetry(M, name, offset, index_map, arg_map, sign):
    def run(cfg):
        pts = _zero_t(default_points(5, seed=M + offset))
        worst = []
        for pr in _characteristic_blocks(M):
            mapped = PsiParams(M, *index_map(M, pr.j, pr.k), pr.eps,
                               pr.eps_prime)
            for p in pts:
                lhs = psi_numeric(pr, p.tau, *arg_map(p.z1, p.z2), p.t)
                rhs = sign(pr.eps) * psi_numeric(mapped, p.tau, p.z1, p.z2,
                                                 p.t)
                worst.append(float(abs(lhs - rhs)))
        r = _max_residual(worst)
        _require(r < cfg.tol, "%s residual %.3e" % (name, r))
        return "max residual %.1e over %d evaluations" % (r, len(worst))
    return run


def _case_psi_diag_ratio(M):
    # the single-variable theta-quotient form of the diagonal block
    # agrees with the closed form numerically
    def run(cfg):
        q = Fraction(cfg.q_order)
        pts = default_points(5, diagonal=True, seed=M + 80)
        worst = []
        for eps in (Fraction(0), HALF):
            for eps_p in (Fraction(0), HALF):
                pr = PsiParams(M, eps_p + 1, eps_p + 1, eps, eps_p)
                ratio = psi_diag_ratio(pr, q)
                for p in pts:
                    got = (eval_numeric(ratio.num, p.tau, p.z1)
                           / eval_numeric(ratio.den, p.tau, p.z1))
                    want = psi_numeric(pr, p.tau, p.z1, p.z1, 0)
                    worst.append(float(abs(got - want)))
        r = _max_residual(worst)
        _require(r < cfg.tol, "diagonal ratio residual %.3e" % r)
        return "max residual %.1e over %d evaluations" % (r, len(worst))
    return run


def _case_psi_m1_collapse(cfg):
    # at M = 1 the (0,0) block is the closed eta-theta quotient
    pts = default_points(5, seed=7)
    pr = PsiParams(1, 0, 0, 0, 0)
    worst = []
    for p in pts:
        lhs = psi_numeric(pr, p.tau, p.z1, p.z2, p.t)
        rhs = phi1_numeric(0, p.tau, p.z1, p.z2, p.t)
        worst.append(float(abs(lhs - rhs)))
    r = _max_residual(worst)
    _require(r < cfg.tol, "collapse residual %.3e" % r)
    return "max residual %.1e over %d points" % (r, len(pts))


def _case_appell_stability(cfg):
    # the summation cutoff is certified by the tail bound: growing it
    # must not move the value
    pts = default_points(3, seed=11)
    worst = []
    for m, s in ((1, Fraction(0)), (1, HALF), (2, 1)):
        for p in pts:
            v1 = phi_a11_numeric(m, s, p.tau, p.z1, p.z2, p.t)
            v2 = phi_a11_numeric(m, s, p.tau, p.z1, p.z2, p.t, j_cutoff=60)
            worst.append(float(abs(v1 - v2)))
    r = _max_residual(worst)
    _require(r < cfg.tol, "cutoff instability %.3e" % r)
    return "max cutoff drift %.1e" % r


def _case_appell_prefactor(cfg):
    # the t dependence is the exact prefactor e^{-2 pi i m t}
    pts = default_points(3, seed=13)
    worst = []
    for m in (1, 2):
        for p in pts:
            v1 = phi_a11_numeric(m, 1, p.tau, p.z1, p.z2, p.t)
            v0 = phi_a11_numeric(m, 1, p.tau, p.z1, p.z2, 0)
            pref = mp.exp(-2j * mp.pi * m * mp.mpc(p.t))
            worst.append(float(abs(v1 - pref * v0)))
    r = _max_residual(worst)
    _require(r < cfg.tol, "prefactor residual %.3e" % r)
    return "max residual %.1e" % r


def _psi_cases():
    cases = []
    for row in _PSI_SYMMETRIES:
        for M in (1, 2, 3, 4):
            cases.append(("psi/%s/M%d" % (row[0], M),
                          _case_psi_symmetry(M, *row)))
    for M in (1, 2, 3, 4):
        cases.append(("psi/diagonal-ratio/M%d" % M, _case_psi_diag_ratio(M)))
    cases.append(("psi/m1-collapse", _case_psi_m1_collapse))
    cases.append(("psi/appell-cutoff", _case_appell_stability))
    cases.append(("psi/appell-prefactor", _case_appell_prefactor))
    return tuple(cases)


# ---------------------------------------------------------------------------
# characters suite


def nice_k1_values(M, heart):
    """Valid k1 for the closed-form (nice) parameters at heart I or III."""
    top = M - 1 if heart == "I" else M - 2
    if top < 0:
        return ()
    return tuple(k1 for k1 in range(top // 2 + 1))


def _case_m1_constant(sector, sign):
    def run(cfg):
        q = Fraction(cfg.q_order)
        j = index_set(1, sector)[0]
        spec = CharacterSpec(1, j, sector, sign)
        _require(ratio_pair_equal(lambda p: character_ratio(spec, p),
                                  _one_ratio, q),
                 "M=1 character is not the constant 1")
        return "equals 1 below q^%s" % q
    return run


def _case_nice_consistency(M):
    # the theta-quotient numerator matches denominator times character
    def run(cfg):
        q = Fraction(cfg.q_order)
        n = 0
        for twisted in (False, True):
            sector = "R" if twisted else "NS"
            for heart in ("I", "III"):
                for k1 in nice_k1_values(M, heart):
                    j = nice_param_to_j(M, k1, heart, twisted)
                    for sign in ("+", "-"):
                        spec = CharacterSpec(M, j, sector, sign)
                        ok = ratio_pair_equal(
                            lambda p: nice_numerator(M, k1, heart, sign,
                                                     twisted, p),
                            lambda p: character_ratio(spec, p)
                            * denominator(sign, sector, p), q)
                        _require(ok, "mismatch at k1=%d heart=%s sign=%s "
                                 "twisted=%s" % (k1, heart, sign, twisted))
                        n += 1
        return "%d numerators exact below q^%s" % (n, q)
    return run


def _m2_closed_ratio(sector, j, sign, q_order):
    """The eta/theta-quotient closed form of one M = 2 character."""
    p = Fraction(q_order)
    e2 = eta_pow_scaled(2, 3, p)
    e1 = eta_pow_scaled(1, 3, p)

    def th(lab, ts, zs, rt):
        return theta_shifted(lab, p, ts, zs, rt, 0)

    if sector == "NS":
        sig = 1 if j > 0 else -1
        r = HALF * sig
        if sign == "+":
            c = GaussianRational(0, 1)
            num = product((e2, th("00", 2, 1, r), th("00", 1, 1, 0)))
            den = product((e1, th("10", 2, 1, r), th("11", 2, 2, 0)))
        else:
            c = GaussianRational(sig)
            num = product((e2, th("01", 2, 1, r), th("01", 1, 1, 0)))
            den = product((e1, th("11", 2, 1, r), th("11", 2, 2, 0)))
    elif j == 0:
        c = GaussianRational(1)
        if sign == "+":
            num = product((e2, th("00", 2, 1, 0), th("10", 1, 1, 0)))
            den = product((e1, th("10", 2, 1, 0), th("01", 2, 2, 0)))
        else:
            num = product((e2, th("01", 2, 1, 0), th("11", 1, 1, 0)))
            den = product((e1, th("11", 2, 1, 0), th("01", 2, 2, 0)))
    else:
        if sign == "+":
            c = GaussianRational(1)
            num = product((e2, th("10", 2, 1, 0), th("10", 1, 1, 0)))
            den = product((e1, th("00", 2, 1, 0), th("01", 2, 2, 0)))
        else:
            c = GaussianRational(-1)
            num = product((e2, th("11", 2, 1, 0), th("11", 1, 1, 0)))
            den = product((e1, th("01", 2, 1, 0), th("01", 2, 2, 0)))
    return SeriesRatio(scale_monomial(num, 0, 0, c), den)


def _case_m2_closed(sector, j, sign):
    def run(cfg):
        q = Fraction(cfg.q_order)
        spec = CharacterSpec(2, j, sector, sign)
        ok = ratio_pair_equal(
            lambda p: _m2_closed_ratio(sector, j, sign, p),
            lambda p: character_ratio(spec, p), q)
        _require(ok, "closed form deviates from the character")
        return "exact below q^%s" % q
    return run


# (sector, j) -> window and, per sign, the exact lowest-q row
_M2_LEADING = {
    ("NS", Fraction(1, 2)): {
        "+": {Fraction(-1, 2): 1, Fraction(-5, 2): 1, Fraction(-9, 2): 1},
        "-": {Fraction(-1, 2): 1, Fraction(-5, 2): 1, Fraction(-9, 2): 1},
    },
    ("NS", Fraction(-1, 2)): {
        "+": {Fraction(-3, 2): 1, Fraction(-7, 2): 1, Fraction(-11, 2): 1},
        "-": {Fraction(-3, 2): 1, Fraction(-7, 2): 1, Fraction(-11, 2): 1},
    },
    ("R", Fraction(0)): {
        "+": {Fraction(0): 1},
        "-": {Fraction(0): 1},
    },
    ("R", Fraction(1)): {
        "+": {Fraction(1): 1, Fraction(0): 2, Fraction(-1): 1},
        "-": {Fraction(1): 1, Fraction(0): -2, Fraction(-1): 1},
    },
}


def _case_m2_leading(sector, j):
    def run(cfg):
        lead_rows = _M2_LEADING[(sector, j)]
        for sign in ("+", "-"):
            spec = CharacterSpec(2, j, sector, sign)
            h, s = h_s_values(spec)
            lead = -central_charge(2) / 24 + h
            window = (s - 5, s + 3)
            ser = character_series(spec, lead + 1, window)
            got = {}
            for qe, xe, c in ser.terms():
                if qe == lead:
                    _require(c.im == 0, "non-real leading coefficient")
                    got[xe] = c.re
            want = {k: Fraction(v) for k, v in lead_rows[sign].items()}
            _require(got == want,
                     "sign %s leading row %s, expected %s"
                     % (sign, got, want))
        lead = (-central_charge(2) / 24
                + h_s_values(CharacterSpec(2, j, sector, "+"))[0])
        return "lowest q-exponent %s, x-rows exact, both signs" % lead
    return run


def _case_denominator_forms(sign, sector):
    def run(cfg):
        q = Fraction(cfg.q_order)
        ok = ratio_pair_equal(
            lambda p: denominator(sign, sector, p, form="eta"),
            lambda p: denominator(sign, sector, p, form="theta"), q)
        _require(ok, "eta and theta forms disagree")
        return "both forms agree below q^%s" % q
    return run


def _case_dd_reduces_to_nice(M):
    # at 2k1 + k2 = M - 1 the two-index numerator is the diagonal one
    def run(cfg):
        q = Fraction(cfg.q_order)
        n = 0
        for twisted in (False, True):
            for heart in ("I", "III"):
                for k1 in nice_k1_values(M, heart):
                    k2 = M - 1 - 2 * k1
                    for sign in ("+", "-"):
                        ok = ratio_pair_equal(
                            lambda p: dd_numerator(M, k1, k2, heart, sign,
                                                   twisted, p),
                            lambda p: nice_numerator(M, k1, heart, sign,
                                                     twisted, p), q)
                        _require(ok, "mismatch at k1=%d heart=%s sign=%s "
                                 "twisted=%s" % (k1, heart, sign, twisted))
                        n += 1
        return "%d reductions exact below q^%s" % (n, q)
    return run


def _characters_cases():
    cases = []
    for sector in ("NS", "R"):
        for sign in ("+", "-"):
            cases.append(("characters/m1-constant/%s%s" % (sector, sign),
                          _case_m1_constant(sector, sign)))
    for M in (2, 3, 4, 5):
        cases.append(("characters/nice-consistency/M%d" % M,
                      _case_nice_consistency(M)))
    for sector, j in (("NS", Fraction(1, 2)), ("NS", Fraction(-1, 2)),
                      ("R", Fraction(0)), ("R", Fraction(1))):
        for sign in ("+", "-"):
            cases.append(("characters/m2-closed/%s/j=%s/%s"
                          % (sector, j, sign),
                          _case_m2_closed(sector, j, sign)))
    for sector, j in (("NS", Fraction(1, 2)), ("NS", Fraction(-1, 2)),
                      ("R", Fraction(0)), ("R", Fraction(1))):
        cases.append(("characters/m2-leading/%s/j=%s" % (sector, j),
                      _case_m2_leading(sector, j)))
    for sign in ("+", "-"):
        for sector in ("NS", "R"):
            cases.append(("characters/denominator-forms/%s%s"
                          % (sector, sign),
                          _case_denominator_forms(sign, sector)))
    for M in (2, 3, 4):
        cases.append(("characters/dd-reduces-to-nice/M%d" % M,
                      _case_dd_reduces_to_nice(M)))
    return tuple(cases)


# ---------------------------------------------------------------------------
# reduction suite


def _case_nice_specialization(M):
    # nice_param_to_j asserts that the reduction tables at m = 1, m2 = 0
    # give the direct character (h, s) at the returned j
    def run(cfg):
        n = 0
        for twisted in (False, True):
            for heart in ("I", "III"):
                for k1 in nice_k1_values(M, heart):
                    nice_param_to_j(M, k1, heart, twisted)
                    n += 1
        return "%d parameter tuples exact" % n
    return run


def _try_params(M, m, m2, k1, k2, heart, twisted):
    try:
        return ReductionParams(M, m, m2, k1, k2, heart, twisted)
    except ValueError:
        return None


def _case_equivalences(M):
    # hearts I and IV (shift k1 by one) describe the same module, as do
    # III and II; their (h, s) must agree
    def run(cfg):
        n = 0
        for m in (1, 2, 3):
            for m2 in range(m + 1):
                for twisted in (False, True):
                    for k1 in range(M + 2):
                        for k2 in range(M + 2):
                            pa = _try_params(M, m, m2, k1, k2, "I", twisted)
                            pb = _try_params(M, m, m2, k1 + 1, k2, "IV",
                                             twisted)
                            if pa and pb:
                                _require(
                                    reduction_hs(pa) == reduction_hs(pb),
                                    "I/IV pair differs at %s vs %s"
                                    % (pa, pb))
                                n += 1
                            pa = _try_params(M, m, m2, k1, k2, "III",
                                             twisted)
                            pb = _try_params(M, m, m2, k1 + 1, k2, "II",
                                             twisted)
                            if pa and pb:
                                _require(
                                    reduction_hs(pa) == reduction_hs(pb),
                                    "III/II pair differs at %s vs %s"
                                    % (pa, pb))
                                n += 1
        if M == 1:
            # hearts II and IV need 2k1 + k2 <= M with k1 >= 1
            _require(n == 0, "unexpected pairs at M = 1")
            return "vacuous: no I/IV or III/II pairs exist at M = 1"
        _require(n > 0, "no valid equivalence pairs found")
        return "%d pairs agree exactly" % n
    return run


def _case_vanishing_scan(M):
    def run(cfg):
        n = 0
        for m in (1, 2, 3):
            if math.gcd(m, M) != 1:
                continue
            for m2 in range(m + 1):
                for twisted in (False, True):
                    for heart in ("I", "II", "III", "IV"):
                        for k1 in range(M + 2):
                            for k2 in range(M + 2):
                                params = _try_params(M, m, m2, k1, k2,
                                                     heart, twisted)
                                if params is None:
                                    continue
                                want = (heart in ("I", "III")
                                        and 2 * k1 + k2 + 1 == M
                                        and m2 == m)
                                _require(vanishes(params) == want,
                                         "vanishing disagrees at %s"
                                         % (params,))
                                n += 1
        _require(n > 0, "no valid parameters scanned")
        return "%d parameter tuples checked" % n
    return run


def _case_index_sets(cfg):
    for M in range(1, 9):
        for sector in ("NS", "R"):
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
    cases = []
    for M in range(1, 10):
        cases.append(("reduction/nice-specialization/M%d" % M,
                      _case_nice_specialization(M)))
    for M in range(1, 8):
        cases.append(("reduction/equivalence-pairs/M%d" % M,
                      _case_equivalences(M)))
    for M in range(1, 7):
        cases.append(("reduction/vanishing-scan/M%d" % M,
                      _case_vanishing_scan(M)))
    cases.append(("reduction/index-sets", _case_index_sets))
    return tuple(cases)


# ---------------------------------------------------------------------------
# modular suite


def _case_psi_s_law(M):
    def run(cfg):
        pts = default_points(5, seed=M + 100)
        worst = []
        for pr in _characteristic_blocks(M):
            for p in pts:
                worst.append(psi_s_residual(pr, p))
        r = _max_residual(worst)
        _require(r < cfg.tol, "S-law residual %.3e" % r)
        return "max residual %.1e over %d evaluations" % (r, len(worst))
    return run


def _case_psi_t_law(M):
    def run(cfg):
        pts = default_points(5, seed=M + 120)
        worst = []
        for pr in _characteristic_blocks(M):
            for p in pts:
                worst.append(psi_t_residual(pr, p))
        r = _max_residual(worst)
        _require(r < cfg.tol, "T-law residual %.3e" % r)
        return "max residual %.1e over %d evaluations" % (r, len(worst))
    return run


def _case_denominator_transform(which):
    def run(cfg):
        pts = default_points(5, diagonal=True, seed=140)
        worst = []
        for sign in ("+", "-"):
            for sector in ("NS", "R"):
                for p in pts:
                    worst.append(denominator_transform_residual(
                        sign, sector, which, p))
        r = _max_residual(worst)
        _require(r < cfg.tol, "%s residual %.3e" % (which, r))
        return "max residual %.1e over %d evaluations" % (r, len(worst))
    return run


def _case_span(M, statement, transform):
    def run(cfg):
        n = len(family_members(M, statement))
        pts = default_points(3 * n, diagonal=True, seed=0)
        cert = span_closure(M, statement, transform, pts)
        _require(cert.residual < cfg.tol,
                 "span residual %.3e" % cert.residual)
        return ("family of %d, residual %.1e at %d points"
                % (n, cert.residual, 3 * n))
    return run


def _case_t_phases(M, statement):
    # the fitted T matrix must be the predicted permutation of phases
    def run(cfg):
        if M == 1:
            raise SkipCase("family is rank deficient at M = 1")
        n = len(family_members(M, statement))
        pts = default_points(3 * n, diagonal=True, seed=0)
        cert = span_closure(M, statement, "T", pts)
        pred = predicted_t_matrix(M, statement)
        dev = 0.0
        for i in range(n):
            for jj in range(n):
                dev = max(dev, abs(cert.coefficients[i][jj] - pred[i][jj]))
        _require(dev < 1e-6, "fitted T matrix off by %.3e" % dev)
        return "fit matches predicted phases to %.1e" % dev
    return run


def _modular_cases():
    cases = []
    for M in (1, 2, 3):
        cases.append(("modular/psi-s-law/M%d" % M, _case_psi_s_law(M)))
    for M in (1, 2, 3):
        cases.append(("modular/psi-t-law/M%d" % M, _case_psi_t_law(M)))
    cases.append(("modular/denominator-s", _case_denominator_transform("S")))
    cases.append(("modular/denominator-t", _case_denominator_transform("T")))
    for M in (1, 2, 3):
        for statement in (1, 2):
            for transform in ("S", "T"):
                cases.append(("modular/span/%s/statement%d/M%d"
                              % (transform, statement, M),
                              _case_span(M, statement, transform)))
    for M in (2, 3):
        for statement in (1, 2):
            cases.append(("modular/t-phases/statement%d/M%d"
                          % (statement, M), _case_t_phases(M, statement)))
    return tuple(cases)


# ---------------------------------------------------------------------------
# registry and runner


SUITE_NAMES = ("theta", "psi", "characters", "reduction", "modular")

_BUILDERS = {
    "theta": _theta_cases,
    "psi": _psi_cases,
    "characters": _characters_cases,
    "reduction": _reduction_cases,
    "modular": _modular_cases,
}


def suite_cases(name):
    """The ordered (case id, callable) tuple of one suite or of all."""
    if name == "all":
        out = []
        for n in SUITE_NAMES:
            out.extend(_BUILDERS[n]())
        return tuple(out)
    if name not in _BUILDERS:
        raise ValueError("unknown suite %r, want one of %s or 'all'"
                         % (name, (SUITE_NAMES,)))
    return _BUILDERS[name]()


def _run_case(fn, config):
    try:
        detail = fn(config)
        return ("pass", detail or "")
    except SkipCase as exc:
        return ("skip", str(exc))
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
