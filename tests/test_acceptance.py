"""Acceptance gate: one test per shipping criterion.

Each test prints exactly one "[ACCEPTANCE n] PASS/FAIL ..." line; keep
output capture off (-s, the repository default) to see them inline.
"""

import functools
import math
import time
from fractions import Fraction as F
from itertools import product as iproduct

from mpmath import mp

from thetachar.characters import (
    CharacterSpec,
    ReductionParams,
    central_charge,
    character_ratio,
    character_series,
    denominator,
    h_s_values,
    index_set,
    nice_numerator,
    nice_param_to_j,
    vanishes,
)
from thetachar.mockpsi import HALF, PsiParams, psi_diag_ratio, psi_numeric
from thetachar.modular import (
    default_points,
    denominator_transform_residual,
    family_members,
    psi_s_residual,
    psi_t_residual,
    span_closure,
)
from thetachar.qseries import equal_to_order, eval_numeric
from thetachar.suites import (
    SuiteConfig,
    _m2_closed_ratio,
    nice_k1_values,
    run_suite,
)
from thetachar.theta import (DEFAULT_DPS, ThetaQuotient, theta_shifted,
                             theta_sum)


def acceptance(n):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                detail = fn()
            except BaseException as exc:
                print("[ACCEPTANCE %d] FAIL %s" % (n, exc))
                raise
            wall = time.perf_counter() - start
            print("[ACCEPTANCE %d] PASS %s (%.1fs)" % (n, detail, wall))
        return run
    return wrap


def _suite_or_raise(report):
    bad = [c for c in report.cases if c.status == "fail"]
    if bad:
        raise AssertionError("suite %s: %s" % (
            report.suite, "; ".join("%s: %s" % (c.case_id, c.detail)
                                    for c in bad)))
    return report


@acceptance(1)
def test_acceptance_01_trivial_module_characters():
    q = F(20)
    for sector, sign in iproduct(("NS", "R"), ("+", "-")):
        (j,) = index_set(1, sector)
        spec = CharacterSpec(1, j, sector, sign)
        assert character_ratio(spec).equals(ThetaQuotient(), q), \
            (sector, sign)
    return "all four M=1 characters equal 1 exactly below q^20"


@acceptance(2)
def test_acceptance_02_theta_identity_suite():
    report = _suite_or_raise(run_suite("theta", SuiteConfig(q_order=F(15))))
    n = report.counts["pass"]
    return "theta identity suite: %d cases exact below q^15" % n


@acceptance(3)
def test_acceptance_03_theta_sum_vs_product():
    q = F(20)
    for label in ("00", "01", "10", "11"):
        assert equal_to_order(theta_shifted(label, q, 1, 1, 0, 0),
                              theta_sum(label, q), q), label
    return "sum and product theta forms identical below q^20, all labels"


# (sector, j) -> expected lead q-exponent and per-sign x-rows
_M2_EXPECTED = {
    ("NS", HALF): (F(-1, 8),
                   {"+": {-HALF: 1, F(-5, 2): 1, F(-9, 2): 1},
                    "-": {-HALF: 1, F(-5, 2): 1, F(-9, 2): 1}}),
    ("NS", -HALF): (F(-1, 8),
                    {"+": {F(-3, 2): 1, F(-7, 2): 1, F(-11, 2): 1},
                     "-": {F(-3, 2): 1, F(-7, 2): 1, F(-11, 2): 1}}),
    ("R", F(0)): (F(0), {"+": {F(0): 1}, "-": {F(0): 1}}),
    ("R", F(1)): (HALF, {"+": {F(1): 1, F(0): 2, F(-1): 1},
                         "-": {F(1): 1, F(0): -2, F(-1): 1}}),
}


@acceptance(4)
def test_acceptance_04_level_two_leading_terms():
    n = 0
    for (sector, j), (lead_q, rows) in _M2_EXPECTED.items():
        for sign in ("+", "-"):
            spec = CharacterSpec(2, j, sector, sign)
            ser = character_series(spec, F(3))
            lo, hi = ser.x_window
            assert (hi - lo) * ser.x_den >= 6, \
                "window narrower than 6 x-lattice units"
            got_lead = min(qe for qe, _, _ in ser.terms())
            assert got_lead == lead_q, (spec, got_lead)
            row = {xe: c for qe, xe, c in ser.terms() if qe == lead_q}
            assert row == rows[sign], (spec, row)
            n += 1
    return ("lead exponents (-1/8, -1/8, 0, 1/2) and all %d leading "
            "x-rows match" % n)


@acceptance(5)
def test_acceptance_05_reduction_formulas():
    start = time.perf_counter()
    _suite_or_raise(run_suite("reduction"))
    wall = time.perf_counter() - start
    assert wall < 1.0, "reduction suite took %.2fs, budget 1s" % wall
    return ("closed forms at 2k1+k2=M-1 for M<=9 and equivalence pairs "
            "for M<=7, m<=3 agree exactly in %.2fs" % wall)


@acceptance(6)
def test_acceptance_06_numerators_match_characters():
    q = F(8)
    n = 0
    for M in range(1, 6):
        for twisted in (False, True):
            sector = "R" if twisted else "NS"
            for heart in ("I", "III"):
                for k1 in nice_k1_values(M, heart):
                    j = nice_param_to_j(M, k1, heart, twisted)
                    for sign in ("+", "-"):
                        spec = CharacterSpec(M, j, sector, sign)
                        ok = nice_numerator(M, k1, heart, sign,
                                            twisted).equals(
                            character_ratio(spec)
                            * denominator(sign, sector), q)
                        assert ok, (M, k1, heart, sign, twisted)
                        n += 1
    assert n == 60, "expected 60 parameter tuples, saw %d" % n
    return ("numerator = denominator x character exactly below q^8 "
            "for all %d tuples, M<=5" % n)


@acceptance(7)
def test_acceptance_07_level_two_closed_forms():
    q = F(10)
    n = 0
    for sector in ("NS", "R"):
        for j in index_set(2, sector):
            for sign in ("+", "-"):
                spec = CharacterSpec(2, j, sector, sign)
                assert _m2_closed_ratio(sector, j, sign).equals(
                    character_ratio(spec), q), (sector, j, sign)
                n += 1
    return "all %d M=2 closed quotient forms exact below q^10" % n


@acceptance(8)
def test_acceptance_08_psi_layer():
    report = _suite_or_raise(run_suite("psi"))
    mp.dps = DEFAULT_DPS
    worst = 0.0
    for M in range(1, 5):
        for eps, eps_p in iproduct((F(0), HALF), (F(0), HALF)):
            pr = PsiParams(M, eps_p + 1, eps_p + 1, eps, eps_p)
            num, den = (part.series(F(6))
                        for part in psi_diag_ratio(pr).parts())
            for p in default_points(5, diagonal=True, seed=M):
                got = (eval_numeric(num, p.tau, p.z1)
                       / eval_numeric(den, p.tau, p.z1))
                want = psi_numeric(pr, p.tau, p.z1, p.z1, 0)
                worst = max(worst, float(abs(got - want)))
    assert worst < 1e-10, "diagonal ratio residual %.3e" % worst
    return ("symmetry suite residuals < 1e-9 (%d cases, M<=4); diagonal "
            "ratio vs closed form %.1e < 1e-10"
            % (report.counts["pass"], worst))


@acceptance(9)
def test_acceptance_09_transform_laws():
    mp.dps = DEFAULT_DPS
    worst_psi = 0.0
    for M in (1, 2, 3):
        for eps, eps_p in iproduct((F(0), HALF), (F(0), HALF)):
            pr = PsiParams(M, eps_p + 1, eps_p, eps, eps_p)
            for p in default_points(5, seed=M + 50):
                worst_psi = max(worst_psi, psi_s_residual(pr, p),
                                psi_t_residual(pr, p))
    assert worst_psi < 1e-9, "Psi transform residual %.3e" % worst_psi
    worst_den = 0.0
    for sign, sector in iproduct(("+", "-"), ("NS", "R")):
        for which in ("S", "T"):
            for p in default_points(5, seed=60):
                worst_den = max(worst_den, denominator_transform_residual(
                    sign, sector, which, p))
    assert worst_den < 1e-9, "denominator residual %.3e" % worst_den
    return ("S/T laws: Psi residual %.1e (M<=3), denominator residual "
            "%.1e, both < 1e-9 at 5 points" % (worst_psi, worst_den))


@acceptance(10)
def test_acceptance_10_span_closure():
    mp.dps = DEFAULT_DPS
    worst = 0.0
    certs = 0
    for M in (1, 2, 3):
        for statement in (1, 2):
            n = len(family_members(M, statement))
            pts = default_points(3 * n, diagonal=True, seed=10 * M
                                 + statement)
            for transform in ("S", "T"):
                cert = span_closure(M, statement, transform, pts)
                worst = max(worst, cert.residual)
                certs += 1
                assert cert.residual < 1e-7, (
                    "M=%d statement %d %s residual %.3e"
                    % (M, statement, transform, cert.residual))
    return ("%d span-closure certificates (M<=3, both statements, S and "
            "T, 3x oversampling), max residual %.1e < 1e-7"
            % (certs, worst))


@acceptance(11)
def test_acceptance_11_vanishing_predicate():
    n = 0
    for M in range(1, 7):
        for m in (1, 2, 3):
            if math.gcd(m, M) != 1:
                continue
            for m2 in range(m + 1):
                for twisted in (False, True):
                    for heart in ("I", "II", "III", "IV"):
                        for k1 in range(M + 2):
                            for k2 in range(M + 2):
                                try:
                                    params = ReductionParams(
                                        M, m, m2, k1, k2, heart, twisted)
                                except ValueError:
                                    continue
                                want = (heart in ("I", "III")
                                        and 2 * k1 + k2 + 1 == M
                                        and m2 == m)
                                assert vanishes(params) == want, params
                                n += 1
    return ("vanishing criterion matches the three-way condition on all "
            "%d in-range parameter tuples, M<=6" % n)
