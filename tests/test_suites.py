"""Tests of the suite registry and its row runners."""

import hashlib
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from mpmath import mp

from thetachar import suites
from thetachar.characters import denominator
from thetachar.mockpsi import HALF, PsiParams, PsiPlan
from thetachar.qseries import JacobiSeries
from thetachar.modular import family_members, predicted_t_matrix
from thetachar.suites import SuiteConfig, run_suite, suite_cases
from thetachar.theta import PassPlan, ThetaPass, ThetaQuotient, theta_shifted

from oracles import reduction_params_scan

MINUS = ThetaQuotient((0, 0, 2))

# count and sha256 of the newline-joined case ids of each suite; the ids
# and their order are the interface of `verify` reports
REGISTRY = {
    "theta": (20, "428b90bc81ed7ec3557bc389aff5890e"
                  "1c53fd9222e0f998d8745c6d52de2eb0"),
    "psi": (23, "3c7ecca4752364b791798fdae67b5313"
                "a1622cb2a02f41992cfcf982cce61a50"),
    "characters": (27, "35ade49fe4696cd6352a36b64304d07b"
                       "5ccccdf5658eaabf66256b3770af6a66"),
    "reduction": (23, "7ff2b91a348d3a9b6d1669c487c058be"
                      "61ffbc726b8eaccc59da300a716cf9b6"),
    "modular": (24, "46ed04e75499ca45d7e010e8f0ad913a"
                    "9aed3a948ef2d7ad397ed04763cf68b7"),
}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_case_registry_is_pinned(name):
    ids = [cid for cid, _ in suite_cases(name)]
    count, digest = REGISTRY[name]
    assert len(ids) == count
    assert hashlib.sha256("\n".join(ids).encode()).hexdigest() == digest


def test_unknown_suite_lists_the_names():
    with pytest.raises(ValueError) as err:
        suite_cases("nope")
    assert str(err.value) == ("unknown suite 'nope', want one of theta, "
                              "psi, characters, reduction, modular")


def _run_rows(monkeypatch, rows, q_order=F(4)):
    monkeypatch.setattr(suites, "suite_cases", lambda name: tuple(rows))
    report = run_suite("theta", SuiteConfig(q_order=q_order, tol=1e-9,
                                            dps=20))
    return {c.case_id: (c.status, c.detail) for c in report.cases}


def _theta(label, q):
    return theta_shifted(label, q, 1, 1, 0, 0)


def test_every_runner_can_fail(monkeypatch):
    ratio = denominator("+", "NS")
    statuses = _run_rows(monkeypatch, [
        ("exact/true", suites._exact(
            lambda q: [(_theta("00", q), _theta("00", q))])),
        ("exact/false", suites._exact(
            lambda q: [(_theta("00", q), _theta("01", q))])),
        ("ratio/true", suites._quotient(lambda: [(ratio, ratio)])),
        ("ratio/false", suites._quotient(lambda: [(ratio, ratio * MINUS)])),
        ("residual/true", suites._residual(lambda q: [0.0, 1e-12j])),
        ("residual/false", suites._residual(lambda q: [0.0, 1e-6])),
        ("exact/empty", suites._exact(lambda q: [])),
        ("residual/empty", suites._residual(lambda q: [])),
    ])
    assert {cid: st for cid, (st, _) in statuses.items()} == {
        "exact/true": "pass", "exact/false": "fail",
        "ratio/true": "pass", "ratio/false": "fail",
        "residual/true": "pass", "residual/false": "fail",
        "exact/empty": "fail", "residual/empty": "fail",
    }
    # each false row fails its check, not by an error on the way, and a
    # row that checks nothing fails too
    for cid in ("exact/false", "ratio/false", "residual/false",
                "exact/empty", "residual/empty"):
        assert statuses[cid][1].startswith("CaseFailure: ")


def test_a_pair_that_compares_no_term_fails(monkeypatch):
    # theta_10 starts at q^(1/8): below q^(1/100) the pair holds no term
    # and would pass whatever the code computed
    row = ("exact/below-valuation", suites._exact(
        lambda q: [(_theta("10", q), _theta("10", q))]))
    for q, status in ((F(1, 100), "fail"), (F(1, 4), "pass")):
        assert _run_rows(monkeypatch, [row], q)[row[0]][0] == status
    (detail,) = {d for st, d in _run_rows(monkeypatch, [row], F(1, 100))
                 .values()}
    assert detail == "CaseFailure: pair 1 compares no term below q^1/100"


@pytest.mark.parametrize("q, qn, below", [
    (F(7, 3), 18, True), (F(7, 3), 19, False),
    (F(9, 4), 17, True), (F(9, 4), 18, False)])
def test_term_below_a_bound_between_lattice_points(q, qn, below):
    # q = 7/3 lies between q^(18/8) and q^(19/8); at q = 9/4 = 18/8 the
    # term at the bound itself is not below it
    s = JacobiSeries(8, 1, 24, {(qn, 0): 1})
    assert suites._has_term_below(s, q) is below


def test_characters_below_every_valuation_fail():
    # at q-order 1/100 the cross-multiplied sides of every quotient row
    # start above the bound; only the m2-leading rows, which expand
    # their characters to their own orders, compare terms
    report = run_suite("characters", SuiteConfig(q_order=F(1, 100)))
    failed = {c.case_id: c.detail for c in report.cases
              if c.status == "fail"}
    assert len(failed) == 23
    assert set(failed.values()) == {
        "CaseFailure: pair 1 compares no term below q^1/100"}
    assert all("/m2-leading/" in c.case_id for c in report.cases
               if c.status == "pass")


def test_t_certificates_are_shared(monkeypatch):
    # each family is certified once per transform, by its span row; the
    # t-phases rows check the T law on the series and take no certificate
    calls = []

    def fake_span_closure(M, statement, transform, points):
        calls.append((M, statement, transform))
        return SimpleNamespace(family=family_members(M, statement),
                               points=tuple(points), residual=0.0,
                               coefficients=predicted_t_matrix(M, statement))

    monkeypatch.setattr(suites, "span_closure", fake_span_closure)
    rows = [row for row in suite_cases("modular")
            if row[0].startswith(("modular/span/", "modular/t-phases/"))]
    assert len(rows) == 16
    statuses = _run_rows(monkeypatch, rows)
    assert {st for st, _ in statuses.values()} == {"pass"}
    assert len(calls) == 12
    assert len(set(calls)) == 12


def test_m1_collapse_can_fail(monkeypatch):
    # the row checks the PsiPlan block against the exact diagonal
    # series; the negated series and the block of the other eps must
    # fail it
    row = dict(suite_cases("psi"))["psi/m1-collapse"]
    real = suites.psi_diag_ratio
    damages = {
        "negated": lambda pr: real(pr) * MINUS,
        "other-eps": lambda pr: real(
            PsiParams(pr.M, pr.j, pr.k, HALF - pr.eps, pr.eps_prime)),
    }
    # at the default order of the psi suite, where the tail is small
    q = SuiteConfig().q_order
    assert _run_rows(monkeypatch, [("m1/true", row)], q)["m1/true"][0] == \
        "pass"
    for name, damaged in damages.items():
        monkeypatch.setattr(suites, "psi_diag_ratio", damaged)
        status, detail = _run_rows(monkeypatch, [(name, row)], q)[name]
        assert status == "fail" and detail.startswith("CaseFailure: "), name


def test_appell_cutoff_can_fail(monkeypatch):
    # the row holds the cutoff-1 difference to its tail majorant; a
    # majorant a million times too small must fail it
    row = dict(suite_cases("psi"))["psi/appell-cutoff"]
    assert _run_rows(monkeypatch, [("true", row)])["true"][0] == "pass"
    real = suites.appell_tail
    monkeypatch.setattr(suites, "appell_tail",
                        lambda *args, **kw: real(*args, **kw) / 10 ** 6)
    status, detail = _run_rows(monkeypatch, [("damaged", row)])["damaged"]
    assert status == "fail" and detail.startswith("CaseFailure: ")


def test_appell_prefactor_can_fail(monkeypatch):
    # the row holds Phi1 at t to its terms summed directly; a prefactor
    # e^{-2 pi i t} that drops m must fail it at m = 2
    row = dict(suite_cases("psi"))["psi/appell-prefactor"]
    assert _run_rows(monkeypatch, [("true", row)])["true"][0] == "pass"
    real = suites.phi_a11_numeric
    monkeypatch.setattr(
        suites, "phi_a11_numeric", lambda m, s, tau, z1, z2, t: mp.exp(
            -2j * mp.pi * mp.mpc(t)) * real(m, s, tau, z1, z2, 0))
    status, detail = _run_rows(monkeypatch, [("damaged", row)])["damaged"]
    assert status == "fail" and detail.startswith("CaseFailure: ")


def test_batched_blocks_stay_paired(monkeypatch):
    # each PsiPlan evaluates the four characteristic blocks of a point;
    # a batch that hands back the eps = 0 and eps = 1/2 blocks (results
    # 0 and 2) swapped must fail the rows that read it
    cases = dict(suite_cases("psi"))
    rows = [(cid, cases[cid])
            for cid in ("psi/periodicity/M2", "psi/diagonal-ratio/M2")]
    q = SuiteConfig().q_order
    assert {st for st, _ in _run_rows(monkeypatch, rows, q).values()} == \
        {"pass"}
    real = PsiPlan.values

    def swapped(self, *args):
        out = real(self, *args)
        out[0], out[2] = out[2], out[0]
        return out

    monkeypatch.setattr(PsiPlan, "values", swapped)
    for cid, (status, detail) in _run_rows(monkeypatch, rows, q).items():
        assert status == "fail" and detail.startswith("CaseFailure: "), cid


def test_psi_suite_takes_one_pass_per_point_and_side(monkeypatch):
    # the symmetry rows take two passes per point, the diagonal rows one
    # for their closed forms: 16 x 5 x 2 + 4 x 5 + 5, and the Appell
    # rows none; a symmetry row plans its blocks and their mapped images
    # once each, a diagonal row its blocks once, for all five points
    passes, plans = [], {}
    real_pass, real_plan = ThetaPass.__init__, PassPlan.__init__
    cases = suite_cases("psi")
    running = []

    def passing(self, *args, **kw):
        passes.append(1)
        real_pass(self, *args, **kw)

    def planning(self, *args, **kw):
        plans[running[-1]] += 1
        real_plan(self, *args, **kw)

    def counted(cid, fn):
        def run(cfg):
            running.append(cid)
            plans[cid] = 0
            return fn(cfg)
        return run

    monkeypatch.setattr(ThetaPass, "__init__", passing)
    monkeypatch.setattr(PassPlan, "__init__", planning)
    monkeypatch.setattr(suites, "suite_cases", lambda name: tuple(
        (cid, counted(cid, fn)) for cid, fn in cases))
    report = run_suite("psi")
    assert report.ok
    assert len(passes) == 185
    kinds = {"periodicity": 2, "reflect-swap": 2, "swap": 2, "reflect": 2,
             "diagonal-ratio": 1, "m1-collapse": 1}
    assert plans == {cid: kinds.get(cid.split("/")[1], 0)
                     for cid, _ in cases}


def test_psi_law_rows_take_one_pass_per_point_and_side(monkeypatch):
    # each of the six psi-s-law and psi-t-law rows evaluates its four
    # blocks at five points with two passes a point, 60 in all, and plans
    # each side once for all five points, 12 in all
    passes, plans = [], []
    real_pass, real_plan = ThetaPass.__init__, PassPlan.__init__

    def passing(self, *args, **kw):
        passes.append(1)
        real_pass(self, *args, **kw)

    def planning(self, *args, **kw):
        plans.append(1)
        real_plan(self, *args, **kw)

    rows = [(cid, case) for cid, case in suite_cases("modular")
            if cid.startswith(("modular/psi-s-law/", "modular/psi-t-law/"))]
    assert len(rows) == 6
    monkeypatch.setattr(ThetaPass, "__init__", passing)
    monkeypatch.setattr(PassPlan, "__init__", planning)
    statuses = _run_rows(monkeypatch, rows)
    assert {st for st, _ in statuses.values()} == {"pass"}
    assert (len(passes), len(plans)) == (60, 12)


def test_reduction_scan_matches_trying_every_tuple():
    # the scan builds only in-range tuples, and the same ones in the
    # same order as trying every level up to M + 1
    for M in range(1, 9):
        for m in (1, 2, 3):
            assert (list(suites._reduction_params(M, (m,)))
                    == list(reduction_params_scan(M, (m,))))
