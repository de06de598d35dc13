"""Each output check accepts a real answer and rejects a damaged one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import json
from fractions import Fraction

import pytest

import checks
import run
import workloads
from workloads import Request

PROGRAM = run.load_program()


def answer(req):
    return run.call_cli(PROGRAM, req.argv)


def expand(M, j, sector, sign, q, window=None):
    return workloads._expand(M, Fraction(j), sector, sign, Fraction(q),
                             window)


def edit_terms(text, fn):
    """Re-serialize an expand answer after fn(terms list) edits it."""
    d = json.loads(text)
    fn(d["terms"])
    return json.dumps(d, separators=(",", ":")) + "\n"


@pytest.fixture(scope="module")
def m2():
    reqs = [expand(2, "1/2", "NS", "+", 3), expand(2, "1/2", "NS", "-", 3),
            expand(2, "1/2", "NS", "+", 2), expand(1, "1/2", "NS", "+", 2)]
    return reqs, [answer(r) for r in reqs]


def test_expand_answers_pass(m2):
    reqs, results = m2
    assert checks.check_expand_round(reqs, results) == [[]] * len(reqs)


def drop_lowest_level(terms):
    low = min(t["q"] for t in terms)
    terms[:] = [t for t in terms if t["q"] != low]


def drop_leading_term(terms):
    low = min(t["q"] for t in terms)
    terms.remove(max((t for t in terms if t["q"] == low),
                     key=lambda t: t["x"]))


@pytest.mark.parametrize("damage", [
    lambda t: t[0].update(re="1/2"),                       # not integral
    lambda t: t[-1].update(re=str(-int(t[-1]["re"]))),     # negative
    lambda t: t[0].update(q=t[0]["q"] - 1),                 # lead moved
    drop_lowest_level,
    drop_leading_term,
])
def test_expand_rejects_damaged_term(m2, damage):
    reqs, results = m2
    rc, text = results[0]
    assert checks.check_expand(reqs[0], rc, edit_terms(text, damage))


def test_expand_rejects_failed_exit(m2):
    reqs, results = m2
    assert checks.check_expand(reqs[0], 1, results[0][1])


def test_expand_rejects_wrong_order(m2):
    reqs, results = m2
    asked_more = expand(2, "1/2", "NS", "+", 4)
    assert checks.check_expand(asked_more, 0, results[0][1])


def test_m1_must_be_constant(m2):
    reqs, results = m2
    rc, text = results[3]
    extra = edit_terms(text, lambda t: t.append(
        {"q": 1, "x": 0, "re": "1", "im": "0"}))
    assert not checks.check_expand(reqs[3], rc, text)
    assert checks.check_expand(reqs[3], rc, extra)


def test_partner_rejects_sign_slip(m2):
    reqs, results = m2
    minus = results[1][1]
    # flip the first term whose x - s is odd, where ch- = -ch+
    s = workloads.weight_and_spin(2, Fraction(1, 2), "NS")[1]
    d = json.loads(minus)

    def odd(t):
        return (Fraction(t["x"], d["x_den"]) - s) % 2 == 1

    def flip(terms):
        t = next(t for t in terms if odd(t))
        t["re"] = str(-Fraction(t["re"]))

    assert not checks.check_partner(reqs[1], minus, results[0][1])
    assert checks.check_partner(reqs[1], edit_terms(minus, flip),
                                results[0][1])


def test_orders_must_agree(m2):
    reqs, results = m2
    low, high = results[2][1], results[0][1]
    assert not checks.check_orders_agree(low, high)
    bumped = edit_terms(high, lambda t: t[0].update(re="2"))
    assert checks.check_orders_agree(low, bumped)


def test_repeat_must_be_byte_identical(m2):
    reqs, results = m2
    again = dataclasses.replace(reqs[0], repeat_of=0)
    rc, text = results[0]
    ok = checks.check_expand_round([reqs[0], again],
                                   [results[0], (rc, text)])
    bad = checks.check_expand_round([reqs[0], again],
                                    [results[0], (rc, text + " ")])
    assert ok == [[], []]
    assert bad[0] == [] and bad[1]


@pytest.fixture(scope="module")
def m2_transforms():
    reqs = [Request("transform", ("transform", "--M", "2", "--which", w,
                                  "--statement", "2", "--seed", "0"),
                    M=2, which=w, statement=2) for w in ("S", "T")]
    return reqs, [answer(r) for r in reqs]


def edit_cert(text, fn):
    d = json.loads(text)
    fn(d)
    return json.dumps(d)


def test_transform_answers_pass(m2_transforms):
    for req, (rc, text) in zip(*m2_transforms):
        assert checks.check_transform(req, rc, text) == []


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("damage", [
    lambda d: d.update(residual=1e-3),
    lambda d: d["coefficients"][0][0].update(re=d["coefficients"][0][0]["re"]
                                             + 0.01),
    lambda d: [c.update(re=2 * c["re"], im=2 * c["im"])
               for c in d["coefficients"][0]],
])
def test_transform_rejects_damage(m2_transforms, which, damage):
    reqs, results = m2_transforms
    rc, text = results[which]
    assert checks.check_transform(reqs[which], rc, edit_cert(text, damage))


def test_transform_rejects_failed_exit(m2_transforms):
    reqs, results = m2_transforms
    assert checks.check_transform(reqs[0], 1, results[0][1])


@pytest.mark.parametrize("M,statement", [(2, 1), (3, 2)])
def test_t_phases_match_the_program_prediction(M, statement):
    # the benchmark derives the T matrix from member ids alone; the
    # program derives it from its own family tables
    from thetachar.modular import family_members, member_id
    from thetachar.modular import predicted_t_matrix
    members = [checks.parse_member(member_id(m))
               for m in family_members(M, statement)]
    ours = checks.predicted_t_rows(M, members)
    theirs = predicted_t_matrix(M, statement)
    assert max(abs(a - b) for ra, rb in zip(ours, theirs)
               for a, b in zip(ra, rb)) < 1e-12


@pytest.fixture(scope="module")
def reduction_report():
    (req,) = [r for r in workloads.verify_requests(0)
              if r.suite == "reduction"]
    ids = [cid for cid, _ in PROGRAM.suites.suite_cases(req.suite)]
    return req, answer(req), ids


def test_verify_answer_passes(reduction_report):
    req, (rc, text), ids = reduction_report
    assert checks.check_verify(req, rc, text, ids) == []


@pytest.mark.parametrize("damage", [
    lambda r: r["cases"][0].update(status="fail"),
    lambda r: r["cases"][0].update(id="reduction/renamed"),
    lambda r: r["cases"].pop(),
    lambda r: r.update(suite="theta"),
])
def test_verify_rejects_damage(reduction_report, damage):
    req, (rc, text), ids = reduction_report
    d = json.loads(text)
    damage(d["reports"][0])
    assert checks.check_verify(req, rc, json.dumps(d), ids)
    assert checks.check_verify(req, 1, text, ids)
