"""Unit tests for the exact two-variable series kernel."""

import json
import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc

from thetachar.qseries import (
    CoefficientRingError,
    GaussianRational,
    I_UNIT,
    JacobiSeries,
    UntrustedOrderError,
    dumps_canonical,
    equal_to_order,
    eval_numeric,
    expand,
    mul,
    product,
    restrict_window,
    scale_monomial,
    to_json_dict,
)

from thetachar import qseries
from thetachar.characters import (SECTORS, SIGNS, CharacterSpec,
                                  character_ratio, character_series,
                                  index_set)

from oracles import (as_series, coefficient, eval_numeric_per_term,
                     expand_rational, first_difference, from_json_dict,
                     gaussian_inverse, invert_directed, q_valuation_bound,
                     subst_scale_tau, subst_scale_z, theta_factors,
                     truncate, x_support)


def poly(order, *terms):
    """Sum of (q_exp, x_exp, coeff) monomials trusted below order, on the
    coarsest lattice holding their exponents and order."""
    terms = [(F(qe), F(xe), GaussianRational.coerce(c))
             for qe, xe, c in terms]
    order = F(order)
    q_den = math.lcm(order.denominator,
                     *(qe.denominator for qe, _, _ in terms))
    x_den = math.lcm(1, *(xe.denominator for _, xe, _ in terms))
    out = Counter()
    for qe, xe, c in terms:
        out[(qe * q_den, xe * x_den)] += c
    return JacobiSeries(q_den, x_den, order * q_den, out)


def mono(qe, xe, coeff, order):
    return poly(order, (qe, xe, coeff))


# ---------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(F(1, 2), F(-3, 4))
        b = GaussianRational(2, 1)
        assert a + b == GaussianRational(F(5, 2), F(1, 4))
        assert a - b == GaussianRational(F(-3, 2), F(-7, 4))
        assert a * b == GaussianRational(F(7, 4), -1)
        assert -a == GaussianRational(F(-1, 2), F(3, 4))
        assert (a * b) * gaussian_inverse(b) == a

    def test_inverse(self):
        # the oracle inversion's coefficient inverse
        a = GaussianRational(3, 4)
        inv = gaussian_inverse(a)
        assert a * inv == 1
        with pytest.raises(ZeroDivisionError):
            gaussian_inverse(GaussianRational(0))

    def test_times_i_power_cycles(self):
        a = GaussianRational(F(2, 3), F(5, 7))
        assert a.times_i_power(0) == a
        assert a.times_i_power(1) == I_UNIT * a
        assert a.times_i_power(2) == -a
        assert a.times_i_power(3) == a.times_i_power(-1)
        assert a.times_i_power(4) == a
        assert a.times_i_power(-3) == a.times_i_power(1)

    def test_coerce(self):
        assert GaussianRational.coerce(F(2, 3)) == GaussianRational(F(2, 3))
        assert GaussianRational.coerce(5) == GaussianRational(5)
        with pytest.raises(CoefficientRingError):
            GaussianRational.coerce(0.5 + 0j)
        with pytest.raises(TypeError):
            GaussianRational.coerce("x")

    def test_equality_against_scalars(self):
        assert GaussianRational(3) == 3
        assert GaussianRational(3, 1) != 3
        assert GaussianRational(F(1, 2)) == F(1, 2)
        assert hash(GaussianRational(3)) == hash(GaussianRational(3, 0))

    def test_complex_conversion(self):
        z = complex(GaussianRational(F(1, 2), F(-1, 4)))
        assert z == 0.5 - 0.25j

    def test_integral_parts_are_ints(self):
        a = GaussianRational(F(4, 2), F(-3, 1))
        assert type(a.re) is int and a.re == 2
        assert type(a.im) is int and a.im == -3
        half = GaussianRational(F(1, 2), F(1, 2)) + GaussianRational(F(1, 2))
        assert type(half.re) is int and type(half.im) is F

    def test_inverse_of_integers_is_exact(self):
        inv = gaussian_inverse(GaussianRational(3, 4))
        assert type(inv.re) is F and type(inv.im) is F
        assert (inv.re, inv.im) == (F(3, 25), F(-4, 25))

    def test_int_and_fraction_parts_hash_and_compare_alike(self):
        a = GaussianRational(2, -1)
        b = GaussianRational.__new__(GaussianRational)
        b.re, b.im = F(2), F(-1)
        assert a == b and hash(a) == hash(b) == hash((F(2), F(-1)))
        assert GaussianRational(2) == F(2) and GaussianRational(F(2)) == 2
        assert {a: 1}[b] == 1


# ---------------------------------------------------------------------
# construction and views
# ---------------------------------------------------------------------


class TestConstruction:
    def test_constructor_prunes_zero_and_untrusted_terms(self):
        s = JacobiSeries(1, 1, 3, {(0, 0): 1, (1, 2): 0, (3, 0): 7, (5, 1): 2})
        assert s.terms() == [(F(0), F(0), GaussianRational(1))]

    def test_constructor_prunes_outside_window(self):
        s = JacobiSeries(1, 1, 5, {(0, -3): 1, (0, 0): 2, (0, 4): 3},
                         window_n=(-1, 2))
        assert s.terms() == [(F(0), F(0), GaussianRational(2))]

    def test_off_lattice_key_rejected(self):
        with pytest.raises(ValueError):
            JacobiSeries(1, 1, 4, {(F(1, 2), 0): 1})

    def test_monomial_and_views(self):
        s = mono(F(3, 2), F(-1, 2), GaussianRational(0, 1), 4)
        assert s.q_order == F(4)
        assert coefficient(s, F(3, 2), F(-1, 2)) == I_UNIT
        assert coefficient(s, F(3, 2), F(1, 3)) == 0
        assert x_support(s) == (F(-1, 2), F(-1, 2))
        assert q_valuation_bound(s) == F(3, 2)

    def test_empty_series_views(self):
        z = poly(F(5, 2))
        assert z.is_zero()
        assert x_support(z) is None
        assert q_valuation_bound(z) == F(5, 2)

    def test_one(self):
        s = JacobiSeries.one(6)
        assert s.terms() == [(F(0), F(0), GaussianRational(1))]
        assert s.q_order == 6


# ---------------------------------------------------------------------
# ring axioms on random small series
# ---------------------------------------------------------------------

_coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def _series(draw):
    q_den = draw(st.sampled_from([1, 2, 4]))
    x_den = draw(st.sampled_from([1, 2]))
    order_n = draw(st.integers(min_value=2, max_value=10))
    n = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n):
        qn = draw(st.integers(min_value=0, max_value=order_n - 1))
        xn = draw(st.integers(min_value=-4, max_value=4))
        terms[(qn, xn)] = draw(_coeffs)
    return JacobiSeries(q_den, x_den, order_n, terms)


def _same(a, b):
    bound = min(a.q_order, b.q_order)
    return equal_to_order(a, b, bound)


# Gaussian coefficients with int, Fraction and mixed parts
_mixed_parts = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))
# leading coefficients for inversion: units, and non-units that send the
# inverse through Fractions
_leads = st.sampled_from([GaussianRational(1), GaussianRational(0, -1),
                          GaussianRational(3, 4), GaussianRational(F(1, 2), 2),
                          GaussianRational(-2)])


@st.composite
def _laurent(draw):
    """A series on q_den 2, x in [-2, 2], trusted below q^3, whose q^0
    level has its top x-power at x^2 with a drawn leading coefficient."""
    terms = {(0, 2): draw(_leads)}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        qn = draw(st.integers(min_value=0, max_value=5))
        xn = draw(st.integers(min_value=-2, max_value=1 if qn == 0 else 2))
        terms[(qn, xn)] = GaussianRational(draw(_mixed_parts),
                                           draw(_mixed_parts))
    return JacobiSeries(2, 1, 6, terms)


def naive_product(a, b, q_order, x_window):
    """All-Fraction double loop over the stored terms of a and b: the
    terms of a*b below q_order and inside x_window (or everywhere)."""
    out = {}
    for qa, xa, ca in a.terms():
        for qb, xb, cb in b.terms():
            q, x = qa + qb, xa + xb
            if q >= q_order:
                continue
            if x_window is not None and not x_window[0] <= x <= x_window[1]:
                continue
            ar, ai, br, bi = F(ca.re), F(ca.im), F(cb.re), F(cb.im)
            re, im = out.get((q, x), (F(0), F(0)))
            out[(q, x)] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return {k: v for k, v in out.items() if v != (0, 0)}


def as_pairs(s):
    return {(q, x): (c.re, c.im) for q, x, c in s.terms()}


class TestKernelAgainstNaiveLoop:
    @settings(max_examples=60, deadline=None)
    @given(_laurent(), _laurent())
    def test_mul(self, a, b):
        got = mul(a, b)
        assert as_pairs(got) == naive_product(a, b, got.q_order, None)

    @settings(max_examples=40, deadline=None)
    @given(_laurent())
    def test_times_directed_inverse(self, a):
        inv = invert_directed(a, (-6, 6))
        got = mul(a, inv)
        want = naive_product(a, inv, got.q_order, got.x_window)
        assert as_pairs(got) == want
        assert want == {(F(0), F(0)): (1, 0)}


def test_character_coefficients_stay_gaussian_integers():
    # the kernel's fast path: every coefficient the characters produce
    # is a Gaussian integer, stored with int parts
    for M in range(1, 5):
        for sector in SECTORS:
            for sign in SIGNS:
                for j in index_set(M, sector):
                    ser = character_series(CharacterSpec(M, j, sector, sign),
                                           4)
                    assert ser.c, (M, j, sector, sign)
                    assert all(type(v.re) is int and type(v.im) is int
                               for v in ser.c.values()), (M, j, sector, sign)


class TestRingAxioms:
    @settings(max_examples=50, deadline=None)
    @given(_series(), _series())
    def test_mul_commutes(self, a, b):
        assert _same(mul(a, b), mul(b, a))

    @settings(max_examples=50, deadline=None)
    @given(_series(), _series(), _series())
    def test_mul_associates(self, a, b, c):
        assert _same(mul(mul(a, b), c), mul(a, mul(b, c)))

    @settings(max_examples=50, deadline=None)
    @given(_series())
    def test_one_is_identity(self, a):
        assert _same(mul(a, JacobiSeries.one(a.q_order)), a)


class TestTrustPropagation:
    def test_mul_order_rule(self):
        # trust = min(Qa, Qb, Qa + vb, Qb + va) where v is the valuation
        # bound of the other factor
        a = poly(10, (2, 0, 1), (3, 1, 1))      # Qa = 10, va = 2
        b = poly(7, (1, 0, 1), (5, -1, 2))      # Qb = 7,  vb = 1
        assert mul(a, b).q_order == min(F(10), F(7), F(10 + 1), F(7 + 2))

    def test_mul_negative_valuation_erodes_trust(self):
        a = poly(6, (-2, -1, 1))                # va = -2
        b = poly(6, (0, 0, 1), (1, 1, 1))
        assert mul(a, b).q_order == F(4)

    def test_mul_of_empty_keeps_min_order(self):
        a = poly(3)
        b = poly(8, (1, 0, 1))
        assert mul(a, b).q_order == F(3)
        assert mul(a, b).is_zero()

    def test_product_fold(self):
        fs = [poly(9, (0, 0, 1), (1, 1, 1)) for _ in range(3)]
        p = product(fs)
        assert p.q_order == F(9)
        assert coefficient(p, 2, 2) == 3

    def test_windowed_times_windowed_rejected(self):
        a = restrict_window(poly(5, (0, 0, 1)), (F(-1), F(1)))
        b = restrict_window(poly(5, (0, 0, 1)), (F(-1), F(1)))
        with pytest.raises(ValueError):
            mul(a, b)

    def test_windowed_times_windowless_window_shrinks(self):
        a = restrict_window(poly(6, (0, 0, 1)), (F(-4), F(4)))
        b = poly(6, (0, -1, 1), (0, 2, 1))      # x-support [-1, 2]
        w = mul(a, b).x_window
        assert w == (F(-4) + F(2), F(4) + F(-1))


# ---------------------------------------------------------------------
# substitutions
# ---------------------------------------------------------------------


class TestSubstitutions:
    def test_scale_tau(self):
        s = poly(4, (F(1, 2), 1, 1), (2, -1, 3))
        t = subst_scale_tau(s, 3)
        assert t.q_order == F(12)
        assert t.terms() == [(F(3, 2), F(1), GaussianRational(1)),
                             (F(6), F(-1), GaussianRational(3))]

    def test_scale_z(self):
        s = poly(4, (1, F(1, 2), 1))
        t = subst_scale_z(s, 2)
        assert t.terms() == [(F(1), F(1), GaussianRational(1))]
        assert t.q_order == F(4)

    def test_scale_monomial(self):
        s = poly(5, (1, 0, 1), (2, 1, 3))
        t = scale_monomial(s, F(1, 2), F(-1), GaussianRational(0, 2))
        assert t.q_order == F(5) + F(1, 2)
        assert coefficient(t, F(3, 2), F(-1)) == GaussianRational(0, 2)
        assert coefficient(t, F(5, 2), F(0)) == GaussianRational(0, 6)


# ---------------------------------------------------------------------
# truncation, comparison, windows
# ---------------------------------------------------------------------


class TestTruncateAndCompare:
    def test_truncate_drops_high_terms(self):
        s = poly(8, (1, 0, 1), (5, 0, 1))
        t = truncate(s, 4)
        assert t.q_order == F(4)
        assert t.terms() == [(F(1), F(0), GaussianRational(1))]

    def test_truncate_cannot_extend_trust(self):
        s = poly(3, (0, 0, 1))
        with pytest.raises(UntrustedOrderError):
            truncate(s, 5)

    def test_equal_to_order_beyond_trust_raises(self):
        a = poly(3, (0, 0, 1))
        b = poly(9, (0, 0, 1))
        with pytest.raises(UntrustedOrderError):
            equal_to_order(a, b, 5)

    def test_equal_to_order_restricts_to_window_intersection(self):
        a = restrict_window(poly(5, (0, 0, 1), (0, 3, 7)), (F(-1), F(1)))
        b = restrict_window(poly(5, (0, 0, 1), (0, -3, 9)), (F(-2), F(2)))
        # both extra terms live outside the window intersection [-1, 1]
        assert equal_to_order(a, b, 5)

    def test_first_difference(self):
        a = poly(6, (1, 0, 1), (2, 1, 3))
        b = poly(6, (1, 0, 1), (2, 1, 4), (3, 0, 1))
        assert first_difference(a, b, 6) == (F(2), F(1))
        assert first_difference(a, a, 6) is None

    def test_restrict_window_clips(self):
        s = poly(5, (0, -3, 1), (0, 0, 2), (0, 4, 3))
        t = restrict_window(s, (F(-1), F(2)))
        assert t.terms() == [(F(0), F(0), GaussianRational(2))]
        assert t.x_window == (F(-1), F(2))


# ---------------------------------------------------------------------
# directed inversion and ratios
# ---------------------------------------------------------------------


class TestInversion:
    def test_invert_descending_geometric(self):
        # 1/(x - 1) expanded in descending powers of x
        s = poly(4, (0, 1, 1), (0, 0, -1))
        inv = invert_directed(s, (F(-5), F(0)))
        prod = mul(s, inv)
        assert equal_to_order(prod, JacobiSeries.one(4), 4)
        # classic expansion x^-1 + x^-2 + ...
        for k in range(1, 5):
            assert coefficient(inv, 0, -k) == 1

    def test_invert_with_q_mixing(self):
        s = poly(6, (0, 1, 1), (1, -1, 2), (F(1, 2), 0, 1))
        inv = invert_directed(s, (F(-8), F(-1)))
        assert equal_to_order(mul(s, inv), JacobiSeries.one(6), 6)

    def test_invert_rejects_zero_leading_column(self):
        with pytest.raises(ZeroDivisionError):
            invert_directed(poly(4), (F(-2), F(0)))

    def test_series_ratio_as_series(self):
        num = poly(6, (0, 1, 1), (0, 0, 1))
        den = poly(6, (0, 0, 1), (1, 2, -1))
        s = as_series(num, den, 5, (F(-6), F(2)))
        recon = mul(s, den)
        assert first_difference(recon, num, F(3)) is None

    def test_series_ratio_expansion_order_is_reached(self):
        # den has valuation 1, so its inverse is trusted only below
        # 6 - 2, and the expansion exactly that far
        num = poly(6, (0, 1, 1), (0, 0, 1))
        den = poly(6, (1, 0, 1), (2, 1, -1))
        s = as_series(num, den, 4, (F(-6), F(2)))
        assert first_difference(mul(s, den), num, F(4)) is None
        with pytest.raises(UntrustedOrderError):
            as_series(num, den, F(4) + F(1, 2), (F(-6), F(2)))


_UNITS = (GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
          GaussianRational(0, -1))
# exponents of the factors (1 + c x^k q^e): every sign of e, fractional
# e, half-integer k (so x_den = 2), and (e, k) = (0, 0) left out
_factor_e = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2),
                             F(2)])
_factor_k = st.sampled_from([F(-2), F(-3, 2), F(-1), F(-1, 2), F(0),
                             F(1, 2), F(1), F(2)])


@st.composite
def _factor(draw):
    """(e, k, c, p) of a factor (1 + c x^k q^e)^p."""
    e, k = draw(_factor_e), draw(_factor_k)
    if e == 0 and k == 0:
        k = F(-1)
    moved = e < 0 or (e == 0 and k > 0)
    # a factor that stays (1 + c u) needs no unit c
    pool = _UNITS if moved else _UNITS + (GaussianRational(2),
                                          GaussianRational(1, 1))
    return (e, k, draw(st.sampled_from(pool)), draw(st.sampled_from([1, -1])))


@st.composite
def _monomial(draw):
    """(e, k, c, p) of a monomial (c q^e x^k)^p: only a divided one
    needs a unit c."""
    p = draw(st.sampled_from([1, -1]))
    pool = _UNITS if p < 0 else _UNITS + (GaussianRational(2, -1),)
    return (draw(st.sampled_from([F(-1, 2), F(0), F(1, 4)])),
            draw(st.sampled_from([F(-1), F(0), F(1, 2)])),
            draw(st.sampled_from(pool)), p)


def _multiplied_out(monomials, factors, p, order):
    """The monomials and factors of power p multiplied out, trusted below
    order plus the product's valuation."""
    out = JacobiSeries.one(order)
    for e, k, c, fp in monomials:
        if fp == p:
            out = mul(out, mono(e, k, c, order))
    for e, k, c, fp in factors:
        if fp == p:
            out = mul(out, poly(order, (0, 0, 1), (e, k, c)))
    return out


def _check_against_the_generic_inverse(monomials, factors, dq, dlo, width):
    """expand of the listing equals the as_series oracle, under an order
    and a window drawn around the quotient's lead monomial, so that most
    draws have terms in the window."""
    lead = monomials + [f for f in factors
                        if f[0] < 0 or (f[0] == 0 and f[1] > 0)]
    v = {p: sum(e for e, _, _, fp in lead if fp == p) for p in (1, -1)}
    lo = dlo + sum(p * k for _, k, _, p in lead)
    q, window = v[1] - v[-1] + dq, (lo, lo + width)
    # each side multiplied out far enough that the generic inverse of
    # the divided side is trusted past q, and the divided side keeps its
    # lead term
    order = max(q - min(v[1], -v[-1], v[1] - v[-1]), v[-1]) + 1
    got = expand_rational(monomials, factors, q, window)
    want = as_series(_multiplied_out(monomials, factors, 1, order),
                     _multiplied_out(monomials, factors, -1, order),
                     q, window)
    assert got.terms() == want.terms()
    assert (got.q_order, got.x_window) == (q, window)
    return q


_order_offsets = st.sampled_from([F(5, 2), F(3, 4), F(2), F(-1, 2)])
_window_lows = st.sampled_from([F(-2), F(-1, 2), F(-3), F(0)])
_window_widths = st.sampled_from([F(3), F(5, 2), F(4), F(0)])


def _passes_run(monkeypatch):
    """A list that each pass of expand appends its kind to."""
    ran = []
    for kind in ("_times_pass", "_divide_pass"):
        def counted(*args, kind=kind, run=getattr(qseries, kind)):
            ran.append(kind)
            return run(*args)
        monkeypatch.setattr(qseries, kind, counted)
    return ran


def _net_power_sum(quotient, q_order):
    """The sum of |net power| over the normalised two-term factors that
    quotient.expand(q_order) lists, from the Fraction listing."""
    below = max(1, F(q_order) - quotient.valuation())
    net = Counter()
    for part, p in ((quotient.num, 1), (quotient.den, -1)):
        for key, n in part.items():
            for e, k, c in theta_factors(key[0], below, *key[1:])[1]:
                if e < 0 or (e == 0 and k > 0):
                    e, k, c = -e, -k, gaussian_inverse(c)
                net[e, k, c] += p * n
    return sum(abs(n) for n in net.values())


class TestExpand:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_monomial(), max_size=2),
           st.lists(_factor(), min_size=1, max_size=5),
           _order_offsets, _window_lows, _window_widths)
    def test_equals_the_generic_inverse(self, monomials, factors, dq, dlo,
                                        width):
        _check_against_the_generic_inverse(monomials, factors, dq, dlo,
                                           width)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_monomial(), max_size=2),
           st.lists(_factor(), min_size=1, max_size=4),
           st.data(), _order_offsets, _window_lows, _window_widths)
    def test_mirrored_factors_cancel(self, monomials, factors, data, dq, dlo,
                                     width):
        # each mirror (the same e, k and c with the opposite power)
        # cancels a drawn factor, those moved into the lead (e < 0 or
        # e = 0 < k) too; the oracle multiplies and divides both
        picked = data.draw(st.lists(st.sampled_from(factors), min_size=1,
                                    max_size=3))
        mirrored = factors + [(e, k, c, -p) for e, k, c, p in picked]
        mirrored = data.draw(st.permutations(mirrored))
        q = _check_against_the_generic_inverse(monomials, mirrored, dq, dlo,
                                               width)
        # a mirror divides, so without a window the listing is refused
        # even where every divided factor cancels
        with pytest.raises(ValueError, match="need an x_window"):
            expand_rational(monomials, mirrored, q)

    def test_cancelled_division_still_needs_a_window_and_a_unit(self):
        # the checks run before anything cancels: a divided factor and
        # its mirror need a window, and a moved factor a unit c
        pair = [(1, 1, 1, -1), (1, 1, 1, 1)]
        with pytest.raises(ValueError, match="need an x_window"):
            expand_rational([], pair, 2)
        assert expand_rational([], pair, 2, (-2, 2)).terms() == [
            (0, 0, GaussianRational(1))]
        # the lattice still holds the exponents of the factors that
        # cancel
        half = [(F(1, 2), F(-1, 2), 1, p) for p in (1, -1)]
        got = expand_rational([], half, 2, (-2, 2))
        assert (got.q_den, got.x_den, got.c) == (
            2, 2, {(0, 0): GaussianRational(1)})
        two = GaussianRational(2)
        with pytest.raises(CoefficientRingError):
            expand_rational([], [(F(-1, 2), 1, two, 1),
                                 (F(-1, 2), 1, two, -1)], 2, (-2, 2))

    def test_characters_run_one_pass_per_net_power(self, monkeypatch):
        # a character's numerator and denominator thetas share most of
        # their two-term factors; every M = 1 character is a constant,
        # and all of its factors cancel
        ran = _passes_run(monkeypatch)
        for M in (1, 2, 3, 4):
            for sector in SECTORS:
                for sign in SIGNS:
                    for j in index_set(M, sector):
                        spec = CharacterSpec(M, j, sector, sign)
                        ran.clear()
                        character_series(spec, F(6))
                        want = _net_power_sum(character_ratio(spec), F(6))
                        assert len(ran) == want, spec
                        if M == 1:
                            assert want == 0

    def test_descending_geometric(self):
        # 1/(1 - x) = -x^-1 / (1 - x^-1) = -x^-1 - x^-2 - ...
        got = expand_rational([], [(0, 1, -1, -1)], 4, (F(-5), F(0)))
        assert got.terms() == [(0, F(-k), GaussianRational(-1))
                               for k in range(5, 0, -1)]

    def test_leading_coefficient_must_be_a_unit(self):
        two = GaussianRational(2)
        # a factor whose term leads is moved into the leading monomial,
        # and what stays of it is (1 + u/c), whichever its power
        for p in (1, -1):
            with pytest.raises(CoefficientRingError):
                expand_rational([], [(F(-1, 2), 1, two, p)], 2, (-2, 2))
        with pytest.raises(CoefficientRingError):
            expand_rational([(0, 0, two, -1)], [], 2, (-2, 2))
        # the same coefficient on a factor that stays, or on a multiplied
        # monomial, needs no inverse
        got = expand_rational([(0, 0, two, 1)], [(F(1, 2), 1, two, -1)],
                              1, (-2, 2))
        assert got.terms() == [(0, 0, two),
                               (F(1, 2), 1, GaussianRational(-4))]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_monomial(), max_size=2),
           st.lists(_factor(), min_size=1, max_size=4),
           st.integers(1, 6), st.integers(1, 4))
    def test_any_listing_lattice_gives_one_result(self, monomials, factors,
                                                  sq, sx):
        # the same product listed on a lattice sq x sx times finer lands
        # on the coarsest lattice that holds its exponents
        q, window = F(5, 2), (F(-3), F(2))
        want = expand_rational(monomials, factors, q, window)
        q_den, x_den = 4 * sq, 2 * sx
        fine = [[(int(e * q_den), int(k * x_den), GaussianRational.coerce(c),
                  p) for e, k, c, p in group] for group in (monomials,
                                                             factors)]
        got = expand(q_den, x_den, *fine, int(q * q_den),
                     (int(window[0] * x_den), int(window[1] * x_den)))
        assert (got.q_den, got.x_den, got.order_n, got.window_n, got.c) == (
            want.q_den, want.x_den, want.order_n, want.window_n, want.c)

    def test_constant_factor_and_windowless_division_rejected(self):
        with pytest.raises(ValueError):
            expand_rational([], [(0, 0, 1, 1)], 2)
        with pytest.raises(ValueError):
            expand_rational([], [(1, 1, 1, -1)], 2)
        # a product needs no window
        assert expand_rational([], [(1, 1, 1, 1)], 2).terms() == [
            (0, 0, GaussianRational(1)), (1, 1, GaussianRational(1))]


# ---------------------------------------------------------------------
# numeric evaluation and serialization
# ---------------------------------------------------------------------


class TestEvalNumeric:
    def test_monomial_value(self):
        mp.dps = 30
        s = mono(F(1, 2), F(-1), GaussianRational(0, 1), 9)
        tau = mpc("0.1", "1.3")
        z = mpc("0.07", "0.2")
        q = mp.e ** (2j * mp.pi * tau)
        x = mp.e ** (2j * mp.pi * z)
        want = 1j * q ** mp.mpf("0.5") * x ** -1
        assert abs(eval_numeric(s, tau, z) - want) < mp.mpf("1e-25")

    def test_eval_is_ring_homomorphism(self):
        mp.dps = 35
        # high trusted order, low-degree polynomials: products are exact
        a_terms = [(0, 0, 1), (1, 1, 2), (2, -1, GaussianRational(0, 1))]
        b_terms = [(0, 1, 3), (F(3, 2), 0, -1)]
        a, b = poly(50, *a_terms), poly(50, *b_terms)
        tau = mpc("0.05", "1.1")
        z = mpc("0.02", "0.15")
        va, vb = eval_numeric(a, tau, z), eval_numeric(b, tau, z)
        assert abs(eval_numeric(mul(a, b), tau, z) - va * vb) < mp.mpf("1e-28")
        assert abs(eval_numeric(poly(50, *a_terms, *b_terms), tau, z)
                   - (va + vb)) < mp.mpf("1e-28")


    @settings(max_examples=40, deadline=None)
    @given(q_den=st.sampled_from([1, 2, 8, 24]),
           x_den=st.sampled_from([1, 2, 6]),
           terms=st.dictionaries(
               st.tuples(st.integers(-12, 200), st.integers(-40, 40)),
               st.tuples(st.fractions(-9, 9, max_denominator=7),
                         st.integers(-3, 3)),
               min_size=1, max_size=30),
           window=st.none() | st.tuples(st.integers(-40, 0),
                                        st.integers(0, 40)),
           tau=st.tuples(st.floats(-0.5, 0.5), st.floats(0.3, 1.5)),
           z=st.tuples(st.floats(-0.5, 0.5), st.floats(-1.5, 1.5)))
    def test_matches_the_per_term_oracle(self, q_den, x_den, terms, window,
                                         tau, z):
        # within the stated 2^(1 - prec) sum |c q^e x^f| of the sum that
        # takes one exponential per term, run at twice the precision
        mp.dps = 40
        s = JacobiSeries(q_den, x_den, 200,
                         {k: GaussianRational(*v) for k, v in terms.items()},
                         window)
        tau, z = mpc(*tau), mpc(*z)
        got = eval_numeric(s, tau, z)
        with mp.workprec(2 * mp.prec):
            want = eval_numeric_per_term(s, tau, z)
            size = sum(abs(complex(v.re, v.im)) * abs(mp.exp(
                2j * mp.pi * (tau * qn / q_den + z * xn / x_den)))
                for (qn, xn), v in s.c.items())
        assert abs(got - want) <= mp.mpf(2) ** (1 - mp.prec) * size

    def test_empty_series_is_zero(self):
        assert eval_numeric(poly(3), mpc(0, 1), 0) == 0


class TestSerialization:
    def test_roundtrip_identity(self):
        s = restrict_window(
            poly(7, (F(1, 2), F(-3, 2), GaussianRational(F(1, 3), -2)),
                 (3, 0, 5)),
            (F(-5, 2), F(3, 2)))
        d = to_json_dict(s)
        t = from_json_dict(json.loads(dumps_canonical(d)))
        assert first_difference(s, t, s.q_order) is None
        assert t.q_order == s.q_order
        assert t.x_window == s.x_window
        assert to_json_dict(t) == d

    def test_json_literal(self):
        # int and Fraction parts, negative ones, and a window, as text
        s = restrict_window(
            poly(F(7, 2), (F(1, 2), F(-3, 2), GaussianRational(F(1, 3), -2)),
                 (1, 1, GaussianRational(F(-5, 4), F(7, 3))), (3, 0, 5)),
            (F(-5, 2), F(3, 2)))
        assert dumps_canonical(to_json_dict(s)) == (
            '{"q_den":2,"x_den":2,"q_order":"7/2","terms":['
            '{"q":1,"x":-3,"re":"1/3","im":"-2"},'
            '{"q":2,"x":2,"re":"-5/4","im":"7/3"},'
            '{"q":6,"x":0,"re":"5","im":"0"}],'
            '"x_window":["-5/2","3/2"]}')

    def test_canonical_dump_is_deterministic(self):
        s = poly(4, (0, 0, 1), (1, 2, GaussianRational(0, F(1, 2))))
        assert dumps_canonical(to_json_dict(s)) == \
            dumps_canonical(to_json_dict(s))
        # a decode/re-encode cycle restores the exact canonical bytes
        blob = dumps_canonical(to_json_dict(s))
        rebuilt = dumps_canonical(to_json_dict(from_json_dict(json.loads(blob))))
        assert rebuilt == blob
