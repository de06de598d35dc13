"""Unit tests for theta and eta builders, exact and numeric."""

import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpc

import oracles
import thetachar.mockpsi as mockpsi_module
import thetachar.qseries as qseries_module
import thetachar.theta as theta_module

from thetachar.characters import (CharacterSpec, character_ratio,
                                  dd_numerator, denominator,
                                  denominator_theta_form, nice_numerator)
from thetachar.qseries import (
    CoefficientRingError,
    GaussianRational,
    JacobiSeries,
    equal_to_order,
    eval_points,
    mul,
    product,
    scale_monomial,
    to_mpc,
)
from thetachar.mockpsi import (HALF, PsiParams, PsiPlan, phi_a11_numeric,
                               psi_plan)
from thetachar.modular import (default_points, denominator_numeric,
                               family_members)
from thetachar.suites import _m2_closed_ratio
from thetachar.theta import (
    DEFAULT_DPS,
    PassPlan,
    TailBoundError,
    ThetaPass,
    ThetaQuotient,
    theta_shifted,
    theta_sum,
)

from oracles import (binary_power, coefficient, cross_multiplied_equals,
                     eta_numeric, family_plan, family_values,
                     first_difference,
                     gated_stop_step,
                     mpf_stop_step, psi_numeric, q_valuation_bound,
                     quotient_expand, shifted_theta_sum, sides_equal,
                     subst_scale_tau, subst_scale_z, theta_factors,
                     theta_numeric, theta_read, truncate, walk_sums)

LABELS = ("00", "01", "10", "11")


# ---------------------------------------------------------------------
# exact series: frozen literals and cross-form agreement
# ---------------------------------------------------------------------


class TestExactSeries:
    def test_theta_00_low_order_literal(self):
        s = theta_shifted("00", 2, 1, 1, 0, 0)
        assert s.terms() == [
            (F(0), F(0), GaussianRational(1)),
            (HALF, F(-1), GaussianRational(1)),
            (HALF, F(1), GaussianRational(1)),
        ]

    def test_theta_11_low_order_literal(self):
        s = theta_shifted("11", 2, 1, 1, 0, 0)
        i = GaussianRational(0, 1)
        want = {
            (F(1, 8), HALF): i,
            (F(1, 8), -HALF): -i,
            (F(9, 8), F(3, 2)): -i,
            (F(9, 8), F(-3, 2)): i,
        }
        assert {(qe, xe): c for (qe, xe, c) in s.terms()} == want

    def test_theta_01_signs(self):
        s = theta_shifted("01", 3, 1, 1, 0, 0)
        assert coefficient(s, HALF, 1) == -1
        assert coefficient(s, 2, 2) == 1

    def test_theta_10_prefactor_trust(self):
        # the q^{1/8} prefactor costs no trust: the build is truncated to
        # exactly the requested order, with every term below it present
        s = theta_shifted("10", 3, 1, 1, 0, 0)
        assert s.q_order == F(3)
        assert coefficient(s, F(1, 8), HALF) == 1
        assert coefficient(s, F(1, 8), -HALF) == 1
        assert coefficient(s, F(9, 8), F(3, 2)) == 1
        assert coefficient(s, F(9, 8), F(-3, 2)) == 1

    @pytest.mark.parametrize("label", LABELS)
    def test_product_equals_sum(self, label):
        q = F(12)
        assert equal_to_order(theta_shifted(label, q, 1, 1, 0, 0),
                              theta_sum(label, q), q)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            theta_shifted("12", 4, 1, 1, 0, 0)
        with pytest.raises(ValueError):
            theta_sum("0", 4)


class TestEta:
    def test_pentagonal_coefficients(self):
        s = ThetaQuotient.eta(1).series(13)
        adj = F(1, 24)
        expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
        for n in range(13):
            assert coefficient(s, n + adj, 0) == expected.get(n, 0)

    def test_eta_cubed_scaled(self):
        s = ThetaQuotient.eta(2, 3).series(9)
        # eta^3 = sum (-1)^m (2m+1) q^{m(m+1)/2 + 1/8}, here at 2*tau
        assert coefficient(s, F(2, 8), 0) == 1
        assert coefficient(s, 2 + F(2, 8), 0) == -3
        assert coefficient(s, 6 + F(2, 8), 0) == 5
        e = ThetaQuotient.eta(1).series(F(9, 2))
        manual = truncate(subst_scale_tau(mul(mul(e, e), e), 2), 9)
        assert first_difference(s, manual, 9) is None


# ---------------------------------------------------------------------
# exact theta quotients
# ---------------------------------------------------------------------


@st.composite
def _quotient_factor(draw):
    """A theta with small shifts (valuation at least -1/2), or an eta
    power, to the power 1 or 2."""
    if draw(st.booleans()):
        factor = ThetaQuotient.eta(draw(st.integers(1, 3)),
                                   draw(st.integers(1, 2)))
    else:
        label = draw(st.sampled_from(LABELS))
        r_one = draw(st.sampled_from([F(0), HALF] if label[0] == "1"
                                     else [F(0), F(1, 4), HALF]))
        factor = ThetaQuotient.theta(
            label, draw(st.integers(1, 2)), draw(st.integers(1, 2)),
            F(draw(st.integers(-2, 2)), 2), r_one)
        if draw(st.booleans()):
            factor = factor * factor
    return factor


def _reference(quotient, order):
    """The den-free quotient multiplied out from factors built at order."""
    factors = [ser for key, n in quotient.num.items()
               for ser in [theta_module._factor_series(order, key)] * n]
    a, b, k = quotient.lead
    return scale_monomial(product(factors), a, b,
                          GaussianRational(1).times_i_power(k))


# (lhs, rhs) identities whose sides share no factor: the quadruple
# product, theta_11(tau, z + 1/2) = -theta_10 and the doubling formula
_IDENTITIES = (
    (ThetaQuotient.eta(1, 3) * ThetaQuotient.theta("11", 1, 2),
     ThetaQuotient(num=[theta_module.theta_key(lab) for lab in LABELS])),
    (ThetaQuotient.theta("11", 1, 1, 0, HALF),
     ThetaQuotient((0, 0, 2)) * ThetaQuotient.theta("10")),
    (ThetaQuotient.theta("00") * ThetaQuotient.theta("01")
     * ThetaQuotient.eta(2),
     ThetaQuotient.eta(1, 2) * ThetaQuotient.theta("01", 2, 2)),
)


@st.composite
def _pair_sharing_factors(draw):
    """(a, b, d): quotients a and b that share factors across and within
    their sides, with b = a D for a D = 1 + O(q^d) whose q^d term is
    nonzero, or D = 1 and d None."""
    a = ThetaQuotient((draw(st.sampled_from([F(-1, 2), F(0), F(3, 8)])),
                       draw(st.sampled_from([F(-1), F(0), HALF])),
                       draw(st.integers(0, 3))))
    b = a
    if draw(st.booleans()):
        lhs, rhs = draw(st.sampled_from(_IDENTITIES))
        a, b = (a * lhs, b * rhs) if draw(st.booleans()) else (a / lhs,
                                                               b / rhs)
    # a factor on both numerators, on both denominators, or over itself
    # on one side: the values stay equal
    for factor in draw(st.lists(_quotient_factor(), min_size=1,
                                max_size=3)):
        where = draw(st.integers(0, 3))
        if where == 0:
            a, b = a * factor, b * factor
        elif where == 1:
            a, b = a / factor, b / factor
        elif where == 2:
            a = a * factor / factor
        else:
            b = b * factor / factor
    kind = draw(st.sampled_from(["none", "theta", "eta"]))
    if kind == "none":
        return a, b, None
    if kind == "theta":
        # theta_0b(ts tau, z) = 1 -+ (x + 1/x) q^{ts/2} + ...
        ts = draw(st.integers(1, 2))
        perturb, d = ThetaQuotient.theta(draw(st.sampled_from(["00", "01"])),
                                         ts), F(ts, 2)
    else:
        # q^{-m/24} eta(m tau) = 1 - q^m + ...
        m = draw(st.integers(1, 3))
        perturb, d = (ThetaQuotient((F(-m, 24), 0, 0))
                      * ThetaQuotient.eta(m), F(m))
    return a, (b * perturb if draw(st.booleans()) else b / perturb), d


class TestThetaQuotient:
    @settings(deadline=None, max_examples=60)
    @given(factors=st.lists(_quotient_factor(), min_size=1, max_size=3),
           a=st.sampled_from([F(-1, 2), F(0), F(3, 8)]),
           b=st.sampled_from([F(-1), F(0), HALF]), k=st.integers(0, 3),
           q=st.sampled_from([F(1, 4), F(1), F(2), F(7, 2)]))
    def test_series_is_trusted_and_exact(self, factors, a, b, k, q):
        quotient = ThetaQuotient((a, b, k))
        for factor in factors:
            quotient = quotient * factor
        got = quotient.series(q)
        assert got.q_order >= q
        # every factor of the reference is trusted 3 past any shortfall
        # the (at most six) valuations down to -1/2 can cause
        want = _reference(quotient, q - a + 3)
        assert want.q_order >= q
        assert first_difference(got, want, q) is None
        v = quotient.valuation()
        low = min((qe for qe, _, _ in want.terms()), default=None)
        assert low == v or (v >= q and (low is None or low >= q))
        # and the quotient's one factor expansion agrees with the product
        assert equal_to_order(quotient.expand(q)[0], got, q)

    def test_cross_multiplies(self):
        th = ThetaQuotient.theta
        minus = ThetaQuotient((0, 0, 2))
        # theta_11(tau, z + 1/2) = -theta_10(tau, z), read both ways
        assert sides_equal(th("11", 1, 1, 0, HALF), minus * th("10"), 6)
        assert sides_equal(th("10") / th("11", 1, 1, 0, HALF), minus, 6)
        assert not sides_equal(th("11", 1, 1, 0, HALF), th("10"), 6)
        with pytest.raises(ValueError):
            (th("10") / th("11")).series(4)

    @settings(deadline=None, max_examples=80)
    @given(pair=_pair_sharing_factors(), at_shared=st.booleans(),
           nudge=st.sampled_from([F(-1, 48), F(0), F(1, 48)]))
    def test_cancelling_matches_cross_multiplying(self, pair, at_shared,
                                                  nudge):
        # cross-multiplied, a and b first differ at q^first; with X the
        # factors both sides share, the cancelled sides first differ at
        # first - v(X), which q puts just inside or just outside
        # [q - v(X), q): at its ends q - v(X) and q when nudge is 0
        a, b, d = pair
        lhs, rhs = a.num + b.den, b.num + a.den
        v_shared = ThetaQuotient(num=lhs & rhs).valuation()
        first = ThetaQuotient(a.lead, lhs).valuation() + (d or 0)
        q = first - (v_shared if at_shared else 0) + nudge
        want = d is None or q <= first
        assert cross_multiplied_equals(a, b, q) == want
        assert sides_equal(a, b, q) == want
        assert sides_equal(b, a, q) == want

    @pytest.mark.parametrize("label, pair", [
        ("11", lambda: (denominator("+", "NS"),
                        denominator_theta_form("+", "NS"))),
        ("10", lambda: (nice_numerator(3, 1, "I", "+", False),
                        character_ratio(CharacterSpec(3, F(3, 2), "NS", "+"))
                        * denominator("+", "NS"))),
    ])
    def test_wrong_valuation_raises(self, monkeypatch, label, pair):
        # a valuation 1/8 too high on one label misplaces every order the
        # comparison computes; it must raise, never compare
        real = theta_module._key_valuation
        compared = []
        monkeypatch.setattr(
            theta_module, "_key_valuation",
            lambda key: real(key) + (F(1, 8) if key[0] == label else 0))
        monkeypatch.setattr(oracles, "equal_to_order",
                            lambda *args: compared.append(args))
        theta_shifted.cache_clear()
        try:
            lhs, rhs = pair()
            with pytest.raises(AssertionError):
                sides_equal(lhs, rhs, F(6))
        finally:
            theta_shifted.cache_clear()
        assert compared == []

    def test_each_theta_is_built_at_one_order_per_comparison(self,
                                                            monkeypatch):
        built = []
        real = theta_module._factor_series

        def recording(order, key):
            built.append((key, order))
            return real(order, key)

        monkeypatch.setattr(theta_module, "_factor_series", recording)
        # in these comparisons some factor is on both sides, where the two
        # sides would build it at different orders: it cancels, and each
        # factor left is built once
        pairs = [(_m2_closed_ratio(c, j, s),
                  character_ratio(CharacterSpec(2, j, c, s)))
                 for c, j in (("NS", HALF), ("NS", -HALF), ("R", F(1)))
                 for s in "+-"]
        pairs += [(dd_numerator(M, k1, M - 1 - 2 * k1, heart, "-", tw),
                   nice_numerator(M, k1, heart, "-", tw))
                  for M, k1, heart, tw in [(2, 0, "I", False),
                                           (2, 0, "III", True),
                                           (3, 1, "I", False)]]
        for lhs, rhs in pairs:
            built.clear()
            assert sides_equal(lhs, rhs, F(8))
            orders = {}
            for key, order in built:
                orders.setdefault(key, set()).add(order)
            assert orders and all(len(o) == 1 for o in orders.values())

    def test_cached_series_are_read_only(self):
        for ser in (theta_shifted("11", 4, 2, 1, HALF),
                    theta_module._factor_series(F(5), ("eta", 2)),
                    theta_sum("00", 4),
                    JacobiSeries.one(3)):
            key = next(iter(ser.c))
            with pytest.raises(TypeError):
                ser.c[key] = GaussianRational(7)
            with pytest.raises(TypeError):
                del ser.c[key]


# ---------------------------------------------------------------------
# numeric oracles
# ---------------------------------------------------------------------


# ---------------------------------------------------------------------
# the int listing against the Fraction listing
# ---------------------------------------------------------------------


@st.composite
def _listed_key(draw, valid=False):
    """("eta", m), or a theta key: labels x tau_scale 1-5 x z_scale 1-3
    x r_tau = p/d for d in 1, 2, 3, 4, 8 x r_one in quarters (in halves
    for a = 1 if valid, where a quarter raises)."""
    if draw(st.integers(0, 4)) == 0:
        return ("eta", draw(st.integers(1, 4)))
    label = draw(st.sampled_from(LABELS))
    d = draw(st.sampled_from([1, 2, 3, 4, 8]))
    quarters = draw(st.integers(0, 3))
    if valid and label[0] == "1":
        quarters -= quarters % 2
    return theta_module.theta_key(
        label, draw(st.integers(1, 5)), draw(st.integers(1, 3)),
        F(draw(st.integers(-2 * d, 2 * d)), d), F(quarters, 4))


def _expansion(expand, quotient, q, window):
    """expand(quotient, q, window) with every part of its lattice, or the
    type of what it raised."""
    try:
        ser = expand(quotient, q, window)
    except (CoefficientRingError, AssertionError) as exc:
        return type(exc)
    return ser.q_den, ser.x_den, ser.order_n, ser.window_n, dict(ser.c)


def _quotient_series(quotient, q, window):
    """The series of quotient.expand(q, window), which returns (series,
    valuation)."""
    return quotient.expand(q, window)[0]


def _lead_x(quotient, q):
    """The x-exponent of the lead of quotient.expand(q, .): the
    quotient's, its thetas' prefactors' and their factors' that lead
    (e < 0, or e = 0 < k)."""
    below = max(1, q - quotient.valuation())
    x = quotient.lead[1]
    for part, p in ((quotient.num, 1), (quotient.den, -1)):
        for key, n in part.items():
            if key[0] != "eta":
                (_, pre_x, _), more = theta_factors(key[0], below, *key[1:])
                x += p * n * (pre_x + sum(k for e, k, _ in more
                                          if e < 0 or (e == 0 and k > 0)))
    return x


# orders as offsets above the valuation, so that most draws have terms
_ABOVE = st.sampled_from([F(1, 2), F(1), F(5, 2), F(4)])


class TestIntListing:
    @settings(deadline=None, max_examples=80)
    @given(key=_listed_key(), dq=_ABOVE)
    def test_one_factor_matches_the_fraction_listing(self, key, dq):
        quotient = ThetaQuotient(num={key: 1})
        try:
            v = theta_module._key_valuation(key)
        except CoefficientRingError:
            # a key outside Q(i) has no valuation and no expansion
            assert _expansion(_quotient_series, quotient, dq,
                              None) is CoefficientRingError
            with pytest.raises(CoefficientRingError):
                theta_factors(key[0], 1, *key[1:])
            return
        got = _expansion(_quotient_series, quotient, v + dq, None)
        assert got == _expansion(quotient_expand, quotient, v + dq, None)
        # the Fraction listing's prefactor and the factors that dip below
        # q^0 carry the exact valuation
        if key[0] == "eta":
            assert v == F(key[1], 24)
        else:
            (pre_q, _, _), more = theta_factors(key[0], 1, *key[1:])
            assert v == pre_q + sum(min(0, e) for e, _, _ in more)

    @settings(deadline=None, max_examples=60)
    @given(num=st.lists(_listed_key(valid=True), min_size=1, max_size=3),
           den=st.lists(_listed_key(valid=True), min_size=1, max_size=2),
           a=st.sampled_from([F(-1, 3), F(0), F(3, 8)]),
           b=st.sampled_from([F(-1), F(0), F(1, 3)]), k=st.integers(0, 3),
           dq=_ABOVE, dlo=st.sampled_from([F(-5, 2), F(-1), F(0)]),
           width=st.sampled_from([F(5, 2), F(4), F(6)]))
    def test_quotients_match_the_fraction_listing(self, num, den, a, b, k,
                                                  dq, dlo, width):
        # the window holds the lead's x-exponent
        quotient = ThetaQuotient((a, b, k), num, den)
        q = quotient.valuation() + dq
        lo = _lead_x(quotient, q) + dlo
        window = (lo, lo + width)
        got = _expansion(_quotient_series, quotient, q, window)
        assert got == _expansion(quotient_expand, quotient, q, window)


class TestNumericOracles:
    def test_eta_at_i_classic_value(self):
        mp.dps = DEFAULT_DPS
        want = mp.gamma(F(1, 4)) / (2 * mp.pi ** F(3, 4))
        assert abs(eta_numeric(mpc(0, 1)) - want) < mp.mpf("1e-35")

    @pytest.mark.parametrize("label,idx,sign", [
        ("00", 3, 1), ("01", 4, 1), ("10", 2, 1), ("11", 1, -1),
    ])
    def test_theta_numeric_against_mpmath_jtheta(self, label, idx, sign):
        mp.dps = 30
        for tau, z in [(mpc("0.1", "1.2"), mpc("0.31", "0.07")),
                       (mpc("-0.2", "0.8"), mpc("-0.11", "0.23"))]:
            nome = mp.e ** (1j * mp.pi * tau)
            want = sign * mp.jtheta(idx, mp.pi * z, nome)
            assert abs(theta_numeric(label, tau, z) - want) < mp.mpf("1e-24")

    @pytest.mark.parametrize("label", LABELS)
    def test_series_evaluates_to_numeric_theta(self, label):
        mp.dps = 35
        tau = mpc("0.07", "1.3")
        z = mpc("0.21", "0.12")
        s = theta_shifted(label, 12, 1, 1, 0, 0)
        got = eval_points(s, [(tau, z)])[0]
        assert abs(got - theta_numeric(label, tau, z)) < mp.mpf("1e-28")

    def test_eta_series_evaluates_to_numeric_eta(self):
        mp.dps = 35
        tau = mpc("0.11", "1.5")
        got = eval_points(ThetaQuotient.eta(1).series(10), [(tau, 0)])[0]
        assert abs(got - eta_numeric(tau)) < mp.mpf("1e-28")


JTHETA = {"00": (3, 1), "01": (4, 1), "10": (2, 1), "11": (1, -1)}

theta_args = dict(
    label=st.sampled_from(LABELS),
    re_tau=st.floats(-0.9, 0.9),
    im_tau=st.floats(0.3, 5),
    re_z=st.floats(-1, 1),
    im_z=st.floats(-1.5, 1.5),
)


# the thetas that psi_numeric evaluates: theta_11 at (M tau, z + (j + k) tau)
# with (j + k)/M = jk/2 in [0, 2], so Im z reaches 2 Im(M tau) and terms
# reach about e^{4 pi M Im tau}; Re(M tau) is drawn directly, inside the
# range where mp.jtheta's principal nome root is the right one
psi_theta_args = dict(
    label=st.sampled_from(LABELS),
    M=st.integers(1, 4),
    re_tau=st.floats(-0.9, 0.9),
    im_tau=st.floats(0.3, 1.2),
    re_z=st.floats(-0.5, 0.5),
    im_z=st.floats(-0.1, 0.1),
    jk=st.integers(0, 4),
)


def _psi_theta_point(M, re_tau, im_tau, re_z, im_z, jk):
    tau = mpc(re_tau, M * im_tau)
    return tau, mpc(re_z, im_z) + F(jk, 2) * tau


def rounding_excess(label, tau, z):
    """|theta_numeric - mp.jtheta at twice the precision| over the
    documented error bound abs_err + 2^-prec (|theta| + max(1, T)),
    T = e^{pi Im(z)^2 / Im(tau)}, at the default abs_err 2^-prec."""
    prec = mp.prec
    got = theta_numeric(label, tau, z)
    abs_err = mp.ldexp(1, -prec)
    idx, sign = JTHETA[label]
    with mp.workprec(2 * prec):
        want = sign * mp.jtheta(idx, mp.pi * z, mp.exp(1j * mp.pi * tau))
        big = max(1, mp.exp(mp.pi * mp.im(z) ** 2 / mp.im(tau)))
        return abs(got - want) / (abs_err + mp.ldexp(abs(want) + big, -prec))


def check_stop_step(label, tau, z, abs_err):
    """The float step count is never below the mpf stop rule's."""
    abs_err = mp.mpf(abs_err)
    want = mpf_stop_step(label, tau, z, abs_err)
    got = theta_module._stop_step(int(label[0]), float(tau.imag),
                                  float(z.imag), float(mp.log(abs_err)))
    assert want is not None and got >= want


class TestRecurrenceSum:
    @settings(deadline=None, max_examples=80)
    @given(**theta_args)
    def test_matches_mpmath_jtheta(self, label, re_tau, im_tau, re_z, im_z):
        mp.dps = 30
        assert rounding_excess(label, mpc(re_tau, im_tau),
                               mpc(re_z, im_z)) < 1

    @settings(deadline=None, max_examples=60)
    @given(**psi_theta_args)
    def test_matches_mpmath_jtheta_at_psi_arguments(self, label, M, re_tau,
                                                    im_tau, re_z, im_z, jk):
        mp.dps = DEFAULT_DPS
        tau, z = _psi_theta_point(M, re_tau, im_tau, re_z, im_z, jk)
        assert rounding_excess(label, tau, z) < 1

    def test_damaged_kernel_breaks_the_bound(self, monkeypatch):
        mp.dps = 30
        small = [("00", mpc("0.1", "1.2"), mpc("0.31", "0.07")),
                 ("11", mpc("-0.2", "0.8"), mpc("-0.11", "0.23")),
                 ("10", mpc("0.3", "0.5"), mpc("0.2", "-0.4")),
                 ("01", mpc("0.05", "2"), mpc("0.4", "0.6"))]
        # terms up to e^{49} here
        large = ("11", mpc("0.8", "4"), mpc("0.1", "7.9"))
        for point in small + [large]:
            assert rounding_excess(*point) < 1
        stop = theta_module._stop_step
        monkeypatch.setattr(theta_module, "_stop_step",
                            lambda *args: stop(*args) - 1)
        for point in small:
            assert rounding_excess(*point) > 1
        monkeypatch.setattr(theta_module, "_stop_step", stop)
        monkeypatch.setattr(theta_module, "_guard_bits", lambda *args: 0)
        assert rounding_excess(*large) > 1

    @settings(deadline=None, max_examples=80)
    @given(abs_err=st.sampled_from(["1e-8", "1e-35", "1e-60"]), **theta_args)
    def test_stop_step_never_below_the_mpf_rule(self, abs_err, label, re_tau,
                                                im_tau, re_z, im_z):
        mp.dps = DEFAULT_DPS
        check_stop_step(label, mpc(re_tau, im_tau), mpc(re_z, im_z), abs_err)

    @settings(deadline=None, max_examples=80)
    @given(abs_err=st.sampled_from(["1e-8", "1e-35", "1e-60"]),
           **psi_theta_args)
    def test_stop_step_never_below_the_mpf_rule_at_psi_arguments(
            self, abs_err, label, M, re_tau, im_tau, re_z, im_z, jk):
        mp.dps = DEFAULT_DPS
        tau, z = _psi_theta_point(M, re_tau, im_tau, re_z, im_z, jk)
        check_stop_step(label, tau, z, abs_err)

    @settings(deadline=None, max_examples=400)
    @given(a=st.integers(0, 1), y=st.floats(1e-7, 20),
           u=st.floats(-40, 40), log_err=st.floats(-400, 5))
    def test_stop_step_matches_the_gated_start(self, a, y, u, log_err):
        # the closed-form start never passes the step the rule stops at,
        # and where y is too small for the term budget both raise
        try:
            want = gated_stop_step(a, y, u, log_err)
        except TailBoundError:
            with pytest.raises(TailBoundError):
                theta_module._stop_step(a, y, u, log_err)
            return
        assert theta_module._stop_step(a, y, u, log_err) == want

    def test_term_cap_raises(self):
        # the ratio gate alone needs about 1.7e7 terms here, so the cap
        # is known to be out of reach before the sum starts
        mp.dps = 30
        start = time.perf_counter()
        with pytest.raises(TailBoundError):
            theta_numeric("00", mpc(0, "1e-9"), 0)
        assert time.perf_counter() - start < 0.2


def jtheta_ab(a, b, tau, v):
    """theta_ab(tau, v) by mp.jtheta, whose q^{1/4} for a = 1 is the
    principal root of e^{pi i tau}: turned back to e^{pi i tau/4}."""
    idx, sign = JTHETA["%d%d" % (a, b)]
    nome = mp.exp(1j * mp.pi * tau)
    value = sign * mp.jtheta(idx, mp.pi * v, nome)
    if a:
        value *= mp.exp(1j * mp.pi * tau / 4) / mp.nthroot(nome, 4)
    return value


def pass_excess(tp, request, prec):
    """For one ThetaPass request: the excess of its value over the
    documented bound 2^-prec (1 + |theta| + max(1, T)) against
    mp.jtheta at twice the precision (tail bound 2^-prec), and its
    distance to theta_numeric over twice that bound plus what rounding
    m tau and the argument to prec bits, as theta_numeric does, moves
    the value."""
    a, b, m, w, e = request
    got = to_mpc(tp.theta(request))
    with mp.workprec(2 * prec):
        tau = tp.coords[0]
        v = (w[0] * tau / 2 + sum(k * z for k, z in zip(w[1:], tp.coords[1:]))
             + mp.mpf(e) / 2)
        want = jtheta_ab(a, b, m * tau, v)
        big = max(1, mp.exp(mp.pi * mp.im(v) ** 2 / mp.im(m * tau)))
        bound = mp.ldexp(1 + abs(want) + big, -prec)
    with mp.workprec(prec):
        single = theta_numeric("%d%d" % (a, b), m * tau, v)
        rounded = mp.mpc(m * tau), mp.mpc(v)
    with mp.workprec(2 * prec):
        moved = abs(jtheta_ab(a, b, *rounded) - want)
        return (abs(got - want) / bound,
                abs(got - single) / (2 * bound + moved))


def check_pass(tp, requests):
    for request in set(requests):
        to_oracle, to_single = pass_excess(tp, request, mp.prec)
        assert to_oracle < 1, request
        assert to_single < 1, request


class TestThetaPass:
    @settings(deadline=None, max_examples=25)
    @given(M=st.integers(1, 6), statement=st.sampled_from([1, 2]),
           seed=st.integers(0, 200), image=st.sampled_from(["", "S", "T"]))
    def test_family_thetas_match_single_path_and_jtheta(self, M, statement,
                                                         seed, image):
        # every theta, eta and denominator walk a span point side plans
        mp.dps = DEFAULT_DPS
        p = default_points(1, diagonal=True, seed=seed)[0]
        tau, z = mpc(p.tau), mpc(p.z1)
        tau, z = {"": (tau, z), "S": (-1 / tau, z / tau),
                  "T": (tau + 1, z)}[image]
        requests = [r for (eps, eps_p), (j1, j2)
                    in family_members(M, statement)
                    for r in psi_plan(PsiParams(M, j1, j2, eps, eps_p),
                                      (1,), (1,))[0]]
        requests += [(int(lab[0]), int(lab[1]), 1, (0, 1), 0)
                     for lab in LABELS]
        check_pass(ThetaPass((tau, z), PassPlan(requests)), requests)

    @settings(deadline=None, max_examples=40)
    @given(M=st.integers(1, 6), eps=st.sampled_from([F(0), HALF]),
           eps_p=st.sampled_from([F(0), HALF]), j=st.integers(-6, 6),
           k=st.integers(-6, 6), seed=st.integers(0, 200))
    def test_block_thetas_at_general_arguments(self, M, eps, eps_p, j, k,
                                               seed):
        mp.dps = DEFAULT_DPS
        p = default_points(1, seed=seed)[0]
        params = PsiParams(M, eps_p + j, eps_p + k, eps, eps_p)
        requests = psi_plan(params, (1, 0), (0, 1))[0]
        coords = (mpc(p.tau), mpc(p.z1), mpc(p.z2))
        check_pass(ThetaPass(coords, PassPlan(requests)), requests)
        # the block itself, t included, against the closed form on
        # mp.jtheta and mp.qp at twice the precision
        got = psi_numeric(params, p.tau, p.z1, p.z2, p.t)
        with mp.workprec(2 * mp.prec):
            tau, z1, z2, t = (mpc(v) for v in (p.tau, p.z1, p.z2, p.t))
            jj, kk, e = (mp.mpf(f.numerator) / f.denominator
                         for f in (params.j, params.k, params.eps))

            def th11(v):
                return jtheta_ab(1, 1, M * tau, v)

            eta = (mp.exp(2j * mp.pi * M * tau / 24)
                   * mp.qp(mp.exp(2j * mp.pi * M * tau)))
            want = (-1j * mp.exp(2j * mp.pi * (tau * jj * kk + kk * z1
                                               + jj * z2 - t) / M)
                    * eta ** 3 * th11(z1 + z2 + (jj + kk) * tau)
                    / (th11(z1 + jj * tau + e) * th11(z2 + kk * tau - e)))
        # each theta is within 2^-prec (2 + 2T) of its value
        rel = 0
        for r in requests[:3]:
            a, b, m, w, _ = r
            v = w[0] * coords[0] / 2 + w[1] * coords[1] + w[2] * coords[2]
            big = max(1, mp.exp(mp.pi * mp.im(v) ** 2 / mp.im(m * coords[0])))
            rel += 2 * big / abs(th11(v))
        assert abs(got - want) < abs(want) * mp.ldexp(rel + 16, -mp.prec)

    def test_damaged_kernel_breaks_the_bound(self, monkeypatch):
        # the inward ratio as a fixed-point quotient of the tiny outward
        # one, |r_pos| about 2^-120 here, loses its digits
        mp.dps = DEFAULT_DPS
        tau, z = mpc("0.1", "1.2"), mpc("0.13", "0.004")
        request = (1, 1, 6, (10, 1), 0)        # theta_11(6 tau, z + 5 tau)
        assert pass_excess(ThetaPass((tau, z), PassPlan([request])), request,
                           mp.prec)[0] < 1
        walk = theta_module._walk

        def quotient_walk(n, t_pos, r_pos, t_neg, r_neg, q2, wp):
            def mul(x, y):
                return ((x[0] * y[0] - x[1] * y[1]) >> wp,
                        (x[0] * y[1] + x[1] * y[0]) >> wp)
            den = r_pos[0] ** 2 + r_pos[1] ** 2
            inward = (((q2[0] * r_pos[0] + q2[1] * r_pos[1]) << wp) // den,
                      ((q2[1] * r_pos[0] - q2[0] * r_pos[1]) << wp) // den)
            return walk(n, t_pos, r_pos, mul(t_pos, inward),
                        mul(inward, q2), q2, wp)

        monkeypatch.setattr(theta_module, "_walk", quotient_walk)
        assert pass_excess(ThetaPass((tau, z), PassPlan([request])), request,
                           mp.prec)[0] > 1

    def test_each_distinct_theta_is_walked_once(self, monkeypatch):
        # one walk per (a, m, w): the four theta_ab(tau, z) take two, the
        # shifts by eps and the two denominators of a block share theirs
        walk = theta_module._walk
        walked = []

        def counted(*args):
            walked.append(args)
            return walk(*args)

        monkeypatch.setattr(theta_module, "_walk", counted)
        mp.dps = DEFAULT_DPS
        tau, z = mpc("0.1", "1.1"), mpc("0.13", "0.01")
        members = family_members(3, 1)
        family_values(3, members, tau, z)
        sums = {j1 + j2 for _, (j1, j2) in members}
        singles = {j for _, pair in members for j in pair}
        # theta_0b and theta_1b (tau, z), eta, the numerators, and the
        # denominators
        assert len(walked) == 3 + len(sums) + len(singles) == 15
        walked.clear()
        denominator_numeric("+", "NS", tau, z)
        assert len(walked) == 2
        walked.clear()
        psi_numeric(PsiParams(2, 1, 1, 0, 0), tau, z, z, 0)
        assert len(walked) == 3

    @settings(deadline=None, max_examples=60)
    @given(M=st.integers(1, 4), statement=st.sampled_from([1, 2]),
           seed=st.integers(0, 200), n=st.integers(-64, 64),
           kind=st.sampled_from(["nome", "tau", "z"]), m=st.integers(1, 12))
    def test_power_table_matches_binary_powering(self, M, statement, seed,
                                                 n, kind, m):
        # a power read from the shared root's table against binary
        # powering of its own mpmath exponential: both are within
        # L 2^(4 - wp) of e^{pi i n c x} for the L = |n| p D/d roots the
        # entry takes, so within L 2^(5 - wp) of each other
        assume(n)
        mp.dps = DEFAULT_DPS
        p = default_points(1, diagonal=True, seed=seed)[0]
        coords = (mpc(p.tau), mpc(p.z1))
        b = {"nome": (0, m, 4), "tau": (0, 1, 2 * M),
             "z": (1, 1, M)}[kind]
        members = family_members(M, statement)
        plan = PassPlan(family_plan(M, members).plan.requests,
                        [psi_plan(PsiParams(M, j1, j2, *block), (1,),
                                  (1,))[1]
                         for block, (j1, j2) in members] + [[(b, n)]])
        tp = ThetaPass(coords, plan)
        (_, k), = plan.prefactors[-1]
        roots = abs(k)
        got = tp.read(plan.prefactors[-1])
        want = binary_power(coords[b[0]], F(b[1], b[2]), n, tp.wp)
        with mp.workprec(2 * tp.wp):
            rel = abs(to_mpc(got) - to_mpc(want)) / abs(to_mpc(want))
            assert rel < roots * mp.ldexp(1, 5 - tp.wp)
            # and the table's entry is e^{pi i n c x} itself
            exact = mp.exp(1j * mp.pi * n * b[1] * coords[b[0]] / b[2])
            assert abs(to_mpc(got) / exact - 1) < \
                roots * mp.ldexp(1, 4 - tp.wp)

    def test_compiled_walks_match_per_walk_inputs(self):
        # each distinct product evaluated once and shared by the walks
        # that take it gives every walk the sums it has when fed its own
        # five inputs, bit for bit: the six benchmark families, the
        # denominators' plan and an off-diagonal block, at three points
        mp.dps = DEFAULT_DPS
        plans = [(family_plan(M, family_members(M, st)).plan, True)
                 for M, st in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2),
                               (4, 2))]
        plans += [(mockpsi_module._DEN_PLAN, True),
                  (PsiPlan([PsiParams(3, HALF + 1, -HALF, HALF, HALF)],
                           False).plan, False)]
        for plan, diagonal in plans:
            assert len(plan.products) < sum(map(len, plan.inputs))
            for p in default_points(3, diagonal=diagonal, seed=5):
                coords = (mpc(p.tau), mpc(p.z1))
                tp = ThetaPass(coords if diagonal else coords + (mpc(p.z2),),
                               plan)
                assert tp._sums == walk_sums(tp)

    def test_each_read_matches_parity_and_quarter_turns(self):
        # every a, b and e, read from the pass's own walk sums
        mp.dps = DEFAULT_DPS
        requests = [(a, b, m, (w, 1), e) for a in (0, 1) for b in (0, 1)
                    for m, w in ((1, 0), (3, 2)) for e in range(-5, 6)]
        tp = ThetaPass((mpc("0.1", "1.1"), mpc("0.13", "0.2")),
                       PassPlan(requests))
        for r in requests:
            walk = tp.plan.walks.index((r[0], r[2], r[3]))
            assert tp.theta(r) == theta_read(tp._sums[walk], r) + (-tp.wp,)

    def test_one_exponential_per_coordinate(self, monkeypatch):
        # a family pass takes one exponential for tau and one for z,
        # whatever bases its thetas and prefactors name
        exp = qseries_module.mpc_exp
        taken = []

        def counted(*args):
            taken.append(args)
            return exp(*args)

        monkeypatch.setattr(qseries_module, "mpc_exp", counted)
        mp.dps = DEFAULT_DPS
        family_values(4, family_members(4, 2), mpc("0.1", "1.1"),
                      mpc("0.13", "0.01"))
        assert len(taken) == 2

    def test_every_exponential_is_one_root(self, monkeypatch):
        # qseries._root takes the exponentials of every numeric path: Q and
        # X in eval_points, one per coordinate in a pass, and the eight
        # bases of the Appell sum
        root = qseries_module._root
        calls = []

        def counted(x, d, wp):
            calls.append(d)
            return root(x, d, wp)

        for module in (qseries_module, theta_module, mockpsi_module):
            monkeypatch.setattr(module, "_root", counted)
        mp.dps = DEFAULT_DPS
        p = default_points(1, seed=13)[0]
        tau, z = mpc(p.tau), mpc(p.z1)
        counts = []
        for run in (lambda: eval_points(theta_shifted("10", 4), [(tau, z)])[0],
                    lambda: family_values(4, family_members(4, 2), tau, z),
                    lambda: psi_numeric(PsiParams(2, 1, 1, 0, 0), p.tau,
                                        p.z1, p.z2, 0),
                    lambda: phi_a11_numeric(1, 1, p.tau, p.z1, p.z2, p.t)):
            calls.clear()
            run()
            counts.append(len(calls))
        assert counts == [2, 2, 3, 8]


# ---------------------------------------------------------------------
# shifted/rescaled theta builder
# ---------------------------------------------------------------------


class TestThetaShifted:
    @pytest.mark.parametrize("label", LABELS)
    def test_unshifted_matches_product_form(self, label):
        a = theta_shifted(label, 7)
        b = theta_sum(label, 7)
        assert equal_to_order(a, b, 7)

    def test_pure_tau_scale_matches_substitution(self, label="01"):
        direct = theta_shifted(label, 10, 3, 1, 0, 0)
        via_subst = truncate(subst_scale_tau(theta_sum(label, 4), 3), 10)
        assert first_difference(direct, via_subst, 10) is None

    def test_pure_z_scale_matches_substitution(self):
        direct = theta_shifted("00", 6, 1, 3, 0, 0)
        via_subst = subst_scale_z(theta_sum("00", 6), 3)
        assert first_difference(direct, via_subst, 6) is None

    def test_half_period_shift_swaps_labels(self):
        # theta_00(tau, z + 1/2) = theta_01(tau, z)
        a = theta_shifted("00", 8, 1, 1, 0, HALF)
        assert equal_to_order(a, theta_sum("01", 8), 8)

    def test_tau_half_shift_conjugates(self):
        # theta_00(tau, z + tau/2) = q^{-1/8} x^{-1/2} theta_10(tau, z)
        a = theta_shifted("00", 5, 1, 1, HALF, 0)
        b = scale_monomial(theta_sum("10", 6), -F(1, 8), -HALF, 1)
        assert equal_to_order(a, b, 5)

    @pytest.mark.parametrize("label,q,ts,zs,rt,ro", [
        ("00", F(6), 1, 1, F(1, 2), F(0)),
        ("00", F(6), 1, 1, F(0), F(1, 4)),
        ("01", F(7), 2, 1, F(1), F(1, 2)),
        ("10", F(6), 2, 2, F(3, 2), F(0)),
        ("11", F(6), 1, 1, F(1), F(1, 2)),
        ("11", F(57, 8), 4, 2, F(3), F(0)),
        ("11", F(8), 3, 2, F(2), F(0)),
        ("11", F(9), 2, 2, F(5, 2), F(1, 2)),
        ("10", F(31, 4), 5, 1, F(4), F(0)),
    ])
    def test_matches_lattice_sum_oracle_exactly(self, label, q, ts, zs, rt, ro):
        got = theta_shifted(label, q, ts, zs, rt, ro)
        want = shifted_theta_sum(label, q, ts, zs, rt, ro)
        assert got.q_order >= q
        assert first_difference(got, want, q) is None

    def test_deep_shift_regression_trust_is_honest(self):
        # a large tau rescale combined with a deep z shift: the first
        # omitted x column of the finite product starts exactly at the
        # truncation boundary, so any support-extrapolation shortcut
        # misses real terms around q^5 -- build and compare exactly
        got = theta_shifted("11", F(57, 8), 4, 2, 3, 0)
        want = shifted_theta_sum("11", F(57, 8), 4, 2, 3, 0)
        assert first_difference(got, want, F(57, 8)) is None
        # and a rebuild at higher order truncates back to the same series
        deeper = truncate(theta_shifted("11", F(89, 8), 4, 2, 3, 0), F(57, 8))
        assert first_difference(got, deeper, F(57, 8)) is None

    def test_one_product_per_cache_miss(self, monkeypatch):
        # the valuation is known before the build, so each build is
        # exactly one factor expansion, deep shifts included
        expansions = []
        real = theta_module.expand

        def counting(*args, **kwargs):
            expansions.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(theta_module, "expand", counting)
        theta_shifted.cache_clear()
        for args in [("00", F(6), 1, 1, HALF, 0), ("11", F(57, 8), 4, 2, 3, 0),
                     ("10", F(31, 4), 5, 1, 4, 0), ("01", F(7), 2, 1, -2, 0),
                     ("11", F(9), 2, 2, F(5, 2), HALF)]:
            theta_shifted(*args)
            theta_shifted(*args)
        assert len(expansions) == theta_shifted.cache_info().misses == 5

    @settings(deadline=None, max_examples=100)
    @given(label=st.sampled_from(LABELS), ts=st.integers(1, 4),
           zs=st.integers(1, 2), rt2=st.integers(-16, 16),
           ro4=st.integers(0, 3), q4=st.integers(1, 40))
    def test_matches_shifted_lattice_sum(self, label, ts, zs, rt2, ro4, q4):
        # every label, scale and shift, against a sum over the index
        # lattice that shares no code with the product form
        rt, ro, q = F(rt2, 2), F(ro4, 4), F(q4, 4)
        try:
            want = shifted_theta_sum(label, q, ts, zs, rt, ro)
        except CoefficientRingError:
            with pytest.raises(CoefficientRingError):
                theta_shifted(label, q, ts, zs, rt, ro)
            return
        got = theta_shifted(label, q, ts, zs, rt, ro)
        assert got.q_order == q
        assert got.terms() == want.terms()

    @settings(deadline=None, max_examples=60)
    @given(label=st.sampled_from(LABELS), ts=st.integers(1, 4),
           zs=st.integers(1, 2), rt2=st.integers(-16, 16),
           ro4=st.integers(0, 3), q2=st.integers(1, 12))
    def test_truncates_from_a_deeper_build(self, label, ts, zs, rt2, ro4,
                                           q2):
        # an under-padded build would lose terms that the deeper build
        # keeps, whatever rule chose the padding
        assume(abs(rt2) <= 4 * ts)
        assume(label[0] == "0" or ro4 % 2 == 0)
        rt, ro, q = F(rt2, 2), F(ro4, 4), F(q2, 2)
        got = theta_shifted(label, q, ts, zs, rt, ro)
        deeper = truncate(theta_shifted(label, q + 2, ts, zs, rt, ro), q)
        assert got.q_order == q
        assert got.terms() == deeper.terms()

    @settings(deadline=None, max_examples=60)
    @given(label=st.sampled_from(LABELS), ts=st.integers(1, 4),
           zs=st.integers(1, 2), rt2=st.integers(-16, 16),
           ro4=st.integers(0, 3))
    def test_valuation_is_exact(self, label, ts, zs, rt2, ro4):
        # the helper character_series pads with never builds the series
        assume(label[0] == "0" or ro4 % 2 == 0)
        rt, ro = F(rt2, 2), F(ro4, 4)
        built = theta_shifted(label, 3, ts, zs, rt, ro)
        assert (ThetaQuotient.theta(label, ts, zs, rt, ro).valuation()
                == q_valuation_bound(built))

    def test_cache_key_is_the_value(self):
        # three spellings of one series are one cache entry
        theta_shifted.cache_clear()
        a = theta_shifted("00", F(4))
        b = theta_shifted("00", F(4), 1, 1, 0, 0)
        c = theta_shifted("00", 4, tau_scale=1)
        assert a is b is c
        assert theta_shifted.cache_info().misses == 1

    def test_series_caches_are_bounded(self):
        # at least 4x the 372 misses `verify --suite all` makes in one
        assert (theta_shifted.cache_info().maxsize
                == theta_module.SERIES_CACHE_SIZE >= 4 * 372)

    def test_numeric_semantics(self):
        mp.dps = 35
        tau = mpc("0.03", "1.1")
        z = mpc("0.06", "0.13")
        for label, ts, zs, rt, ro in [("00", 2, 1, HALF, F(0)),
                                      ("11", 2, 2, F(1), HALF),
                                      ("01", 1, 1, F(0), F(1, 4)),
                                      ("10", 3, 1, F(2), F(0))]:
            s = theta_shifted(label, 12, ts, zs, rt, ro)
            got = eval_points(s, [(tau, z)])[0]
            want = theta_numeric(label, ts * tau,
                                 zs * z + F(rt) * tau + F(ro))
            assert abs(got - want) < mp.mpf("1e-18"), (label, ts, zs, rt, ro)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            theta_shifted("20", 4)
        with pytest.raises(ValueError):
            theta_shifted("00", 4, 0, 1)
        with pytest.raises(ValueError):
            theta_shifted("00", 4, 1, -2)
        with pytest.raises(CoefficientRingError):
            theta_shifted("00", 4, 1, 1, 0, F(1, 3))
        with pytest.raises(CoefficientRingError):
            # a half-integer x-power would need an eighth root of unity
            theta_shifted("11", 4, 1, 1, 0, F(1, 4))
