"""Unit tests for characters, denominators, and reduced-module maps."""

from fractions import Fraction as F

import pytest

import thetachar.characters as characters
import thetachar.theta as theta
from thetachar.characters import (
    SECTORS,
    SIGNS,
    CharacterSpec,
    ReductionParams,
    central_charge,
    character_ratio,
    character_series,
    dd_indices,
    dd_numerator,
    denominator,
    denominator_theta_form,
    h_s_values,
    index_set,
    nice_k1_values,
    nice_numerator,
    nice_param_to_j,
    reduction_hs,
    vanishes,
)
from thetachar.suites import _m2_closed_ratio, _reduction_params
from thetachar.theta import ThetaQuotient, theta_shifted

from oracles import reduction_hs_fractions, sides_equal

HALF = F(1, 2)


class TestIndexBookkeeping:
    def test_small_index_sets(self):
        assert index_set(1, "NS") == (HALF,)
        assert index_set(1, "R") == (F(0),)
        assert index_set(2, "NS") == (-HALF, HALF)
        assert index_set(2, "R") == (F(0), F(1))
        assert index_set(3, "NS") == (-HALF, HALF, F(3, 2))
        assert index_set(3, "R") == (F(-1), F(0), F(1))

    @pytest.mark.parametrize("M", range(1, 9))
    def test_index_set_size_and_bounds(self, M):
        for sector in ("NS", "R"):
            js = index_set(M, sector)
            assert len(js) == M
            assert all(F(1 - M, 2) <= j <= F(M, 2) for j in js)

    def test_central_charges(self):
        assert central_charge(1) == 0
        assert central_charge(2) == -3
        assert central_charge(3) == -4
        assert central_charge(6) == -5
        with pytest.raises(ValueError):
            central_charge(0)

    def test_spec_validation(self):
        spec = CharacterSpec(2, "1/2", "NS", "+")
        assert spec.j == HALF
        with pytest.raises(ValueError):
            CharacterSpec(2, F(1, 4), "NS", "+")
        with pytest.raises(ValueError):
            CharacterSpec(2, HALF, "R", "+")
        with pytest.raises(ValueError):
            CharacterSpec(2, HALF, "NS", "x")
        with pytest.raises(ValueError):
            CharacterSpec(2, HALF, "ns", "+")

    @pytest.mark.parametrize("M", range(1, 9))
    def test_spec_accepts_exactly_the_index_set(self, M):
        # every quarter-integer j in [-M, M], both sectors: a spec is made
        # exactly when j is in index_set, and the error names j otherwise
        for sector in SECTORS:
            allowed = set(index_set(M, sector))
            for j in (F(n, 4) for n in range(-4 * M, 4 * M + 1)):
                if j in allowed:
                    assert CharacterSpec(M, j, sector, "-").j == j
                    continue
                with pytest.raises(ValueError) as err:
                    CharacterSpec(M, j, sector, "-")
                assert str(err.value) == (
                    "j = %s outside the level-%d %s index set"
                    % (j, M, sector))

    def test_spec_rejects_a_level_that_is_not_a_positive_integer(self):
        for M in (0, -1, F(3, 2)):
            with pytest.raises(ValueError, match="M must be a positive"):
                CharacterSpec(M, HALF, "NS", "+")

    @pytest.mark.parametrize("M,j,sector,h,s", [
        (1, HALF, "NS", F(0), F(0)),
        (2, HALF, "NS", F(-1, 4), F(-1, 2)),
        (2, -HALF, "NS", F(-1, 4), F(-3, 2)),
        (1, F(0), "R", F(0), F(0)),
        (2, F(0), "R", F(-1, 8), F(0)),
        (2, F(1), "R", F(3, 8), F(1)),
    ])
    def test_h_s_values_pinned(self, M, j, sector, h, s):
        assert h_s_values(CharacterSpec(M, j, sector, "+")) == (h, s)


class TestLevelOneAndTwo:
    @pytest.mark.parametrize("sector,sign", [
        ("NS", "+"), ("NS", "-"), ("R", "+"), ("R", "-"),
    ])
    def test_level_one_characters_are_constant(self, sector, sign):
        j = index_set(1, sector)[0]
        spec = CharacterSpec(1, j, sector, sign)
        assert sides_equal(character_ratio(spec), ThetaQuotient(), F(8))

    # (sector, j) -> per-sign lowest-q x-rows of the expansion
    _LEADING = {
        ("NS", HALF): {"+": {-HALF: 1, F(-5, 2): 1, F(-9, 2): 1},
                       "-": {-HALF: 1, F(-5, 2): 1, F(-9, 2): 1}},
        ("NS", -HALF): {"+": {F(-3, 2): 1, F(-7, 2): 1, F(-11, 2): 1},
                        "-": {F(-3, 2): 1, F(-7, 2): 1, F(-11, 2): 1}},
        ("R", F(0)): {"+": {F(0): 1}, "-": {F(0): 1}},
        ("R", F(1)): {"+": {F(1): 1, F(0): 2, F(-1): 1},
                      "-": {F(1): 1, F(0): -2, F(-1): 1}},
    }

    @pytest.mark.parametrize("sector,j", list(_LEADING))
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_level_two_leading_rows(self, sector, j, sign):
        spec = CharacterSpec(2, j, sector, sign)
        ser = character_series(spec, F(3))
        h, s = h_s_values(spec)
        assert ser.x_window == (s - 4, s + 2)
        lead = -central_charge(2) / 24 + h
        assert min(qe for qe, _, _ in ser.terms()) == lead
        row = {xe: c for qe, xe, c in ser.terms() if qe == lead}
        assert row == self._LEADING[(sector, j)][sign]

    @pytest.mark.parametrize("sector,j", [
        ("NS", HALF), ("NS", -HALF), ("R", F(0)), ("R", F(1)),
    ])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_level_two_closed_forms(self, sector, j, sign):
        spec = CharacterSpec(2, j, sector, sign)
        assert sides_equal(_m2_closed_ratio(sector, j, sign),
                           character_ratio(spec), F(6))


class TestSeriesControls:
    def test_custom_window_and_q_order(self):
        spec = CharacterSpec(2, HALF, "NS", "+")
        ser = character_series(spec, F(5, 8), x_window=(F(-5, 2), -HALF))
        exps = {(qe, xe) for qe, xe, _ in ser.terms()}
        assert all(-F(5, 2) <= xe <= -HALF for _, xe in exps)
        assert all(qe < F(5, 8) for qe, _ in exps)
        assert (F(-1, 8), -HALF) in exps
        assert (F(-1, 8), F(-5, 2)) in exps

    def test_empty_window_rejected(self):
        spec = CharacterSpec(2, HALF, "NS", "+")
        with pytest.raises(ValueError):
            character_series(spec, 2, x_window=(1, 0))

    def test_lead_exponent_matches_weights(self):
        for j in index_set(3, "NS"):
            spec = CharacterSpec(3, j, "NS", "+")
            ser = character_series(spec, F(2))
            h, _ = h_s_values(spec)
            lead = -central_charge(3) / 24 + h
            assert min(qe for qe, _, _ in ser.terms()) == lead


    @pytest.mark.parametrize("M,j,sector", [
        (2, HALF, "NS"), (3, F(0), "R"), (4, F(0), "R"), (4, HALF, "NS"),
    ])
    def test_expansion_inverts_once(self, monkeypatch, M, j, sector):
        # these labels have negative valuations on both sides (their
        # ratios fell short by 3/8 up to 5/4 when built at the request),
        # and the character is still one factor expansion
        expansions = []
        real = theta.expand

        def counting(*args, **kwargs):
            expansions.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(theta, "expand", counting)
        ser = character_series(CharacterSpec(M, j, sector, "+"), F(2))
        assert ser.q_order == F(2)
        assert len(expansions) == 1

    @pytest.mark.parametrize("q,has_terms", [(F(1, 4), False),
                                             (F(2), True)])
    def test_valuation_is_summed_once_and_checked(self, monkeypatch, q,
                                                  has_terms):
        # the lowest exponent of M = 2, j = 1 R+ is h - c/24 = 1/4, so
        # below q^1/4 the series has no term and is still checked
        spec = CharacterSpec(2, F(1), "R", "+")
        calls = []
        real = ThetaQuotient.valuation

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(ThetaQuotient, "valuation", counting)
        ser = character_series(spec, q)
        assert len(calls) == 1 and bool(ser.c) == has_terms
        monkeypatch.setattr(characters, "central_charge",
                            lambda M: central_charge(M) + 24)
        with pytest.raises(AssertionError, match="expected -c/24"):
            character_series(spec, q)

    def test_each_ratio_is_built_once(self):
        # the character is expanded from its thetas' factors, so no theta
        # series is built, nor read from the cache
        theta_shifted.cache_clear()
        n = 0
        for M in range(1, 5):
            for sector in SECTORS:
                for sign in SIGNS:
                    for j in index_set(M, sector):
                        for q in (2, 4, 8):
                            ser = character_series(
                                CharacterSpec(M, j, sector, sign), q)
                            assert ser.q_order == q
                            n += 1
        info = theta_shifted.cache_info()
        assert n == 120 and (info.hits, info.misses) == (0, 0)

    def test_cached_thetas_are_left_unchanged(self, monkeypatch):
        # comparing each character quotient with its Psi-block form (the
        # two-index numerator over the denominator), which has other
        # thetas, reads the shared cached factor series and must not
        # write to them
        seen = []
        real = theta._factor_series

        def recording(*args):
            ser = real(*args)
            seen.append((ser, dict(ser.c), ser.order_n, ser.window_n))
            return ser

        monkeypatch.setattr(theta, "_factor_series", recording)
        unit = ThetaQuotient((0, 0, 1))
        for M in (1, 2, 4):
            for twisted, heart in [(tw, h) for tw in (False, True)
                                   for h in ("I", "III")]:
                sector = "R" if twisted else "NS"
                for k1 in nice_k1_values(M, heart):
                    j = nice_param_to_j(M, k1, heart, twisted)
                    ratio = character_ratio(CharacterSpec(M, j, sector, "+"))
                    other = (dd_numerator(M, k1, M - 1 - 2 * k1, heart, "+",
                                          twisted) / denominator("+", sector))
                    assert sides_equal(unit * ratio, other * unit, 4)
                    assert not sides_equal(ratio, other * unit * unit, 4)
        assert len(seen) > 8 * 14
        for ser, c, order_n, window_n in seen:
            assert (ser.c, ser.order_n, ser.window_n) == (c, order_n,
                                                          window_n)

    @pytest.mark.parametrize("q", [F(1, 8), F(1, 4), F(3, 8), F(1, 2),
                                   F(5, 8), F(1)])
    def test_small_orders_answer(self, q):
        # below and just above the lowest exponent h - c/24: the trust
        # of the expansion is its order, whatever the valuations
        for M in range(1, 8):
            for sector in SECTORS:
                for sign in SIGNS:
                    for j in index_set(M, sector):
                        spec = CharacterSpec(M, j, sector, sign)
                        lead = -central_charge(M) / 24 + h_s_values(spec)[0]
                        ser = character_series(spec, q)
                        assert ser.q_order == q
                        got = {qe for qe, _, _ in ser.terms()}
                        assert (min(got) == lead) if lead < q else not got


class TestDenominator:
    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("sector", ["NS", "R"])
    def test_eta_and_theta_forms_agree(self, sign, sector):
        a = denominator(sign, sector)
        b = denominator_theta_form(sign, sector)
        assert sides_equal(a, b, F(6))
        assert not sides_equal(a, b * ThetaQuotient((0, 0, 2)), F(6))


class TestNumerators:
    def test_nice_numerator_is_denominator_times_character(self):
        j = nice_param_to_j(3, 1, "I", False)
        spec = CharacterSpec(3, j, "NS", "+")
        assert sides_equal(nice_numerator(3, 1, "I", "+", False),
                           character_ratio(spec) * denominator("+", "NS"),
                           F(6))

    def test_twisted_nice_numerator(self):
        j = nice_param_to_j(2, 0, "III", True)
        spec = CharacterSpec(2, j, "R", "-")
        assert sides_equal(nice_numerator(2, 0, "III", "-", True),
                           character_ratio(spec) * denominator("-", "R"),
                           F(6))

    def test_dd_reduces_to_nice_at_boundary(self):
        # level 4, k1 = 1, k2 = 1 puts both block indices at 3/2: the
        # deepest rescale/shift combination the pair form reaches here
        assert sides_equal(dd_numerator(4, 1, 1, "I", "+", False),
                           nice_numerator(4, 1, "I", "+", False), F(6))

    def test_dd_indices_pinned(self):
        assert dd_indices(4, 1, 1, "I", False) == (F(3, 2), F(3, 2))
        assert dd_indices(3, 0, 1, "III", False) == (F(5, 2), F(3, 2))
        assert dd_indices(3, 0, 1, "I", True) == (F(3), F(2))
        with pytest.raises(ValueError):
            dd_indices(3, 0, 1, "II", False)

    def test_nice_param_to_j_pinned(self):
        assert nice_param_to_j(2, 0, "I", False) == HALF
        assert nice_param_to_j(2, 0, "III", False) == -HALF
        assert nice_param_to_j(2, 0, "I", True) == F(0)
        assert nice_param_to_j(2, 0, "III", True) == F(1)
        assert nice_param_to_j(3, 1, "I", False) == F(3, 2)


class TestReduction:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ReductionParams(2, 1, 2, 0, 1, "I", False)   # m2 > m
        with pytest.raises(ValueError):
            ReductionParams(2, 1, 0, 0, 0, "II", False)  # k1 < 1
        with pytest.raises(ValueError):
            ReductionParams(2, 1, 0, 1, 1, "I", False)   # 2k1+k2 > M-1
        with pytest.raises(ValueError):
            ReductionParams(2, 1, 0, 0, 1, "V", False)

    @pytest.mark.parametrize("M", range(1, 9))
    def test_heart_ranges(self, M):
        # the levels (k1, k2) each heart admits at level M
        want = {
            "I": lambda k1, k2: k1 >= 0 and k2 >= 0 and 2 * k1 + k2 <= M - 1,
            "II": lambda k1, k2: k1 >= 1 and k2 >= 1 and 2 * k1 + k2 <= M,
            "III": lambda k1, k2: k1 >= 0 and k2 >= 1 and 2 * k1 + k2 <= M - 1,
            "IV": lambda k1, k2: k1 >= 1 and k2 >= 0 and 2 * k1 + k2 <= M,
        }
        for heart, in_range in want.items():
            for k1 in range(-1, M + 3):
                for k2 in range(-1, M + 3):
                    try:
                        ReductionParams(M, 1, 0, k1, k2, heart, False)
                        got = True
                    except ValueError:
                        got = False
                    assert got == in_range(k1, k2), (heart, k1, k2)

    def test_h_s_pinned_untwisted(self):
        got = reduction_hs(ReductionParams(3, 1, 0, 0, 2, "I", False))
        assert got == (F(-1, 3), F(-2, 3))

    def test_h_s_pinned_twisted(self):
        got = reduction_hs(ReductionParams(2, 1, 0, 0, 1, "III", True))
        assert got == (F(3, 8), F(1))

    def test_h_s_match_the_fraction_form(self):
        # every in-range tuple up to M = 11, m = 5: 20,240 of them
        n = 0
        for M in range(1, 12):
            for p in _reduction_params(M, range(1, 6)):
                assert reduction_hs(p) == reduction_hs_fractions(p), p
                n += 1
        assert n == 20240

    def test_heart_equivalences(self):
        # shifting k1 by one trades heart I for IV and III for II
        for M, m, m2, k1, k2, tw in [(3, 1, 0, 0, 1, False),
                                     (4, 3, 2, 0, 2, True),
                                     (5, 2, 1, 1, 1, False)]:
            a = reduction_hs(ReductionParams(M, m, m2, k1, k2, "I", tw))
            b = reduction_hs(ReductionParams(M, m, m2, k1 + 1, k2, "IV", tw))
            assert a == b
        for M, m, m2, k1, k2, tw in [(3, 1, 0, 0, 1, False),
                                     (4, 3, 2, 0, 2, True),
                                     (5, 2, 1, 1, 1, False)]:
            c = reduction_hs(ReductionParams(M, m, m2, k1, k2, "III", tw))
            d = reduction_hs(ReductionParams(M, m, m2, k1 + 1, k2, "II", tw))
            assert c == d

    def test_vanishing_predicate(self):
        assert vanishes(ReductionParams(5, 1, 1, 1, 2, "I", False))
        assert vanishes(ReductionParams(4, 2, 2, 0, 3, "III", True))
        assert not vanishes(ReductionParams(5, 2, 1, 1, 2, "I", False))
        assert not vanishes(ReductionParams(5, 1, 1, 1, 1, "I", False))
        assert not vanishes(ReductionParams(5, 1, 1, 2, 1, "IV", False))
