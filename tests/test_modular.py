"""Unit tests for numeric modular-transformation evidence."""

from fractions import Fraction as F

import pytest
from mpmath import mp

from thetachar.characters import CharacterSpec, character_ratio
from thetachar.mockpsi import HALF, PoleProximityError, PsiParams
from thetachar.modular import (
    IM_TAU_FLOOR,
    IllConditionedError,
    NumericPoint,
    _lstsq_min_norm,
    character_member_numeric,
    character_numeric,
    default_points,
    denominator_transform_residual,
    family_members,
    member_id,
    predicted_t_matrix,
    psi_s_residual,
    psi_t_residual,
    span_closure,
)
from thetachar.qseries import dumps_canonical, eval_numeric


class TestNumericPoint:
    def test_low_im_tau_rejected(self):
        with pytest.raises(ValueError):
            NumericPoint(0.1 + 0.1j, 0.2, 0.3, 0)
        NumericPoint(0.1 + IM_TAU_FLOOR * 1j, 0.2, 0.3, 0)

    def test_diagonal_constructor(self):
        p = NumericPoint.diagonal(1j, 0.2 + 0.1j)
        assert p.is_diagonal
        assert p.z1 == p.z2 == 0.2 + 0.1j
        q = NumericPoint(1j, 0.2, 0.3, 0)
        assert not q.is_diagonal
        r = NumericPoint(1j, 0.2, 0.2, 0.05)
        assert not r.is_diagonal

    def test_json_shape(self):
        d = NumericPoint(1j, 0.2, 0.3, 0).to_json_dict()
        assert d == {"tau": [0.0, 1.0], "z1": [0.2, 0.0],
                     "z2": [0.3, 0.0], "t": [0.0, 0.0]}


class TestDefaultPoints:
    def test_deterministic_per_seed(self):
        a = default_points(4, seed=2)
        b = default_points(4, seed=2)
        assert a == b
        assert default_points(4, seed=3) != a

    def test_diagonal_flag(self):
        assert all(p.is_diagonal for p in default_points(5, diagonal=True))
        assert all(not p.is_diagonal for p in default_points(5))

    def test_s_image_clears_the_floor(self):
        for p in default_points(20, seed=5):
            assert (-1 / p.tau).imag >= IM_TAU_FLOOR

    def test_count_validated(self):
        with pytest.raises(ValueError):
            default_points(0)


class TestPsiTransformLaws:
    def test_s_law_residuals(self):
        mp.dps = 40
        for M, eps, eps_p in [(1, F(0), F(0)), (2, HALF, HALF)]:
            pr = PsiParams(M, eps_p + 1, eps_p, eps, eps_p)
            for p in default_points(2, seed=M):
                assert psi_s_residual(pr, p) < 1e-9

    def test_t_law_residuals(self):
        mp.dps = 40
        pr = PsiParams(3, HALF, F(3, 2), F(0), HALF)
        for p in default_points(2, seed=17):
            assert psi_t_residual(pr, p) < 1e-9


class TestDenominatorTransforms:
    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("sector", ["NS", "R"])
    @pytest.mark.parametrize("which", ["S", "T"])
    def test_laws(self, sign, sector, which):
        mp.dps = 40
        for p in default_points(2, seed=23):
            assert denominator_transform_residual(sign, sector, which, p) \
                < 1e-9

    def test_bad_transform_name(self):
        p = default_points(1)[0]
        with pytest.raises(ValueError):
            denominator_transform_residual("+", "NS", "U", p)


class TestFamilies:
    @pytest.mark.parametrize("M,n1,n2", [(1, 3, 1), (2, 9, 3), (3, 18, 6)])
    def test_family_sizes(self, M, n1, n2):
        assert len(family_members(M, 1)) == n1
        assert len(family_members(M, 2)) == n2

    def test_member_ids_unique_and_readable(self):
        ids = [member_id(m) for m in family_members(2, 1)]
        assert len(set(ids)) == len(ids)
        assert "eps=1/2|eps'=1/2|j=(1/2,1/2)" in ids

    def test_bad_statement(self):
        with pytest.raises(ValueError):
            family_members(2, 3)


class TestSpanClosure:
    def test_point_validation(self):
        pts = default_points(1, diagonal=True)
        with pytest.raises(ValueError):
            span_closure(1, 2, "S", pts)          # below 2n points
        bad = default_points(4)                   # off-diagonal
        with pytest.raises(ValueError):
            span_closure(1, 2, "S", bad)
        with pytest.raises(ValueError):
            span_closure(1, 2, "U", default_points(3, diagonal=True))

    @pytest.mark.parametrize("transform", ["S", "T"])
    def test_single_member_family_closes(self, transform):
        mp.dps = 40
        pts = default_points(3, diagonal=True, seed=1)
        cert = span_closure(1, 2, transform, pts)
        assert cert.residual < 1e-9
        assert cert.family == ("eps=0|eps'=0|j=(1,1)",)
        assert cert.precision_bits == mp.prec

    def test_fit_matches_predicted_t_action(self):
        mp.dps = 40
        pts = default_points(9, diagonal=True, seed=4)
        cert = span_closure(2, 2, "T", pts)
        assert cert.residual < 1e-9
        predicted = predicted_t_matrix(2, 2)
        for got_row, want_row in zip(cert.coefficients, predicted):
            for g, w in zip(got_row, want_row):
                assert abs(g - w) < 1e-8

    def test_rank_deficient_family_reports_its_rank(self):
        # every M = 1 character is the constant 1: three members, rank 1
        mp.dps = 40
        cert = span_closure(1, 1, "T", default_points(6, diagonal=True,
                                                      seed=2))
        assert len(cert.family) == 3 and cert.rank == 1
        assert 1 <= cert.condition < 1e8
        assert "rank" not in cert.to_json_dict()

    def test_point_on_a_theta_zero_raises(self):
        # theta_11(2 tau, z + tau) vanishes at z = -tau
        mp.dps = 40
        tau = mp.mpc("0.1", "1.1")
        member = ((F(0), F(0)), (F(1), F(2)))
        with pytest.raises(PoleProximityError,
                           match=r"theta_11\(z1 \+ j tau \+ eps\)"):
            character_member_numeric(2, member, tau, -tau)

    def test_certificate_serializes(self):
        mp.dps = 30
        pts = default_points(2, diagonal=True, seed=6)
        cert = span_closure(1, 2, "T", pts)
        blob = dumps_canonical(cert.to_json_dict())
        assert '"transform":"T"' in blob
        assert '"residual":' in blob
        assert '"points":' in blob


class TestLeastSquares:
    def test_recovers_exact_solution(self):
        mp.dps = 40
        A = mp.matrix([[1, 2], [3, 5], [7, 11], [13, 17]])
        C0 = mp.matrix([[2], [-3]])
        C, resid, rank, _ = _lstsq_min_norm(A, A * C0)
        assert resid < mp.mpf("1e-30") and rank == 2
        assert abs(C[0, 0] - 2) < mp.mpf("1e-30")
        assert abs(C[1, 0] + 3) < mp.mpf("1e-30")

    def test_zero_matrix_rejected(self):
        A = mp.matrix(3, 2)
        with pytest.raises(IllConditionedError):
            _lstsq_min_norm(A, mp.matrix(3, 1))

    def test_retained_near_degeneracy_rejected(self):
        mp.dps = 40
        eps = mp.mpf("1e-9")
        A = mp.matrix([[1, 1], [1, 1], [1, 1], [1, 1 + eps]])
        with pytest.raises(IllConditionedError):
            _lstsq_min_norm(A, mp.matrix(4, 1))

    def test_exact_rank_deficiency_is_dropped_not_fatal(self):
        mp.dps = 40
        A = mp.matrix([[1, 1], [2, 2], [3, 3], [4, 4]])
        B = mp.matrix([[1], [2], [3], [4]])
        C, resid, rank, _ = _lstsq_min_norm(A, B)
        assert resid < mp.mpf("1e-30") and rank == 1


class TestCharacterNumeric:
    def test_matches_exact_series(self):
        mp.dps = 40
        spec = CharacterSpec(2, HALF, "NS", "+")
        ratio = character_ratio(spec, F(8))
        p = default_points(1, diagonal=True, seed=12)[0]
        want = (eval_numeric(ratio.num, p.tau, p.z1)
                / eval_numeric(ratio.den, p.tau, p.z1))
        got = character_numeric(2, 0, 1, "I", "+", False, p)
        assert abs(got - want) < 1e-9

    def test_requires_diagonal_point(self):
        with pytest.raises(ValueError):
            character_numeric(2, 0, 1, "I", "+", False,
                              default_points(1)[0])
