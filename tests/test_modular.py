"""Unit tests for numeric modular-transformation evidence."""

import random
from fractions import Fraction as F

import pytest
from mpmath import mp
from mpmath.libmp import mpc_mul

import thetachar.mockpsi as mockpsi
import thetachar.modular as modular
import thetachar.qseries as qseries_module
import thetachar.theta as theta_module
from thetachar.characters import CharacterSpec, character_ratio
from thetachar.mockpsi import HALF, PoleProximityError, PsiParams, PsiPlan
from thetachar.modular import (
    IM_TAU_FLOOR,
    NumericPoint,
    _block_sign_sector,
    block_law_residual,
    default_points,
    denominator_numeric,
    denominator_transform_residual,
    family_members,
    member_id,
    predicted_s_matrix,
    predicted_t_matrix,
    span_closure,
    t_law_on_series,
)
from thetachar.qseries import dumps_canonical, eval_points, to_mpc
from thetachar.suites import (CaseFailure, SuiteConfig, _case_t_phases,
                              suite_cases)

from oracles import (COND_THRESHOLD, IllConditionedError, character_numeric,
                     family_dens, family_plan, family_values,
                     lstsq_min_norm_mp)


class TestNumericPoint:
    def test_low_im_tau_rejected(self):
        with pytest.raises(ValueError):
            NumericPoint(0.1 + 0.1j, 0.2, 0.3, 0)
        NumericPoint(0.1 + IM_TAU_FLOOR * 1j, 0.2, 0.3, 0)

    def test_diagonal_constructor(self):
        p = NumericPoint(1j, 0.2 + 0.1j, 0.2 + 0.1j, 0)
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
            assert max(block_law_residual([pr], "S",
                                          default_points(2, seed=M))) < 1e-9

    def test_s_law_takes_one_pass_per_side(self, monkeypatch):
        # the M^2 blocks of the right-hand side share one ThetaPass at
        # (tau, z1, z2); the left-hand side is the other one
        mp.dps = 40
        passes = []

        class Counting(mockpsi.ThetaPass):
            def __init__(self, coords, plan):
                passes.append(len(plan.requests))
                super().__init__(coords, plan)

        monkeypatch.setattr(mockpsi, "ThetaPass", Counting)
        pr = PsiParams(3, HALF + 1, HALF, F(0), HALF)
        assert block_law_residual([pr], "S",
                                  default_points(1, seed=53))[0] < 1e-9
        assert passes == [4, 4 * 9]

    def test_block_lists_take_one_pass_per_side(self, monkeypatch):
        # four blocks of one level at one point: two passes for each law,
        # with every block's residual the one it has alone
        mp.dps = 40
        blocks = [PsiParams(2, eps_p + 1, eps_p, eps, eps_p)
                  for eps in (F(0), HALF) for eps_p in (F(0), HALF)]
        pts = default_points(1, seed=31)
        alone = [(block_law_residual([pr], "S", pts)[0],
                  block_law_residual([pr], "T", pts)[0]) for pr in blocks]
        passes = []

        class Counting(mockpsi.ThetaPass):
            def __init__(self, coords, plan):
                passes.append(coords)
                super().__init__(coords, plan)

        monkeypatch.setattr(mockpsi, "ThetaPass", Counting)
        together = list(zip(block_law_residual(blocks, "S", pts),
                            block_law_residual(blocks, "T", pts)))
        assert len(passes) == 4
        for (s1, t1), (s4, t4) in zip(alone, together):
            assert s4 < 1e-9 and t4 < 1e-9
            assert abs(s1 - s4) < 1e-30 and abs(t1 - t4) < 1e-30

    def test_t_law_residuals(self):
        mp.dps = 40
        pr = PsiParams(3, HALF, F(3, 2), F(0), HALF)
        assert max(block_law_residual([pr], "T",
                                      default_points(2, seed=17))) < 1e-9


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


def den_units(M, members, dens):
    """The largest relative distance, in units of 2^-prec, between each
    member of PsiPlan(blocks, True, dens) and the same block of the plan
    without dens over denominator_numeric of its own denominator, at
    three diagonal points."""
    blocks = [PsiParams(M, *pair, *block) for block, pair in members]
    over, bare = PsiPlan(blocks, True, dens), PsiPlan(blocks, True)
    worst = 0
    for p in default_points(3, diagonal=True, seed=17):
        tau, z = mp.mpc(p.tau), mp.mpc(p.z1)
        for (block, _), v, b in zip(members, over.values((tau, z)),
                                    bare.values((tau, z))):
            want = to_mpc(b) / denominator_numeric(
                *_block_sign_sector(block), tau, z)
            worst = max(worst, abs(to_mpc(v) / want - 1))
    return worst * 2 ** mp.prec


class TestPlannedDenominators:
    @pytest.mark.parametrize("M, statement", [(2, 1), (3, 2)])
    def test_members_are_blocks_over_their_denominators(self, M, statement):
        # the four theta_ab(tau, z) share the members' pass and its
        # precision, so each member is its block over its R to a few
        # roundings
        mp.dps = 40
        members = family_members(M, statement)
        assert den_units(M, members, family_dens(members)) < 16

    def test_swapped_denominators_fail(self):
        # statement 1 at M = 2 has three denominators: swap two members'
        mp.dps = 40
        members = family_members(2, 1)
        dens = family_dens(members)
        i = next(i for i, d in enumerate(dens) if d != dens[0])
        dens[0], dens[i] = dens[i], dens[0]
        assert den_units(2, members, dens) > 2 ** (mp.prec - 10)


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
        # the oracle fit finds the T matrix from the sample values alone
        mp.dps = 40
        pts = default_points(9, diagonal=True, seed=4)
        cert = span_closure(2, 2, "T", pts)
        assert cert.residual < 1e-9
        C, resid, rank, _ = lstsq_min_norm_mp(*sample_matrices(2, 2, "T",
                                                               pts))
        assert rank == 3 and resid < 1e-30
        for i, want_row in enumerate(predicted_t_matrix(2, 2)):
            for j, w in enumerate(want_row):
                assert abs(C[j, i] - w) < 1e-25
                assert abs(cert.coefficients[i][j] - w) < 1e-15

    def test_rank_deficient_family_reports_its_rank(self):
        # every M = 1 character is the constant 1: three members, rank 1
        # for the oracle fit, and a certificate all the same
        mp.dps = 40
        pts = default_points(6, diagonal=True, seed=2)
        _, resid, rank, cond = lstsq_min_norm_mp(*sample_matrices(1, 1, "T",
                                                                  pts))
        assert rank == 1 and resid < 1e-30
        assert 1 <= cond < 1e8
        cert = span_closure(1, 1, "T", pts)
        assert len(cert.family) == 3 and cert.residual < 1e-30
        assert "rank" not in cert.to_json_dict()

    def test_point_on_a_theta_zero_raises(self):
        # theta_11(2 tau, z + tau) vanishes at z = -tau
        mp.dps = 40
        tau = mp.mpc("0.1", "1.1")
        member = ((F(0), F(0)), (F(1), F(2)))
        with pytest.raises(PoleProximityError,
                           match=r"theta_11\(z1 \+ j tau \+ eps\)"):
            family_values(2, [member], tau, -tau)

    def test_certificate_serializes(self):
        mp.dps = 30
        pts = default_points(2, diagonal=True, seed=6)
        cert = span_closure(1, 2, "T", pts)
        blob = dumps_canonical(cert.to_json_dict())
        assert '"transform":"T"' in blob
        assert '"residual":' in blob
        assert '"points":' in blob


def side_passes(monkeypatch, transform, damage=None):
    """Run span_closure(1, 1, transform) at six points, recording each
    ThetaPass's coordinates and the arguments of its exponentials, and
    check that each point takes exactly two passes, at (tau, z) and at
    its own transformed coordinates, and that every exponential of a
    pass is e^{pi i x/d} for one of that pass's coordinates x.  damage,
    given the recorded exponential and the passes, returns a stand-in
    for it."""
    passes = []
    init = theta_module.ThetaPass.__init__

    def recorded_init(self, coords, plan):
        passes.append((coords, []))
        init(self, coords, plan)

    exp = qseries_module.mpc_exp

    def recorded_exp(z, prec):
        passes[-1][1].append(z)
        return exp(z, prec)

    monkeypatch.setattr(theta_module.ThetaPass, "__init__", recorded_init)
    monkeypatch.setattr(qseries_module, "mpc_exp",
                        damage(recorded_exp, passes) if damage
                        else recorded_exp)
    mp.dps = 40
    pts = default_points(6, diagonal=True, seed=3)
    cert = span_closure(1, 1, transform, pts)
    assert cert.residual < 1e-30
    assert len(passes) == 2 * len(pts)
    for r, p in enumerate(pts):
        tau, z = mp.mpc(p.tau), mp.mpc(p.z1)
        image = (-1 / tau, z / tau) if transform == "S" else (tau + 1, z)
        for (coords, args), want in zip(passes[2 * r:2 * r + 2],
                                        [(tau, z), image]):
            assert coords == want
            assert len(args) == len(coords)
            for arg in args:
                w = mp.make_mpc(arg) / (1j * mp.pi)
                assert any(abs(w * d - x) < 1e-30 * abs(x)
                           for x in coords for d in range(1, 49))


def phases_from_the_a_side(recorded, passes):
    """A T side whose tau roots are the A side's times e^{pi i/d}: the
    same values, up to rounding, from the A side's exponentials."""
    def damaged(z, prec):
        if len(passes) % 2 == 0:
            tau_a, tau_b = passes[-2][0][0], passes[-1][0][0]
            with mp.workprec(prec + 20):
                w = mp.make_mpc(z) / (1j * mp.pi)
                d = int(mp.nint(abs(tau_b / w)))
                if tau_b == tau_a + 1 and abs(w * d - tau_b) < 1e-30:
                    r = recorded((mp.make_mpc(z) - 1j * mp.pi / d)._mpc_,
                                 prec)
                    return mpc_mul(r, mp.exp(1j * mp.pi / d)._mpc_, prec)
        return recorded(z, prec)
    return damaged


class TestSidePasses:
    @pytest.mark.parametrize("transform", ["S", "T"])
    def test_two_passes_per_point_at_their_own_coordinates(self,
                                                           monkeypatch,
                                                           transform):
        side_passes(monkeypatch, transform)

    def test_b_side_from_a_side_exponentials_fails(self, monkeypatch):
        # the T fit still closes, which is why the check must look at
        # where each exponential was taken
        with pytest.raises(AssertionError):
            side_passes(monkeypatch, "T", phases_from_the_a_side)

    def test_b_side_at_a_side_coordinates_fails(self, monkeypatch):
        # every second call of a point is its B side: give it the A
        # side's coordinates
        real = mockpsi.PsiPlan.values
        a_side = []

        def at_a_side(self, coords, factor=None):
            if a_side:
                coords = a_side.pop()
            else:
                a_side.append(coords)
            return real(self, coords, factor)

        monkeypatch.setattr(mockpsi.PsiPlan, "values", at_a_side)
        with pytest.raises(AssertionError):
            side_passes(monkeypatch, "T")


def sample_matrices(M, statement, transform, pts):
    """(A, B) as mpmath matrices: the members at each point, and the
    members transformed, the S side over its elliptic factor, as
    span_closure samples them."""
    family = family_plan(M, family_members(M, statement))
    A, B = [], []
    for p in pts:
        tau, z = mp.mpc(p.tau), mp.mpc(p.z1)
        A.append([to_mpc(v) for v in family.values((tau, z))])
        side = (((-1 / tau, z / tau), mp.exp(2j * mp.pi * (mp.mpf(1) / M - 1)
                                            * z * z / tau))
                if transform == "S" else ((tau + 1, z),))
        B.append([to_mpc(v) for v in family.values(*side)])
    return mp.matrix(A), mp.matrix(B)


def random_system(seed, rows, cols, dependent, rhs):
    """A random complex A with columns scaled by 2^-20 .. 2^20, its last
    dependent columns small int combinations of the others (exact at the
    working precision), and a random B, its columns scaled likewise."""
    rng = random.Random(seed)

    def entry():
        return mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))

    A = mp.matrix(rows, cols)
    free = cols - dependent
    for c in range(cols):
        if c < free:
            size = mp.ldexp(1, rng.randint(-20, 20))
            for r in range(rows):
                A[r, c] = entry() * size
        else:
            ks = [rng.randint(-3, 3) for _ in range(free)]
            for r in range(rows):
                A[r, c] = sum(k * A[r, i] for i, k in enumerate(ks))
    B = mp.matrix(rows, rhs)
    for c in range(rhs):
        size = mp.ldexp(1, rng.randint(-20, 20))
        for r in range(rows):
            B[r, c] = entry() * size
    return A, B


class TestLeastSquares:
    """The oracle fit (tests/oracles.lstsq_min_norm_mp) that the
    predicted matrices are rediscovered with."""

    def test_recovers_exact_solution(self):
        mp.dps = 40
        A = mp.matrix([[1, 2], [3, 5], [7, 11], [13, 17]])
        C0 = mp.matrix([[2], [-3]])
        C, resid, rank, _ = lstsq_min_norm_mp(A, A * C0)
        assert resid < mp.mpf("1e-30") and rank == 2
        assert abs(C[0, 0] - 2) < mp.mpf("1e-30")
        assert abs(C[1, 0] + 3) < mp.mpf("1e-30")

    def test_zero_matrix_rejected(self):
        A = mp.matrix(3, 2)
        with pytest.raises(IllConditionedError, match="sample matrix is zero"):
            lstsq_min_norm_mp(A, mp.matrix(3, 1))

    def test_retained_near_degeneracy_rejected(self):
        mp.dps = 40
        eps = mp.mpf("1e-9")
        A = mp.matrix([[1, 1], [1, 1], [1, 1], [1, 1 + eps]])
        with pytest.raises(IllConditionedError):
            lstsq_min_norm_mp(A, mp.matrix(4, 1))

    def test_exact_rank_deficiency_is_dropped_not_fatal(self):
        mp.dps = 40
        A = mp.matrix([[1, 1], [2, 2], [3, 3], [4, 4]])
        B = mp.matrix([[1], [2], [3], [4]])
        C, resid, rank, _ = lstsq_min_norm_mp(A, B)
        assert resid < mp.mpf("1e-30") and rank == 1

    @pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_condition_either_side_of_the_threshold(self, factor, seed):
        # one column another plus e times a random one: the condition
        # number goes as 1/e, so e is set from a first fit to put it at
        # factor times COND_THRESHOLD, which the fit must refuse past 1
        mp.dps = 40
        rng = random.Random(seed)

        def system(e):
            A, B = random_system(seed, 12, 4, 0, 1)
            for r in range(A.rows):
                A[r, 3] = A[r, 0] + e * mp.mpc(rng.uniform(-1, 1),
                                               rng.uniform(-1, 1))
            return A, B

        state = rng.getstate()
        cond0 = lstsq_min_norm_mp(*system(mp.mpf("1e-6")))[3]
        rng.setstate(state)
        A, B = system(mp.mpf("1e-6") * cond0 / (factor * COND_THRESHOLD))
        if factor > 1:
            with pytest.raises(IllConditionedError, match="condition"):
                lstsq_min_norm_mp(A, B)
        else:
            assert lstsq_min_norm_mp(A, B)[2] == 4


def sparse(P):
    """A matrix's rows as {column: complex} of their nonzero entries."""
    return [{j: complex(x) for j, x in enumerate(row) if x} for row in P]


def times(X, Y):
    out = []
    for row in X:
        acc = {}
        for k, x in row.items():
            for j, y in Y[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append(acc)
    return out


def distance(X, Y):
    return max(abs(x.get(j, 0) - y.get(j, 0))
               for x, y in zip(X, Y) for j in x.keys() | y.keys())


def relation_gaps(M, statement, S):
    """How far S, with T = predicted_t_matrix, is from each group
    relation: S^4 = I, (S T)^3 = S^2, S^H W S = W for
    W = diag(1 if j1 = j2 else 2), S^2 monomial (one entry of modulus 1
    per row and per column, the rest 0) and S^2 T = T S^2."""
    T = sparse(predicted_t_matrix(M, statement))
    W = [1 if j1 == j2 else 2 for _, (j1, j2) in family_members(M, statement)]
    n = len(S)
    S2 = times(S, S)
    ST = times(S, T)
    hws = [{} for _ in range(n)]
    for k, row in enumerate(S):
        for i, x in row.items():
            for j, y in row.items():
                hws[i][j] = hws[i].get(j, 0) + x.conjugate() * W[k] * y
    big = [max(row, key=lambda j: abs(row[j])) for row in S2]
    monomial = 0.0 if len(set(big)) == n else 1.0
    for row, b in zip(S2, big):
        monomial = max(monomial, abs(abs(row[b]) - 1),
                       *(abs(v) for j, v in row.items() if j != b))
    return {"S^4 = I": distance(times(S2, S2), [{i: 1} for i in range(n)]),
            "(ST)^3 = S^2": distance(times(times(ST, ST), ST), S2),
            "S^H W S = W": distance(hws, [{i: w} for i, w in enumerate(W)]),
            "S^2 monomial": monomial,
            "S^2 T = T S^2": distance(times(S2, T), times(T, S2))}


def dropped_fold_sign(M, P):
    """P as if Psi_{a + M, b} = Psi_{a, b} in every block: the rows of
    block (0, 1/2), whose images fold index 0 to M with a sign, negated
    at the pairs holding exactly one folded index."""
    members = family_members(M, 1)
    return [[-x if block == (0, HALF) and (j1 == M) != (j2 == M) else x
             for x, (_, (j1, j2)) in zip(row, members)]
            for row, (block, _) in zip(P, members)]


def one_entry_conjugated(M, P):
    """P with its first entry of nonzero imaginary part conjugated."""
    P = [list(row) for row in P]
    i, j = next((i, j) for i, row in enumerate(P)
                for j, x in enumerate(row) if abs(x.imag) > 1e-3)
    P[i][j] = mp.conj(P[i][j])
    return P


class TestPredictedMatrices:
    @pytest.mark.parametrize("statement", [1, 2])
    @pytest.mark.parametrize("M", range(1, 9))
    def test_group_relations(self, M, statement):
        # complex doubles: every product entry sums at most M^2 products
        # of entries of modulus at most 1, so rounding stays below 1e-12
        mp.dps = 30
        gaps = relation_gaps(M, statement,
                             sparse(predicted_s_matrix(M, statement)))
        assert max(gaps.values()) < 1e-12, gaps

    @pytest.mark.parametrize("damage", [dropped_fold_sign,
                                        one_entry_conjugated])
    def test_damaged_s_fails(self, monkeypatch, damage):
        # a damaged S breaks the relations and the certificate both
        mp.dps = 30
        M = 3
        good = predicted_s_matrix(M, 1)
        bad = damage(M, good)
        assert bad != [list(row) for row in good]
        gaps = relation_gaps(M, 1, sparse(bad))
        assert max(gaps.values()) > 0.1, gaps
        monkeypatch.setattr(modular, "predicted_s_matrix",
                            lambda M, statement: damage(
                                M, predicted_s_matrix(M, statement)))
        cert = span_closure(M, 1, "S",
                            default_points(54, diagonal=True, seed=0))
        assert cert.residual > 1e-7

    @pytest.mark.parametrize("statement,M", [(1, 2), (1, 3), (2, 1),
                                             (2, 2), (2, 3)])
    @pytest.mark.parametrize("transform", ["S", "T"])
    def test_oracle_fit_rediscovers_p(self, statement, M, transform):
        # the full-rank families at M <= 3: the fit, which sees only the
        # sample values, lands on P; A (C - P) is within the two
        # residuals, so C - P within them times the condition number
        mp.dps = 30
        n = len(family_members(M, statement))
        pts = default_points(3 * n, diagonal=True, seed=0)
        C, resid, rank, cond = lstsq_min_norm_mp(
            *sample_matrices(M, statement, transform, pts))
        assert rank == n
        P = (predicted_s_matrix if transform == "S"
             else predicted_t_matrix)(M, statement)
        direct = span_closure(M, statement, transform, pts).residual
        gap = max(abs(C[j, i] - P[i][j]) for i in range(n) for j in range(n))
        assert gap < cond * (resid + direct), (gap, cond, resid, direct)


class TestTLawOnSeries:
    @pytest.mark.parametrize("statement", [1, 2])
    @pytest.mark.parametrize("M", range(1, 7))
    def test_exact_for_every_member(self, M, statement):
        terms, bad = t_law_on_series(M, statement)
        assert bad == [] and terms > 0

    def phase_off_by_i(self, image):
        def damaged(M, member, which):
            for target, sign, r in image(M, member, which):
                yield target, sign, (r + M) % (4 * M)
        return damaged

    def target_off_by_one_block(self, image):
        # (1/2, 1/2) and (0, 1/2) swapped: the other block of the
        # target's index lattice
        def damaged(M, member, which):
            for ((eps, eps_p), pair), sign, r in image(M, member, which):
                yield ((((eps + eps_p) % 1, eps_p), pair), sign, r)
        return damaged

    @pytest.mark.parametrize("damage", ["phase_off_by_i",
                                        "target_off_by_one_block"])
    def test_damaged_t_fails(self, monkeypatch, damage):
        # the series check, the suite's t-phases row and the certificate
        # all read the one member image
        mp.dps = 30
        monkeypatch.setattr(modular, "_member_image",
                            getattr(self, damage)(modular._member_image))
        terms, bad = t_law_on_series(2, 1)
        assert terms > 0 and len(bad) > 0
        with pytest.raises(CaseFailure, match="T law fails"):
            _case_t_phases(2, 1, SuiteConfig())
        cert = span_closure(2, 1, "T", default_points(18, diagonal=True,
                                                      seed=0))
        assert cert.residual > 1e-7


def run_case(case_id):
    """Run one suite row at the default config; its detail, or
    CaseFailure."""
    with mp.workdps(SuiteConfig().dps):
        return dict(suite_cases(case_id.split("/")[0]))[case_id](
            SuiteConfig())


def damage_block_law(monkeypatch, law, damage):
    """Replace the image of one _BLOCK_LAWS row by damage(image)."""
    coordinates, factor, image = modular._BLOCK_LAWS[law]
    monkeypatch.setitem(modular._BLOCK_LAWS, law,
                        (coordinates, factor, damage(image)))


def first_term_off_by_quarter_turn(image):
    def damaged(M, *args):
        for n, (target, pair, r) in enumerate(image(M, *args)):
            yield target, pair, (r + M * (n == 0)) % (4 * M)
    return damaged


def damage_den_image(monkeypatch, which, damage):
    """Replace _den_image's (target, sign, r) for the transform which by
    damage(target, sign, r)."""
    den_image = modular._den_image

    def damaged(block, w):
        out = den_image(block, w)
        return damage(*out) if w == which else out
    monkeypatch.setattr(modular, "_den_image", damaged)


class TestDamagedLawTables:
    """Each law is written once, and every row and matrix that reads it
    fails when it is damaged."""

    def test_block_s_term_off_by_a_quarter_turn(self, monkeypatch):
        damage_block_law(monkeypatch, "S", first_term_off_by_quarter_turn)
        with pytest.raises(CaseFailure, match="max residual"):
            run_case("modular/psi-s-law/M2")
        with mp.workdps(40):
            cert = span_closure(2, 1, "S", default_points(27, diagonal=True,
                                                          seed=0))
        assert cert.residual > 1e-7

    def test_block_t_term_off_by_a_quarter_turn(self, monkeypatch):
        damage_block_law(monkeypatch, "T", first_term_off_by_quarter_turn)
        with pytest.raises(CaseFailure, match="max residual"):
            run_case("modular/psi-t-law/M3")
        with pytest.raises(CaseFailure, match="T law fails"):
            run_case("modular/t-phases/statement1/M3")

    def test_denominator_s_sign_dropped(self, monkeypatch):
        damage_den_image(monkeypatch, "S",
                         lambda target, sign, r: (target, 1, r))
        with pytest.raises(CaseFailure, match="max residual"):
            run_case("modular/denominator-s")
        with mp.workdps(40):
            cert = span_closure(2, 1, "S", default_points(27, diagonal=True,
                                                          seed=0))
        assert cert.residual > 1e-7

    def test_denominator_t_phase_off_by_i(self, monkeypatch):
        damage_den_image(monkeypatch, "T",
                         lambda target, sign, r: (target, sign, r + 1))
        with pytest.raises(CaseFailure, match="max residual"):
            run_case("modular/denominator-t")
        with pytest.raises(CaseFailure, match="T law fails"):
            run_case("modular/t-phases/statement1/M2")
        with mp.workdps(40):
            cert = span_closure(2, 1, "T", default_points(27, diagonal=True,
                                                          seed=0))
        assert cert.residual > 1e-7

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    @pytest.mark.parametrize("law", ["periodicity", "reflect-swap", "swap",
                                     "reflect"])
    def test_symmetry_sign_flipped(self, monkeypatch, law, M):
        assert "max residual" in run_case("psi/%s/M%d" % (law, M))

        def flipped(image):
            def damaged(M, *args):
                for target, pair, r in image(M, *args):
                    yield target, pair, (r + 2 * M) % (4 * M)
            return damaged

        damage_block_law(monkeypatch, law, flipped)
        with pytest.raises(CaseFailure, match="max residual"):
            run_case("psi/%s/M%d" % (law, M))


class TestCharacterNumeric:
    def test_matches_exact_series(self):
        mp.dps = 40
        spec = CharacterSpec(2, HALF, "NS", "+")
        num, den = (part.series(F(8))
                    for part in character_ratio(spec).parts())
        p = default_points(1, diagonal=True, seed=12)[0]
        want = (eval_points(num, [(p.tau, p.z1)])[0]
                / eval_points(den, [(p.tau, p.z1)])[0])
        got = character_numeric(2, 0, 1, "I", "+", False, p)
        assert abs(got - want) < 1e-9

    def test_requires_diagonal_point(self):
        with pytest.raises(ValueError):
            character_numeric(2, 0, 1, "I", "+", False,
                              default_points(1)[0])
