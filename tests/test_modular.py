"""Unit tests for numeric modular-transformation evidence."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import mpc_mul

import thetachar.mockpsi as mockpsi
import thetachar.modular as modular
import thetachar.qseries as qseries_module
import thetachar.theta as theta_module
from thetachar.characters import CharacterSpec, character_ratio
from thetachar.mockpsi import HALF, PoleProximityError, PsiParams
from thetachar.modular import (
    COND_THRESHOLD,
    IM_TAU_FLOOR,
    IllConditionedError,
    NumericPoint,
    _eigh,
    _lstsq_min_norm,
    default_points,
    denominator_transform_residual,
    family_members,
    family_values,
    member_id,
    predicted_t_matrix,
    psi_s_residual,
    psi_t_residual,
    span_closure,
)
from thetachar.qseries import _from_mpc, dumps_canonical, eval_numeric, to_mpc

from oracles import character_numeric, lstsq_min_norm_mp


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
            assert max(psi_s_residual([pr], default_points(2, seed=M))) \
                < 1e-9

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
        assert psi_s_residual([pr], default_points(1, seed=53))[0] < 1e-9
        assert passes == [4, 4 * 9]

    def test_block_lists_take_one_pass_per_side(self, monkeypatch):
        # four blocks of one level at one point: two passes for each law,
        # with every block's residual the one it has alone
        mp.dps = 40
        blocks = [PsiParams(2, eps_p + 1, eps_p, eps, eps_p)
                  for eps in (F(0), HALF) for eps_p in (F(0), HALF)]
        pts = default_points(1, seed=31)
        alone = [(psi_s_residual([pr], pts)[0], psi_t_residual([pr], pts)[0])
                 for pr in blocks]
        passes = []

        class Counting(mockpsi.ThetaPass):
            def __init__(self, coords, plan):
                passes.append(coords)
                super().__init__(coords, plan)

        monkeypatch.setattr(mockpsi, "ThetaPass", Counting)
        together = list(zip(psi_s_residual(blocks, pts),
                            psi_t_residual(blocks, pts)))
        assert len(passes) == 4
        for (s1, t1), (s4, t4) in zip(alone, together):
            assert s4 < 1e-9 and t4 < 1e-9
            assert abs(s1 - s4) < 1e-30 and abs(t1 - t4) < 1e-30

    def test_t_law_residuals(self):
        mp.dps = 40
        pr = PsiParams(3, HALF, F(3, 2), F(0), HALF)
        assert max(psi_t_residual([pr], default_points(2, seed=17))) < 1e-9


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
            family_values(2, [member], tau, -tau)

    def test_certificate_serializes(self):
        mp.dps = 30
        pts = default_points(2, diagonal=True, seed=6)
        cert = span_closure(1, 2, "T", pts)
        blob = dumps_canonical(cert.to_json_dict())
        assert '"transform":"T"' in blob
        assert '"residual":' in blob
        assert '"points":' in blob


def values(matrix):
    """An mpmath matrix as rows of ThetaPass values, exactly."""
    return [[_from_mpc(mp.mpc(matrix[r, c])._mpc_, 4 * mp.prec)
             for c in range(matrix.cols)] for r in range(matrix.rows)]


def fit(A, B):
    """_lstsq_min_norm on mpmath matrices: A and B go in as ThetaPass
    values, C comes back as an mpmath matrix."""
    C, resid, rank, cond = _lstsq_min_norm(values(A), values(B))
    return mp.matrix([[to_mpc(x) for x in row] for row in C]), resid, \
        rank, cond


def fit_bound(A, B, cond):
    """The docstring's bound on A C, 2^(8 - prec) rows^2 cols cond^2
    max|B|, twice over: once for each of two fits."""
    big = max(abs(B[r, c]) for r in range(B.rows) for c in range(B.cols))
    return 2 * mp.ldexp(A.rows ** 2 * A.cols * cond ** 2 * big, 8 - mp.prec)


def check_fit(A, B):
    """The int fit against the mpmath one: the same rank, or the same
    IllConditionedError; the condition number to 1e-20 relative; A C
    and the residual within twice the stated bound."""
    try:
        want = lstsq_min_norm_mp(A, B)
    except IllConditionedError:
        with pytest.raises(IllConditionedError):
            fit(A, B)
        return None
    C, resid, rank, cond = fit(A, B)
    assert rank == want[2]
    assert abs(cond - want[3]) < 1e-20 * want[3]
    bound = fit_bound(A, B, want[3])
    with mp.workprec(2 * mp.prec):
        gap = mp.mnorm(A * C - A * want[0], 1)
    assert gap < bound
    # the residual comes back as a float
    assert abs(resid - want[1]) < bound + want[1] * 2 ** -52
    return rank


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
        real = modular.FamilyPlan.values
        a_side = []

        def at_a_side(self, tau, z, factor=None):
            if a_side:
                tau, z = a_side.pop()
            else:
                a_side.append((tau, z))
            return real(self, tau, z, factor)

        monkeypatch.setattr(modular.FamilyPlan, "values", at_a_side)
        with pytest.raises(AssertionError):
            side_passes(monkeypatch, "T")


class TestLeastSquares:
    def test_recovers_exact_solution(self):
        mp.dps = 40
        A = mp.matrix([[1, 2], [3, 5], [7, 11], [13, 17]])
        C0 = mp.matrix([[2], [-3]])
        C, resid, rank, _ = fit(A, A * C0)
        assert resid < mp.mpf("1e-30") and rank == 2
        assert abs(C[0, 0] - 2) < mp.mpf("1e-30")
        assert abs(C[1, 0] + 3) < mp.mpf("1e-30")

    def test_zero_matrix_rejected(self):
        A = mp.matrix(3, 2)
        with pytest.raises(IllConditionedError, match="sample matrix is zero"):
            fit(A, mp.matrix(3, 1))

    def test_retained_near_degeneracy_rejected(self):
        mp.dps = 40
        eps = mp.mpf("1e-9")
        A = mp.matrix([[1, 1], [1, 1], [1, 1], [1, 1 + eps]])
        with pytest.raises(IllConditionedError):
            fit(A, mp.matrix(4, 1))

    def test_exact_rank_deficiency_is_dropped_not_fatal(self):
        mp.dps = 40
        A = mp.matrix([[1, 1], [2, 2], [3, 3], [4, 4]])
        B = mp.matrix([[1], [2], [3], [4]])
        C, resid, rank, _ = fit(A, B)
        assert resid < mp.mpf("1e-30") and rank == 1


    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10 ** 6), cols=st.integers(2, 10),
           extra=st.integers(0, 10), dependent=st.integers(0, 3),
           rhs=st.integers(1, 3))
    def test_int_fit_matches_the_mpmath_fit(self, seed, cols, extra,
                                            dependent, rhs):
        # full-rank and exactly rank-deficient systems, 4 x 2 .. 30 x 10
        mp.dps = 40
        rows = min(30, max(4, 2 * cols) + extra)
        dependent = min(dependent, cols - 1)
        A, B = random_system(seed, rows, cols, dependent, rhs)
        rank = check_fit(A, B)
        assert rank in (None, cols - dependent)

    @pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_condition_either_side_of_the_threshold(self, factor, seed):
        # one column another plus e times a random one: the condition
        # number goes as 1/e, so e is set from a first fit to put it at
        # factor times COND_THRESHOLD; both fits must decide alike
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
        assert check_fit(A, B) == (None if factor > 1 else 4)

    def test_dropped_shift_bit_fails(self, monkeypatch):
        # products shifted back by f - 1 bits, twice their value
        mp.dps = 40
        A, B = random_system(5, 12, 4, 1, 2)
        assert check_fit(A, B) == 3
        dot = modular._dot
        monkeypatch.setattr(modular, "_dot",
                            lambda xs, ys, f: dot(xs, ys, f - 1))
        with pytest.raises(AssertionError):
            check_fit(A, B)


def hermitian(seed, n, f, kind):
    """A Hermitian G as rows of fixed-point complex ints with f fraction
    bits: a Gram matrix As^H As of a random complex As with n + 1 .. 2n
    rows, its columns scaled by 2^-12 .. 1 (kind "gram"), the same with
    its last columns small int combinations of the others, so exactly
    rank-deficient ("deficient"), c I ("scalar") or a diagonal with
    repeated entries ("diagonal")."""
    rng = random.Random(seed)
    one = 1 << f
    if kind in ("scalar", "diagonal"):
        c = rng.randint(one, 100 * one)
        diag = [c if kind == "scalar" else rng.choice((c, c // 3, one))
                for _ in range(n)]
        return [[(diag[i], 0) if i == j else (0, 0) for j in range(n)]
                for i in range(n)]
    free = n - rng.randint(1, n - 1) if kind == "deficient" and n > 1 else n
    rows = rng.randint(n + 1, 2 * n)
    cols = []
    for c in range(n):
        if c < free:
            shift = rng.randint(0, 12)
            cols.append([(rng.randint(-one, one) >> shift,
                          rng.randint(-one, one) >> shift)
                         for _ in range(rows)])
        else:
            ks = [rng.randint(-3, 3) for _ in range(free)]
            cols.append([(sum(k * cols[i][r][0] for i, k in enumerate(ks)),
                          sum(k * cols[i][r][1] for i, k in enumerate(ks)))
                         for r in range(rows)])
    return [[(sum(a * c + b * d for (a, b), (c, d) in zip(x, y)) >> f,
              sum(a * d - b * c for (a, b), (c, d) in zip(x, y)) >> f)
             for y in cols] for x in cols]


def eigh_gaps(G, f):
    """_eigh(G, f) against mpmath at twice the precision: the bounds of
    its docstring for R at the sweep cap, and the largest gap between
    its eigenvalues and mp.eighe's, ||V^H V - I|| and ||G V - V E||, each
    over its bound (all must stay below 1)."""
    n = len(G)
    E, V = _eigh(G, f)
    with mp.workprec(2 * f + 20):
        def val(x):
            return mp.mpc(mp.ldexp(x[0], -f), mp.ldexp(x[1], -f))
        Gm = mp.matrix([[val(x) for x in row] for row in G])
        Vm = mp.matrix([[val(V[i][k]) for i in range(n)] for k in range(n)])
        Em = mp.diag([mp.ldexp(e, -f) for e in E])
        norm = max(1, mp.mnorm(Gm, "F"))
        # the rotation count at the sweep cap, plus one to keep the bounds
        # above 0 at n = 1
        rotations = modular._SWEEPS * n * (n - 1) // 2 + 1
        unitary = rotations * n * mp.ldexp(1, 5 - f)
        backward = (rotations + n) * n * mp.ldexp(1, 8 - f) * norm
        # first order: G V - V E = V (V^H G V - E) + (I - V V^H) G V,
        # and Weyl's bound plus V's distance from a unitary matrix for
        # the eigenvalues
        both = 2 * (backward + unitary * norm)
        want = mp.eighe(Gm, eigvals_only=True)
        got = sorted(mp.ldexp(e, -f) for e in E)
        eig = max(abs(a - b) for a, b in zip(got, want))
        unit = mp.mnorm(Vm.H * Vm - mp.eye(n), "F")
        resid = mp.mnorm(Gm * Vm - Vm * Em, "F")
        return E, V, (eig / both, unit / unitary, resid / both)


class TestEigh:
    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 12),
           kind=st.sampled_from(["gram", "gram", "deficient", "scalar",
                                 "diagonal"]))
    def test_matches_eighe_within_the_stated_bound(self, seed, n, kind):
        f = 150
        G = hermitian(seed, n, f, kind)
        E, V, gaps = eigh_gaps(G, f)
        assert max(gaps) < 1, gaps
        if kind in ("scalar", "diagonal"):
            # nothing to rotate: E is the diagonal, V the identity
            assert E == [G[i][i][0] for i in range(n)]
            assert V == [[(1 << f if i == k else 0, 0) for k in range(n)]
                         for i in range(n)]

    def test_sweep_cap_raises(self, monkeypatch):
        G = hermitian(1, 6, 150, "gram")
        _eigh(G, 150)
        monkeypatch.setattr(modular, "_SWEEPS", 2)
        with pytest.raises(ArithmeticError, match="after 2 sweeps"):
            _eigh(G, 150)


class TestCharacterNumeric:
    def test_matches_exact_series(self):
        mp.dps = 40
        spec = CharacterSpec(2, HALF, "NS", "+")
        num, den = (part.series(F(8))
                    for part in character_ratio(spec).parts())
        p = default_points(1, diagonal=True, seed=12)[0]
        want = (eval_numeric(num, p.tau, p.z1)
                / eval_numeric(den, p.tau, p.z1))
        got = character_numeric(2, 0, 1, "I", "+", False, p)
        assert abs(got - want) < 1e-9

    def test_requires_diagonal_point(self):
        with pytest.raises(ValueError):
            character_numeric(2, 0, 1, "I", "+", False,
                              default_points(1)[0])
