"""Unit tests for the two-variable building blocks Psi and Phi."""

from fractions import Fraction as F

import pytest
from mpmath import mp, mpc

from thetachar.mockpsi import (
    HALF,
    PoleProximityError,
    PsiParams,
    appell_tail,
    phi_a11_numeric,
    psi_diag_ratio,
    psi_numeric,
    psi_pair_ratio,
)
from thetachar.modular import default_points
from thetachar.qseries import eval_numeric
from thetachar.theta import TailBoundError

mp.dps = 40


class TestPsiParams:
    def test_valid_block(self):
        p = PsiParams(3, F(3, 2), F(-1, 2), HALF, HALF)
        assert (p.M, p.j, p.k) == (3, F(3, 2), F(-1, 2))

    def test_rejects_bad_levels_and_indices(self):
        with pytest.raises(ValueError):
            PsiParams(0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            PsiParams(2, F(1, 4), 0, 0, 0)      # j off the index lattice
        with pytest.raises(ValueError):
            PsiParams(2, HALF, 0, 0, HALF)      # k not in eps' + Z
        with pytest.raises(ValueError):
            PsiParams(2, 0, 0, F(1, 3), 0)      # eps not in {0, 1/2}


def _points(n, seed, diagonal=False):
    return default_points(n, diagonal=diagonal, seed=seed)


class TestSymmetryLaws:
    def test_index_periodicity_costs_a_sign(self):
        mp.dps = 40
        for eps in (F(0), HALF):
            pr = PsiParams(2, 1, 1, eps, 0)
            shifted = PsiParams(2, 1 + 2, 1, eps, 0)
            phase = 1 if eps == 0 else -1
            for p in _points(2, seed=3):
                lhs = psi_numeric(shifted, p.tau, p.z1, p.z2, p.t)
                rhs = phase * psi_numeric(pr, p.tau, p.z1, p.z2, p.t)
                assert abs(lhs - rhs) < mp.mpf("1e-20")

    def test_swapping_arguments_swaps_indices(self):
        mp.dps = 40
        pr = PsiParams(3, F(3, 2), F(1, 2), HALF, HALF)
        swapped = PsiParams(3, F(1, 2), F(3, 2), HALF, HALF)
        for p in _points(2, seed=5):
            lhs = psi_numeric(pr, p.tau, p.z2, p.z1, 0)
            rhs = psi_numeric(swapped, p.tau, p.z1, p.z2, 0)
            assert abs(lhs - rhs) < mp.mpf("1e-20")

    def test_reflection(self):
        mp.dps = 40
        pr = PsiParams(2, 2, 1, 0, 0)
        mirror = PsiParams(2, -1, -2, 0, 0)
        for p in _points(2, seed=9):
            lhs = psi_numeric(pr, p.tau, -p.z1, -p.z2, 0)
            rhs = -psi_numeric(mirror, p.tau, p.z2, p.z1, 0)
            assert abs(lhs - rhs) < mp.mpf("1e-20")

    def test_level_one_collapses_to_closed_quotient(self):
        # -i eta^3 th11(2z) / th11(z)^2 = -i th00 th01 th10 / th11 at
        # (tau, z), the latter as exact series; their tail at q^12 is
        # below 1e-20 at these points
        mp.dps = 40
        pr = PsiParams(1, 0, 0, 0, 0)
        num, den = (part.series(F(12)) for part in psi_diag_ratio(pr).parts())
        for p in _points(2, seed=7, diagonal=True):
            lhs = psi_numeric(pr, p.tau, p.z1, p.z1, 0)
            rhs = (eval_numeric(num, p.tau, p.z1)
                   / eval_numeric(den, p.tau, p.z1))
            assert abs(lhs - rhs) < mp.mpf("1e-20")


class TestExactRatios:
    @pytest.mark.parametrize("M,jk,eps,eps_p", [
        (1, F(1), F(0), F(0)),
        (2, F(3, 2), HALF, HALF),
        (3, F(1), F(0), F(0)),
        (4, F(3, 2), F(0), HALF),
    ])
    def test_pair_form_equals_diagonal_form(self, M, jk, eps, eps_p):
        pr = PsiParams(M, jk, jk, eps, eps_p)
        assert psi_pair_ratio(pr).equals(psi_diag_ratio(pr), F(4))

    def test_deep_level_regression_pair_vs_diag(self):
        # level 4 with half-integer indices drives theta_11(4 tau, 2w)
        # through the deepest internal shifts; keep it exact
        pr = PsiParams(4, F(3, 2), F(3, 2), F(0), HALF)
        assert psi_pair_ratio(pr).equals(psi_diag_ratio(pr), F(5))

    def test_diag_ratio_evaluates_to_psi(self):
        mp.dps = 40
        pr = PsiParams(4, F(3, 2), F(3, 2), HALF, HALF)
        num, den = (part.series(F(6)) for part in psi_diag_ratio(pr).parts())
        for p in _points(3, seed=31, diagonal=True):
            got = (eval_numeric(num, p.tau, p.z1)
                   / eval_numeric(den, p.tau, p.z1))
            want = psi_numeric(pr, p.tau, p.z1, p.z1, 0)
            assert abs(got - want) < mp.mpf("1e-10")

    def test_pair_ratio_evaluates_to_psi_off_diagonal_indices(self):
        mp.dps = 40
        pr = PsiParams(3, F(1, 2), F(3, 2), F(0), HALF)
        num, den = (part.series(F(6)) for part in psi_pair_ratio(pr).parts())
        for p in _points(3, seed=33, diagonal=True):
            got = (eval_numeric(num, p.tau, p.z1)
                   / eval_numeric(den, p.tau, p.z1))
            want = psi_numeric(pr, p.tau, p.z1, p.z1, 0)
            assert abs(got - want) < mp.mpf("1e-10")

    def test_diag_ratio_requires_equal_indices(self):
        with pytest.raises(ValueError):
            psi_diag_ratio(PsiParams(2, 1, 2, 0, 0))


class TestAppellSum:
    def test_t_dependence_is_exact_prefactor(self):
        mp.dps = 40
        for m in (1, 2):
            for p in _points(2, seed=13):
                v1 = phi_a11_numeric(m, 1, p.tau, p.z1, p.z2, p.t)
                v0 = phi_a11_numeric(m, 1, p.tau, p.z1, p.z2, 0)
                pref = mp.exp(-2j * mp.pi * m * mpc(p.t))
                assert abs(v1 - pref * v0) < mp.mpf("1e-20")

    def test_cutoff_stability(self):
        mp.dps = 40
        p = _points(1, seed=11)[0]
        v1 = phi_a11_numeric(1, HALF, p.tau, p.z1, p.z2, p.t)
        v2 = phi_a11_numeric(1, HALF, p.tau, p.z1, p.z2, p.t, j_cutoff=70)
        assert abs(v1 - v2) < mp.mpf("1e-25")

    def test_tail_majorant_covers_the_omitted_terms(self):
        mp.dps = 40
        # past cutoff 1 the terms stay far above rounding here, and the
        # first omitted one dominates the rest
        for m, s in ((1, 0), (1, HALF), (2, 1), (2, F(-1, 2))):
            for p in _points(2, seed=17):
                args = (m, s, mpc(p.tau), mpc(p.z1), mpc(p.z2))
                diff = abs(phi_a11_numeric(*args, 0, j_cutoff=1, tail_tol=1)
                           - phi_a11_numeric(*args, 0))
                assert diff <= appell_tail(*args, 1) < 2 * diff

    def test_uncertified_tail_raises(self):
        mp.dps = 40
        tau = mpc("0.1", "0.5")
        with pytest.raises(TailBoundError):
            phi_a11_numeric(1, 0, tau, mpc("0.21", "0.13"),
                            mpc("0.11", "0.19"), 0, j_cutoff=1)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            phi_a11_numeric(0, 0, mpc(0, 1), 0.2, 0.3, 0)


class TestPoleGuards:
    def test_psi_near_lattice_zero_raises(self):
        mp.dps = 40
        pr = PsiParams(1, 0, 0, 0, 0)
        with pytest.raises(PoleProximityError):
            psi_numeric(pr, mpc(0, 1), mpc("1e-9", 0), mpc("0.2", "0.1"), 0)

    def test_appell_edge_pole_raises(self):
        mp.dps = 40
        with pytest.raises(PoleProximityError):
            phi_a11_numeric(1, 0, mpc(0, 1), 0, mpc("0.2", "0.1"), 0)
