"""Unit tests for the two-variable building blocks Psi and Phi."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpc

import thetachar.mockpsi as mockpsi_module
from thetachar.mockpsi import (
    HALF,
    POLE_THRESHOLD,
    PoleProximityError,
    PsiParams,
    _guard_pole,
    appell_tail,
    phi_a11_numeric,
    psi_diag_ratio,
    psi_pair_ratio,
)
from thetachar.modular import default_points
from thetachar.qseries import eval_points
from thetachar.theta import TailBoundError

from oracles import appell_terms, psi_numeric, sides_equal

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
            rhs = (eval_points(num, [(p.tau, p.z1)])[0]
                   / eval_points(den, [(p.tau, p.z1)])[0])
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
        assert sides_equal(psi_pair_ratio(pr), psi_diag_ratio(pr), F(4))

    def test_deep_level_regression_pair_vs_diag(self):
        # level 4 with half-integer indices drives theta_11(4 tau, 2w)
        # through the deepest internal shifts; keep it exact
        pr = PsiParams(4, F(3, 2), F(3, 2), F(0), HALF)
        assert sides_equal(psi_pair_ratio(pr), psi_diag_ratio(pr), F(5))

    def test_diag_ratio_evaluates_to_psi(self):
        mp.dps = 40
        pr = PsiParams(4, F(3, 2), F(3, 2), HALF, HALF)
        num, den = (part.series(F(6)) for part in psi_diag_ratio(pr).parts())
        for p in _points(3, seed=31, diagonal=True):
            got = (eval_points(num, [(p.tau, p.z1)])[0]
                   / eval_points(den, [(p.tau, p.z1)])[0])
            want = psi_numeric(pr, p.tau, p.z1, p.z1, 0)
            assert abs(got - want) < mp.mpf("1e-10")

    def test_pair_ratio_evaluates_to_psi_off_diagonal_indices(self):
        mp.dps = 40
        pr = PsiParams(3, F(1, 2), F(3, 2), F(0), HALF)
        num, den = (part.series(F(6)) for part in psi_pair_ratio(pr).parts())
        for p in _points(3, seed=33, diagonal=True):
            got = (eval_points(num, [(p.tau, p.z1)])[0]
                   / eval_points(den, [(p.tau, p.z1)])[0])
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

    @settings(max_examples=30, deadline=None)
    @given(m=st.sampled_from([1, 2]),
           s=st.sampled_from([F(0), HALF, F(1)]),
           cutoff=st.integers(1, 40),
           tau=st.tuples(st.floats(-0.5, 0.5), st.floats(0.4, 1.5)),
           z1=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.3, 0.3)),
           z2=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.3, 0.3)),
           t=st.floats(-0.2, 0.2))
    def test_within_tail_and_rounding_of_the_mpmath_sum(self, m, s, cutoff,
                                                        tau, z1, z2, t):
        # the walk on ints against the two-exponentials-per-term sum to
        # cutoff 2J at twice the precision: at most the tail majorant
        # past J plus the stated 2^(2 - prec) |e^{-2 pi i m t}| times
        # the terms' moduli, plus the oracle's own tail past 2J
        mp.dps = 40
        args = (m, s, mpc(*tau), mpc(*z1), mpc(*z2))
        try:
            tail = appell_tail(*args, cutoff)
            far = appell_tail(*args, 2 * cutoff)
            got = phi_a11_numeric(*args, t, j_cutoff=cutoff, tail_tol=1)
        except (TailBoundError, PoleProximityError):
            assume(False)
        prec = mp.prec
        with mp.workprec(2 * prec):
            terms = appell_terms(*args, 2 * cutoff)
            phase = mp.exp(-2j * mp.pi * m * t)
            want = phase * mp.fsum(terms)
            size = mp.fsum(abs(x) for x in terms[cutoff:3 * cutoff + 1])
        bound = abs(phase) * (tail + far + mp.mpf(2) ** (2 - prec) * size)
        assert abs(got - want) <= bound

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

    def test_pole_guard_raises_below_the_threshold_only(self, monkeypatch):
        # the bit-length test settles every value of modulus >= 2^-18
        # without a float modulus, and raises on the same values as the
        # float comparison: both sides of 1e-6 at several exponents, real,
        # imaginary and complex, zero at any exponent, and random values
        real_modulus = mockpsi_module.modulus
        values = [(0, 0, e) for e in (-300, -19, 0, 40)]
        for wp in (24, 64, 150):
            for a, b in ((1, 0), (0, -1), (0.6, -0.8), (-0.28, 0.96)):
                re, im = (round(c * POLE_THRESHOLD * 2 ** wp) for c in (a, b))
                for d in (-2, -1, 0, 1, 2):
                    values.append((re + d * (a != 0), im + d * (b != 0), -wp))
        values += [(1, 0, e) for e in range(-24, -12)]
        rng = random.Random(5)
        for _ in range(400):
            values.append((rng.randrange(-2 ** 40, 2 ** 40),
                           rng.randrange(-2 ** 40, 2 ** 40),
                           rng.randrange(-70, -40)))
        calls = []

        def counted(value):
            calls.append(value)
            return real_modulus(value)

        monkeypatch.setattr(mockpsi_module, "modulus", counted)
        raised = floats = 0
        for value in values:
            calls.clear()
            if real_modulus(value) < POLE_THRESHOLD:
                with pytest.raises(PoleProximityError):
                    _guard_pole(value, "v")
                raised += 1
            else:
                assert _guard_pole(value, "v") is value
            assert not (calls and real_modulus(value) >= 2 ** -18)
            floats += bool(calls)
        assert 10 < raised < floats < len(values) - 10

    @pytest.mark.parametrize("shift", [0, -1, 2])
    @pytest.mark.parametrize("offset", ["0", "1.5e-7", "1.7e-7", "1e-6"])
    def test_appell_pole_check_matches_the_oracle(self, shift, offset):
        # |1 - x1 q^j| crosses POLE_THRESHOLD at |2 pi offset| = 1e-6,
        # between the second and third offsets; the walk and the oracle
        # raise at the same points, on either side of the sum
        mp.dps = 40
        tau = mpc("0.1", "0.9")
        args = (1, HALF, tau, mpc(offset) - shift * tau, mpc("0.2", "0.1"))
        try:
            appell_terms(*args, 40)
        except PoleProximityError:
            with pytest.raises(PoleProximityError):
                phi_a11_numeric(*args, 0)
        else:
            phi_a11_numeric(*args, 0)
