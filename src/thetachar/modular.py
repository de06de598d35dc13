"""Numeric certification of modular transformation laws.

Truncated q-series cannot see tau -> -1/tau, so the S and T laws for
the Psi blocks, the denominators, and the character families are
checked numerically: residuals of the stated identities at generic
points, and least-squares certificates that the span of a character
family is carried into itself.

The span families pair a half-characteristic block (eps, eps') with
index pairs (j1, j2) drawn from

    eps' = 1/2:  half-odd j with 0 < j < M,
    eps' = 0:    integer j with 0 < j <= M,

deduplicated under (j1, j2) ~ (j2, j1) since the diagonal-argument
block is symmetric in its indices.  Statement 1 spans the blocks
(1/2, 1/2), (0, 1/2), (1/2, 0); statement 2 spans (0, 0).  Both block
sets are closed under the S swap (eps <-> eps') and the T map
(eps -> eps + eps' mod 1).

Fitting (_lstsq_min_norm) runs on the passes' values, in the format
qseries owns (its _top, _fixed and modulus): the sample
matrix is column-scaled and every product of the normal equations is
an int sum on fixed-point complex ints, with its rounding stated, and
the small Hermitian eigensolve is cyclic Jacobi on the same ints
(_eigh), with its backward error stated.  Small eigenvalues are
truncated, giving the minimum-norm least-squares solution.  Rank
deficiency of a family (exactly degenerate members, e.g. every M = 1
character is the constant 1) is therefore handled quietly, while a
retained-spectrum condition number above COND_THRESHOLD raises
IllConditionedError: that signals bad point selection, not a failed
identity.

All evaluations use the ambient mpmath precision; callers scope it
with mp.workdps.  span_closure plans its family once (FamilyPlan: the
blocks, their requests, distinct lattice sums and prefactor powers) and
evaluates it at each sample point and each side of the transform in one
theta.ThetaPass at that side's own coordinates: every theta, eta and
prefactor of its members comes from the pass's own exponentials, one
per coordinate, each distinct lattice sum is walked once, and the S
side divides out its elliptic factor as one pass value.
family_values and denominator_numeric (on one plan, _DEN_PLAN, built
at import) are the same evaluation converted to mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .characters import denominator_label, sector_eps_prime, sign_eps
from .mockpsi import (HALF, PsiParams, PsiPlan, _guard_pole, _mpc_any,
                      _mpfrac, psi_plan, psi_value)
from .qseries import ONE, _fixed, _from_mpc, _top, modulus, to_mpc
from .theta import THETA_LABELS, PassPlan, ThetaPass

IM_TAU_FLOOR = 0.3
COND_THRESHOLD = 1e8
RANK_CUTOFF = 1e-10


class IllConditionedError(ArithmeticError):
    """The span-fit sample matrix is too ill-conditioned to trust."""


@dataclass(frozen=True)
class NumericPoint:
    """One evaluation point (tau, z1, z2, t) with Im tau above the
    tail-bound floor."""
    tau: complex
    z1: complex
    z2: complex
    t: complex

    def __post_init__(self):
        object.__setattr__(self, "tau", complex(self.tau))
        object.__setattr__(self, "z1", complex(self.z1))
        object.__setattr__(self, "z2", complex(self.z2))
        object.__setattr__(self, "t", complex(self.t))
        if self.tau.imag < IM_TAU_FLOOR - 1e-12:
            raise ValueError("Im tau = %g below the floor %g"
                             % (self.tau.imag, IM_TAU_FLOOR))

    @staticmethod
    def diagonal(tau, z, t=0):
        return NumericPoint(tau, z, z, t)

    @property
    def is_diagonal(self):
        return self.z1 == self.z2 and self.t == 0

    def to_json_dict(self):
        def pair(v):
            return [v.real, v.imag]
        return {"tau": pair(self.tau), "z1": pair(self.z1),
                "z2": pair(self.z2), "t": pair(self.t)}


_PHI = (1 + math.sqrt(5)) / 2
_IRR = (math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7),
        math.sqrt(11), math.sqrt(13))


def _frac(v):
    return v - math.floor(v)


def default_points(count, diagonal=False, seed=0):
    """Deterministic generic sample points.

    Successive multiples of quadratic irrationals give low-discrepancy
    sequences; tau stays in |Re| <= 0.35, Im in [0.8, 1.2], so that
    -1/tau also clears the Im floor, and z avoids the theta zero
    lattice.
    """
    if count < 1:
        raise ValueError("count must be positive")
    pts = []
    for i in range(1, count + 1):
        k = i + 97 * seed
        tau = complex((_frac(k * _PHI) - 0.5) * 0.7,
                      0.8 + 0.4 * _frac(k * _IRR[0]))
        z1 = complex(0.08 + 0.16 * _frac(k * _IRR[1]),
                     0.015 * (_frac(k * _IRR[2]) - 0.5))
        if diagonal:
            pts.append(NumericPoint(tau, z1, z1, 0))
            continue
        z2 = complex(-0.05 - 0.13 * _frac(k * _IRR[3]),
                     0.012 * (_frac(k * _IRR[4]) - 0.5))
        t = 0.01 * _frac(k * _IRR[5])
        pts.append(NumericPoint(tau, z1, z2, t))
    return pts


def psi_s_residual(blocks, pts):
    """|LHS - RHS| of the S-law for each Psi block of one level at each
    point, point by point: the blocks at (-1/tau, z1/tau, z2/tau, t)
    against (tau/M) times the elliptic factor times the M^2-fold
    phase-weighted sum of swapped blocks at (tau, z1, z2, t).  Each side
    is planned (PsiPlan, off the diagonal, which serves any point) and
    phased once, and takes one ThetaPass a point."""
    M = blocks[0].M
    swapped = [[PsiParams(M, pr.eps + na, pr.eps + nb, pr.eps_prime, pr.eps)
                for na in range(M) for nb in range(M)] for pr in blocks]
    phases = [[mp.exp(-2j * mp.pi * (_mpfrac(blk.j) * _mpfrac(pr.k)
                                     + _mpfrac(blk.k) * _mpfrac(pr.j)) / M)
               for blk in row] for pr, row in zip(blocks, swapped)]
    lhs_plan = PsiPlan(blocks, False)
    rhs_plan = PsiPlan([b for row in swapped for b in row], False)
    out = []
    for p in pts:
        tau, z1, z2, t = (_mpc_any(v) for v in (p.tau, p.z1, p.z2, p.t))
        lhs = lhs_plan.values(-1 / tau, z1 / tau, z2 / tau, t)
        values = iter(rhs_plan.values(tau, z1, z2, t))
        factor = (tau / M) * mp.exp(2j * mp.pi * z1 * z2 / (M * tau))
        out += [float(abs(left - factor * sum(
            (next(values) * phase for phase in row), mp.mpc(0))))
            for row, left in zip(phases, lhs)]
    return out


def psi_t_residual(blocks, pts):
    """|LHS - RHS| of the T-law for each Psi block at each point, point
    by point: the blocks at (tau + 1, ...) against e^{2 pi i jk/M} times
    the blocks with eps -> eps + eps' mod 1, each side planned once and
    one ThetaPass a point."""
    lhs_plan = PsiPlan(blocks, False)
    rhs_plan = PsiPlan([PsiParams(pr.M, pr.j, pr.k, (pr.eps + pr.eps_prime)
                                  % 1, pr.eps_prime) for pr in blocks], False)
    phases = [mp.exp(2j * mp.pi * _mpfrac(pr.j * pr.k) / pr.M)
              for pr in blocks]
    out = []
    for p in pts:
        tau, z1, z2, t = (_mpc_any(v) for v in (p.tau, p.z1, p.z2, p.t))
        out += [float(abs(a - phase * b)) for phase, a, b in zip(
            phases, lhs_plan.values(tau + 1, z1, z2, t),
            rhs_plan.values(tau, z1, z2, t))]
    return out


def denominator_numeric(sign, sector, tau, z):
    """R^{(eps)}_{eps'}(tau, z) as the three-thetas-over-one quotient, the
    one-denominator ThetaPass."""
    tp = ThetaPass((_mpc_any(tau), _mpc_any(z)), _DEN_PLAN)
    return to_mpc(_den_value(tp, sign, sector))


# the plan of the four theta_ab(tau, z) at coordinates (tau, z), built
# once for every denominator_numeric
_DEN_PLAN = PassPlan((int(lab[0]), int(lab[1]), 1, (0, 1), 0)
                     for lab in THETA_LABELS)


def _den_value(tp, sign, sector):
    d = denominator_label(sign, sector)
    thetas = dict(zip(THETA_LABELS, map(tp.theta, _DEN_PLAN.requests)))
    den = _guard_pole(thetas.pop(d), "theta_%s" % d)
    re, im, e = tp.div(tp.mul(*thetas.values()), den)
    return (im, -re, e) if sign == "+" else (-im, re, e)


def _swap_sign_sector(sign, sector):
    new_sign = "+" if sector == "NS" else "-"
    new_sector = "NS" if sign == "+" else "R"
    return new_sign, new_sector


def _t_image_sign(sign, sector):
    eps = sign_eps(sign) + sector_eps_prime(sector)
    return "+" if eps % 1 == HALF else "-"


def denominator_transform_residual(sign, sector, which, p):
    """|LHS - RHS| of the denominator S-law (swap eps <-> eps', factor
    (-1)^{4 eps eps'} tau e^{2 pi i z^2/tau}) or T-law (phase
    e^{-pi i eps'}, eps -> eps + eps')."""
    tau = _mpc_any(p.tau)
    z = _mpc_any(p.z1)
    eps = sign_eps(sign)
    eps_p = sector_eps_prime(sector)
    if which == "S":
        lhs = denominator_numeric(sign, sector, -1 / tau, z / tau)
        s2, c2 = _swap_sign_sector(sign, sector)
        parity = -1 if (4 * eps * eps_p) % 2 == 1 else 1
        rhs = (parity * tau * mp.exp(2j * mp.pi * z * z / tau)
               * denominator_numeric(s2, c2, tau, z))
        return float(abs(lhs - rhs))
    if which == "T":
        lhs = denominator_numeric(sign, sector, tau + 1, z)
        rhs = (mp.exp(-1j * mp.pi * _mpfrac(eps_p))
               * denominator_numeric(_t_image_sign(sign, sector), sector,
                                     tau, z))
        return float(abs(lhs - rhs))
    raise ValueError("which must be 'S' or 'T'")


_STATEMENT_BLOCKS = {
    1: ((HALF, HALF), (Fraction(0), HALF), (HALF, Fraction(0))),
    2: ((Fraction(0), Fraction(0)),),
}


def _index_pairs(M, eps_prime):
    """Deduplicated (j1 <= j2) index pairs of the eps' domain."""
    if eps_prime == HALF:
        singles = [HALF + n for n in range(M)
                   if 0 < HALF + n < M]
    else:
        singles = [Fraction(n) for n in range(1, M + 1)]
    pairs = []
    for i, j1 in enumerate(singles):
        for j2 in singles[i:]:
            pairs.append((j1, j2))
    return pairs


def family_members(M, statement):
    """The (block, index-pair) list spanned by the statement."""
    if statement not in (1, 2):
        raise ValueError("statement must be 1 or 2")
    members = []
    for block in _STATEMENT_BLOCKS[statement]:
        for pair in _index_pairs(M, block[1]):
            members.append((block, pair))
    return members


def member_id(member):
    (eps, eps_p), (j1, j2) = member
    return "eps=%s|eps'=%s|j=(%s,%s)" % (eps, eps_p, j1, j2)


def _block_sign_sector(block):
    eps, eps_p = block
    return ("+" if eps == HALF else "-", "NS" if eps_p == HALF else "R")


def family_values(M, members, tau, z):
    """The members Psi_{j1,j2}/R at the diagonal point (tau, z), from one
    ThetaPass planned with every theta, eta and denominator they take."""
    return [to_mpc(v) for v in FamilyPlan(M, members).values(tau, z)]


class FamilyPlan:
    """What the members Psi_{j1,j2}/R take at any point, found once: each
    member's psi_plan and denominator, and the PassPlan of them all."""

    def __init__(self, M, members):
        self.blocks = [(psi_plan(PsiParams(M, j1, j2, *block), (1,), (1,)),
                        _block_sign_sector(block))
                       for block, (j1, j2) in members]
        self.plan = PassPlan(
            [r for (requests, _), _ in self.blocks for r in requests]
            + list(_DEN_PLAN.requests),
            [x for (_, powers), _ in self.blocks for x in powers])

    def values(self, tau, z, factor=None):
        """The members at the diagonal point (tau, z), each divided by
        factor (an mpc, 1 by default), as values of one ThetaPass."""
        tp = ThetaPass((tau, z), self.plan)
        f = ONE if factor is None else _from_mpc(factor._mpc_, tp.wp)
        dens = {}
        out = []
        for plan, key in self.blocks:
            psi = psi_value(tp, *plan)
            if key not in dens:
                dens[key] = tp.mul(_den_value(tp, *key), f)
            out.append(tp.div(psi, dens[key]))
        return out


@dataclass(frozen=True)
class SpanCertificate:
    """Least-squares evidence that a transform maps the family span
    into itself: per-member coefficient rows and the max residual, with
    the fit's retained rank and condition number (not serialized)."""
    transform: str
    M: int
    statement: int
    family: tuple
    coefficients: tuple
    residual: float
    points: tuple
    precision_bits: int
    rank: int
    condition: float

    def to_json_dict(self):
        return {
            "transform": self.transform,
            "M": self.M,
            "statement": self.statement,
            "family": list(self.family),
            "coefficients": [[{"re": c.real, "im": c.imag} for c in row]
                             for row in self.coefficients],
            "residual": self.residual,
            "points": [p.to_json_dict() for p in self.points],
            "precision_bits": self.precision_bits,
        }


def _dot(xs, ys, f):
    """sum x y over pairs of fixed-point complex ints (re, im) with f
    fraction bits: one exact int sum, shifted back to f bits once."""
    re = sum(a * c - b * d for (a, b), (c, d) in zip(xs, ys))
    im = sum(a * d + b * c for (a, b), (c, d) in zip(xs, ys))
    return re >> f, im >> f


def _conj(xs):
    return [(a, -b) for a, b in xs]


def _lstsq_min_norm(A, B):
    """Minimum-norm least squares A C = B via scaled normal equations,
    for A and B lists of rows of ThetaPass values (re, im, e).

    Columns of A are scaled to unit max modulus (As), the Gram matrix
    As^H As is diagonalized (_eigh), eigenvalues E_i at or below
    emax RANK_CUTOFF^2 are dropped (compared exactly), and the retained
    condition number is checked against COND_THRESHOLD;
    IllConditionedError is raised for a zero matrix, no usable rank or a
    condition above it.  Returns (C, max entrywise |A C - B|, retained
    rank, retained condition number), C as rows of values.

    Everything runs on fixed-point complex ints with
    F = prec + bitlen(rows + cols) + bitlen(_SWEEPS cols^2) + 10 fraction
    bits: As, each column of B scaled by a power of two to modulus below
    2 (exact), As^H As and its eigensolve, As^H B, V^H (As^H B),
    V (...) / E and the residual As Cs - B.  Every stored entry is within
    2^(2 - F) of the value it rounds (its parts are floored, and a
    column's scale s is found to F + 1 bits), and every product entry is
    one exact int sum shifted once, so an entry that sums n products of
    factors of modulus at most X and Y is within 2^(2 - F) (n (X + Y + 1)
    + 1) of the exact sum over the unrounded factors.  The eigensolve's
    backward error, at most (R + cols) cols 2^(8 - F) ||G|| after R
    rotations (_eigh), is below 2^(-3 - prec) ||G||, since R + cols is
    below _SWEEPS cols^2 / 2 and F spends bitlen(_SWEEPS cols^2) bits on
    it: less than one rounding of G at the working precision, the
    backward error an eigensolver on mpmath matrices has.  Carried
    through the solve to first order, these leave A C within
    2^(8 - prec) rows^2 cols cond^2 max|B| of the exact projection of B
    onto the retained span, as they leave the same fit run on mpmath
    matrices.
    """
    rows, cols = len(A), len(A[0])
    f = (mp.prec + (rows + cols).bit_length()
         + (_SWEEPS * cols * cols).bit_length() + 10)
    # each column of A relative to its top bit at f + 2 bits, then over
    # its largest modulus s = S 2^(top - f - 2)
    a_cols, scale = [], []
    for c in range(cols):
        col = [row[c] for row in A]
        top = _top(col)
        xs = [_fixed((re, im, e - top), f + 2) for re, im, e in col]
        s = math.isqrt(max(re * re + im * im for re, im in xs))
        a_cols.append([((re << f) // s, (im << f) // s) if s else (0, 0)
                       for re, im in xs])
        scale.append((s, top - f - 2) if s else (1, 0))
    b_tops = [_top([row[c] for row in B]) for c in range(len(B[0]))]
    b_cols = [[_fixed((re, im, e - top), f) for re, im, e in
               (row[c] for row in B)] for c, top in enumerate(b_tops)]
    ah_cols = [_conj(col) for col in a_cols]
    G = [[None] * cols for _ in range(cols)]
    for i in range(cols):
        for j in range(i, cols):
            re, im = _dot(ah_cols[i], a_cols[j], f)
            G[i][j], G[j][i] = (re, im), (re, -im)
    bp_cols = [[_dot(ah, col, f) for ah in ah_cols] for col in b_cols]
    E, V = _eigh(G, f)
    emax = max(map(abs, E))
    if emax == 0:
        raise IllConditionedError("sample matrix is zero")
    cut = emax * Fraction(RANK_CUTOFF ** 2)
    kept = [i for i in range(cols) if E[i] > cut]
    if not kept:
        raise IllConditionedError("sample matrix has no usable rank")
    cond = mp.sqrt(mp.mpf(emax) / min(E[i] for i in kept))
    if cond > COND_THRESHOLD:
        raise IllConditionedError(
            "retained condition number %.3g above %g: pick other points"
            % (float(cond), COND_THRESHOLD))
    v_rows = list(zip(*(V[i] for i in kept)))
    vh_cols = [_conj(V[i]) for i in kept]
    # W = E^-1 V^H B' on the kept eigenvalues, then Cs = V W
    cs_cols = []
    for bp in bp_cols:
        w = [_over(_dot(vh, bp, f), E[i], f) for vh, i in zip(vh_cols, kept)]
        cs_cols.append([_dot(vr, w, f) for vr in v_rows])
    a_rows = list(zip(*a_cols))
    resid = 0.0
    C = [[None] * len(cs_cols) for _ in range(cols)]
    for c, (cs, bs, top) in enumerate(zip(cs_cols, b_cols, b_tops)):
        for ar, (br, bi) in zip(a_rows, bs):
            re, im = _dot(ar, cs, f)
            resid = max(resid, modulus((re - br, im - bi, top - f)))
        for k, ((re, im), (s, e)) in enumerate(zip(cs, scale)):
            t = s.bit_length()
            C[k][c] = (re << t) // s, (im << t) // s, top - f - t - e
    return C, resid, len(kept), cond


def _over(x, v, f):
    """A fixed-point complex int over a positive int v, both with f
    fraction bits, to f fraction bits by exact floor division."""
    return (x[0] << f) // v, (x[1] << f) // v


# the sweep cap of _eigh: counting the last one, which rotates nothing,
# the span fit's Gram matrices take up to 9 sweeps at 10 members, 15 at
# 30, 20 at 45 (M = 5) and 25 at 63 (M = 6)
_SWEEPS = 60


def _eigh(G, f):
    """Eigenvalues E and eigenvectors V of a Hermitian G, given as rows of
    fixed-point complex ints (re, im) with f fraction bits, by cyclic
    Jacobi on the same ints: E as ints and V as columns of complex ints,
    each with f fraction bits, so that G V = V diag(E) to within the
    backward error below.

    A sweep visits every pivot g = G[p][q], p < q, in row order.  A pivot
    whose parts both lie below 2^4 units is set to 0 without a rotation;
    any other is zeroed by the unitary Q = diag(1, u) R acting on indices
    p and q: the phase u = conj(g)/|g| on index q, which makes the pivot
    |g|, then the real rotation R of c = (1 + t^2)^(-1/2) and s = t c for
    t = sgn(theta)/(|theta| + sqrt(theta^2 + 1)),
    theta = (G_qq - G_pp)/(2 |g|).  Q acts on columns p and q of G and
    of V, and its conjugate on rows p and q of G; the diagonal becomes
    G_pp - t |g| and G_qq + t |g|.  |g| is taken at 2f bits, as
    isqrt(|g|^2 2^(2f)), so however few units g has, u is within
    2^(1 - f) of conj(g)/|g| and of unit modulus (from a floored f-bit
    |g| it would be off by up to 1/|g| units, and V would not stay
    unitary); c and s, from the same f-bit t, are within 2^(2 - f) of an
    exact rotation.  So the entries Q is applied with are within
    2^(3 - f) of an exactly unitary one, each entry written is one int
    sum floored once, and the sweep that rotates nothing ends with G
    exactly diag(E).  With R rotations in all and the Frobenius norm,
    to first order

        ||V^H V - I||            <= R n 2^(5 - f),
        ||V^H G V - diag(E)||    <= (R + n) n 2^(8 - f) ||G||

    for ||G|| >= 1: each rotation adds at most n 2^(3 - f) to V's
    distance from a unitary matrix and at most n 2^(6 - f) ||G|| to G's
    from its exact unitary image, and each zeroed pivot, of which there
    are at most n^2/2 + 2 n R, at most 2^(5 - f).  Raises ArithmeticError
    when _SWEEPS sweeps all rotate: V is never returned unconverged.
    """
    n = len(G)
    f2 = 2 * f
    # G by columns, gr[j][r] + i gi[j][r] = G[r][j], and V by columns
    gr = [[re for re, _ in row] for row in G]
    gi = [[-im for _, im in row] for row in G]
    vr = [[1 << f if k == i else 0 for k in range(n)] for i in range(n)]
    vi = [[0] * n for _ in range(n)]
    for _ in range(_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                xr, xi = gr[q][p], gi[q][p]
                if -16 < xr < 16 and -16 < xi < 16:
                    gr[q][p] = gi[q][p] = gr[p][q] = gi[p][q] = 0
                    continue
                rotated = True
                a, b = gr[p][p], gr[q][q]
                g = math.isqrt((xr * xr + xi * xi) << f2)
                ur, ui = (xr << f2) // g, (-xi << f2) // g
                d = (b - a) << f
                t = (g << (f + 1)) // (abs(d) + math.isqrt(d * d + 4 * g * g))
                t = -t if d < 0 else t
                c = math.isqrt((1 << 2 * f2) // ((1 << f2) + t * t))
                s = (t * c) >> f
                cr, ci, sr, si = ((c * ur) >> f, (c * ui) >> f,
                                  (s * ur) >> f, (s * ui) >> f)
                # columns p and q of G and of V: x' = c x - s u y and
                # y' = s x + c u y for x, y their entries in one row
                for mr, mi in ((gr, gi), (vr, vi)):
                    pr, pi, qr, qi = mr[p], mi[p], mr[q], mi[q]
                    mr[p] = [(c * x - sr * yr + si * yi) >> f
                             for x, yr, yi in zip(pr, qr, qi)]
                    mi[p] = [(c * x - sr * yi - si * yr) >> f
                             for x, yr, yi in zip(pi, qr, qi)]
                    mr[q] = [(s * x + cr * yr - ci * yi) >> f
                             for x, yr, yi in zip(pr, qr, qi)]
                    mi[q] = [(s * x + cr * yi + ci * yr) >> f
                             for x, yr, yi in zip(pi, qr, qi)]
                # rows p and q of G, the conjugates of its new columns
                pr, pi, qr, qi = gr[p], gi[p], gr[q], gi[q]
                for r in range(n):
                    gr[r][p], gi[r][p] = pr[r], -pi[r]
                    gr[r][q], gi[r][q] = qr[r], -qi[r]
                tg = (t * g) >> f2
                gr[p][p], gr[q][q] = a - tg, b + tg
                gi[p][p] = gi[q][q] = 0
                gr[q][p] = gi[q][p] = gr[p][q] = gi[p][q] = 0
        if not rotated:
            return ([gr[i][i] for i in range(n)],
                    [list(zip(vr[i], vi[i])) for i in range(n)])
    raise ArithmeticError("Jacobi eigensolve of a %d x %d Gram matrix "
                          "still rotating after %d sweeps" % (n, n, _SWEEPS))


def span_closure(M, statement, transform, points):
    """Fit each transformed family member inside the family and return
    the SpanCertificate.  The S side divides out the elliptic factor
    e^{2 pi i (1/M - 1) z^2 / tau} first; T transforms tau -> tau + 1.
    """
    if transform not in ("S", "T"):
        raise ValueError("transform must be 'S' or 'T'")
    members = family_members(M, statement)
    n = len(members)
    pts = list(points)
    if len(pts) < 2 * n:
        raise ValueError("need at least %d points for a family of %d"
                         % (2 * n, n))
    for p in pts:
        if not p.is_diagonal:
            raise ValueError("span points must have z1 = z2 and t = 0")
    family = FamilyPlan(M, members)
    A, B = [], []
    for p in pts:
        tau = _mpc_any(p.tau)
        z = _mpc_any(p.z1)
        A.append(family.values(tau, z))
        if transform == "S":
            B.append(family.values(-1 / tau, z / tau, mp.exp(
                2j * mp.pi * (mp.mpf(1) / M - 1) * z * z / tau)))
        else:
            B.append(family.values(tau + 1, z))
    C, resid, rank, cond = _lstsq_min_norm(A, B)
    coeff_rows = tuple(tuple(complex(to_mpc(C[j][i])) for j in range(n))
                       for i in range(n))
    return SpanCertificate(
        transform=transform, M=M, statement=statement,
        family=tuple(member_id(m) for m in members),
        coefficients=coeff_rows,
        residual=float(resid),
        points=tuple(pts),
        precision_bits=mp.prec,
        rank=rank,
        condition=float(cond),
    )


def predicted_t_matrix(M, statement):
    """The exact T action when the family is linearly independent:
    member (eps, eps'), (j, k) maps to e^{2 pi i jk/M} e^{pi i eps'}
    times the member at block (eps + eps' mod 1, eps'), same indices."""
    members = family_members(M, statement)
    index = {mem: i for i, mem in enumerate(members)}
    n = len(members)
    rows = []
    for mem in members:
        (eps, eps_p), (j1, j2) = mem
        target = (((eps + eps_p) % 1, eps_p), (j1, j2))
        phase = complex(mp.exp(2j * mp.pi * _mpfrac(j1 * j2) / M)
                        * mp.exp(1j * mp.pi * _mpfrac(eps_p)))
        row = [0j] * n
        row[index[target]] = phase
        rows.append(tuple(row))
    return tuple(rows)
