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

Fitting (_lstsq_min_norm) runs on the passes' values: the sample
matrix is column-scaled and every product of the normal equations is
an int sum on fixed-point complex ints, with its rounding stated; only
the small Hermitian eigensolve runs on mpmath (mp.eighe).  Small
eigenvalues are truncated, giving the minimum-norm least-squares
solution.  Rank deficiency of a family (exactly degenerate members,
e.g. every M = 1 character is the constant 1) is therefore handled
quietly, while a retained-spectrum condition number above
COND_THRESHOLD raises IllConditionedError: that signals bad point
selection, not a failed identity.

All evaluations use the ambient mpmath precision; callers scope it
with mp.workdps.  span_closure plans its family once (FamilyPlan: the
blocks, their requests, distinct lattice sums and prefactor powers) and
evaluates it at each sample point and each side of the transform in one
theta.ThetaPass at that side's own coordinates: every theta, eta and
prefactor of its members comes from the pass's own exponentials, one
per coordinate, each distinct lattice sum is walked once, and the S
side divides out its elliptic factor as one pass value.
family_values, denominator_numeric and character_member_numeric are
the same evaluation converted to mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .characters import denominator_label, sector_eps_prime, sign_eps
from .mockpsi import (HALF, PsiParams, _guard_pole, _mpc_any, _mpfrac,
                      psi_plan, psi_value, psi_values)
from .qseries import ONE, _from_mpc, to_mpc
from .theta import THETA_LABELS, PassPlan, ThetaPass, _fixed, modulus

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


def psi_s_residual(blocks, p):
    """|LHS - RHS| of the S-law for each Psi block of one level at one
    point: the blocks at (-1/tau, z1/tau, z2/tau, t) from one ThetaPass,
    against (tau/M) times the elliptic factor times the M^2-fold
    phase-weighted sum of swapped blocks at (tau, z1, z2, t), those of
    all the blocks from another."""
    tau, z1, z2, t = (_mpc_any(v) for v in (p.tau, p.z1, p.z2, p.t))
    M = blocks[0].M
    lhs = psi_values(blocks, -1 / tau, z1 / tau, z2 / tau, t)
    swapped = [[PsiParams(M, pr.eps + na, pr.eps + nb, pr.eps_prime, pr.eps)
                for na in range(M) for nb in range(M)] for pr in blocks]
    values = iter(psi_values([b for row in swapped for b in row],
                             tau, z1, z2, t))
    factor = (tau / M) * mp.exp(2j * mp.pi * z1 * z2 / (M * tau))
    out = []
    for pr, row, left in zip(blocks, swapped, lhs):
        j, k = _mpfrac(pr.j), _mpfrac(pr.k)
        acc = mp.mpc(0)
        for blk in row:
            acc += next(values) * mp.exp(-2j * mp.pi * (_mpfrac(blk.j) * k
                                                        + _mpfrac(blk.k) * j)
                                         / M)
        out.append(float(abs(left - factor * acc)))
    return out


def psi_t_residual(blocks, p):
    """|LHS - RHS| of the T-law for each Psi block at one point: the
    blocks at (tau + 1, ...) from one ThetaPass against e^{2 pi i jk/M}
    times the blocks with eps -> eps + eps' mod 1 from another."""
    tau, z1, z2, t = (_mpc_any(v) for v in (p.tau, p.z1, p.z2, p.t))
    lhs = psi_values(blocks, tau + 1, z1, z2, t)
    rhs = psi_values([PsiParams(pr.M, pr.j, pr.k, (pr.eps + pr.eps_prime) % 1,
                                pr.eps_prime) for pr in blocks],
                     tau, z1, z2, t)
    return [float(abs(a - mp.exp(2j * mp.pi * _mpfrac(pr.j * pr.k) / pr.M)
                      * b))
            for pr, a, b in zip(blocks, lhs, rhs)]


def denominator_numeric(sign, sector, tau, z):
    """R^{(eps)}_{eps'}(tau, z) as the three-thetas-over-one quotient, the
    one-denominator ThetaPass."""
    tp = ThetaPass((_mpc_any(tau), _mpc_any(z)), _DEN_REQUESTS)
    return to_mpc(_den_value(tp, sign, sector))


# the ThetaPass requests of theta_ab(tau, z) at coordinates (tau, z)
_DEN_REQUESTS = tuple((int(lab[0]), int(lab[1]), 1, (0, 1), 0)
                      for lab in THETA_LABELS)


def _den_value(tp, sign, sector):
    d = denominator_label(sign, sector)
    thetas = dict(zip(THETA_LABELS, map(tp.theta, _DEN_REQUESTS)))
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


def character_member_numeric(M, member, tau, z):
    """One family member Psi_{j1,j2}/R at a diagonal point."""
    return family_values(M, [member], _mpc_any(tau), _mpc_any(z))[0]


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
            + list(_DEN_REQUESTS),
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


def _top(values):
    """The binary magnitude bitlen + e of the largest of some ThetaPass
    values, 0 if all are 0."""
    return max(((abs(re) | abs(im)).bit_length() + e
                for re, im, e in values if re or im), default=0)


def _lstsq_min_norm(A, B):
    """Minimum-norm least squares A C = B via scaled normal equations,
    for A and B lists of rows of ThetaPass values (re, im, e).

    Columns of A are scaled to unit max modulus (As), the Gram matrix
    As^H As is diagonalized (mp.eighe at the working precision prec),
    eigenvalues below RANK_CUTOFF^2 relative are dropped, and the
    retained condition number is checked against COND_THRESHOLD;
    IllConditionedError is raised for a zero matrix, no usable rank or a
    condition above it.  Returns (C, max entrywise |A C - B|, retained
    rank, retained condition number), C as rows of values.

    Everything but the eigensolve runs on fixed-point complex ints with
    F = prec + bitlen(rows + cols) + 10 fraction bits: As, each column of
    B scaled by a power of two to modulus below 2 (exact), the
    eigenvectors V, As^H As, As^H B, V^H (As^H B), V (...) / E and the
    residual As Cs - B.  Every stored entry is within 2^(2 - F) of the
    value it rounds (its parts are floored, and a column's scale s is
    found to F + 1 bits), and every product entry is one exact int sum
    shifted once, so an entry that sums n products of factors of modulus
    at most X and Y is within 2^(2 - F) (n (X + Y + 1) + 1) of the exact
    sum over the unrounded factors.  Carried through the solve to first
    order, with the eigensolver's backward error, these leave A C within
    2^(8 - prec) rows^2 cols cond^2 max|B| of the exact projection of B
    onto the retained span, as they leave the same fit run on mpmath
    matrices.
    """
    rows, cols = len(A), len(A[0])
    f = mp.prec + (rows + cols).bit_length() + 10
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
    G = mp.matrix(cols, cols)
    for i in range(cols):
        for j in range(i, cols):
            re, im = _dot(ah_cols[i], a_cols[j], f)
            G[i, j] = to_mpc((re, im, -f))
            G[j, i] = to_mpc((re, -im, -f))
    bp_cols = [[_dot(ah, col, f) for ah in ah_cols] for col in b_cols]
    E, V = mp.eighe(G)
    emax = max(abs(E[i]) for i in range(cols))
    if emax == 0:
        raise IllConditionedError("sample matrix is zero")
    cut = emax * RANK_CUTOFF ** 2
    kept = [i for i in range(cols) if E[i] > cut]
    if not kept:
        raise IllConditionedError("sample matrix has no usable rank")
    cond = mp.sqrt(emax / min(E[i] for i in kept))
    if cond > COND_THRESHOLD:
        raise IllConditionedError(
            "retained condition number %.3g above %g: pick other points"
            % (float(cond), COND_THRESHOLD))
    v_rows = [[_fixed(_from_mpc(mp.mpc(V[k, i])._mpc_, f), f) for i in kept]
              for k in range(cols)]
    vh_cols = [_conj(col) for col in zip(*v_rows)]
    # W = E^-1 V^H B' on the kept eigenvalues, then Cs = V W
    cs_cols = []
    for bp in bp_cols:
        w = [_over(_dot(vh, bp, f), E[i]) for vh, i in zip(vh_cols, kept)]
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


def _over(x, v):
    """A fixed-point complex int over a positive mpf v = man 2^exp, to
    the same fraction bits, by exact floor division."""
    _, man, exp, _ = v._mpf_
    if exp < 0:
        return (x[0] << -exp) // man, (x[1] << -exp) // man
    return x[0] // (man << exp), x[1] // (man << exp)


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
