"""Numeric certification of modular transformation laws.

Truncated q-series cannot see tau -> -1/tau, so the S and T laws for
the Psi blocks, the denominators, and the character families are
checked numerically: residuals of the stated identities at generic
points, and certificates that the span of a character family is
carried into itself by the predicted S and T matrices.

The span families pair a half-characteristic block (eps, eps') with
index pairs (j1, j2) drawn from

    eps' = 1/2:  half-odd j with 0 < j < M,
    eps' = 0:    integer j with 0 < j <= M,

deduplicated under (j1, j2) ~ (j2, j1) since the diagonal-argument
block is symmetric in its indices.  Statement 1 spans the blocks
(1/2, 1/2), (0, 1/2), (1/2, 0); statement 2 spans (0, 0).  Both block
sets are closed under the S swap (eps <-> eps') and the T map
(eps -> eps + eps' mod 1).

span_closure certifies closure with the predicted matrices
(predicted_s_matrix, predicted_t_matrix), which follow from the S and T
laws of the blocks and the denominators: it sums the residual
|B - A P| of each transformed member against its predicted row P on the
passes' values, in the format qseries owns, with its rounding stated.
No fit enters, so a family that is not independent (every M = 1
character is the constant 1) is certified like any other.
t_law_on_series checks the T law exactly on the members' series.

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

from .characters import (denominator, denominator_label, sector_eps_prime,
                         sign_eps)
from .mockpsi import (HALF, PsiParams, PsiPlan, _guard_pole, _mpc_any,
                      _mpfrac, psi_pair_ratio, psi_plan, psi_value)
from .qseries import (ONE, JacobiSeries, _fixed, _from_mpc, _top, modulus,
                      to_mpc)
from .theta import THETA_LABELS, PassPlan, ThetaPass

IM_TAU_FLOOR = 0.3


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




def _s_image(M, member):
    """The terms (target, sign, r) of member (eps, eps'), (j, k) at
    (-1/tau, z/tau), its elliptic factor divided out: M times it is the
    sum of sign e^{-2 pi i r/(4M)} times the members target
    (predicted_s_matrix)."""
    (eps, eps_p), (j, k) = member
    for na in range(M):
        for nb in range(M):
            a, b = eps + na, eps + nb
            sign = -1 if eps == eps_p == HALF else 1
            if eps_p == HALF and (a == 0) != (b == 0):
                sign = -sign
            yield (((eps_p, eps), tuple(sorted((a or M, b or M)))), sign,
                   int(4 * (a * k + b * j)) % (4 * M))


def _t_image(M, member):
    """The one term (target, 1, r) of member (eps, eps'), (j1, j2) at
    tau + 1: e^{-2 pi i r/(4M)} = e^{2 pi i j1 j2/M} e^{pi i eps'} times
    the member at block (eps + eps' mod 1, eps'), same indices."""
    (eps, eps_p), (j1, j2) = member
    yield (((eps + eps_p) % 1, eps_p), (j1, j2)), 1, \
        -int(4 * j1 * j2 + 2 * M * eps_p) % (4 * M)


def _predicted(M, statement, image, scale):
    """The rows of the members' images, each entry the sum of its terms
    sign e^{-2 pi i r/(4M)} over scale, from the 4M roots computed once
    at the working precision."""
    members = family_members(M, statement)
    index = {m: i for i, m in enumerate(members)}
    roots = [mp.expjpi(mp.mpf(-r) / (2 * M)) for r in range(4 * M)]
    rows = []
    for member in members:
        row = [mp.mpc(0)] * len(members)
        for target, sign, r in image(M, member):
            row[index[target]] += sign * roots[r]
        rows.append(tuple(x / scale for x in row))
    return tuple(rows)


def predicted_s_matrix(M, statement):
    """The S action on the family, as rows of mpc at the working
    precision: row i holds the coefficients of member i at
    (-1/tau, z/tau), divided by e^{2 pi i (1/M - 1) z^2/tau}, over the
    members at (tau, z).

    It comes from the two S-laws the modular suite checks.  The blocks'
    (psi_s_residual) sends Psi^{(eps)}_{eps'; j,k} to
    (tau/M) e^{2 pi i z1 z2/(M tau)} times the sum over na, nb in 0..M-1
    of e^{-2 pi i (a k + b j)/M} Psi^{(eps')}_{eps; a,b}, with a = eps + na
    and b = eps + nb; the denominators' (denominator_transform_residual)
    sends R^{(eps)}_{eps'} to (-1)^{4 eps eps'} tau e^{2 pi i z^2/tau}
    R^{(eps')}_{eps}.  On the diagonal their quotient sends member
    (eps, eps'), (j, k) to (-1)^{4 eps eps'}/M times that phase sum of
    the members of block (eps', eps).  Those members' indices run over
    1/2..M - 1/2 for eps = 1/2, which holds every a and b, and over 1..M
    for eps = 0, where an index 0 is folded to M: theta_11's
    quasi-periodicity gives Psi^{(eps')}_{a + M, b} = (-1)^{2 eps'}
    Psi^{(eps')}_{a, b}.  Psi_{a,b} = Psi_{b,a} on the diagonal, so each
    pair is sorted (_s_image).  Each phase is a power of e^{-2 pi i/(4M)},
    4 (a k + b j) being an integer, so the entries are sums of the 4M
    roots e^{-2 pi i r/(4M)} over M (Kac-Peterson 1984, Kac-Wakimoto
    1988)."""
    return _predicted(M, statement, _s_image, M)


def predicted_t_matrix(M, statement):
    """The T action on the family, as rows of mpc at the working
    precision: member (eps, eps'), (j1, j2) at tau + 1 is
    e^{2 pi i j1 j2/M} e^{pi i eps'} times the member at block
    (eps + eps' mod 1, eps'), same indices (_t_image).  This is the
    blocks' T-law (psi_t_residual: e^{2 pi i jk/M} and
    eps -> eps + eps') over the denominators'
    (denominator_transform_residual: e^{-pi i eps'}), and each phase is
    one of the 4M roots e^{-2 pi i r/(4M)}."""
    return _predicted(M, statement, _t_image, 1)


def t_law_on_series(M, statement):
    """The T law exactly on the member series, with no numerics: each
    member Psi_{j1,j2}/R, as an exact ThetaQuotient expanded below q^6 in
    the x-window (-3, 3), has its coefficient at q^n times e^{2 pi i n}
    over its phase e^{-2 pi i r/(4M)} (_t_image), that is times
    i^(4 n + r/M), equal to its target's coefficient at the same
    monomial, and the two supports agree.  Returns (terms compared, ids
    of the members whose law fails)."""
    members = family_members(M, statement)
    series = {}
    for member in members:
        block, (j1, j2) = member
        quotient = (psi_pair_ratio(PsiParams(M, j1, j2, *block))
                    / denominator(*_block_sign_sector(block)))
        series[member] = quotient.expand(6, (-3, 3))[0]
    terms, bad = 0, []
    for member in members:
        ((target, _, r),) = _t_image(M, member)
        a, b = JacobiSeries._aligned(series[member], series[target])
        ok = a.c.keys() == b.c.keys()
        for (qn, xn), c in a.c.items():
            k = Fraction(4 * qn, a.q_den) + Fraction(r, M)
            ok = ok and k.denominator == 1 and \
                c.times_i_power(int(k)) == b.c[qn, xn]
        terms += len(a.c)
        if not ok:
            bad.append(member_id(member))
    return terms, bad


@dataclass(frozen=True)
class SpanCertificate:
    """Evidence that a transform maps the family span into itself: the
    predicted matrix P as coefficient rows, row i the image of member i
    over the members, and the largest |B - A P| over the sample points
    (span_closure)."""
    transform: str
    M: int
    statement: int
    family: tuple
    coefficients: tuple
    residual: float
    points: tuple
    precision_bits: int

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


def _residual(rows, a, b, wp):
    """max_i |b_i - sum_j P_ij a_j| at one point, for a and b lists of
    values and rows of the nonzero (j, P_ij), each P_ij a fixed-point
    complex int with wp fraction bits.  The a_j and b_i are floored to
    multiples of 2^(top - wp), top = _top(a + b), and each row is one
    exact int sum, so with k nonzeros it is within
    2^(top + 1 - wp) (sum_j |P_ij| + 2 k + 1) of the same sum over the
    unfloored a, b and P."""
    s = wp - _top(a + b)
    fixed = [_fixed(v, s) for v in a]
    out = 0.0
    for row, v in zip(rows, b):
        re, im = _fixed(v, s)
        re, im = re << wp, im << wp
        for j, (pr, pi) in row:
            ar, ai = fixed[j]
            re -= pr * ar - pi * ai
            im -= pr * ai + pi * ar
        out = max(out, modulus((re, im, -s - wp)))
    return out


def span_closure(M, statement, transform, points):
    """Certify that the transform carries the family span into itself
    with the predicted matrix P (predicted_s_matrix, predicted_t_matrix):
    the SpanCertificate holds P's rows as its coefficients and, as its
    residual, the largest |b_i - sum_j P_ij a_j| over the points and
    members, a_j the members at (tau, z) and b_i member i transformed.
    The S side divides out the elliptic factor
    e^{2 pi i (1/M - 1) z^2 / tau} first; T transforms tau -> tau + 1.
    No fit enters: P is exhibited, so a small residual shows closure
    whether or not the members are independent.

    The sums run on the passes' values (_residual) with
    wp = prec + bitlen(18 M + 2 n + 1) + 20 fraction bits, n members, and
    P computed at wp bits: 19 bits more than the bound below needs, so
    that the residual shows the passes' own rounding.  Taking each of the 4M roots within
    2^(3 - wp), an entry that sums c of them over M is within
    (c + 1) 2^(3 - wp)/M, and a row's c sum to at most M^2, so its
    entries are within M 2^(4 - wp) in all, and sum_j |P_ij| <= 2 M.  With
    _residual's floors, each residual is then within
    2^(top + 1 - wp) (18 M + 2 n + 1) <= 2^(top - prec - 19) of the exact
    P's over the same pass values, where 2^(top - 1) is at most the
    point's largest value.
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
    predicted = predicted_s_matrix if transform == "S" else predicted_t_matrix
    wp = mp.prec + (18 * M + 2 * n + 1).bit_length() + 20
    with mp.workprec(wp):
        P = predicted(M, statement)
        rows = [[(j, _fixed(_from_mpc(c._mpc_, wp), wp))
                 for j, c in enumerate(row) if c] for row in P]
    family = FamilyPlan(M, members)
    resid = 0.0
    for p in pts:
        tau = _mpc_any(p.tau)
        z = _mpc_any(p.z1)
        a = family.values(tau, z)
        if transform == "S":
            b = family.values(-1 / tau, z / tau, mp.exp(
                2j * mp.pi * (mp.mpf(1) / M - 1) * z * z / tau))
        else:
            b = family.values(tau + 1, z)
        resid = max(resid, _residual(rows, a, b, wp))
    return SpanCertificate(
        transform=transform, M=M, statement=statement,
        family=tuple(member_id(m) for m in members),
        coefficients=tuple(tuple(complex(c) for c in row) for row in P),
        residual=resid,
        points=tuple(pts),
        precision_bits=mp.prec,
    )
