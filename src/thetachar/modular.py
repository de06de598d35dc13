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

Each law is written once, as a table row whose terms are
(target, indices, r) at the phase e^{-2 pi i r/(4M)}, one of the 4M
roots: _BLOCK_LAWS holds the S and T laws and the symmetries of the
blocks, which block_law_residual checks, and _den_image the S and T
laws of the denominators, which denominator_transform_residual checks.
The predicted matrices (predicted_s_matrix, predicted_t_matrix) read
the same rows: a member's image is its block's over its denominator's
(_member_image).  span_closure certifies closure with them: it sums the
residual |B - A P| of each transformed member against its predicted
row P on the passes' values, in the format qseries owns, with its
rounding stated.  No fit enters, so a family that is not independent
(every M = 1 character is the constant 1) is certified like any other.
t_law_on_series checks the T law exactly on the members' series.

All evaluations use the ambient mpmath precision; callers scope it
with mp.workdps.  mockpsi.PsiPlan evaluates every block.  span_closure
plans its family once, the members' blocks each over its denominator R,
and evaluates it at each sample point and each side of the transform in
one theta.ThetaPass at that side's own coordinates: every theta, eta,
prefactor and R of its members comes from the pass's own exponentials,
one per coordinate, and the S side divides out its elliptic factor as
one pass value.  denominator_numeric is one R on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .characters import (denominator, denominator_label, sector_eps_prime,
                         sign_eps)
from .mockpsi import (_DEN_PLAN, HALF, PsiParams, PsiPlan, _den_value,
                      _mpc_any, psi_pair_ratio)
from .qseries import JacobiSeries, _fixed, _from_mpc, _top, modulus, to_mpc
from .theta import ThetaPass

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


def _roots(M, rs=None):
    """The roots e^{-2 pi i r/(4M)} by r, for the r in rs (all 4M by
    default), at the working precision: exact at +-1 and +-i."""
    return {r: mp.expjpi(mp.mpf(-r) / (2 * M)) for r in rs or range(4 * M)}


# law -> (coordinates, factor, image): a block Psi^{(eps)}_{eps'; j,k} of
# level M at coordinates(tau, z1, z2, t) is factor(M, tau, z1, z2) (1 if
# None) times the sum of e^{-2 pi i r/(4M)} Psi^{target}_{indices} at
# (tau, z1, z2) and the same t, over the terms (target, indices, r) of
# image(M, eps, eps', j, k)
_BLOCK_LAWS = {
    # the M^2 blocks (eps', eps) at (a, b) = (eps + na, eps + nb), at the
    # phases e^{-2 pi i (ak + bj)/M}
    "S": (lambda tau, z1, z2, t: (-1 / tau, z1 / tau, z2 / tau, t),
          lambda M, tau, z1, z2: (tau / M) * mp.exp(
              2j * mp.pi * z1 * z2 / (M * tau)),
          lambda M, eps, eps_p, j, k: (
              ((eps_p, eps), (eps + na, eps + nb),
               int(4 * ((eps + na) * k + (eps + nb) * j)) % (4 * M))
              for na in range(M) for nb in range(M))),
    # eps -> eps + eps' mod 1 at the phase e^{2 pi i jk/M}
    "T": (lambda tau, z1, z2, t: (tau + 1, z1, z2, t), None,
          lambda M, eps, eps_p, j, k: [(((eps + eps_p) % 1, eps_p), (j, k),
                                        -int(4 * j * k) % (4 * M))]),
    # the symmetries, at t = 0: an index shift by (M, 0) costs the phase
    # e^{2 pi i eps}
    "periodicity": (lambda tau, z1, z2, t: (tau, z1, z2, 0), None,
                    lambda M, eps, eps_p, j, k: [
                        ((eps, eps_p), (j + M, k), int(4 * M * eps))]),
    # negating both z and swapping them maps (j, k) to (-k, -j) with a
    # global minus sign
    "reflect-swap": (lambda tau, z1, z2, t: (tau, -z2, -z1, 0), None,
                     lambda M, eps, eps_p, j, k: [
                         ((eps, eps_p), (-k, -j), 2 * M)]),
    # swapping z1, z2 swaps the indices
    "swap": (lambda tau, z1, z2, t: (tau, z2, z1, 0), None,
             lambda M, eps, eps_p, j, k: [((eps, eps_p), (k, j), 0)]),
    # negating both z negates the block at (-j, -k)
    "reflect": (lambda tau, z1, z2, t: (tau, -z1, -z2, 0), None,
                lambda M, eps, eps_p, j, k: [((eps, eps_p), (-j, -k), 2 * M)]),
}


def block_law_residual(blocks, law, pts):
    """|LHS - RHS| of one law of _BLOCK_LAWS for each Psi block, all of
    one level, at each point, point by point: the blocks at the law's
    coordinates against its factor times the phase-weighted sum of their
    images at the point.  Each side is planned once (PsiPlan, off the
    diagonal, which serves any point) and takes one ThetaPass a point,
    the left side's first; the phases are the 4M roots, taken once."""
    coordinates, factor, image = _BLOCK_LAWS[law]
    M = blocks[0].M
    terms = [list(image(M, pr.eps, pr.eps_prime, pr.j, pr.k))
             for pr in blocks]
    roots = _roots(M, {r for row in terms for _, _, r in row})
    lhs_plan = PsiPlan(blocks, False)
    rhs_plan = PsiPlan([PsiParams(M, *pair, *target)
                        for row in terms for target, pair, _ in row], False)
    out = []
    for p in pts:
        tau, z1, z2, t = (_mpc_any(v) for v in (p.tau, p.z1, p.z2, p.t))
        *side, t = coordinates(tau, z1, z2, t)
        phase = mp.exp(-2j * mp.pi * t / M) if t else 1
        lhs = [phase * to_mpc(v) for v in lhs_plan.values(tuple(side))]
        values = (phase * to_mpc(v) for v in rhs_plan.values((tau, z1, z2)))
        f = factor(M, tau, z1, z2) if factor else 1
        for row, left in zip(terms, lhs):
            first, *rest = (next(values) * roots[r] for _, _, r in row)
            out.append(float(abs(left - f * sum(rest, first))))
    return out


def denominator_numeric(sign, sector, tau, z):
    """R^{(eps)}_{eps'}(tau, z) as the three-thetas-over-one quotient
    (mockpsi._den_value): one denominator, from one pass of _DEN_PLAN."""
    tp = ThetaPass((_mpc_any(tau), _mpc_any(z)), _DEN_PLAN)
    return to_mpc(_den_value(tp, denominator_label(sign, sector), sign))


def _den_image(block, which):
    """(target, sign, r) of the denominator R^{(eps)}_{eps'} of block
    (eps, eps') under the transform which: S swaps eps and eps' at the
    sign (-1)^{4 eps eps'}, T maps eps to eps + eps' mod 1 at the phase
    e^{-pi i eps'} = e^{-2 pi i r/4}."""
    eps, eps_p = block
    if which == "S":
        return (eps_p, eps), -1 if eps == eps_p == HALF else 1, 0
    if which == "T":
        return ((eps + eps_p) % 1, eps_p), 1, int(2 * eps_p)
    raise ValueError("which must be 'S' or 'T'")


def denominator_transform_residual(sign, sector, which, p):
    """|LHS - RHS| of the denominator S-law (factor tau e^{2 pi i z^2/tau})
    or T-law at the diagonal point p, with _den_image's target, sign and
    phase."""
    target, parity, r = _den_image(
        (sign_eps(sign), sector_eps_prime(sector)), which)
    tau, z = _mpc_any(p.tau), _mpc_any(p.z1)
    if which == "S":
        lhs = denominator_numeric(sign, sector, -1 / tau, z / tau)
        factor = parity * tau * mp.exp(2j * mp.pi * z * z / tau)
    else:
        lhs = denominator_numeric(sign, sector, tau + 1, z)
        factor = parity
    rhs = factor * _roots(1, [r])[r] * denominator_numeric(
        *_block_sign_sector(target), tau, z)
    return float(abs(lhs - rhs))


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


def _member_image(M, member, which):
    """The terms (target, sign, r) of member (eps, eps'), (j1, j2) under
    the transform which: its block's image (_BLOCK_LAWS) over its
    denominator's (_den_image), so sign is the denominator's sign and r
    the block's r less M times the denominator's.  A target index 0 is
    folded to M at the sign (-1)^{2 eps} of the target's eps, by
    theta_11's quasi-periodicity (the periodicity law), and each pair is
    sorted, since Psi_{a,b} = Psi_{b,a} on the diagonal."""
    block, pair = member
    _, sign, r_den = _den_image(block, which)
    for (eps, eps_p), (a, b), r in _BLOCK_LAWS[which][2](M, *block, *pair):
        fold = -1 if eps == HALF and (a == 0) != (b == 0) else 1
        yield (((eps, eps_p), tuple(sorted((a or M, b or M)))),
               sign * fold, (r - M * r_den) % (4 * M))


def _predicted(M, statement, which, scale):
    """The rows of the members' images under the transform which, each
    entry the sum of its terms sign e^{-2 pi i r/(4M)} over scale, from
    the 4M roots computed once at the working precision."""
    members = family_members(M, statement)
    index = {m: i for i, m in enumerate(members)}
    roots = _roots(M)
    rows = []
    for member in members:
        row = [mp.mpc(0)] * len(members)
        for target, sign, r in _member_image(M, member, which):
            row[index[target]] += sign * roots[r]
        rows.append(tuple(x / scale for x in row))
    return tuple(rows)


def predicted_s_matrix(M, statement):
    """The S action on the family, as rows of mpc at the working
    precision: row i holds the coefficients of member i at
    (-1/tau, z/tau), divided by e^{2 pi i (1/M - 1) z^2/tau}, over the
    members at (tau, z).

    Member (eps, eps'), (j, k) goes to (-1)^{4 eps eps'}/M times the
    sum over na, nb in 0..M-1 of e^{-2 pi i (ak + bj)/M} times the member
    of block (eps', eps) at (a, b) = (eps + na, eps + nb): the blocks'
    S-law over the denominators' (_member_image), whose factors
    (tau/M) e^{2 pi i z1 z2/(M tau)} and tau e^{2 pi i z^2/tau} leave 1/M
    and the elliptic factor on the diagonal.  The members of block
    (eps', eps) have indices 1/2..M - 1/2 for eps = 1/2, which holds
    every a and b, and 1..M for eps = 0, where an index 0 is folded to
    M.  The entries are sums of the 4M roots over M (Kac-Peterson 1984,
    Kac-Wakimoto 1988)."""
    return _predicted(M, statement, "S", M)


def predicted_t_matrix(M, statement):
    """The T action on the family, as rows of mpc at the working
    precision: member (eps, eps'), (j1, j2) at tau + 1 is
    e^{2 pi i j1 j2/M} e^{pi i eps'} times the member at block
    (eps + eps' mod 1, eps'), same indices: the blocks' T-law
    (e^{2 pi i jk/M} and eps -> eps + eps') over the denominators'
    (e^{-pi i eps'}), read by _member_image, each phase one of the 4M
    roots."""
    return _predicted(M, statement, "T", 1)


def t_law_on_series(M, statement):
    """The T law exactly on the member series, with no numerics: each
    member Psi_{j1,j2}/R, as an exact ThetaQuotient expanded below q^6 in
    the x-window (-3, 3), has its coefficient at q^n times e^{2 pi i n}
    over its term sign e^{-2 pi i r/(4M)} (_member_image), that is
    times i^(4 n + r/M + 1 - sign), equal to its target's coefficient at
    the same monomial, and the two supports agree.  Returns (terms
    compared, ids of the members whose law fails)."""
    members = family_members(M, statement)
    series = {}
    for member in members:
        block, (j1, j2) = member
        quotient = (psi_pair_ratio(PsiParams(M, j1, j2, *block))
                    / denominator(*_block_sign_sector(block)))
        series[member] = quotient.expand(6, (-3, 3))[0]
    terms, bad = 0, []
    for member in members:
        ((target, sign, r),) = _member_image(M, member, "T")
        a, b = JacobiSeries._aligned(series[member], series[target])
        ok = a.c.keys() == b.c.keys()
        for (qn, xn), c in a.c.items():
            k = Fraction(4 * qn, a.q_den) + Fraction(r, M) + 1 - sign
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

    The members are one PsiPlan, each block over its R, named by its
    theta label d and sign, and take one ThetaPass per point and side.
    The sums run on the passes' values (_residual) with
    wp = prec + bitlen(18 M + 2 n + 1) + 20 fraction bits, n members, and
    P computed at wp bits: 19 bits more than the bound below needs, so
    that the residual shows the passes' own rounding.  Taking each of the
    4M roots within 2^(3 - wp), an entry that sums c of them over M is
    within (c + 1) 2^(3 - wp)/M, and a row's c sum to at most M^2, so
    its entries are within M 2^(4 - wp) in all, and sum_j |P_ij| <= 2 M.
    With _residual's floors, each residual is then within
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
    sign_sectors = [_block_sign_sector(block) for block, _ in members]
    family = PsiPlan([PsiParams(M, *pair, *block) for block, pair in members],
                     True, [(denominator_label(*ss), ss[0])
                            for ss in sign_sectors])
    resid = 0.0
    for p in pts:
        tau = _mpc_any(p.tau)
        z = _mpc_any(p.z1)
        a = family.values((tau, z))
        if transform == "S":
            b = family.values((-1 / tau, z / tau), mp.exp(
                2j * mp.pi * (mp.mpf(1) / M - 1) * z * z / tau))
        else:
            b = family.values((tau + 1, z))
        resid = max(resid, _residual(rows, a, b, wp))
    return SpanCertificate(
        transform=transform, M=M, statement=statement,
        family=tuple(member_id(m) for m in members),
        coefficients=tuple(tuple(complex(c) for c in row) for row in P),
        residual=resid,
        points=tuple(pts),
        precision_bits=mp.prec,
    )
