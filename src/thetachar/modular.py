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

Fitting runs over mpmath: the sample matrix is column-scaled, the
normal equations are diagonalized with a Hermitian eigensolver, and
small eigenvalues are truncated, giving the minimum-norm least-squares
solution.  Rank deficiency of a family (exactly degenerate members,
e.g. every M = 1 character is the constant 1) is therefore handled
quietly, while a retained-spectrum condition number above
COND_THRESHOLD raises IllConditionedError: that signals bad point
selection, not a failed identity.

All evaluations use the ambient mpmath precision; callers scope it
with mp.workdps.  span_closure evaluates the whole family at each
sample point and each side of the transform in one theta.ThetaPass
(family_values): every theta, eta and prefactor of its members comes
from the point's shared exponentials, each distinct lattice sum is
walked once, and denominator_numeric and character_member_numeric are
the one-block case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .characters import denominator_label, sector_eps_prime, sign_eps
from .mockpsi import (HALF, PsiParams, _guard_pole, _mpc_any, _mpfrac,
                      psi_numeric, psi_requests, psi_value)
from .theta import THETA_LABELS, ThetaPass

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


def psi_s_residual(params, p):
    """|LHS - RHS| of the S-law for one Psi block at one point: the
    block at (-1/tau, z1/tau, z2/tau, t) against (tau/M) times the
    elliptic factor times the M^2-fold phase-weighted sum of swapped
    blocks at (tau, z1, z2, t)."""
    pr = params
    tau = _mpc_any(p.tau)
    z1 = _mpc_any(p.z1)
    z2 = _mpc_any(p.z2)
    t = _mpc_any(p.t)
    lhs = psi_numeric(pr, -1 / tau, z1 / tau, z2 / tau, t)
    j = _mpfrac(pr.j)
    k = _mpfrac(pr.k)
    acc = mp.mpc(0)
    for na in range(pr.M):
        for nb in range(pr.M):
            a = pr.eps + na
            b = pr.eps + nb
            blk = PsiParams(pr.M, a, b, pr.eps_prime, pr.eps)
            phase = mp.exp(-2j * mp.pi * (_mpfrac(a) * k + _mpfrac(b) * j)
                           / pr.M)
            acc += phase * psi_numeric(blk, tau, z1, z2, t)
    rhs = (tau / pr.M) * mp.exp(2j * mp.pi * z1 * z2 / (pr.M * tau)) * acc
    return float(abs(lhs - rhs))


def psi_t_residual(params, p):
    """|LHS - RHS| of the T-law: the block at (tau + 1, ...) against
    e^{2 pi i jk/M} times the block with eps -> eps + eps' mod 1."""
    pr = params
    tau = _mpc_any(p.tau)
    z1 = _mpc_any(p.z1)
    z2 = _mpc_any(p.z2)
    t = _mpc_any(p.t)
    lhs = psi_numeric(pr, tau + 1, z1, z2, t)
    eps_new = (pr.eps + pr.eps_prime) % 1
    blk = PsiParams(pr.M, pr.j, pr.k, eps_new, pr.eps_prime)
    phase = mp.exp(2j * mp.pi * _mpfrac(pr.j * pr.k) / pr.M)
    rhs = phase * psi_numeric(blk, tau, z1, z2, t)
    return float(abs(lhs - rhs))


def denominator_numeric(sign, sector, tau, z):
    """R^{(eps)}_{eps'}(tau, z) as the three-thetas-over-one quotient, the
    one-denominator ThetaPass."""
    tp = ThetaPass((_mpc_any(tau), _mpc_any(z)), _DEN_REQUESTS)
    return tp.to_mpc(_den_value(tp, sign, sector))


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
    blocks = [(PsiParams(M, j1, j2, *block), _block_sign_sector(block))
              for block, (j1, j2) in members]
    requests = [r for p, _ in blocks for r in psi_requests(p, (1,), (1,))]
    tp = ThetaPass((tau, z), requests + list(_DEN_REQUESTS))
    dens = {}
    out = []
    for p, key in blocks:
        psi = psi_value(tp, p, (1,), (1,))
        if key not in dens:
            dens[key] = _den_value(tp, *key)
        out.append(tp.to_mpc(tp.div(psi, dens[key])))
    return out


def character_numeric(M, k1, k2, heart, sign, twisted, p):
    """Numeric character of the reduced module: the signed Psi
    numerator over the matching denominator, no series inversion."""
    from .characters import BLOCK_SIGNS, dd_indices
    if not p.is_diagonal:
        raise ValueError("character evaluation needs z1 = z2 and t = 0")
    j, k = dd_indices(M, k1, k2, heart, twisted)
    block = (sign_eps(sign), HALF if not twisted else Fraction(0))
    face = BLOCK_SIGNS[(heart, sign, twisted)]
    val, = family_values(M, [(block, (j, k))], _mpc_any(p.tau),
                         _mpc_any(p.z1))
    return face * val


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


def _lstsq_min_norm(A, B):
    """Minimum-norm least squares via scaled normal equations.

    Columns of A are scaled to unit max modulus, the Gram matrix is
    diagonalized (Hermitian), eigenvalues below RANK_CUTOFF^2 relative
    are dropped, and the retained condition number is checked.
    Returns (C, max entrywise |A C - B|, retained rank, retained
    condition number).
    """
    rows, cols = A.rows, A.cols
    scale = []
    for c in range(cols):
        m = max(abs(A[r, c]) for r in range(rows))
        scale.append(m if m > 0 else mp.mpf(1))
    As = mp.matrix(rows, cols)
    for r in range(rows):
        for c in range(cols):
            As[r, c] = A[r, c] / scale[c]
    G = As.H * As
    Bp = As.H * B
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
    VH_B = V.H * Bp
    for i in range(cols):
        inv = 1 / E[i] if i in kept else mp.mpf(0)
        for c in range(VH_B.cols):
            VH_B[i, c] *= inv
    Cs = V * VH_B
    R = As * Cs - B
    resid = max(abs(R[r, c]) for r in range(R.rows) for c in range(R.cols))
    C = mp.matrix(cols, Cs.cols)
    for i in range(cols):
        for c in range(Cs.cols):
            C[i, c] = Cs[i, c] / scale[i]
    return C, resid, len(kept), cond


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
    A = mp.matrix(len(pts), n)
    B = mp.matrix(len(pts), n)
    for r, p in enumerate(pts):
        tau = _mpc_any(p.tau)
        z = _mpc_any(p.z1)
        if transform == "S":
            tau2, z2 = -1 / tau, z / tau
            factor = mp.exp(2j * mp.pi * (mp.mpf(1) / M - 1)
                            * z * z / tau)
        else:
            tau2, z2 = tau + 1, z
            factor = mp.mpc(1)
        for c, value in enumerate(family_values(M, members, tau, z)):
            A[r, c] = value
        for c, value in enumerate(family_values(M, members, tau2, z2)):
            B[r, c] = value / factor
    C, resid, rank, cond = _lstsq_min_norm(A, B)
    coeff_rows = tuple(tuple(complex(C[j, i]) for j in range(n))
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
