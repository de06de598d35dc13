"""Building blocks Psi for the level-rescaled character numerators.

The block Psi^{[M,1;eps]}_{j,k;eps'} at shift s = 0 has, for indices
j, k in eps' + Z, the closed form

    Psi(tau, z1, z2, t) = -i e^{-2 pi i t / M} q^{jk/M}
        e^{(2 pi i / M)(k z1 + j z2)}
        eta(M tau)^3 theta_11(M tau, z1 + z2 + (j + k) tau)
        / [ theta_11(M tau, z1 + j tau + eps)
            theta_11(M tau, z2 + k tau - eps) ]

with the two half-characteristics eps, eps' in {0, 1/2}.  The exact
series layer works on the diagonal z1 = z2 = z, t = 0, where for j = k
the quadruple product collapses the quotient to four thetas at the
common argument z + j tau:

    Psi_{j,j}(tau, z, z, 0) =
        +i q^{j^2/M} x^{2j/M} [th00 th01 th11 / th10](M tau, z + j tau)
        for eps = 1/2,
        -i q^{j^2/M} x^{2j/M} [th00 th01 th10 / th11](M tau, z + j tau)
        for eps = 0,

independent of eps'.  psi_diag_ratio builds that four-theta form and
psi_pair_ratio the general (j, k) quotient straight from the closed
form, both as theta.ThetaQuotient.  Their agreement at j = k is a
nontrivial internal cross-check exercised by the test suite.

A PsiPlan, the one evaluation of the blocks (psi_numeric is its
one-block case), finds once what blocks of one level take at any point
(psi_plan) and evaluates them at each point in one theta.ThetaPass:
their theta_11, eta(M tau), prefactors and, if planned, denominators
R^{(eps)}_{eps'}(tau, z) all come from the pass's power tables of its
shared exponentials.  A prefactor, a product of integer powers of
e^{pi i tau/(2M)}, e^{pi i z/M} and the nome root e^{pi i M tau/4}, is
folded into one table read per coordinate, and the blocks share one
eta(M tau) walk whose cube the pass takes once.

phi_a11_numeric is the two-variable Appell-type sum

    Phi1(tau, z1, z2, t) = e^{-2 pi i m t} sum_{j in Z}
        e^{2 pi i m j (z1 + z2) + 2 pi i s z1} q^{m j^2 + s j}
        / (1 - e^{2 pi i z1} q^j)^2

truncated at |j| <= J.  Its value carries two errors:

    tail       at most appell_tail(m, s, tau, z1, z2, J), a majorant of
               the omitted terms;
    rounding   at most 2^(2 - prec) |e^{-2 pi i m t}| sum_{|j| <= J}
               |term_j|.

It walks the sum on the complex floating point that qseries owns and
ThetaPass uses, where every product and quotient rounds by at most
2^(2 - wp) relative and each of its eight bases is one exponential
(_root), as accurate.  A numerator of |j| <= J carries at most
(J + 1)^2 such roundings and an edge x1 q^j at most 2J + 1.  The pole
check keeps |1 - x1 q^j| >= POLE_THRESHOLD |x1 q^j|, so the cancellation in
1 - x1 q^j magnifies the edge's error by at most
1/POLE_THRESHOLD < 2^20, and each term is within
K = (J + 1)^2 + (4J + 3) 2^20 roundings.  The terms are added by _sum,
which rounds once relative to the largest term, so by at most one
rounding of sum |term_j|.  At wp = prec + bitlen(K) + 4 the K + 1
roundings keep the truncated sum within 2^(-2 - prec) sum |term_j|;
rounding it to prec bits and the factor e^{-2 pi i m t} add the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .qseries import ONE, _div, _from_mpc, _mul, _root, _sum, modulus, to_mpc
from .theta import (THETA_LABELS, PassPlan, TailBoundError, ThetaPass,
                    ThetaQuotient, eta_request, theta_key)

HALF = Fraction(1, 2)


class PoleProximityError(ArithmeticError):
    """A numeric evaluation point is too close to a quotient pole."""


POLE_THRESHOLD = 1e-6


@dataclass(frozen=True)
class PsiParams:
    """Parameters of one block Psi^{[M,1;eps]}_{j,k;eps'}.

    j and k must lie in eps_prime + Z; eps and eps_prime are 0 or 1/2.
    """
    M: int
    j: Fraction
    k: Fraction
    eps: Fraction
    eps_prime: Fraction

    def __post_init__(self):
        object.__setattr__(self, "j", Fraction(self.j))
        object.__setattr__(self, "k", Fraction(self.k))
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "eps_prime", Fraction(self.eps_prime))
        if self.M < 1:
            raise ValueError("M must be a positive integer")
        if self.eps not in (0, HALF) or self.eps_prime not in (0, HALF):
            raise ValueError("eps and eps_prime must be 0 or 1/2")
        for idx in (self.j, self.k):
            if (idx - self.eps_prime).denominator != 1:
                raise ValueError("index %s does not lie in %s + Z"
                                 % (idx, self.eps_prime))


def _guard_pole(value, what):
    # a nonzero value of binary magnitude bitlen(|re| | |im|) + e >= -18
    # has modulus >= 2^-19 > POLE_THRESHOLD: only smaller ones take a float
    re, im, e = value
    top = (abs(re) | abs(im)).bit_length()
    if top and top + e >= -18:
        return value
    size = modulus(value)
    if size < POLE_THRESHOLD:
        raise PoleProximityError(
            "%s has modulus %.3g below the pole threshold %g"
            % (what, size, POLE_THRESHOLD))
    return value


def _mpfrac(f):
    return mp.mpf(f.numerator) / f.denominator


def _mpc_any(v):
    if isinstance(v, Fraction):
        return mp.mpc(_mpfrac(v))
    return mp.mpc(v)


def psi_numeric(params, tau, z1, z2, t):
    """Psi^{[M,1;eps]}_{j,k;eps'}(tau, z1, z2, t) from the closed form:
    the one-block PsiPlan, on the diagonal where z1 = z2, at t = 0, times
    e^{-2 pi i t/M}."""
    tau, z1, z2, t = (_mpc_any(v) for v in (tau, z1, z2, t))
    coords = (tau, z1) if z1 == z2 else (tau, z1, z2)
    value, = PsiPlan([params], z1 == z2).values(coords)
    return (mp.exp(-2j * mp.pi * t / params.M) if t else 1) * to_mpc(value)


# the four theta_ab(tau, z) at coordinates (tau, z), in THETA_LABELS order:
# the denominators of a PsiPlan, and one on its own for denominator_numeric
_DEN_PLAN = PassPlan((int(lab[0]), int(lab[1]), 1, (0, 1), 0)
                     for lab in THETA_LABELS)


def _den_value(tp, d, sign):
    """R^{(eps)}_{eps'}(tau, z): -i (sign +) or +i (sign -) times the
    three theta_ab(tau, z) of _DEN_PLAN other than theta_d over theta_d."""
    thetas = dict(zip(THETA_LABELS, map(tp.theta, _DEN_PLAN.requests)))
    den = _guard_pole(thetas.pop(d), "theta_%s" % d)
    x, y, z = thetas.values()
    re, im, e = _div(_mul(_mul(x, y, tp.wp), z, tp.wp), den, tp.wp)
    return (im, -re, e) if sign == "+" else (-im, re, e)


class PsiPlan:
    """What blocks, all of one level M, take at any point, found once:
    each block's psi_plan, compiled into the PassPlan of them all, for
    points on the diagonal z1 = z2 or off it.  dens, on the diagonal,
    names the R each block is divided by (_den_value), one (d, sign) per
    block, and appends _DEN_PLAN's requests.  blocks holds each block's
    (num, den1, den2) requests, folded prefactor and (d, sign) or None,
    and eta the request of their shared eta(M tau)."""

    def __init__(self, blocks, diagonal, dens=None):
        self.M = blocks[0].M
        if any(p.M != self.M for p in blocks):
            raise ValueError("a PsiPlan's blocks must share one level M")
        self.diagonal = diagonal
        zw = ((1,), (1,)) if diagonal else ((1, 0), (0, 1))
        plans = [psi_plan(p, *zw) for p in blocks]
        self.plan = PassPlan(
            [r for requests, _ in plans for r in requests]
            + list(_DEN_PLAN.requests if dens is not None else ()),
            [powers for _, powers in plans])
        self.eta = plans[0][0][3]
        self.blocks = [(requests[:3], read, den) for (requests, _), read, den
                       in zip(plans, self.plan.prefactors,
                              dens or [None] * len(blocks))]

    def values(self, coords, factor=None):
        """The blocks at t = 0, each over its R if planned and over factor
        (an mpc) if given, from one ThetaPass at coords, (tau, z) or
        (tau, z1, z2).  Each theta, eta(M tau) included, carries
        theta_numeric's tail and rounding errors, its argument being a
        product of the pass's bases; the prefactor, the quotients and
        factor add a relative rounding of a few units of 2^-prec."""
        if len(coords) != 3 - self.diagonal:
            raise ValueError("a PsiPlan takes (tau, z) on the diagonal, "
                             "(tau, z1, z2) off it")
        tp = ThetaPass(coords, self.plan)
        wp = tp.wp
        f = ONE if factor is None else _from_mpc(factor._mpc_, wp)
        eta = tp.theta(self.eta)
        cube = _mul(_mul(eta, eta, wp), eta, wp)
        dens = {} if factor is None else {None: f}
        out = []
        for requests, read, key in self.blocks:
            num, den1, den2 = (tp.theta(r) for r in requests)
            _guard_pole(den1, "theta_11(z1 + j tau + eps)")
            _guard_pole(den2, "theta_11(z2 + k tau - eps)")
            re, im, e = _div(_mul(_mul(tp.read(read), cube, wp), num, wp),
                             _mul(den1, den2, wp), wp)
            if key is not None and key not in dens:
                dens[key] = _mul(_den_value(tp, *key), f, wp)
            out.append(_div((im, -re, e), dens[key], wp) if key in dens
                       else (im, -re, e))
        return out


def psi_plan(p, zw1, zw2):
    """(requests, powers) of block p, found once for every point: its
    ThetaPass requests, theta_11(M tau, .) at z1 + z2 + (j + k) tau,
    z1 + j tau + eps and z2 + k tau - eps, and eta(M tau); and the
    nonzero powers (base, n) whose product is its prefactor
    e^{2 pi i (tau jk + k z1 + j z2)/M} e^{pi i M tau/4}, which makes
    the cube of the eta walk eta(M tau)^3.  zw1 and zw2 give z1 and z2
    over the pass's z-coordinates."""
    j2, k2, e2 = int(2 * p.j), int(2 * p.k), int(2 * p.eps)
    both = tuple(a + b for a, b in zip(zw1, zw2))
    requests = ((1, 1, p.M, (j2 + k2,) + both, 0),
                (1, 1, p.M, (j2,) + zw1, e2),
                (1, 1, p.M, (k2,) + zw2, -e2),
                eta_request(p.M, len(zw1)))
    powers = [((0, 1, 2 * p.M), j2 * k2), ((0, p.M, 4), 1)]
    powers += [((i, 1, p.M), k2 * a + j2 * b)
               for i, (a, b) in enumerate(zip(zw1, zw2), 1)]
    return requests, tuple((b, n) for b, n in powers if n)


def psi_diag_ratio(params):
    """Psi at j = k on the diagonal z1 = z2 = z, t = 0, in the
    four-theta form at the common argument z + j tau, as a
    ThetaQuotient."""
    p = params
    if p.j != p.k:
        raise ValueError("diagonal form needs j == k")
    # +i th00 th01 th11 / th10 for eps = 1/2, -i th00 th01 th10 / th11
    kept, moved, unit = ("11", "10", 1) if p.eps == HALF else ("10", "11", 3)
    return ThetaQuotient((p.j * p.j / p.M, 2 * p.j / p.M, unit),
                         [theta_key(lab, p.M, 1, p.j)
                          for lab in ("00", "01", kept)],
                         [theta_key(moved, p.M, 1, p.j)])


def psi_pair_ratio(params):
    """Psi at general (j, k) on the diagonal z1 = z2 = z, t = 0,
    straight from the closed form, as a ThetaQuotient."""
    p = params
    jk = p.j + p.k
    return ThetaQuotient.eta(p.M, 3) * ThetaQuotient(
        (p.j * p.k / p.M, jk / p.M, 3), [theta_key("11", p.M, 2, jk)],
        [theta_key("11", p.M, 1, p.j, p.eps),
         theta_key("11", p.M, 1, p.k, -p.eps)])


def phi_a11_numeric(m, s, tau, z1, z2, t, j_cutoff=40, tail_tol=1e-12):
    """Appell-type sum Phi1 with level m and rational shift s, truncated
    at |j| <= J = j_cutoff, on qseries' int complex floating point.

    Each side of the sum is walked outward, from j = 0 and from j = -1,
    by running products: the numerator e^{2 pi i (m j (z1 + z2) + s z1)}
    q^{m j^2 + s j} times a ratio that gains q^{2m} per step, and the
    edge x1 q^j times q or 1/q.  The eight bases are one _root each,
    at wp = prec + bitlen(K) + 4 bits for
    K = (J + 1)^2 + (4J + 3) 2^20, and the factor e^{-2 pi i m t} is one
    more: the module docstring states the rounding this leaves.  Raises
    PoleProximityError where |1 - x1 q^j| < POLE_THRESHOLD
    max(1, |x1 q^j|), and TailBoundError when appell_tail exceeds
    tail_tol (raise j_cutoff in that case).
    """
    if m < 1 or int(m) != m:
        raise ValueError("level m must be a positive integer")
    m, s, n = int(m), Fraction(s), int(j_cutoff)
    tau, z1, z2, t = (_mpc_any(v) for v in (tau, z1, z2, t))
    wp = mp.prec + ((n + 1) ** 2 + (4 * n + 3) * 2 ** 20).bit_length() + 4
    with mp.workprec(wp + 10):
        s_mp, mz = _mpfrac(s), m * (z1 + z2)
        n0, r_pos, r_neg, q2m, x1, q, x1_q, q_inv = (
            _root(2 * v, 1, wp) for v in (
                s_mp * z1, mz + (m + s_mp) * tau, (m - s_mp) * tau - mz,
                2 * m * tau, z1, tau, z1 - tau, -tau))
    # (numerator, its ratio to the next, edge x1 q^j, the edge's step)
    # at the first j of each side
    sides = ((range(n + 1), n0, r_pos, x1, q),
             (range(-1, -n - 1, -1), _mul(n0, r_neg, wp),
              _mul(r_neg, q2m, wp), x1_q, q_inv))
    terms = []
    for js, num, ratio, edge, step in sides:
        for j in js:
            den = _one_minus(edge, j, wp)
            terms.append(_div(num, _mul(den, den, wp), wp))
            num, ratio = _mul(num, ratio, wp), _mul(ratio, q2m, wp)
            edge = _mul(edge, step, wp)
    tail = appell_tail(m, s, tau, z1, z2, n)
    if tail > tail_tol:
        raise TailBoundError("Appell tail majorant %.3g above %g; raise "
                             "j_cutoff" % (float(tail), tail_tol))
    total = to_mpc(_sum(terms, wp))
    return mp.exp(-2j * mp.pi * m * t) * total if t else total


def _one_minus(edge, j, wp):
    """1 - edge to wp bits for the edge x1 q^j, or PoleProximityError
    where |1 - edge| < POLE_THRESHOLD max(1, |edge|), which
    |edge| >= 4 rules out."""
    re, im, e = edge
    if e >= 0:
        out = _mul((1 - (re << e), -(im << e), 0), ONE, wp)
    else:
        out = _mul(((1 << -e) - re, -im, e), ONE, wp)
    if ((abs(re) | abs(im)).bit_length() + e <= 2
            and modulus(out) < POLE_THRESHOLD * max(1, modulus(edge))):
        raise PoleProximityError(
            "Appell denominator (1 - x1 q^%d) too close to zero" % j)
    return out


def appell_tail(m, s, tau, z1, z2, j_cutoff):
    """A majorant of the terms of phi_a11_numeric with |j| > j_cutoff.

    With y = Im tau, v1 = Im z1 and v = Im(z1 + z2), a term has modulus
    e^{-2 pi (m j v + s v1 + y (m j^2 + s j))} / |1 - x1 q^j|^2.  Past the
    cutoff the numerators fall geometrically, each one at most rho times
    the one before, with rho their ratio at the first omitted j; and
    |1 - x1 q^j| >= 1 - |x1| |q|^j for j > 0, >= |x1| |q|^j - 1 for
    j < 0, a bound that grows away from the cutoff.  So each side is at
    most its first omitted term's majorant over (1 - rho).  Raises
    TailBoundError where rho >= 1 or the denominator bound is not
    positive.
    """
    y, v1 = mp.im(tau), mp.im(z1)
    v = v1 + mp.im(z2)
    s = _mpfrac(Fraction(s))
    tail = mp.mpf(0)
    for d in (1, -1):
        j = d * (j_cutoff + 1)
        log_num = -2 * mp.pi * (m * j * v + s * v1 + y * (m * j * j + s * j))
        rho = mp.exp(-2 * mp.pi * (d * m * v
                                   + y * (m * (2 * j_cutoff + 3) + d * s)))
        gap = d * (1 - mp.exp(-2 * mp.pi * (v1 + j * y)))
        if rho >= 1 or gap <= 0:
            raise TailBoundError("Appell tail has no geometric majorant past "
                                 "|j| = %d; raise j_cutoff" % j_cutoff)
        tail += mp.exp(log_num) / (gap ** 2 * (1 - rho))
    return tail
