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

independent of eps'.  psi_diag_ratio builds that four-theta form;
psi_pair_ratio builds the general (j, k) quotient straight from the
closed form.  Their agreement at j = k is a nontrivial internal
cross-check exercised by the test suite.

Both exact builders pad their internal construction orders so that
every constituent series s satisfies q_order(s) >= requested and
q_order(s) + valuation(s) >= requested; cross-multiplied comparisons
at the requested order then stay inside trusted territory.

psi_numeric evaluates the closed form as the one-block case of a
theta.ThetaPass (psi_requests, psi_value): the three theta_11, eta(M tau)
and the prefactor, a product of integer powers of e^{pi i tau/(2M)},
e^{pi i z/M} and the nome root e^{pi i M tau/4}, all come from the
point's shared exponentials.

phi_a11_numeric is the two-variable Appell-type sum

    Phi1(tau, z1, z2, t) = e^{-2 pi i m t} sum_{j in Z}
        e^{2 pi i m j (z1 + z2) + 2 pi i s z1} q^{m j^2 + s j}
        / (1 - e^{2 pi i z1} q^j)^2

kept as an independent numeric backend, its truncation bounded by the
majorant appell_tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .qseries import GaussianRational, SeriesRatio, mul, scale_monomial
from .theta import (TailBoundError, ThetaPass, eta_pow_scaled, eta_request,
                    modulus, theta_shifted)

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
    """Psi^{[M,1;eps]}_{j,k;eps'}(tau, z1, z2, t) from the closed form,
    as the one-block ThetaPass at (tau, z1, z2).  Each of its thetas, and
    eta(M tau), carries theta_numeric's tail and rounding errors, its
    argument being a product of the pass's bases; the prefactor and the
    quotient add a relative rounding of a few units of 2^-prec."""
    tau, z1, z2, t = (_mpc_any(v) for v in (tau, z1, z2, t))
    if z1 == z2:
        coords, zw = (tau, z1), ((1,), (1,))
    else:
        coords, zw = (tau, z1, z2), ((1, 0), (0, 1))
    tp = ThetaPass(coords, psi_requests(params, *zw))
    value = tp.to_mpc(psi_value(tp, params, *zw))
    if t:
        value *= mp.exp(-2j * mp.pi * t / params.M)
    return value


def psi_requests(p, zw1, zw2):
    """The ThetaPass requests of block p: theta_11(M tau, .) at
    z1 + z2 + (j + k) tau, z1 + j tau + eps and z2 + k tau - eps, and
    eta(M tau); zw1 and zw2 give z1 and z2 over the pass's z-coordinates."""
    j2, k2, e2 = int(2 * p.j), int(2 * p.k), int(2 * p.eps)
    both = tuple(a + b for a, b in zip(zw1, zw2))
    return ((1, 1, p.M, (j2 + k2,) + both, 0),
            (1, 1, p.M, (j2,) + zw1, e2),
            (1, 1, p.M, (k2,) + zw2, -e2),
            eta_request(p.M, len(zw1)))


def psi_value(tp, p, zw1, zw2):
    """Block p at t = 0 from a ThetaPass planned with its requests: the
    prefactor -i e^{2 pi i (tau jk + k z1 + j z2)/M} e^{pi i M tau/4}
    from integer powers of the pass's bases, times the cube of the eta
    walk and the theta quotient."""
    num, den1, den2, eta = (tp.theta(r) for r in psi_requests(p, zw1, zw2))
    _guard_pole(den1, "theta_11(z1 + j tau + eps)")
    _guard_pole(den2, "theta_11(z2 + k tau - eps)")
    j2, k2 = int(2 * p.j), int(2 * p.k)
    ratio = tp.div(tp.mul(tp.power((0, 1, 2 * p.M), j2 * k2),
                          tp.power((0, p.M, 4), 1),
                          *(tp.power((i, 1, p.M), k2 * a + j2 * b)
                            for i, (a, b) in enumerate(zip(zw1, zw2), 1)),
                          eta, eta, eta, num),
                   tp.mul(den1, den2))
    re, im, e = ratio
    return im, -re, e


def psi_diag_ratio(params, q_order):
    """Exact SeriesRatio for Psi at j = k on the diagonal z1 = z2 = z,
    t = 0, in the four-theta form at the common argument z + j tau."""
    p = params
    if p.j != p.k:
        raise ValueError("diagonal form needs j == k")
    q_order = Fraction(q_order)
    build = q_order + p.j * p.j / p.M
    if p.eps == HALF:
        moved, sign = "10", 1
    else:
        moved, sign = "11", -1
    kept = "11" if moved == "10" else "10"
    factors = [theta_shifted(lab, build, p.M, 1, p.j)
               for lab in ("00", "01", kept)]
    num = mul(mul(factors[0], factors[1]), factors[2])
    num = scale_monomial(num, p.j * p.j / p.M, 2 * p.j / p.M,
                         GaussianRational(0, sign))
    den = theta_shifted(moved, build, p.M, 1, p.j)
    return SeriesRatio(num, den)


def psi_pair_ratio(params, q_order):
    """Exact SeriesRatio for Psi at general (j, k) on the diagonal
    z1 = z2 = z, t = 0, straight from the closed form."""
    p = params
    q_order = Fraction(q_order)
    jk = p.j + p.k
    build = q_order + (p.j * p.j + p.k * p.k) / p.M
    num = mul(eta_pow_scaled(p.M, 3, build),
              theta_shifted("11", build, p.M, 2, jk))
    num = scale_monomial(num, p.j * p.k / p.M, jk / p.M,
                         GaussianRational(0, -1))
    den = mul(theta_shifted("11", build, p.M, 1, p.j, p.eps),
              theta_shifted("11", build, p.M, 1, p.k, -p.eps))
    return SeriesRatio(num, den)


def phi_a11_numeric(m, s, tau, z1, z2, t, j_cutoff=40, tail_tol=1e-12):
    """Appell-type sum Phi1 with level m and rational shift s, truncated
    at |j| <= j_cutoff.

    The quadratic exponent q^{m j^2 + s j} makes the sum converge like a
    theta series.  All exponentials are built directly from tau, so
    rational s never touches a branch choice.  The terms left out are
    bounded by appell_tail; TailBoundError is raised when that majorant
    exceeds tail_tol (raise j_cutoff in that case).
    """
    if m < 1 or int(m) != m:
        raise ValueError("level m must be a positive integer")
    s = Fraction(s)
    tau = _mpc_any(tau)
    z1 = _mpc_any(z1)
    z2 = _mpc_any(z2)
    t = _mpc_any(t)
    s_mp = _mpfrac(s)

    def term(j):
        edge = mp.exp(2j * mp.pi * (z1 + j * tau))
        den = 1 - edge
        if abs(den) < POLE_THRESHOLD * max(1, abs(edge)):
            raise PoleProximityError(
                "Appell denominator (1 - x1 q^%d) too close to zero" % j)
        expo = m * j * (z1 + z2) + s_mp * z1 + tau * (m * j * j + s_mp * j)
        return mp.exp(2j * mp.pi * expo) / den ** 2

    total = mp.mpc(0)
    for j in range(-j_cutoff, j_cutoff + 1):
        total += term(j)
    tail = appell_tail(m, s, tau, z1, z2, j_cutoff)
    if tail > tail_tol:
        raise TailBoundError("Appell tail majorant %.3g above %g; raise "
                             "j_cutoff" % (float(tail), tail_tol))
    return mp.exp(-2j * mp.pi * m * t) * total


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
