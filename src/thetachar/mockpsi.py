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

phi_a11_numeric is the two-variable Appell-type sum

    Phi1(tau, z1, z2, t) = e^{-2 pi i m t} sum_{j in Z}
        e^{2 pi i m j (z1 + z2) + 2 pi i s z1} q^{m j^2 + s j}
        / (1 - e^{2 pi i z1} q^j)^2

kept as an independent numeric backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .qseries import GaussianRational, SeriesRatio, mul, scale_monomial
from .theta import (TailBoundError, eta_numeric, eta_pow_scaled,
                    theta_numeric, theta_shifted)

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
    if abs(value) < POLE_THRESHOLD:
        raise PoleProximityError(
            "%s has modulus %.3g below the pole threshold %g"
            % (what, float(abs(value)), POLE_THRESHOLD))
    return value


def _mpfrac(f):
    return mp.mpf(f.numerator) / f.denominator


def _mpc_any(v):
    if isinstance(v, Fraction):
        return mp.mpc(_mpfrac(v))
    return mp.mpc(v)


def psi_numeric(params, tau, z1, z2, t):
    """Psi^{[M,1;eps]}_{j,k;eps'}(tau, z1, z2, t) from the closed form."""
    p = params
    tau = _mpc_any(tau)
    z1 = _mpc_any(z1)
    z2 = _mpc_any(z2)
    t = _mpc_any(t)
    Mtau = p.M * tau
    j = _mpfrac(p.j)
    k = _mpfrac(p.k)
    eps = _mpfrac(p.eps)
    pref = -1j * mp.exp(2j * mp.pi * (tau * j * k + k * z1 + j * z2 - t)
                        / p.M)
    num = (eta_numeric(Mtau) ** 3
           * theta_numeric("11", Mtau, z1 + z2 + (j + k) * tau))
    den = (_guard_pole(theta_numeric("11", Mtau, z1 + j * tau + eps),
                       "theta_11(z1 + j tau + eps)")
           * _guard_pole(theta_numeric("11", Mtau, z2 + k * tau - eps),
                         "theta_11(z2 + k tau - eps)"))
    return pref * num / den


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
    rational s never touches a branch choice.  The two first omitted
    terms are majorized by geometric tails; TailBoundError is raised
    when the certified tail estimate exceeds tail_tol (raise j_cutoff
    in that case).
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
    # successive term ratios beyond the cutoff keep shrinking: the
    # quadratic exponent contributes a factor |q|^{2m} per step while
    # the denominators approach x1^2 q^{2j} resp. 1; certify with the
    # edge ratios and a geometric majorant
    ep = abs(term(j_cutoff + 1))
    en = abs(term(-j_cutoff - 1))
    rp = ep / abs(term(j_cutoff)) if abs(term(j_cutoff)) > 0 else mp.mpf(0)
    rn = en / abs(term(-j_cutoff)) if abs(term(-j_cutoff)) > 0 else mp.mpf(0)
    rho = max(rp, rn)
    if rho >= mp.mpf("0.5"):
        raise TailBoundError("Appell edge ratio %.3g too large to certify "
                             "the tail; raise j_cutoff" % float(rho))
    tail = (ep + en) / (1 - rho)
    if tail > tail_tol:
        raise TailBoundError("Appell tail estimate %.3g above %g; raise "
                             "j_cutoff" % (float(tail), tail_tol))
    return mp.exp(-2j * mp.pi * m * t) * total
