"""N=4 superconformal denominators, characters, and parameter tables.

Characters ch^{(+/-)} in the NS and Ramond sectors are quotients: a
prefactor sgn(j) q^{j^2/M} x^{2j/M}, three rescaled thetas at
(M tau, z + j tau) over the fourth, and one plain theta at (tau, z)
over the other three.  character_ratio is that theta.ThetaQuotient,
the one object behind both the cross-multiplied checks (sides) and
the expansion (character_series, its expand).
The sign convention sets sgn(j) = 1 for j > 0 and -1 for j <= 0, which
matters exactly once, at Ramond j = 0.

The denominators R^{(eps)}_{eps'} live in the same four-way grid: sign
+/- corresponds to eps = 1/2 resp. 0 and sector NS/R to eps' = 1/2
resp. 0, and

    R = (-1)^{2 eps} i eta^3 theta_11(tau, 2z) / theta_d(tau, z)^2,
    d = (1 - 2 eps', 1 - 2 eps).

The quadruple product turns that into the equivalent three-thetas-over-
one form, denominator_theta_form(); the characters suite checks the two
forms against each other.

The reduction bookkeeping (hearts I-IV, levels (k1, k2) in the range
HEART_RANGES gives each heart, weights m, m2) carries the conformal
weight and spin tables, the equivalences between hearts, the vanishing
predicate, and the translation from nice parameters (2k1 + k2 = M - 1)
to the character label j.  The numerator builders return the signed
Psi blocks whose quotients by R reproduce the characters; that
consistency is enforced by the test suite through cross-multiplied
identities.  Every builder here returns a ThetaQuotient and takes no
order: the orders are computed when the quotient is compared or
expanded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .mockpsi import HALF, PsiParams, psi_diag_ratio, psi_pair_ratio
from .qseries import restrict_window
from .theta import THETA_LABELS, ThetaQuotient, theta_key

SECTORS = ("NS", "R")
SIGNS = ("+", "-")
# heart -> (smallest k1, smallest k2, d): the levels (k1, k2) of a reduced
# module at level M are those at or above both smallest values with
# 2k1 + k2 <= M + d (ReductionParams checks it, suites scans it)
HEART_RANGES = {"I": (0, 0, -1), "II": (1, 1, 0), "III": (0, 1, -1),
                "IV": (1, 0, 0)}
HEARTS = tuple(HEART_RANGES)


def _check_sector(sector):
    if sector not in SECTORS:
        raise ValueError("sector must be one of %s" % (SECTORS,))


def _check_sign(sign):
    if sign not in SIGNS:
        raise ValueError("sign must be one of %s" % (SIGNS,))


def sector_eps_prime(sector):
    """NS pairs with eps' = 1/2, Ramond with eps' = 0."""
    _check_sector(sector)
    return HALF if sector == "NS" else Fraction(0)


def sign_eps(sign):
    """Sign + pairs with eps = 1/2, sign - with eps = 0."""
    _check_sign(sign)
    return HALF if sign == "+" else Fraction(0)


def index_set(M, sector):
    """Admissible labels j for level M: the half-odd integers (NS) or
    integers (Ramond) with -(M-1)/2 <= j <= M/2.  Always M of them."""
    if M < 1 or int(M) != M:
        raise ValueError("M must be a positive integer")
    base = sector_eps_prime(sector)
    lo = Fraction(1 - M, 2)
    hi = Fraction(M, 2)
    n = math.ceil(lo - base)
    out = []
    while base + n <= hi:
        out.append(base + n)
        n += 1
    return tuple(out)


def central_charge(M):
    if M < 1 or int(M) != M:
        raise ValueError("M must be a positive integer")
    return Fraction(6 * (1 - M), M)


@dataclass(frozen=True)
class CharacterSpec:
    """One character label: level M, weight label j, sector, sign."""
    M: int
    j: Fraction
    sector: str
    sign: str

    def __post_init__(self):
        object.__setattr__(self, "j", Fraction(self.j))
        _check_sector(self.sector)
        _check_sign(self.sign)
        if self.M < 1 or int(self.M) != self.M:
            raise ValueError("M must be a positive integer")
        # j in index_set(M, sector), without building the set
        if (self.j - sector_eps_prime(self.sector)).denominator != 1 \
                or not 1 - self.M <= 2 * self.j <= self.M:
            raise ValueError("j = %s outside the level-%d %s index set"
                             % (self.j, self.M, self.sector))


def h_s_values(spec):
    """Conformal weight h and spin s of the labelled representation."""
    j, M = spec.j, spec.M
    if spec.sector == "NS":
        return (j * j / M + Fraction(1, 4 * M) - HALF, 2 * j / M - 1)
    return (j * j / M + Fraction(1, 4 * M) - Fraction(1, 4), 2 * j / M)


def denominator_label(sign, sector):
    """The distinguished theta label d = (1-2eps', 1-2eps)."""
    a = 0 if sector == "NS" else 1
    b = 0 if sign == "+" else 1
    return "%d%d" % (a, b)


def _unit(sign, sector):
    """The lead of the constant -i (sign +) or +i (sign -) of
    R^{(eps)}_{eps'}."""
    _check_sign(sign)
    _check_sector(sector)
    return (0, 0, 3 if sign == "+" else 1)


def denominator(sign, sector):
    """R^{(eps)}_{eps'} = -/+ i eta^3 theta_11(tau, 2z) / theta_d^2."""
    d = theta_key(denominator_label(sign, sector))
    return ThetaQuotient.eta(1, 3) * ThetaQuotient(
        _unit(sign, sector), [theta_key("11", 1, 2)], [d, d])


def denominator_theta_form(sign, sector):
    """The same denominator as three thetas over theta_d, by the
    quadruple product: the oracle denominator() is checked against."""
    d = denominator_label(sign, sector)
    return ThetaQuotient(_unit(sign, sector),
                         [theta_key(lab) for lab in THETA_LABELS if lab != d],
                         [theta_key(d)])


# (sector, sign) -> (overall factor on sgn(j), rescaled numerator
# labels, rescaled denominator label, plain numerator label, plain
# denominator labels)
_CHARACTER_TABLE = {
    ("NS", "+"): (-1, ("00", "01", "11"), "10", "00", ("01", "10", "11")),
    ("NS", "-"): (+1, ("00", "01", "10"), "11", "01", ("00", "10", "11")),
    ("R", "+"): (-1, ("00", "01", "11"), "10", "10", ("00", "01", "11")),
    ("R", "-"): (-1, ("00", "01", "10"), "11", "11", ("00", "01", "10")),
}


def sgn(j):
    """1 for j > 0, -1 for j <= 0."""
    return 1 if j > 0 else -1


def character_ratio(spec):
    """The character of the labelled module as a ThetaQuotient."""
    M, j = spec.M, spec.j
    face, kept, moved, plain_num, plain_den = \
        _CHARACTER_TABLE[(spec.sector, spec.sign)]
    # the sign s = face sgn(j) is i^(1 - s)
    return ThetaQuotient(
        (j * j / M, 2 * j / M, 1 - face * sgn(j)),
        [theta_key(lab, M, 1, j) for lab in kept] + [theta_key(plain_num)],
        [theta_key(moved, M, 1, j)] + [theta_key(lab) for lab in plain_den])


def character_series(spec, q_order, x_window=None):
    """q-expansion of the character in the descending-x convention.

    The window defaults to (s - 4, s + 2) around the leading x-exponent
    s.  The character is its quotient's expand: one qseries.expand of
    the numerator thetas' factors multiplied and the denominator thetas'
    divided, so no theta series is built.  expand asserts that the
    expansion starts at the quotient's valuation, which is asserted to
    equal -c/24 + h, before the window is restricted to the request.
    """
    q_order = Fraction(q_order)
    if q_order <= 0:
        raise ValueError("q_order must be positive")
    h, s = h_s_values(spec)
    lead_q = -central_charge(spec.M) / 24 + h
    if x_window is None:
        x_window = (s - 4, s + 2)
    lo, hi = Fraction(x_window[0]), Fraction(x_window[1])
    if lo > hi:
        raise ValueError("empty x window")
    ser, v = character_ratio(spec).expand(q_order, (min(lo, s), max(hi, s)))
    if v != lead_q:
        raise AssertionError("character valuation %s, expected -c/24+h = %s"
                             % (v, lead_q))
    return restrict_window(ser, (lo, hi))


@dataclass(frozen=True)
class ReductionParams:
    """Level/weight bookkeeping of one reduced module: heart I-IV,
    shifts (k1, k2), weights (m, m2), level M, twisted or not."""
    M: int
    m: int
    m2: int
    k1: int
    k2: int
    heart: str
    twisted: bool

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be a positive integer")
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if not 0 <= self.m2 <= self.m:
            raise ValueError("m2 must satisfy 0 <= m2 <= m")
        if self.heart not in HEARTS:
            raise ValueError("heart must be one of %s" % (HEARTS,))
        k1, k2, M = self.k1, self.k2, self.M
        k1_min, k2_min, d = HEART_RANGES[self.heart]
        if k1 < k1_min or k2 < k2_min or 2 * k1 + k2 > M + d:
            raise ValueError("(k1, k2) = (%d, %d) out of range for heart %s "
                             "at M = %d" % (k1, k2, self.heart, M))


def reduction_hs(params):
    """Exact (h, s) of the reduced module, by heart and twist: h in units
    of 1/(4M) and s in units of 1/M, on ints, made Fractions last."""
    p = params
    M, m, k1, k2, m2 = p.M, p.m, p.k1, p.k2, p.m2
    if not p.twisted:
        if p.heart in ("I", "IV"):
            s = m2 * M - m * k2
        else:
            s = m * k2 - (m2 + 2) * M
        # a = A/2 and b = B/2, half-integers
        d = 1 if p.heart in ("I", "III") else -1
        A, B = 2 * k1 + d, 2 * (k1 + k2) + d
        h = 2 * M * (m2 + 1) * A - m * A * B + m - 2 * M
        return Fraction(h, 4 * M), Fraction(s, M)
    if p.heart in ("I", "IV"):
        s = m * (k2 + 1) - (m2 + 1) * M
    else:
        s = (m2 + 1) * M - m * (k2 - 1)
    a = {"I": k1, "II": k1, "III": k1 + 1, "IV": k1 - 1}[p.heart]
    b = {"I": k1 + k2 + 1, "II": k1 + k2 - 1,
         "III": k1 + k2, "IV": k1 + k2}[p.heart]
    h = 4 * M * (m2 + 1) * a - 4 * m * a * b + m - M
    return Fraction(h, 4 * M), Fraction(s, M)


def vanishes(params):
    """True iff the reduced module is zero: heart I or III with
    2k1 + k2 + 1 = M and m2 = m."""
    p = params
    return (p.heart in ("I", "III") and 2 * p.k1 + p.k2 + 1 == p.M
            and p.m2 == p.m)


def nice_k1_values(M, heart):
    """Valid k1 for the closed-form (nice) parameters at heart I or III:
    0 <= 2k1 <= M - 1 at heart I, and k2 = M - 1 - 2k1 >= 1 at III."""
    top = M - 1 if heart == "I" else M - 2
    return tuple(range(top // 2 + 1))


def _check_nice_range(M, k1, heart):
    if heart not in ("I", "III"):
        raise ValueError("nice parameters exist only for hearts I and III")
    if k1 not in nice_k1_values(M, heart):
        raise ValueError("k1 = %d out of the nice range for heart %s at "
                         "M = %d" % (k1, heart, M))


def nice_param_to_j(M, k1, heart, twisted):
    """Character label j of the nice reduced module (2k1 + k2 = M - 1).

    Cross-checks that (h, s) from the reduction tables at m = 1,
    m2 = 0 match the direct character values at the returned j.
    """
    _check_nice_range(M, k1, heart)
    if not twisted:
        j = k1 + HALF if heart == "I" else -(k1 + HALF)
        sector = "NS"
    else:
        j = Fraction(-k1) if heart == "I" else Fraction(k1 + 1)
        sector = "R"
    spec = CharacterSpec(M, j, sector, "+")
    got = reduction_hs(ReductionParams(M, 1, 0, k1, M - 1 - 2 * k1,
                                       heart, twisted))
    want = h_s_values(spec)
    if got != want:
        raise AssertionError("reduction (h, s) = %s disagrees with the "
                             "character table %s at j = %s" % (got, want, j))
    return j


# (heart, sign, twisted) -> overall sign s of the Psi block, shared by
# the diagonal (nice) and the general (k1, k2) numerator rows, which
# put it in the lead as i^(1 - s); the indices and half-characteristics
# follow from the row
BLOCK_SIGNS = {
    ("I", "+", False): 1, ("III", "+", False): -1,
    ("I", "-", False): -1, ("III", "-", False): 1,
    ("I", "+", True): -1, ("III", "+", True): 1,
    ("I", "-", True): -1, ("III", "-", True): 1,
}


def nice_numerator(M, k1, heart, sign, twisted):
    """Signed diagonal Psi block equal to (denominator x character) for
    the nice reduced module."""
    _check_sign(sign)
    j = nice_param_to_j(M, k1, heart, twisted)
    eps = sign_eps(sign)
    eps_prime = HALF if not twisted else Fraction(0)
    face = ThetaQuotient((0, 0, 1 - BLOCK_SIGNS[(heart, sign, twisted)]))
    return psi_diag_ratio(PsiParams(M, j, j, eps, eps_prime)) * face


def dd_indices(M, k1, k2, heart, twisted):
    """Psi indices (j, k) of the general (k1, k2) numerator row."""
    if heart not in ("I", "III"):
        raise ValueError("numerator rows exist only for hearts I and III")
    if not twisted:
        if heart == "I":
            return (k1 + HALF, M - (k1 + k2 + HALF))
        return (M - (k1 + HALF), k1 + k2 + HALF)
    if heart == "I":
        return (Fraction(M - k1), Fraction(k1 + k2 + 1))
    return (Fraction(k1 + 1), Fraction(M - (k1 + k2)))


def dd_numerator(M, k1, k2, heart, sign, twisted):
    """Signed off-diagonal Psi block (denominator x character) for a
    general in-range (k1, k2); reduces to nice_numerator when
    2k1 + k2 = M - 1 by index periodicity."""
    _check_sign(sign)
    ReductionParams(M, 1, 0, k1, k2, heart, twisted)
    j, k = dd_indices(M, k1, k2, heart, twisted)
    eps = sign_eps(sign)
    eps_prime = HALF if not twisted else Fraction(0)
    face = ThetaQuotient((0, 0, 1 - BLOCK_SIGNS[(heart, sign, twisted)]))
    return psi_pair_ratio(PsiParams(M, j, k, eps, eps_prime)) * face
