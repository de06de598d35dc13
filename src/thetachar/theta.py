"""Jacobi theta functions with half-integer characteristics, and the
Dedekind eta function.

Conventions.  For characteristics a, b in {0, 1} and q = e^{2 pi i tau},
x = e^{2 pi i z},

    theta_ab(tau, z) = sum_{n in Z} q^{(n + a/2)^2 / 2}
                                    x^{n + a/2} e^{pi i b (n + a/2)}

so theta_00 is the plain sum over integers, theta_01 alternates,
theta_10 runs over half-integers and theta_11 is i times the alternating
half-integer sum.  Fractional q-powers always mean exp(2 pi i tau e).

Normative series construction is by the convergent products

    theta_00 = prod (1 - q^n)(1 + x q^{n-1/2})(1 + x^{-1} q^{n-1/2})
    theta_01 = prod (1 - q^n)(1 - x q^{n-1/2})(1 - x^{-1} q^{n-1/2})
    theta_10 = q^{1/8} x^{1/2} prod (1 - q^n)(1 + x q^n)(1 + x^{-1} q^{n-1})
    theta_11 = i q^{1/8} x^{1/2} prod (1 - q^n)(1 - x q^n)(1 - x^{-1} q^{n-1})

with n >= 1, and eta = q^{1/24} prod (1 - q^n).  Every exact quotient
the package states, a character, a Psi block, a denominator or a theta
identity, is a ThetaQuotient: a monomial times a quotient of shifted
thetas and eta powers.  Its expand is the one qseries.expand of its
prefactors and two-term factors, each listed with int exponents on its
factor's own lattice (_listing); each factor's series (_factor_series)
is the cached expand of a one-factor quotient, and its exact valuation
(_key_valuation) is read from the same listing.  Identities are
compared cross-multiplied (equals), with the factors both sides share
cancelled and the rest compared below q minus the shared factors' exact
valuation, an equivalent check; each side is a product of cached
factors built at orders computed from their exact valuations.  The
lattice sums are kept as an independent cross-check (theta_sum).

Numerics use mpmath at the caller's working precision prec: direct
lattice summation with an explicit geometric tail bound.  A returned
value carries two errors: the tail, below 2^-prec, and rounding, at
most 2^-prec (|theta| + max(1, T)) for the largest term
T <= e^{pi Im(z)^2 / Im(tau)}, so a large value is accurate relative
to T.  The step count and the guard bits are found from float logs of
the term magnitudes before anything is summed.  The sum walks outward by recurrence on fixed-point
ints: each term is the previous one times a running ratio, and each
ratio gains a factor q = e^{2 pi i tau} per step.  A ThetaPass
evaluates every theta of one sample point this way from the point's
shared exponentials, one root per coordinate and the table of its
powers that a PassPlan names once for every point, on the complex
floating point that qseries owns (_root, _powers, _mul, _div), with the
walks' inputs as accurate as if each had been rounded once, so
both bounds hold for arguments built as products.
theta_numeric is its one-theta case, and eta(m tau) (the pentagonal
series) is walked as theta_01(3m tau, -m tau/2) (eta_request).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from mpmath import mp
from mpmath.libmp import to_float

from .qseries import (ONE, CoefficientRingError, GaussianRational,
                      JacobiSeries, _div, _fixed, _mul, _power_steps,
                      _powers, _root, equal_to_order, expand, product,
                      scale_monomial, to_mpc)

THETA_LABELS = ("00", "01", "10", "11")

# working decimal precision for the numeric verifier layer; intermediate
# theta values under rescaled arguments reach magnitudes around e^30, so
# double precision is not enough for 1e-9 residual targets
DEFAULT_DPS = 40

# entries each series cache below keeps: `verify --suite all` builds at
# most 372 distinct series in one of them (_factor_series'), and an
# expand round none
SERIES_CACHE_SIZE = 2048


class TailBoundError(ArithmeticError):
    """A numeric lattice sum could not meet the requested tail bound."""


def _check_label(label):
    if label not in THETA_LABELS:
        raise ValueError("unknown theta label %r, want one of %s"
                         % (label, THETA_LABELS))


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def theta_sum(label, q_order):
    """Lattice-sum theta_label, the independent cross-check form."""
    _check_label(label)
    q_order = Fraction(q_order)
    a, b = int(label[0]), int(label[1])
    n_max = math.isqrt(max(0, int(2 * q_order))) + 3
    terms = {}
    for m in range(-n_max, n_max + 1):
        h = Fraction(2 * m + a, 2)
        e = h * h / 2
        if e >= q_order:
            continue
        c = GaussianRational(1)
        if b:
            c = c.times_i_power(int(2 * h))
        terms[(e * 8, h * 2)] = c
    return JacobiSeries(8, 2, int(Fraction(q_order) * 8), terms)


def theta_key(label, tau_scale=1, z_scale=1, r_tau=0, r_one=0):
    """The ThetaQuotient factor key (label, tau_scale, z_scale, r_tau,
    r_one) of theta_label(tau_scale tau, z_scale z + r_tau tau + r_one):
    scales as ints, shifts as Fractions, so every spelling of one theta
    is one key."""
    _check_label(label)
    ts, zs = int(tau_scale), int(z_scale)
    if ts < 1 or zs < 1:
        raise ValueError("tau_scale and z_scale must be positive integers")
    return (label, ts, zs, Fraction(r_tau), Fraction(r_one))


def theta_shifted(label, q_order, tau_scale=1, z_scale=1, r_tau=0, r_one=0):
    """theta_label(tau_scale*tau, z_scale*z + r_tau*tau + r_one) as an
    exact series trusted below q_order: the cached expand of the
    one-theta ThetaQuotient.  The arguments are normalized (theta_key)
    first, so every spelling of one series is one cache entry;
    cache_info() and cache_clear() reach that cache.
    """
    return _factor_series(Fraction(q_order),
                          theta_key(label, tau_scale, z_scale, r_tau, r_one))


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def _factor_series(q_order, key):
    """The series of one factor key (ThetaQuotient), a shifted theta or
    ("eta", m), trusted below q_order: its one-factor expand."""
    return ThetaQuotient(num={key: 1}).expand(q_order)[0]


theta_shifted.cache_info = _factor_series.cache_info
theta_shifted.cache_clear = _factor_series.cache_clear


# ---------------------------------------------------------------------
# exact theta quotients
# ---------------------------------------------------------------------

def _listing(key, below):
    """(q_den, (pre_q, pre_x, pre_c), factors) of a factor key: its
    prefactor pre_c q^pre_q x^pre_x and the (e, k, c) of each two-term
    factor (1 + c x^k q^e) with e < below (all e < 0 once below > 0), on
    the key's own int lattice: q in units of 1/q_den, 24 for ("eta", m)
    and 8d for a theta with r_tau = r/d, and x in units of 1/2.

    eta(m tau) = q^{m/24} prod (1 - q^{m n}).  A theta's is its Jacobi
    triple product: with x' = e^{2 pi i (z_scale*z + r_tau*tau + r_one)}
    the factor (1 + s x' q^{tau_scale e}) becomes
    (1 + s zeta x^{z_scale} q^{tau_scale e + r_tau}) for the phase
    zeta = e^{2 pi i r_one}, which must be a power of i (and for the
    half-characteristic prefactor x'^{1/2}, a power of -1), otherwise
    CoefficientRingError is raised; so each pre_c and c is a power of i.
    Its prefactor's exponent is a (d ts + 4 r), and its factors' e are
    step n, step n + 8 r - h and step n - step + h - 8 r, n >= 1, for
    step = 8 d ts and h = 4 d ts (1 - a).
    """
    minus = GaussianRational(-1)
    q_den = 24 if key[0] == "eta" else 8 * key[3].denominator
    below_n = -(-below.numerator * q_den // below.denominator)
    if key[0] == "eta":
        m = 24 * key[1]
        return (q_den, (key[1], 0, GaussianRational(1)),
                [(m * n, 0, minus) for n in range(1, -(-below_n // m))])
    label, ts, zs, r_tau, r_one = key
    if 4 % r_one.denominator:
        raise CoefficientRingError(
            "z-shift constant %s is not a multiple of 1/4" % (r_one,))
    k4 = r_one.numerator * (4 // r_one.denominator)
    a, b = int(label[0]), int(label[1])
    d, r = r_tau.denominator, r_tau.numerator
    c_fwd = GaussianRational(-1 if b else 1).times_i_power(k4)
    c_bwd = GaussianRational(-1 if b else 1).times_i_power(-k4)
    if a == 1:
        if k4 % 2:
            raise CoefficientRingError(
                "half-power phase exp(pi i %s) is not a power of i"
                % (r_one,))
        pre = (d * ts + 4 * r, zs,
               GaussianRational(1).times_i_power(b + k4 // 2))
    else:
        pre = (0, 0, GaussianRational(1))

    # every exponent grows with n, so the first row with nothing below
    # the bound ends the list
    step, h = 8 * d * ts, 4 * d * ts * (1 - a)
    factors = []
    n = step
    while True:
        row = ((n, 0, minus), (n + 8 * r - h, 2 * zs, c_fwd),
               (n - step + h - 8 * r, -2 * zs, c_bwd))
        live = [f for f in row if f[0] < below_n]
        if not live:
            return q_den, pre, factors
        factors.extend(live)
        n += step


def _units(r, den):
    """The rational r as an int in units of 1/den, a multiple of its
    denominator."""
    return r.numerator * (den // r.denominator)


@lru_cache(maxsize=1024)
def _key_valuation(key):
    """The exact q-valuation of a factor key: its prefactor's q-exponent
    plus the e of each two-term factor below q^0 (_listing), so
    CoefficientRingError where the listing raises.  The q^v coefficient
    is the product of the factors' lowest terms, a nonzero Laurent
    polynomial in x."""
    q_den, pre, factors = _listing(key, 0)
    return Fraction(pre[0] + sum(e for e, _, _ in factors), q_den)


class ThetaQuotient:
    """The exact quotient i^k q^a x^b prod num / prod den, lead = (a, b, k).

    num and den are Counters of the power of each factor key, built from
    a mapping of keys to powers or from a list of keys: a shifted theta
    (theta_key) or ("eta", m) for eta(m tau).  A product adds the powers
    within num and within den and never cancels; a comparison (equals)
    cancels the factors its two cross-multiplied sides share and
    multiplies the series of the rest.  Every valuation is exact
    (_key_valuation), so the order each factor is built at is computed
    before anything is built, and nothing retries.
    """

    __slots__ = ("lead", "num", "den")

    def __init__(self, lead=(0, 0, 0), num=None, den=None):
        a, b, k = lead
        self.lead = (Fraction(a), Fraction(b), int(k) % 4)
        self.num = Counter(num)
        self.den = Counter(den)

    @staticmethod
    def theta(label, tau_scale=1, z_scale=1, r_tau=0, r_one=0):
        """theta_label(tau_scale tau, z_scale z + r_tau tau + r_one)."""
        return ThetaQuotient(num=[theta_key(label, tau_scale, z_scale,
                                            r_tau, r_one)])

    @staticmethod
    def eta(m, power=1):
        """eta(m tau)**power."""
        return ThetaQuotient(num={("eta", int(m)): int(power)})

    def __mul__(self, other):
        (a, b, k), (c, d, n) = self.lead, other.lead
        return ThetaQuotient((a + c, b + d, k + n), self.num + other.num,
                             self.den + other.den)

    def __truediv__(self, other):
        a, b, k = other.lead
        return self * ThetaQuotient((-a, -b, -k), other.den, other.num)

    def parts(self):
        """(lead times num, den), each a quotient with no denominator."""
        return ThetaQuotient(self.lead, self.num), ThetaQuotient(num=self.den)

    def valuation(self):
        """The exact q-valuation."""
        v = self.lead[0]
        for part, p in ((self.num, 1), (self.den, -1)):
            for key, n in part.items():
                v += p * n * _key_valuation(key)
        return v

    def _orders(self, q_order):
        """{key: order} each factor of series(q_order) is built below.

        A product is trusted below min(Qa + min(0, vb), Qb + min(0, va))
        (qseries.mul).  So with S the sum of min(0, v) over the factors,
        each once per power (an eta's v = m/24 is positive), each factor
        built below q' - a - S + min(0, v) leaves the product times q^a
        trusted below q' = max(q_order, a + S), and below a + S it has
        no term.
        """
        dips = {key: min(0, _key_valuation(key)) for key in self.num}
        deficit = sum(n * dips[key] for key, n in self.num.items())
        top = max(q_order - self.lead[0], deficit) - deficit
        return {key: top + dip for key, dip in dips.items()}

    def series(self, q_order):
        """The quotient, which must have no denominator, as a series
        trusted below q_order: the cached factors, each built once below
        its order (_orders), multiplied.  Its trust and its lowest
        exponent (valuation()) are checked."""
        if self.den:
            raise ValueError("series() needs a quotient with no "
                             "denominator: compare with equals()")
        q_order = Fraction(q_order)
        orders = self._orders(q_order)
        factors = [ser for key, n in self.num.items()
                   for ser in [_factor_series(orders[key], key)] * n]
        a, b, k = self.lead
        out = product(factors) if factors else JacobiSeries.one(q_order - a)
        out = scale_monomial(out, a, b, GaussianRational(1).times_i_power(k))
        v = self.valuation()
        low = Fraction(min(out.c)[0], out.q_den) if out.c else None
        if out.q_order < q_order or low != (v if v < out.q_order else None):
            raise AssertionError("product trusted below %s < %s, or starts "
                                 "at q^%s, not at its valuation %s"
                                 % (out.q_order, q_order, low, v))
        return out

    def equals(self, other, q_order):
        """self == other below q_order, cross-multiplied with the factors
        both sides share cancelled: the series of sides() compared."""
        return equal_to_order(*self.sides(other, q_order))

    def sides(self, other, q_order):
        """(A, B, q'): self == other below q_order exactly when the
        series A and B are equal below q', and A or B has a term below q'
        exactly when the cross-multiplied sides have one below q_order.

        Cross-multiplied, the two sides are A X and B X, where X holds
        the factors that lead num other.den and other.lead other.num den
        have in common (their Counters' intersection) and A and B what is
        left.  Series in q^{1/N} over Z[i][x, 1/x] form an integral
        domain, and the lowest term of (A - B) X is the product of the
        lowest terms of A - B and of X, so v((A - B) X) = v(A - B) + v(X)
        for X's exact valuation v(X) (valuation()).  So A X = B X below
        q_order exactly when A = B below q' = q_order - v(X), an
        equivalent check, not a weaker one, and likewise A X has a term
        below q_order exactly when A has one below q'.  No factor is
        left on both sides, so each is built once, below the order its
        own side computes (_orders)."""
        q_order = Fraction(q_order)
        lhs, rhs = self.num + other.den, other.num + self.den
        shared = lhs & rhs
        q = q_order - ThetaQuotient(num=shared).valuation()
        return (ThetaQuotient(self.lead, lhs - shared).series(q),
                ThetaQuotient(other.lead, rhs - shared).series(q), q)

    def expand(self, q_order, x_window=None):
        """(series, v): the quotient as one qseries.expand, trusted below
        q_order, and its valuation v = valuation().  The series is the
        lead and every factor's listing (_listing), multiplied for num
        and divided for den (which needs x_window), each listed below
        max(1, q_order - v), so every e < 0 too.  The listings are scaled
        from their keys' lattices to the lcm of those and of the lead's,
        q_order's and the window's denominators, and expand reduces that
        to the coarsest lattice holding every exponent listed.  The
        series must start at q^v."""
        q_order = Fraction(q_order)
        v = self.valuation()
        below = max(1, q_order - v)
        ends = [Fraction(end) for end in x_window or ()]
        listings = [(_listing(key, below), n, p)
                    for part, p in ((self.num, 1), (self.den, -1))
                    for key, n in part.items()]
        a, b, k = self.lead
        q_den = math.lcm(a.denominator, q_order.denominator,
                         *(lst[0] for lst, _, _ in listings))
        x_den = math.lcm(2, b.denominator, *(end.denominator for end in ends))
        monomials = [(_units(a, q_den), _units(b, x_den),
                      GaussianRational(1).times_i_power(k), 1)]
        factors = []
        sx = x_den // 2
        for (lq, pre, more), n, p in listings:
            sq = q_den // lq
            monomials += [(pre[0] * sq, pre[1] * sx, pre[2], p)] * n
            factors += [(e * sq, kx * sx, c, p) for e, kx, c in more] * n
        ser = expand(q_den, x_den, monomials, factors,
                     _units(q_order, q_den),
                     tuple(_units(end, x_den) for end in ends) or None)
        low = Fraction(min(ser.c)[0], ser.q_den) if ser.c else v
        if low != v:
            raise AssertionError("expansion starts at q^%s, not at its "
                                 "valuation %s" % (low, v))
        return ser, v


# ---------------------------------------------------------------------
# validated numerics
# ---------------------------------------------------------------------

def theta_numeric(label, tau, z):
    """theta_label(tau, z) by direct lattice summation.

    Terms are added symmetrically outward until a geometric majorant
    bounds both remaining tails below 2^-prec, the rounding level of the
    working precision.  Raises TailBoundError when the bound cannot be
    met within a fixed term budget, before summing.  The returned value
    carries two errors:

        tail       below 2^-prec;
        rounding   at most 2^-prec (|theta| + max(1, T)), where
                   T = e^{pi Im(z)^2 / Im(tau)} bounds every term.

    Rounding scales with the largest term, so a large theta value is
    accurate relative to T, not absolutely.  This is the one-theta
    ThetaPass: one exponential e^{pi i z}, taken with its reciprocal,
    besides the nome.
    """
    _check_label(label)
    request = (int(label[0]), int(label[1]), 1, (0, 1), 0)
    tp = ThetaPass((mp.mpc(tau), mp.mpc(z)), PassPlan([request]))
    return to_mpc(tp.theta(request))


def eta_request(m, zs):
    """The ThetaPass request of theta_01(3 m tau, -m tau/2), which is
    e^{-pi i m tau/12} eta(m tau), at a point with zs z-coordinates."""
    return (0, 1, 3 * m, (-m,) + (0,) * zs, 0)


# the ratio gate and the term budget of the lattice sum's stop rule
_GATE = math.log(0.9)
_N_CAP = 100000


def _stop_step(a, y, u, log_err):
    """The step n at which the lattice sum of theta_a*(tau, z) stops,
    for y = Im tau, u = Im z: it then holds the terms at h = h0 - n - 1
    .. h0 + n, h0 = a/2.

    The rule, in the log domain with log|term(h)| = -pi y h^2 - 2 pi u h:
    stop at the first n at which both outward ratios s (of the first
    unsummed term to the next one out) lie below the gate 0.9 and the
    geometric majorants m/(1 - s) of the two tails, m the first unsummed
    term, add up to less than abs_err = e^log_err.  Two closed forms
    bound that n from below, and the bound is tried from the larger of
    them on: the first gated step, and for abs_err < 1 the first step at
    which each first unsummed term, at h = h0 + n + 1 and at
    h = h0 - n - 2, lies below abs_err, past the larger root of
    pi y h^2 +- 2 pi u h + log_err (a step fewer, for the float
    rounding of the roots).  Each comparison is made against a slack of
    1e-9 times the size of the logs taken, far above double rounding,
    so the rule never stops before the exact one.  Raises TailBoundError
    past the term budget.
    """
    h0 = a / 2
    piy, piu = math.pi * y, math.pi * u
    # s_pos(n) = e^{-pi y (2n + 3 + 2 h0) - 2 pi u} and
    # s_neg(n) = e^{-pi y (2n + 5 - 2 h0) + 2 pi u} fall below the gate
    # past the larger of two steps, the first start; their product
    # e^{-pi y (4n + 8)} must too, which rules out a y too small for the
    # budget (or underflowed to 0)
    n = _N_CAP + 1
    if piy * (4 * _N_CAP + 8) > -2 * _GATE:
        lim = -_GATE / piy
        start = max(lim - 2 * u / y - 3 - 2 * h0,
                    lim + 2 * u / y - 5 + 2 * h0) / 2
        if log_err < 0:
            root = math.sqrt(u * u - y * log_err / math.pi)
            start = max(start, (root - u) / y - h0 - 1,
                        (root + u) / y + h0 - 2)
        n = max(0, math.floor(min(start, n)))
    while n <= _N_CAP:
        h_pos, h_neg = h0 + n + 1, h0 - n - 2
        ls_pos = -piy * (2 * h_pos + 1) - 2 * piu
        ls_neg = -piy * (1 - 2 * h_neg) + 2 * piu
        # |h_neg| + 1 bounds every |h| the logs below take
        big = 1 - h_neg
        slack = 1e-9 * (1 + abs(log_err) + piy * big * big
                        + 2 * abs(piu) * big)
        if max(ls_pos, ls_neg) < _GATE - slack:
            b_pos = (-piy * h_pos * h_pos - 2 * piu * h_pos
                     - math.log1p(-math.exp(ls_pos)))
            b_neg = (-piy * h_neg * h_neg - 2 * piu * h_neg
                     - math.log1p(-math.exp(ls_neg)))
            hi, lo = max(b_pos, b_neg), min(b_pos, b_neg)
            if hi + math.log1p(math.exp(lo - hi)) < log_err - slack:
                return n
        n += 1
    raise TailBoundError("theta tail bound e^%.6g not reached within %d "
                         "terms" % (log_err, _N_CAP))


def _guard_bits(a, y, u, n):
    """Guard bits g of the fixed-point lattice sum that stops at step n.

    The running product amplifies a rounding in its first term t0 by at
    most T / |t0| (T = e^{pi u^2 / y} bounds every term), every step adds
    one, and q^2 enters term n to the power n(n-1)/2, so with
    g = log2(max(1, T) / min(1, |t0|)) + 3 log2(n + 2) + 8 the whole
    fixed-point rounding stays below 2^-prec max(1, T) / 4, for inputs
    rounded once at prec + g bits.
    """
    h0 = a / 2
    first = min(0.0, -math.pi * y * h0 * h0 - 2 * math.pi * u * h0,
                -math.pi * y * (h0 - 1) ** 2 - 2 * math.pi * u * (h0 - 1))
    spread = math.pi * u * u / y - first
    return int(spread / math.log(2)) + 3 * (n + 2).bit_length() + 8


def _walk(n, t_pos, r_pos, t_neg, r_neg, q2, wp):
    """The n + 1 terms on each side of a lattice sum, by running products
    on fixed-point ints with wp fraction bits.

    t_pos = term(h0) and t_neg = term(h0 - 1) start the two sides, r_pos
    and r_neg are their ratios to the next term out, and every ratio
    gains the factor q2 per step.  Returns the partial sums over the
    terms with h - h0 even and with h - h0 odd, as int pairs.
    """
    tpr, tpi = t_pos
    rpr, rpi = r_pos
    tnr, tni = t_neg
    rnr, rni = r_neg
    qr, qi = q2
    # (ar, ai) collects the parity of the current outward term, (br, bi)
    # the other one; the two swap at every step
    ar = ai = br = bi = 0
    for _ in range(n):
        ar, ai, br, bi = br + tnr, bi + tni, ar + tpr, ai + tpi
        tpr, tpi = (tpr * rpr - tpi * rpi) >> wp, (tpr * rpi + tpi * rpr) >> wp
        rpr, rpi = (rpr * qr - rpi * qi) >> wp, (rpr * qi + rpi * qr) >> wp
        tnr, tni = (tnr * rnr - tni * rni) >> wp, (tnr * rni + tni * rnr) >> wp
        rnr, rni = (rnr * qr - rni * qi) >> wp, (rnr * qi + rni * qr) >> wp
    ar, ai, br, bi = ar + tpr, ai + tpi, br + tnr, bi + tni
    if n % 2:
        return (br, bi), (ar, ai)
    return (ar, ai), (br, bi)


class PassPlan:
    """The point-free half of a ThetaPass, built once for every point of
    a family: the lattice sums its requests take and the powers it reads,
    all as powers of one root per coordinate.

    A base (i, p, d) is e^{pi i (p/d) x_i}, and every base it reads is
    r_i^(p D_i/d) for the root r_i = e^{pi i x_i/D_i}, D_i the lcm of
    the d of coordinate i's bases: the lattice inputs' e^{pi i tau/2}
    (0, 1, 2), e^{pi i z_j} (j, 1, 1) and nome roots (0, m, 4), and the
    caller's powers (base, n), which ThetaPass.power reads.  So each
    walk input, and each power, is a product of root powers r_i^n,
    given as the factors (i, n):

    inputs   {(a, m, w): the factors of the walk's four inputs and its
             q^2, term(h) = N^{h^2} E^{2h} with E = e^{pi i v} and the
             nome N = e^{pi i m tau} = (0, m, 4)^4};
    units    {base: (i, p D_i/d)};
    roots    {i: (D_i, whether a negative power is read, the steps
             (n, a, b), r^n = r^a r^b in build order, that build every
             power read from r and 1/r by binary powering)};
    chain    the largest sum of |n| over the factors of an input or a
             power: the L of ThetaPass's bound.
    """

    __slots__ = ("requests", "inputs", "units", "roots", "chain")

    def __init__(self, requests, powers=()):
        self.requests = tuple(requests)
        keys = dict.fromkeys((a, m, w) for a, _, m, w, _ in self.requests)
        powers = [(b, n) for b, n in powers if n]
        bases = {b for b, _ in powers}
        for _, m, w in keys:
            bases.add((0, m, 4))
            bases.update((i, 1, 2 if i == 0 else 1)
                         for i, k in enumerate(w) if k)
        dens = {}
        for i, _, d in bases:
            dens[i] = math.lcm(dens.get(i, 1), d)
        self.units = {b: (b[0], b[1] * dens[b[0]] // b[2]) for b in bases}
        self.inputs = {key: self._inputs(*key) for key in keys}
        reads = [f for group in self.inputs.values() for f in group]
        reads += [((self.units[b][0], n * self.units[b][1]),)
                  for b, n in powers]
        needed = {i: set() for i in dens}
        chain = 0
        for product in reads:
            chain = max(chain, sum(abs(n) for _, n in product))
            for i, n in product:
                needed[i].add(n)
        self.roots = {i: (d, min(needed[i], default=0) < 0,
                          _power_steps(needed[i]))
                      for i, d in dens.items()}
        self.chain = chain

    def _inputs(self, a, m, w):
        """The factors of (t_pos, r_pos, t_neg, r_neg, q2) for _walk:
        term(h0), term(h0 - 1), their ratios to the next term out, and
        N^2 = q8^8 for the nome root q8 = (0, m, 4)."""
        _, q = self.units[0, m, 4]
        e = {}
        for i, k in enumerate(w):
            if k:
                e[i] = k * self.units[i, 1, 2 if i == 0 else 1][1]

        def product(qn, sign):
            out = dict((i, sign * n) for i, n in e.items())
            out[0] = out.get(0, 0) + qn
            return tuple((i, n) for i, n in sorted(out.items()) if n)
        if a:
            return (product(q, 1), product(8 * q, 2), product(q, -1),
                    product(8 * q, -2), ((0, 8 * q),))
        return ((), product(4 * q, 2), product(4 * q, -2),
                product(12 * q, -2), ((0, 8 * q),))


class ThetaPass:
    """The thetas of one sample point, all from its shared exponentials.

    coords is (tau, z_1, .., z_k) as mpc, and each request (a, b, m, w, e)
    asks for theta_ab(m tau, v + e/2) with
    v = w[0] tau/2 + w[1] z_1 + .. + w[k] z_k, for integers m >= 1, w
    and e.  A lattice sum depends on (a, m, w) only: the phase
    i^(b + e) of its exponential E = e^{pi i (v + (b + e)/2)} turns the
    terms with h - a/2 odd by -1 and all of them by i^a (b + e) times, so
    one walk per (a, m, w) gives every b and e from its even and odd
    partial sums.  plan is the PassPlan that names them.

    Each walk takes _stop_step's count for a tail below 2^-prec and
    _guard_bits' g, and the pass runs at wp = prec + max g + c bits,
    c = bitlen(32 L) for the plan's chain L.  Each coordinate x_i has
    one exponential per pass, its root r_i = e^{pi i x_i/D_i}
    (qseries._root, within 2^(2 - wp) relative), and, if a negative
    power is read, one reciprocal 1/r_i (one _div, within 2^(3 - wp)).
    Its table (qseries._powers) holds every power r_i^n the plan reads,
    built by the plan's steps, each product rounding by at most
    2^(2 - wp) relative.
    Relative errors add up through products, so a table entry r_i^n,
    which takes |n| roots, is within |n| 2^(4 - wp) of its value, and a
    walk input, a product of table entries that takes L roots in all
    (L <= the plan's chain), is within L 2^(5 - wp) relative, and within
    2^(1 - wp) more absolute once it is made fixed point: within
    2^(1 - prec - g) max(1, |x|), as accurate as an input rounded once
    at prec + g bits, which is what g assumes.  No quotient is ever
    taken in fixed point, where a tiny divisor would lose its digits.
    So every theta carries the tail and rounding errors stated in
    theta_numeric, whatever product built its argument.  A power
    (base, n) read by power() takes |n| p D_i/d roots and is within
    that many times 2^(5 - wp) relative, and products of the results
    (mul, div) round by 2^(2 - wp) relative.
    """

    def __init__(self, coords, plan):
        tau = coords[0]
        if tau.imag <= 0:
            raise ValueError("tau must lie in the upper half plane")
        log_err = -mp.prec * math.log(2)
        self.coords = coords
        self.plan = plan
        self.prec = mp.prec
        y = to_float(tau._mpc_[1])
        ims = [y / 2] + [to_float(z._mpc_[1]) for z in coords[1:]]
        steps = {}
        guard = 0
        for a, m, w in plan.inputs:
            u = math.fsum(k * v for k, v in zip(w, ims))
            n = steps[a, m, w] = _stop_step(a, m * y, u, log_err)
            guard = max(guard, _guard_bits(a, m * y, u, n))
        self.wp = wp = self.prec + guard + (32 * plan.chain).bit_length()
        self._tables = {i: _powers(_root(coords[i], d, wp), *table, wp)
                        for i, (d, *table) in plan.roots.items()}
        self._sums = {
            key: _walk(n, *(_fixed(self._product(f), wp)
                            for f in plan.inputs[key]), wp)
            for key, n in steps.items()}

    def _product(self, factors):
        """The product of the table entries r_i^n of factors (i, n)."""
        return self.mul(*(self._tables[i][n] for i, n in factors))

    def theta(self, request):
        """theta_ab(m tau, v + e/2) of a planned request (a, b, m, w, e)."""
        a, b, m, w, e = request
        (er, ei), (odd_r, odd_i) = self._sums[a, m, w]
        p = (b + e) % 4
        if p % 2:
            re, im = er - odd_r, ei - odd_i
        else:
            re, im = er + odd_r, ei + odd_i
        for _ in range(a * p):
            re, im = -im, re
        return re, im, -self.wp

    def power(self, b, n):
        """e^{pi i n c x} for a planned power (b, n) of the base
        b = (i, p, d), x = coords[i] and c = p/d."""
        i, k = self.plan.units[b]
        return self._tables[i][n * k]

    def mul(self, *factors):
        """The product of values, ONE for none."""
        if not factors:
            return ONE
        out = factors[0]
        for x in factors[1:]:
            out = _mul(out, x, self.wp)
        return out

    def div(self, x, y):
        return _div(x, y, self.wp)
