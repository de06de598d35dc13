"""Exact truncated series in q = e^{2 pi i tau} and x = e^{2 pi i z}.

Series are finite sums  sum c[e,f] q^e x^f  with exponents (e, f) on a
rational lattice (1/q_den)Z x (1/x_den)Z and Gaussian rational
coefficients c = a + b*i, a, b in Q.  The Gaussian rationals are the
smallest coefficient field closed under the fourth roots of unity that
arise as phases when z is shifted by quarter periods; any operation that
would need a root of unity outside {1, i, -1, -i} raises
CoefficientRingError instead of approximating.

Each part a, b is a Python int when it is integral and a Fraction only
otherwise, and the only division is GaussianRational.inverse().  Theta
products have Gaussian integer coefficients and unit leading terms, so
their products and inverses stay in Z[i] and the kernel loops (mul, and
the level products of invert_directed) run on ints; rational inputs take
the same loops, since Python mixes the two exactly.

Fractional powers are defined through the exponential, never through a
branch choice on q itself: q^e means exp(2 pi i tau e) and x^f means
exp(2 pi i z f).

Every series carries q_order, a strict upper bound on the q-exponents it
is trusted to.  Coefficients at exponents below q_order are exact;
everything at or above q_order has been discarded.  Binary operations
propagate q_order so that the result is again exact below its own bound,
which for products of series with negative q-valuation can be smaller
than the minimum of the operand bounds.

A series may in addition carry an x_window, a closed interval of
x-exponents outside of which terms are unknown.  Windows appear when a
series is inverted in the direction of descending x-powers and then
follow the usual interval arithmetic: products shift the window,
sums intersect, and comparisons are restricted to the window overlap.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import gcd


class CoefficientRingError(ArithmeticError):
    """A computation left the Gaussian rationals (needed a root of unity
    other than a power of i)."""


class UntrustedOrderError(ValueError):
    """A comparison was requested beyond an operand's trusted q_order."""


def _lcm(a, b):
    return a // gcd(a, b) * b


def _exact(v):
    """v as an exact rational: an int when integral, else a Fraction."""
    if not isinstance(v, Fraction):
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class GaussianRational:
    """A Gaussian rational a + b*i with exact parts.

    Each part is stored as an int when it is integral and as a Fraction
    otherwise, so Gaussian integers, which are all the coefficients the
    theta products and their unit-led inverses produce, never touch
    Fraction arithmetic.  Python mixes the two exactly, and int and
    Fraction parts of equal value hash and compare alike.  Only
    inverse() divides.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _exact(re)
        self.im = im if type(im) is int else _exact(im)

    @staticmethod
    def coerce(v):
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, (int, Fraction)):
            return GaussianRational(v, 0)
        if isinstance(v, complex):
            raise CoefficientRingError(
                "floating complex %r is not an exact Gaussian rational" % (v,))
        raise TypeError("cannot coerce %r to GaussianRational" % (v,))

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(Fraction(self.re, n), Fraction(-self.im, n))

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def times_i_power(self, k):
        """Multiply by i^k for integer k."""
        k = int(k) % 4
        if k == 0:
            return self
        if k == 1:
            return GaussianRational(-self.im, self.re)
        if k == 2:
            return GaussianRational(-self.re, -self.im)
        return GaussianRational(self.im, -self.re)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return "GaussianRational(%s)" % (self.re,)
        return "GaussianRational(%s, %s)" % (self.re, self.im)


I_UNIT = GaussianRational(0, 1)
ONE = GaussianRational(1, 0)


class JacobiSeries:
    """Truncated two-variable series with exact coefficients.

    Internally exponents are stored in lattice units: the term keyed by
    (qn, xn) is the monomial q^(qn/q_den) x^(xn/x_den).  order_n is the
    strict trust bound in q lattice units.  window_n is None or an
    inclusive pair (lo, hi) in x lattice units.
    """

    __slots__ = ("q_den", "x_den", "order_n", "window_n", "c")

    def __init__(self, q_den, x_den, order_n, terms, window_n=None):
        self.q_den = int(q_den)
        self.x_den = int(x_den)
        self.order_n = int(order_n)
        self.window_n = window_n
        c = {}
        for (qn, xn), v in terms.items():
            qi, xi = int(qn), int(xn)
            if qi != qn or xi != xn:
                raise ValueError("exponent (%s, %s) off the lattice" % (qn, xn))
            v = GaussianRational.coerce(v)
            if v.is_zero() or qi >= order_n:
                continue
            if window_n is not None and not window_n[0] <= xi <= window_n[1]:
                continue
            c[(qi, xi)] = v
        self.c = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(q_order, q_den=1, x_den=1):
        q_order = Fraction(q_order)
        q_den = _lcm(q_den, q_order.denominator)
        return JacobiSeries(q_den, x_den, q_order * q_den, {})

    @staticmethod
    def monomial(q_exp, x_exp, coeff, q_order):
        """The single term coeff * q^q_exp x^x_exp trusted below q_order."""
        q_exp = Fraction(q_exp)
        x_exp = Fraction(x_exp)
        q_order = Fraction(q_order)
        q_den = _lcm(q_exp.denominator, q_order.denominator)
        x_den = x_exp.denominator
        return JacobiSeries(q_den, x_den, q_order * q_den,
                            {(q_exp * q_den, x_exp * x_den):
                             GaussianRational.coerce(coeff)})

    @staticmethod
    def one(q_order, q_den=1, x_den=1):
        s = JacobiSeries.zero(q_order, q_den, x_den)
        if s.order_n > 0:
            s.c[(0, 0)] = ONE
        return s

    # -- views --------------------------------------------------------

    @property
    def q_order(self):
        return Fraction(self.order_n, self.q_den)

    @property
    def x_window(self):
        if self.window_n is None:
            return None
        return (Fraction(self.window_n[0], self.x_den),
                Fraction(self.window_n[1], self.x_den))

    def terms(self):
        """Sorted list of (q_exp, x_exp, coeff) with Fraction exponents."""
        out = []
        for (qn, xn) in sorted(self.c):
            out.append((Fraction(qn, self.q_den), Fraction(xn, self.x_den),
                        self.c[(qn, xn)]))
        return out

    def coefficient(self, q_exp, x_exp):
        q_exp = Fraction(q_exp) * self.q_den
        x_exp = Fraction(x_exp) * self.x_den
        if q_exp.denominator != 1 or x_exp.denominator != 1:
            return GaussianRational(0)
        return self.c.get((int(q_exp), int(x_exp)), GaussianRational(0))

    def is_zero(self):
        return not self.c

    def q_valuation_bound(self):
        """A lower bound on the q-valuation of the untruncated series:
        the smallest stored exponent, or q_order if nothing is stored."""
        if not self.c:
            return self.q_order
        return Fraction(min(qn for (qn, _) in self.c), self.q_den)

    def x_support(self):
        """(min, max) stored x-exponents as Fractions, or None."""
        if not self.c:
            return None
        xs = [xn for (_, xn) in self.c]
        return (Fraction(min(xs), self.x_den), Fraction(max(xs), self.x_den))

    def __repr__(self):
        head = sorted(self.c)[:4]
        shown = ", ".join("q^%s x^%s: %s" %
                          (Fraction(qn, self.q_den), Fraction(xn, self.x_den),
                           self.c[(qn, xn)])
                          for (qn, xn) in head)
        more = "" if len(self.c) <= 4 else ", ... (%d terms)" % len(self.c)
        return "JacobiSeries(order<%s, {%s%s})" % (self.q_order, shown, more)

    # -- lattice alignment ---------------------------------------------

    def _with_lattice(self, q_den, x_den):
        if q_den == self.q_den and x_den == self.x_den:
            return self
        kq = q_den // self.q_den
        kx = x_den // self.x_den
        terms = {(qn * kq, xn * kx): v for (qn, xn), v in self.c.items()}
        win = None
        if self.window_n is not None:
            win = (self.window_n[0] * kx, self.window_n[1] * kx)
        return JacobiSeries(q_den, x_den, self.order_n * kq, terms, win)

    @staticmethod
    def _aligned(a, b):
        q_den = _lcm(a.q_den, b.q_den)
        x_den = _lcm(a.x_den, b.x_den)
        return a._with_lattice(q_den, x_den), b._with_lattice(q_den, x_den)


# ---------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------

def add(a, b):
    """Sum, trusted below min(q_order); windows intersect."""
    a, b = JacobiSeries._aligned(a, b)
    order_n = min(a.order_n, b.order_n)
    win = a.window_n
    if b.window_n is not None:
        if win is None:
            win = b.window_n
        else:
            win = (max(win[0], b.window_n[0]), min(win[1], b.window_n[1]))
    terms = dict(a.c)
    for key, v in b.c.items():
        w = terms.get(key)
        terms[key] = v if w is None else w + v
    return JacobiSeries(a.q_den, a.x_den, order_n, terms, win)


def negate(a):
    return JacobiSeries(a.q_den, a.x_den, a.order_n,
                        {k: -v for k, v in a.c.items()}, a.window_n)


def sub(a, b):
    return add(a, negate(b))


def _mul_order(a, b):
    """Trust bound for a*b in the common lattice, in lattice units.

    Missing terms of a live at exponents >= Qa and multiply stored or
    missing terms of b at exponents >= vb, contributing only at or above
    Qa + vb (symmetrically Qb + va), where va, vb are valuation lower
    bounds.  The result is also capped at min(Qa, Qb), which is the
    binding constraint whenever both valuations are nonnegative.
    """
    va = min(min(qn for (qn, _) in a.c), a.order_n) if a.c else a.order_n
    vb = min(min(qn for (qn, _) in b.c), b.order_n) if b.c else b.order_n
    return min(a.order_n, b.order_n, a.order_n + vb, b.order_n + va)


def mul(a, b):
    """Product, trusted below min(Qa, Qb, Qa+vb, Qb+va); at most one
    operand may carry an x_window."""
    a, b = JacobiSeries._aligned(a, b)
    if a.window_n is not None and b.window_n is not None:
        raise ValueError("cannot multiply two windowed series")
    if b.window_n is not None:
        a, b = b, a
    order_n = _mul_order(a, b)

    win = None
    if a.window_n is not None:
        if b.c:
            xs = [xn for (_, xn) in b.c]
            win = (a.window_n[0] + max(xs), a.window_n[1] + min(xs))
        else:
            win = a.window_n

    # group by q-level, ascending, so the inner loop can stop early;
    # each term is unpacked once into (x, re, im)
    la = _levels(a.c)
    lb = _levels(b.c)
    qb_sorted = sorted(lb)

    sums = {}
    for qa in sorted(la):
        rem = order_n - qa
        pa = la[qa]
        for qb in qb_sorted:
            if qb >= rem:
                break
            row = sums.setdefault(qa + qb, {})
            for xa, ar, ai in pa:
                for xb, br, bi in lb[qb]:
                    x = xa + xb
                    if win is not None and not win[0] <= x <= win[1]:
                        continue
                    acc = row.get(x)
                    if acc is None:
                        row[x] = [ar * br - ai * bi, ar * bi + ai * br]
                    else:
                        acc[0] += ar * br - ai * bi
                        acc[1] += ar * bi + ai * br
    terms = {(q, x): GaussianRational(re, im)
             for q, row in sums.items() for x, (re, im) in row.items()
             if re or im}
    return JacobiSeries(a.q_den, a.x_den, order_n, terms, win)


def _levels(c):
    """{qn: [(xn, re, im), ...]} of a coefficient dict."""
    out = {}
    for (qn, xn), v in c.items():
        out.setdefault(qn, []).append((xn, v.re, v.im))
    return out


def product(factors, seed_order=None):
    """Fold a product smallest-first to keep intermediates compact."""
    factors = sorted(factors, key=lambda s: len(s.c))
    if not factors:
        if seed_order is None:
            raise ValueError("empty product needs seed_order")
        return JacobiSeries.one(seed_order)
    acc = factors[0]
    for f in factors[1:]:
        acc = mul(acc, f)
    return acc


def scale_monomial(a, a_q, a_x, coeff=1):
    """Multiply by coeff * q^a_q x^a_x exactly; q_order shifts by a_q."""
    a_q = Fraction(a_q)
    a_x = Fraction(a_x)
    coeff = GaussianRational.coerce(coeff)
    q_den = _lcm(a.q_den, a_q.denominator)
    x_den = _lcm(a.x_den, a_x.denominator)
    s = a._with_lattice(q_den, x_den)
    dq = int(a_q * q_den)
    dx = int(a_x * x_den)
    terms = {(qn + dq, xn + dx): v * coeff for (qn, xn), v in s.c.items()}
    win = None
    if s.window_n is not None:
        win = (s.window_n[0] + dx, s.window_n[1] + dx)
    return JacobiSeries(q_den, x_den, s.order_n + dq, terms, win)


def subst_scale_tau(a, m):
    """tau -> m*tau for a positive integer m: exact, q_order scales by m."""
    m = int(m)
    if m < 1:
        raise ValueError("tau scale must be a positive integer")
    terms = {(qn * m, xn): v for (qn, xn), v in a.c.items()}
    return JacobiSeries(a.q_den, a.x_den, a.order_n * m, terms, a.window_n)


def truncate(a, q_order):
    """Restrict trust to q_order <= current q_order, dropping terms."""
    q_order = Fraction(q_order)
    if q_order > a.q_order:
        raise UntrustedOrderError(
            "cannot raise q_order from %s to %s" % (a.q_order, q_order))
    q_den = _lcm(a.q_den, q_order.denominator)
    s = a._with_lattice(q_den, a.x_den)
    return JacobiSeries(q_den, a.x_den, int(q_order * q_den), s.c, s.window_n)


def restrict_window(a, x_window):
    """Impose (or tighten to) the inclusive x-exponent window."""
    lo = Fraction(x_window[0])
    hi = Fraction(x_window[1])
    x_den = _lcm(a.x_den, _lcm(lo.denominator, hi.denominator))
    s = a._with_lattice(a.q_den, x_den)
    wlo = math.ceil(lo * x_den)
    whi = math.floor(hi * x_den)
    if s.window_n is not None:
        wlo = max(wlo, s.window_n[0])
        whi = min(whi, s.window_n[1])
    return JacobiSeries(s.q_den, x_den, s.order_n, s.c, (wlo, whi))


def invert_directed(a, x_window):
    """Inverse of a series organized in descending powers of x.

    The series is split into q-levels above its valuation; the lowest
    level A0, a Laurent polynomial in x, must have a nonzero coefficient
    on its highest x-power.  Its inverse is the descending geometric
    expansion in 1/x, and higher levels follow by the usual recursion
    for inverting a series with invertible lowest term.  The result is
    truncated to the requested inclusive x_window and carries it.

    The returned q_order is q_order(a) - 2 v where v is the q-valuation
    of a.  Internally the recursion works on a window widened by the
    worst-case climb of x-support per q-level so that every reported
    coefficient receives all of its contributions.
    """
    if a.window_n is not None:
        raise ValueError("cannot invert a windowed series")
    if not a.c:
        raise ZeroDivisionError("cannot invert a series with no stored terms")
    lo = Fraction(x_window[0])
    hi = Fraction(x_window[1])
    x_den = _lcm(a.x_den, _lcm(lo.denominator, hi.denominator))
    s = a._with_lattice(a.q_den, x_den)
    wlo = math.ceil(lo * x_den)
    whi = math.floor(hi * x_den)

    v_lat = min(qn for (qn, _) in s.c)
    n_levels = s.order_n - v_lat
    if n_levels <= 0:
        raise UntrustedOrderError("series has no trusted terms to invert")

    levels = {}
    for (qn, xn), cv in s.c.items():
        levels.setdefault(qn - v_lat, {})[xn] = cv
    a0 = levels[0]
    e0 = max(a0)
    c0 = a0[e0]

    # worst-case climb of the x-top per q-level, in lattice units
    climb = Fraction(0)
    for lam, poly in levels.items():
        if lam == 0:
            continue
        rise = max(poly) - e0
        if rise > 0:
            climb = max(climb, Fraction(rise, lam))
    pad = int(math.ceil(climb * max(n_levels - 1, 0)))
    work_lo = wlo - pad
    t0_lo = work_lo - pad
    # the level products feeding each T_lambda must retain everything
    # that can still reach the working floor after the final multiply
    # by T0, whose top x-power is -e0
    acc_lo = work_lo + e0 - pad

    def trim(poly, floor_):
        return {x: v for x, v in poly.items() if x >= floor_ and not v.is_zero()}

    def pmul(p1, p2, floor_):
        t2 = [(x2, v2.re, v2.im) for x2, v2 in p2.items()]
        sums = {}
        for x1, v1 in p1.items():
            ar, ai = v1.re, v1.im
            for x2, br, bi in t2:
                x = x1 + x2
                if x < floor_:
                    continue
                acc = sums.get(x)
                if acc is None:
                    sums[x] = [ar * br - ai * bi, ar * bi + ai * br]
                else:
                    acc[0] += ar * br - ai * bi
                    acc[1] += ar * bi + ai * br
        return {x: GaussianRational(re, im)
                for x, (re, im) in sums.items() if re or im}

    # T0 = A0^{-1} descending: c0^{-1} x^{-e0} * sum_k (-u)^k
    c0inv = c0.inverse()
    u = {x - e0: v * c0inv for x, v in a0.items() if x != e0}
    t0 = {-e0: c0inv}
    powk = {0: ONE}
    while True:
        powk = pmul(powk, {x: -v for x, v in u.items()}, t0_lo + e0)
        if not powk:
            break
        for x, v in powk.items():
            key = x - e0
            if key < t0_lo:
                continue
            w = t0.get(key)
            t0[key] = v * c0inv if w is None else w + v * c0inv
        t0 = trim(t0, t0_lo)

    tlev = {0: trim(dict(t0), work_lo)}
    for lam in range(1, n_levels):
        acc = {}
        for dlt, adelta in levels.items():
            if dlt == 0 or dlt > lam:
                continue
            part = pmul(adelta, tlev.get(lam - dlt, {}), acc_lo)
            for x, v in part.items():
                w = acc.get(x)
                acc[x] = v if w is None else w + v
        tlev[lam] = trim(pmul(t0, {x: -v for x, v in acc.items()}, work_lo),
                         work_lo)

    terms = {}
    for lam, poly in tlev.items():
        for xn, v in poly.items():
            if wlo <= xn <= whi:
                terms[(-v_lat + lam, xn)] = v
    order_n = s.order_n - 2 * v_lat
    return JacobiSeries(s.q_den, x_den, order_n, terms, (wlo, whi))


def equal_to_order(a, b, q_order):
    """Exact equality of all coefficients below q_order.

    Raises UntrustedOrderError when q_order exceeds either trusted
    bound.  If either operand carries an x_window the comparison is
    restricted to the window intersection.
    """
    q_order = Fraction(q_order)
    if q_order > a.q_order or q_order > b.q_order:
        raise UntrustedOrderError(
            "comparison to order %s exceeds trusted orders %s, %s"
            % (q_order, a.q_order, b.q_order))
    a, b = JacobiSeries._aligned(a, b)
    bound = q_order * a.q_den
    win = None
    for w in (a.window_n, b.window_n):
        if w is not None:
            win = w if win is None else (max(win[0], w[0]), min(win[1], w[1]))

    def included(key):
        qn, xn = key
        if qn >= bound:
            return False
        return win is None or win[0] <= xn <= win[1]

    keys = set(filter(included, a.c)) | set(filter(included, b.c))
    zero = GaussianRational(0)
    for key in keys:
        if a.c.get(key, zero) != b.c.get(key, zero):
            return False
    return True


# ---------------------------------------------------------------------
# numerics and serialization
# ---------------------------------------------------------------------

def eval_numeric(a, tau, z):
    """Evaluate at numeric (tau, z) with mpmath at the ambient precision.

    Returns the truncated sum as an mpmath complex number; the discarded
    tail is O(|exp(2 pi i tau)|^q_order).
    """
    from mpmath import mp
    tau = mp.mpc(tau)
    z = mp.mpc(z)
    two_pi_i = 2j * mp.pi
    total = mp.mpc(0)
    for (qn, xn), v in a.c.items():
        w = two_pi_i * (tau * qn / a.q_den + z * xn / a.x_den)
        cv = (mp.mpf(v.re.numerator) / v.re.denominator
              + 1j * mp.mpf(v.im.numerator) / v.im.denominator)
        total += cv * mp.exp(w)
    return total


def _frac_str(f):
    return str(Fraction(f))


def to_json_dict(a):
    """Canonical JSON form: integer lattice exponents, rational strings."""
    d = {
        "q_den": a.q_den,
        "x_den": a.x_den,
        "q_order": _frac_str(a.q_order),
        "terms": [
            {"q": qn, "x": xn,
             "re": _frac_str(a.c[(qn, xn)].re),
             "im": _frac_str(a.c[(qn, xn)].im)}
            for (qn, xn) in sorted(a.c)
        ],
    }
    if a.window_n is not None:
        d["x_window"] = [_frac_str(Fraction(a.window_n[0], a.x_den)),
                         _frac_str(Fraction(a.window_n[1], a.x_den))]
    return d


def from_json_dict(d):
    q_den = int(d["q_den"])
    x_den = int(d["x_den"])
    order_n = Fraction(d["q_order"]) * q_den
    if order_n.denominator != 1:
        raise ValueError("q_order not on the stated lattice")
    terms = {(int(t["q"]), int(t["x"])):
             GaussianRational(Fraction(t["re"]), Fraction(t["im"]))
             for t in d["terms"]}
    win = None
    if "x_window" in d:
        win = (int(Fraction(d["x_window"][0]) * x_den),
               int(Fraction(d["x_window"][1]) * x_den))
    return JacobiSeries(q_den, x_den, int(order_n), terms, win)


def dumps_canonical(obj):
    """Deterministic JSON bytes: fixed key order as built, no whitespace."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


class SeriesRatio:
    """A formal quotient num/den of JacobiSeries.

    Ratios are compared without dividing: a/b equals c/d below q_order
    when a*d and c*b agree there.  Multiplication is componentwise.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __mul__(self, other):
        if isinstance(other, SeriesRatio):
            return SeriesRatio(mul(self.num, other.num),
                               mul(self.den, other.den))
        return SeriesRatio(mul(self.num, other), self.den)

    def scale(self, coeff):
        return SeriesRatio(scale_monomial(self.num, 0, 0, coeff), self.den)

    def equals(self, other, q_order):
        return equal_to_order(mul(self.num, other.den),
                              mul(other.num, self.den), q_order)

    def cross_order(self, other):
        """Largest q_order to which equals() may be asked."""
        lhs = _mul_order_pub(self.num, other.den)
        rhs = _mul_order_pub(other.num, self.den)
        return min(lhs, rhs)

    def as_series(self, q_order, x_window):
        """num * invert_directed(den, suitable window), trimmed to
        x_window and truncated to q_order."""
        lo = Fraction(x_window[0])
        hi = Fraction(x_window[1])
        sup = self.num.x_support() or (Fraction(0), Fraction(0))
        inv = invert_directed(self.den, (lo - sup[1], hi - sup[0]))
        out = mul(self.num, inv)
        out = restrict_window(out, (lo, hi))
        if out.q_order < q_order:
            raise UntrustedOrderError(
                "ratio expansion trusted only below %s < %s"
                % (out.q_order, Fraction(q_order)))
        return truncate(out, q_order)


def expansion_order(qn, qd, vn, vd):
    """A lower bound on the q_order that SeriesRatio(num, den).as_series()
    reaches, for num and den trusted below qn and qd with valuations vn
    and vd, found without inverting: the inverse of den has valuation
    -vd and is trusted below qd - 2 vd, so mul's trust rule gives
    min(qn, qd - 2 vd, qn - vd, qd - 2 vd + vn)."""
    return min(qn, qd - 2 * vd, qn - vd, qd - 2 * vd + vn)


def _mul_order_pub(a, b):
    a2, b2 = JacobiSeries._aligned(a, b)
    return Fraction(_mul_order(a2, b2), a2.q_den)
