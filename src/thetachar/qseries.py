"""Exact truncated series in q = e^{2 pi i tau} and x = e^{2 pi i z}.

Series are finite sums  sum c[e,f] q^e x^f  with exponents (e, f) on a
rational lattice (1/q_den)Z x (1/x_den)Z and Gaussian rational
coefficients c = a + b*i, a, b in Q.  The Gaussian rationals are the
smallest coefficient field closed under the fourth roots of unity that
arise as phases when z is shifted by quarter periods; any operation that
would need a root of unity outside {1, i, -1, -i} raises
CoefficientRingError instead of approximating.

Each part a, b is a Python int when it is integral and a Fraction only
otherwise, and the kernel never divides two coefficients: expand()
multiplies by the conjugates of powers of i and rejects any other
divisor.  Theta products have Gaussian integer coefficients and unit
leading terms, so their products and quotients stay in Z[i] and the
kernel loops (mul and the passes of expand) run on ints; rational
inputs take the same loops, since Python mixes the two exactly.

Every theta series, eta power and character the package expands is a
monomial times two-term factors (1 + c x^k q^e)^{+-1}, and expand()
builds each of them from that list in one call, its exponents given as
ints on any lattice that holds them: the result lands on the coarsest.
Identical factors of opposite power cancel before any pass runs: a
character's numerator and denominator share most of their factors, and
at M = 1 all of them.

Fractional powers are defined through the exponential, never through a
branch choice on q itself: q^e means exp(2 pi i tau e) and x^f means
exp(2 pi i z f).

Every series carries q_order, a strict upper bound on the q-exponents it
is trusted to.  Coefficients at exponents below q_order are exact;
everything at or above q_order has been discarded.  Products propagate
q_order so that the result is again exact below its own bound, which
for factors with negative q-valuation can be smaller than the minimum
of the operand bounds.

A series may in addition carry an x_window, a closed interval of
x-exponents outside of which terms are unknown.  Windows appear when
factors are divided in the direction of descending x-powers (expand),
which computes only the terms that can reach the window, and then
follow the usual interval arithmetic: products shift the window, and
comparisons are restricted to the window overlap.

Numeric evaluation (eval_points) runs on complex floating point on
ints, values (re, im, e) kept to a working precision by _mul and _div,
with one exponential per variable.  This module owns that value format
and the tools every numeric path of the package (theta's ThetaPass,
mockpsi's Appell sum, modular's span certificate) computes with: the
products (_mul, _div), the exponential (_root), the power table
(_power_steps, _powers), the sum (_sum) and the conversions (_from_mpc,
to_mpc, _fixed).
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from fractions import Fraction
from math import gcd
from types import MappingProxyType

from mpmath import mp
from mpmath.libmp import (from_man_exp, from_rational, mpc_exp, mpf_mul,
                          mpf_neg, mpf_pi, round_nearest)


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
    theta products and their quotients by unit-led factors produce,
    never touch Fraction arithmetic.  Python mixes the two exactly, and
    int and Fraction parts of equal value hash and compare alike.
    Nothing divides: the only inverses taken are of powers of i, which
    are their conjugates (expand).
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


class JacobiSeries:
    """Truncated two-variable series with exact coefficients.

    Internally exponents are stored in lattice units: the term keyed by
    (qn, xn) is the monomial q^(qn/q_den) x^(xn/x_den).  order_n is the
    strict trust bound in q lattice units.  window_n is None or an
    inclusive pair (lo, hi) in x lattice units.  The coefficients c are
    a read-only mapping, so a cached series cannot be changed by the
    callers it is shared with.
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
                raise ValueError("exponent (%s, %s) off the lattice"
                                 % (qn, xn))
            v = GaussianRational.coerce(v)
            if v.is_zero() or qi >= order_n:
                continue
            if window_n is not None and not window_n[0] <= xi <= window_n[1]:
                continue
            c[(qi, xi)] = v
        self.c = MappingProxyType(c)

    # -- constructors -------------------------------------------------

    @staticmethod
    def one(q_order, q_den=1, x_den=1):
        q_order = Fraction(q_order)
        q_den = _lcm(q_den, q_order.denominator)
        return JacobiSeries(q_den, x_den, q_order * q_den,
                            {(0, 0): GaussianRational(1)})

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


def product(factors):
    """Fold a nonempty product smallest-first to keep intermediates
    compact."""
    return functools.reduce(mul, sorted(factors, key=lambda s: len(s.c)))


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


def _unit_inverse(c):
    """The inverse of a power of i, which is its conjugate."""
    if (c.re, c.im) not in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        raise CoefficientRingError(
            "cannot divide by %r: not a power of i" % (c,))
    return GaussianRational(c.re, -c.im)


def expand(q_den, x_den, monomials, factors, order_n, window_n=None):
    """prod (c q^e x^k)^p * prod (1 + c x^k q^e)^p over the (e, k, c, p)
    of monomials and factors, p = 1 (multiply) or -1 (divide), expanded
    q-adically and, within each power of q, in descending powers of x;
    trusted below q^(order_n/q_den).  Each c is a GaussianRational and
    each exponent an int: e and order_n in units of 1/q_den, k and the
    ends of window_n in units of 1/x_den.

    A factor with e < 0, or e = 0 < k, is written c x^k q^e (1 + u) and
    its monomial joins the monomials with the same p; its c must be a
    power of i (else CoefficientRingError), as must the c of a divided
    monomial.  Every remaining factor is then small in q (e > 0) or in
    1/x (e = 0, k < 0), so the monomials' product, the lead, carries the
    exact valuation v of the result, and the result is exact below
    order_n when the caller lists every factor with e < order_n - v
    (those left out are 1 + O(q^e)).

    Every lattice a caller lists on gives one result, on the coarsest
    lattice that holds every exponent given: q_den and x_den over their
    gcd with those exponents, the lcm of their denominators as
    rationals.  The exponents are reduced first, those of factors that
    cancel too, and the passes run on that lattice.

    The expansion starts from 1 and runs one pass per factor left after
    identical factors of opposite power cancel (a pass pair F / F is 1,
    and the lead keeps both monomials, so this is exact; a listing that
    divides nothing has nothing to cancel and is not counted): first
    every multiplied factor, adding c x^k q^e times the series it is
    given, then every divided one, applying
    out[q, x] = acc[q, x] - c out[q - e, x - k] in (q ascending,
    x descending) order.  Divided factors need the inclusive window_n,
    which the result then carries: the divided factors from pass i on
    move a term at level q at most (order_n - q) * rise up and
    (order_n - q) * fall down in x, with rise the largest k/e for k > 0
    and fall the largest -k/e for k < 0 (unbounded while a factor with
    e = 0 remains), so pass i keeps, at each level, only the x-range
    from which the window can still be reached.  Divided factors with
    e = 0 run first, then the rising ones, then the rest, each steepest
    first, so that these ranges narrow pass by pass.
    """
    lead = list(monomials)
    kept = []
    for e, k, c, p in factors:
        if e < 0 or (e == 0 and k > 0):
            lead.append((e, k, c, p))
            e, k, c = -e, -k, _unit_inverse(c)
        elif e == 0 and k == 0:
            raise ValueError("constant factor 1 + %r has no directed "
                             "expansion" % (c,))
        kept.append((e, k, c, p))
    divides = any(p < 0 for *_, p in kept)
    if window_n is None and divides:
        raise ValueError("divided factors need an x_window")
    gq = gcd(q_den, order_n, *(f[0] for f in lead + kept))
    gx = gcd(x_den, *(f[1] for f in lead + kept), *(window_n or ()))
    q_den, x_den, order_n = q_den // gq, x_den // gx, order_n // gq
    window = window_n and (window_n[0] // gx, window_n[1] // gx)
    lead = [(e // gq, k // gx, c, p) for e, k, c, p in lead]
    kept = [(e // gq, k // gx, c, p) for e, k, c, p in kept]
    if divides:
        # F / F = 1: each (e, k, c) runs |net power| passes
        net = Counter()
        for e, k, c, p in kept:
            net[e, k, c] += p
        kept = [(e, k, c, 1 if n > 0 else -1)
                for (e, k, c), n in net.items() for _ in range(abs(n))]

    # the passes run relative to the lead
    lead_q = sum(p * e for e, _, _, p in lead)
    lead_x = sum(p * k for _, k, _, p in lead)
    lead_c = GaussianRational(1)
    for _, _, c, p in lead:
        lead_c = lead_c * (c if p > 0 else _unit_inverse(c))
    top = order_n - lead_q
    seen = window and (window[0] - lead_x, window[1] - lead_x)
    acc = {0: {0: (1, 0)}} if top > 0 else {}
    for e, k, c, p in kept:
        if p > 0:
            _times_pass(acc, (e, k, c), top)
    divided = [(e, k, c) for e, k, c, p in kept if p < 0]
    # slopes k/e as ints in units of 1/span, for span the lcm of the e
    span = math.lcm(*(e for e, _, _ in divided if e))
    divided.sort(key=lambda f: _pass_order(f, span))
    # slopes[i] = (rise, fall) of the divided factors from pass i on
    slopes = []
    rise = fall = 0
    for e, k, _ in reversed(divided):
        if k > 0:
            rise = max(rise, k * (span // e))
        elif k < 0 and fall is not None:
            fall = max(fall, -k * (span // e)) if e else None
        slopes.insert(0, (rise, fall))
    for factor, (rise, fall) in zip(divided, slopes):
        acc = _divide_pass(acc, factor, top, seen, rise, fall, span)
    cr, ci = lead_c.re, lead_c.im
    terms = {(qn + lead_q, xn + lead_x):
             GaussianRational(cr * re - ci * im, cr * im + ci * re)
             for qn, row in acc.items() for xn, (re, im) in row.items()
             if (re or im) and (seen is None or seen[0] <= xn <= seen[1])}
    return JacobiSeries(q_den, x_den, order_n, terms, window)


def _times_pass(acc, factor, order_n):
    """acc * (1 + c x^k q^e) in place on {level: {x: (re, im)}} in
    lattice units, below order_n.  Levels are visited from the top, and
    each adds into a level at or above it, which it has already read
    (a factor with e = 0 adds into its own level, read first)."""
    e, k, c = factor
    cr, ci = c.re, c.im
    for qn in sorted(acc, reverse=True):
        if qn + e >= order_n:
            continue
        dst = acc.setdefault(qn + e, {})
        for x, (re, im) in list(acc[qn].items()):
            re, im = cr * re - ci * im, cr * im + ci * re
            prev = dst.get(x + k)
            if prev is not None:
                re, im = re + prev[0], im + prev[1]
            dst[x + k] = (re, im)


def _pass_order(factor, span):
    """Factors with e = 0 first, then the rising ones, then the others,
    each group steepest first, for span a multiple of every e."""
    e, k, _ = factor
    if e == 0:
        return (0, 0)
    slope = k * (span // e)
    return (1, -slope) if k > 0 else (2, slope)


def _divide_pass(acc, factor, order_n, window, rise, fall, span):
    """acc / (1 + c x^k q^e) on {level: {x: (re, im)}} in lattice units,
    below order_n.  Levels that no term e levels lower reaches pass
    unchanged; elsewhere only the x-range that can still reach the
    window, moving at most rise/span up and fall/span down (None:
    without bound) per level, is kept."""
    e, k, c = factor
    cr, ci = -c.re, -c.im
    out = {}
    levels = {y for qn in acc for y in range(qn, order_n, e)} if e else acc
    for qn in sorted(levels):
        row = acc.get(qn, {})
        d = order_n - qn
        floor = window[0] + (-d * rise // span)
        top = math.inf if fall is None else window[1] - (-d * fall // span)
        new = {}
        if e:
            src = out.get(qn - e)
            if src is None:
                if row:
                    out[qn] = row
                continue
            reach = {x + k for x in src}
        else:
            # 1/(1 + c x^k) with k < 0 runs down from every term
            src = new
            reach = {y for x in row for y in range(x + k, floor - 1, k)}
        reach.update(row)
        # x descending, so out[qn - e, x - k] is known when x is reached
        for x in sorted(reach, reverse=True):
            if x > top:
                continue
            if x < floor:
                break
            re, im = row.get(x, (0, 0))
            prev = src.get(x - k)
            if prev is not None:
                re += cr * prev[0] - ci * prev[1]
                im += cr * prev[1] + ci * prev[0]
            if re or im:
                new[x] = (re, im)
        if new:
            out[qn] = new
    return out


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

# A value (re, im, e) stands for (re + i im) 2^e with int re, im: complex
# floating point on ints, kept to wp bits by _mul, so every product and
# quotient costs a relative rounding of at most 2^(2 - wp).  Every
# numeric path of the package computes on it with the tools below.
ONE = (1, 0, 0)


def _mul(x, y, wp):
    a, b, e = x
    c, d, f = y
    re, im = a * c - b * d, a * d + b * c
    k = (abs(re) | abs(im)).bit_length() - wp
    if k > 0:
        return re >> k, im >> k, e + f + k
    return re, im, e + f


def _div(x, y, wp):
    a, b, e = x
    c, d, f = y
    den = c * c + d * d
    re, im = a * c + b * d, b * c - a * d
    k = max(0, wp + den.bit_length() - (abs(re) | abs(im)).bit_length())
    return (re << k) // den, (im << k) // den, e - f - k


def _root(x, d, wp):
    """e^{pi i x/d} for an mpc x and an int d > 0, as a value within
    2^(2 - wp) relative: one exponential (mpc_exp) of pi i x/d formed at
    wp + 20 bits, rounded to wp."""
    (xr, xi), wq = x._mpc_, wp + 20
    pc = mpf_mul(mpf_pi(wq), from_rational(1, d, wq), wq)
    return _from_mpc(mpc_exp((mpf_neg(mpf_mul(pc, xi, wq)),
                              mpf_mul(pc, xr, wq)), wp), wp)


def _power_steps(needed):
    """The steps (n, a, b), x^n = x^a x^b with a and b of n's sign, in
    build order, that give x^n for every n in needed from x^1 and x^-1:
    n is the sum of the largest power built and another one where there
    are such, else it is built by binary powering.  So x^n takes |n|
    factors x or 1/x, with |n| - 1 products, whichever way it is built."""
    steps, built = [], {0, 1, -1}

    def build(n):
        if n not in built:
            s = 1 if n > 0 else -1
            a = next((a for a in sorted(built, key=abs, reverse=True)
                      if 0 < a * s < n * s and n - a in built), None)
            if a is None:
                a = s * (s * n // 2)
                build(a)
                build(n - a)
            steps.append((n, a, n - a))
            built.add(n)

    for n in sorted(needed, key=abs):
        build(n)
    return steps


def _powers(r, inverse, steps, wp):
    """{n: r^n} for a root r: 1/r (one _div) if inverse, then one _mul
    per step (n, a, b) of _power_steps."""
    table = {0: ONE, 1: r}
    if inverse:
        table[-1] = _div(ONE, r, wp)
    for n, a, b in steps:
        table[n] = _mul(table[a], table[b], wp)
    return table


def _from_mpc(c, wp):
    (sr, mr, er, _), (si, mi, ei, _) = c
    e = min(er if mr else ei, ei if mi else er)
    re = (-mr if sr else mr) << (er - e) if mr else 0
    im = (-mi if si else mi) << (ei - e) if mi else 0
    return _mul((re, im, e), ONE, wp)


def to_mpc(x):
    """A value as an mpc rounded to the working precision."""
    re, im, e = x
    return mp.make_mpc((from_man_exp(re, e, mp.prec, round_nearest),
                        from_man_exp(im, e, mp.prec, round_nearest)))


def _fixed(x, wp):
    """A value as a pair of fixed-point ints with wp fraction bits."""
    re, im, e = x
    s = e + wp
    if s >= 0:
        return re << s, im << s
    return re >> -s, im >> -s


def modulus(x):
    """|x| of a value as a float (0.0 below its range)."""
    re, im, e = x
    k = max(0, (abs(re) | abs(im)).bit_length() - 60)
    return math.ldexp(math.hypot(re >> k, im >> k), e + k)


def _top(values):
    """The binary magnitude bitlen(max(|re|, |im|)) + e of the largest of
    some values, 0 if all are 0: their moduli lie below 2^(top + 1), and
    the largest is at least 2^(top - 1)."""
    return max(((abs(re) | abs(im)).bit_length() + e
                for re, im, e in values if re or im), default=0)


def _sum(values, wp):
    """The sum of n values, each floored to a multiple of 2^s first, for
    s = top - wp - bitlen(n) and top = _top(values): n floors lose less
    than 2^(top - wp) per part, so the sum is within 2^(2 - wp) times the
    largest modulus, one rounding of the largest value."""
    s = _top(values) - wp - len(values).bit_length()
    out_re = out_im = 0
    for re, im, e in values:
        if e >= s:
            out_re, out_im = out_re + (re << (e - s)), out_im + (im << (e - s))
        else:
            out_re, out_im = out_re + (re >> (s - e)), out_im + (im >> (s - e))
    return out_re, out_im, s


def eval_points(a, points):
    """The stored terms of a summed at each numeric (tau, z) of points,
    an mpmath complex at the ambient precision prec; the discarded tail
    is O(|exp(2 pi i tau)|^q_order).  The rows are grouped, the
    coefficients converted and the power steps found once for the
    series, and then only what depends on the point is taken at each.

    The sum runs on values (ONE, _mul, _div), each product and quotient
    rounding by at most rho = 2^(2 - wp) relative.
    Q = e^{2 pi i tau/q_den} and X = e^{2 pi i z/x_den} take one _root
    each (within rho), and 1/Q and 1/X one _div each (within 2 rho).
    _powers builds Q^k from |k| factors Q or 1/Q with |k| - 1 products
    (_power_steps), so Q^k and X^k are within (3 |k| - 1) rho, and exact
    at k = 0.  A coefficient c is exact when its parts are ints
    and within rho otherwise (one floor division per part), so each
    c X^f is within (3 |f| + 1) rho.  Each q-row sums its c X^f (_sum,
    within rho times the largest) and is multiplied by its Q^e, and the
    rows are summed the same way.  With B the largest |exponent| on the
    lattice and S = sum |c q^e x^f|, the total is then within
    (6 B + 3) rho S of the sum of the stored terms, to first order.  At
    wp = prec + bitlen(6 B + 3) + 3 that is below 2^(-1 - prec) S,
    which leaves room for the second-order terms, and the one rounding
    to mpc at prec bits adds at most 2^-prec S: each returned value is
    within 2^(1 - prec) S of the sum of the stored terms.
    """
    grouped, xs = {}, set()
    for (qn, xn), v in a.c.items():
        grouped.setdefault(qn, []).append((xn, v))
        xs.add(xn)
    span = max(map(abs, [*grouped, *xs]), default=0)
    wp = mp.prec + (6 * span + 3).bit_length() + 3
    rows = [(qn, [(xn, _gaussian(v, wp)) for xn, v in row])
            for qn, row in grouped.items()]
    tables = [(a.q_den, min(grouped, default=0) < 0, _power_steps(grouped)),
              (a.x_den, min(xs, default=0) < 0, _power_steps(xs))]
    out = []
    for point in points:
        q_pow, x_pow = (_powers(_root(2 * mp.mpc(x), den, wp), inverse,
                                steps, wp)
                        for x, (den, inverse, steps) in zip(point, tables))
        out.append(to_mpc(_sum([
            _mul(q_pow[qn], _sum([_mul(c, x_pow[xn], wp) for xn, c in row],
                                 wp), wp)
            for qn, row in rows], wp)))
    return out


def _gaussian(v, wp):
    """A Gaussian rational as a value: exact when its parts are ints,
    else (A + i B)/d for their common denominator d, one floor division
    per part (_div), within 2^(2 - wp) relative."""
    d = math.lcm(v.re.denominator, v.im.denominator)
    x = ((v.re * d).numerator, (v.im * d).numerator, 0)
    return x if d == 1 else _div(x, (d, 0, 0), wp)


def to_json_dict(a):
    """Canonical JSON form: integer lattice exponents, rational strings."""
    d = {
        "q_den": a.q_den,
        "x_den": a.x_den,
        "q_order": str(a.q_order),
        "terms": [
            {"q": qn, "x": xn,
             "re": str(a.c[(qn, xn)].re),
             "im": str(a.c[(qn, xn)].im)}
            for (qn, xn) in sorted(a.c)
        ],
    }
    if a.window_n is not None:
        d["x_window"] = [str(end) for end in a.x_window]
    return d


def dumps_canonical(obj):
    """Deterministic JSON bytes: fixed key order as built, no whitespace."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)

