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

with n >= 1, and eta = q^{1/24} prod (1 - q^n): each exact theta series
and eta power is one qseries.expand of its prefactor and two-term
factors.  The lattice sums are kept as an independent cross-check
(theta_sum).

Numerics use mpmath at the caller's working precision: direct lattice
summation with an explicit geometric tail bound, so every returned value
is accurate to the requested absolute error.  The sum walks outward by
recurrence: each term is the previous one times a running ratio, and
each ratio gains a factor q^2 = e^{2 pi i tau} per step, so a call costs
a handful of exponentials rather than several per term.  Inside a
numeric_memo() scope (span_closure opens one per sample point),
theta_numeric and eta_numeric evaluate each distinct argument once.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .qseries import (CoefficientRingError, JacobiSeries, GaussianRational,
                      expand)

THETA_LABELS = ("00", "01", "10", "11")

# working decimal precision for the numeric verifier layer; intermediate
# theta values under rescaled arguments reach magnitudes around e^30, so
# double precision is not enough for 1e-9 residual targets
DEFAULT_DPS = 40


# the open per-point memo of numeric_memo(), or None outside any scope
_MEMO = ContextVar("thetachar_numeric_memo", default=None)


class TailBoundError(ArithmeticError):
    """A numeric lattice sum could not meet the requested tail bound."""


def _check_label(label):
    if label not in THETA_LABELS:
        raise ValueError("unknown theta label %r, want one of %s"
                         % (label, THETA_LABELS))


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def eta_pow_scaled(m, power, q_order):
    """eta(m tau)**power = q^{m power/24} prod (1 - q^{m n})^power,
    trusted below q_order, for positive integers m and power."""
    pre = Fraction(m * power, 24)
    factors = [(m * n, 0, -1, 1)
               for n in range(1, math.ceil((Fraction(q_order) - pre) / m))
               for _ in range(power)]
    return expand([(pre, 0, 1, 1)], factors, q_order)


def theta_shifted(label, q_order, tau_scale=1, z_scale=1, r_tau=0, r_one=0):
    """theta_label(tau_scale*tau, z_scale*z + r_tau*tau + r_one) as an
    exact series trusted below q_order.

    One qseries.expand of the product form (theta_factors), with the
    shifted argument absorbed into every two-term factor
    (1 + c x^k q^e).  The valuation v is known before the build
    (theta_valuation), so every factor with e < q_order - v is listed
    and each one left out is 1 + O(q^{q_order - v}).

    With x' = e^{2 pi i (z_scale*z + r_tau*tau + r_one)} the factor
    (1 + s x' q^{tau_scale e}) becomes
    (1 + s zeta x^{z_scale} q^{tau_scale e + r_tau}) for the phase
    zeta = e^{2 pi i r_one}, which must be a power of i (and for the
    half-characteristic prefactor x'^{1/2}, a power of -1), otherwise
    CoefficientRingError is raised.

    The arguments are normalized (orders and shifts to Fraction, scales
    to int) before the cached build, so every spelling of one series is
    one cache entry; cache_info() and cache_clear() reach that cache.
    """
    return _theta_shifted(label, Fraction(q_order), int(tau_scale),
                          int(z_scale), Fraction(r_tau), Fraction(r_one))


@lru_cache(maxsize=None)
def _theta_shifted(label, q_order, ts, zs, r_tau, r_one):
    below = max(1, q_order - theta_valuation(label, ts, zs, r_tau, r_one))
    pre, factors = theta_factors(label, below, ts, zs, r_tau, r_one)
    return expand([pre + (1,)], [f + (1,) for f in factors], q_order)


theta_shifted.cache_info = _theta_shifted.cache_info
theta_shifted.cache_clear = _theta_shifted.cache_clear


def theta_valuation(label, tau_scale=1, z_scale=1, r_tau=0, r_one=0):
    """The q-valuation of theta_shifted(label, q, tau_scale, z_scale,
    r_tau, r_one) at every q above it, found without building it.

    It is the prefactor's q-exponent plus the sum of min(0, e) over the
    two-term factors, and it is exact: the q^v coefficient is the
    product of the lowest terms of the factors, a nonzero Laurent
    polynomial in x.
    """
    (pre_q, _, _), factors = theta_factors(label, 1, tau_scale, z_scale,
                                           r_tau, r_one)
    return pre_q + sum(min(0, e) for e, _, _ in factors)


def theta_factors(label, below, tau_scale=1, z_scale=1, r_tau=0, r_one=0):
    """The Jacobi triple product of theta_shifted(label, ., tau_scale,
    z_scale, r_tau, r_one) as ((pre_q, pre_x, pre_c), factors): the
    prefactor pre_c q^pre_q x^pre_x, and the (e, k, c) of every two-term
    factor (1 + c x^k q^e) with e < below.  Every factor with e < 0 is
    listed once below > 0.  Each pre_c and c is a power of i."""
    _check_label(label)
    ts, zs = int(tau_scale), int(z_scale)
    r_tau, r_one = Fraction(r_tau), Fraction(r_one)
    if ts < 1 or zs < 1:
        raise ValueError("tau_scale and z_scale must be positive integers")
    if (4 * r_one).denominator != 1:
        raise CoefficientRingError(
            "z-shift constant %s is not a multiple of 1/4" % (r_one,))
    k4 = int(4 * r_one)
    a, b = int(label[0]), int(label[1])
    sx = -1 if b else 1
    c_fwd = GaussianRational(sx).times_i_power(k4)
    c_bwd = GaussianRational(sx).times_i_power(-k4)
    c_pure = GaussianRational(-1)
    if a == 1:
        if k4 % 2:
            raise CoefficientRingError(
                "half-power phase exp(pi i %s) is not a power of i"
                % (r_one,))
        pre_q = Fraction(ts, 8) + r_tau / 2
        pre_x = Fraction(zs, 2)
        pre_c = GaussianRational(1).times_i_power((1 if b else 0) + k4 // 2)
    else:
        pre_q = Fraction(0)
        pre_x = Fraction(0)
        pre_c = GaussianRational(1)

    # every exponent grows with n, so the first row with nothing below
    # the bound ends the list
    factors = []
    n = 1
    while True:
        if a == 0:
            e_fwd = e_bwd = Fraction(ts * (2 * n - 1), 2)
        else:
            e_fwd, e_bwd = Fraction(ts * n), Fraction(ts * (n - 1))
        row = ((ts * n, 0, c_pure), (e_fwd + r_tau, zs, c_fwd),
               (e_bwd - r_tau, -zs, c_bwd))
        live = [f for f in row if f[0] < below]
        if not live:
            return (pre_q, pre_x, pre_c), factors
        factors.extend(live)
        n += 1


# ---------------------------------------------------------------------
# validated numerics
# ---------------------------------------------------------------------

@contextmanager
def numeric_memo():
    """Open a per-point memo for theta_numeric and eta_numeric.

    While the scope is open, a repeated argument is answered from a dict
    keyed by the argument, the requested error and mp.prec, so a value
    is never reused at another precision.  The memo belongs to the
    current context (thread), is closed with the scope, and nothing
    outlives it.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memoized(key, compute):
    memo = _MEMO.get()
    if memo is None:
        return compute()
    key += (mp.prec,)
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


def theta_numeric(label, tau, z, abs_err=None):
    """theta_label(tau, z) by direct lattice summation.

    Terms are added symmetrically outward until a geometric majorant
    bounds both remaining tails below abs_err (default 10^-(dps-5) at
    the working precision).  Raises TailBoundError when the bound cannot
    be met within a fixed term budget, before summing when the ratio
    gate alone would need more terms than that.  Inside numeric_memo() a
    repeated argument is answered from the memo.
    """
    _check_label(label)
    tau = mp.mpc(tau)
    z = mp.mpc(z)
    if mp.im(tau) <= 0:
        raise ValueError("tau must lie in the upper half plane")
    if abs_err is None:
        abs_err = mp.mpf(10) ** (-(mp.dps - 5))
    return _memoized((label, tau, z, abs_err),
                     lambda: _theta_lattice_sum(label, tau, z, abs_err))


def _theta_lattice_sum(label, tau, z, abs_err):
    a, b = int(label[0]), int(label[1])
    pit = mp.pi * 1j * tau
    w = 2j * mp.pi * (z + mp.mpf(b) / 2)
    y = mp.im(tau)
    u = mp.im(z)
    h0 = mp.mpf(a) / 2

    def mag(h):
        return mp.exp(-mp.pi * y * h * h - 2 * mp.pi * u * h)

    # term(h) = exp(pi i tau h^2 + w h); a step outward multiplies a term
    # by its ratio to the next one, and every ratio by q^2 = e^{2 pi i tau}
    q2 = mp.exp(2 * pit)
    t_pos = mp.exp(pit * h0 * h0 + w * h0)       # term(h0)
    r_pos = mp.exp(pit * (2 * h0 + 1) + w)        # term(h0 + 1) / term(h0)
    r_neg = mp.exp(pit * (1 - 2 * h0) - w)        # term(h0 - 1) / term(h0)
    t_neg = t_pos * r_neg                         # term(h0 - 1)
    r_neg *= q2
    # the same for |term(h)| at the first unsummed h on each side, and the
    # ratios to the next magnitude outward, which shrink by e^{-2 pi y}
    g = mp.exp(-2 * mp.pi * y)
    m_pos = mag(h0 + 1)
    s_pos = mag(h0 + 2) / m_pos
    m_neg = mag(h0 - 2)
    s_neg = mag(h0 - 3) / m_neg

    gate = mp.mpf("0.9")
    n_cap = 100000

    def too_long():
        return TailBoundError("theta tail bound %s not reached within %d "
                              "terms" % (abs_err, n_cap))

    # the ratios fall below the gate after log(s / gate) / (2 pi y) steps
    steep = max(s_pos, s_neg)
    if steep >= gate and mp.log(steep / gate) / (2 * mp.pi * y) >= n_cap:
        raise too_long()
    total = mp.mpc(0)
    n = 0
    while True:
        total += t_pos              # h = n + h0
        total += t_neg              # h = -n - 1 + h0
        if s_pos < gate and s_neg < gate:
            if m_pos / (1 - s_pos) + m_neg / (1 - s_neg) < abs_err:
                break
        n += 1
        if n > n_cap:
            raise too_long()
        t_pos *= r_pos
        r_pos *= q2
        t_neg *= r_neg
        r_neg *= q2
        m_pos *= s_pos
        s_pos *= g
        m_neg *= s_neg
        s_neg *= g
    return total


def eta_numeric(tau):
    """Dedekind eta via the q-Pochhammer product at working precision."""
    tau = mp.mpc(tau)
    if mp.im(tau) <= 0:
        raise ValueError("tau must lie in the upper half plane")
    return _memoized(("eta", tau), lambda: _eta_product(tau))


def _eta_product(tau):
    q = mp.exp(2j * mp.pi * tau)
    return mp.exp(2j * mp.pi * tau / 24) * mp.qp(q)
