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

Numerics use mpmath at the caller's working precision prec: direct
lattice summation with an explicit geometric tail bound.  A returned
value carries two errors: the tail, below the requested absolute error,
and rounding, at most 2^-prec (|theta| + max(1, T)) for the largest
term T <= e^{pi Im(z)^2 / Im(tau)}, so a large value is accurate
relative to T, not to the requested error.  The step count and the
guard bits are found from float logs of the term magnitudes before
anything is summed.  The sum walks outward by recurrence on fixed-point
ints: each term is the previous one times a running ratio, and each
ratio gains a factor q^2 = e^{2 pi i tau} per step, so a call costs one
exponential besides the powers of its nome.  Inside a numeric_memo()
scope (span_closure opens one per sample point), theta_numeric,
eta_numeric and the nome powers are evaluated once per distinct
argument.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache

from mpmath import mp
from mpmath.libmp import (fone, from_man_exp, fzero, mpc_div, mpc_exp,
                          mpc_mul, mpc_square, mpf_mul, mpf_neg, mpf_pi,
                          mpf_shift, round_nearest, to_fixed, to_float)

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
    """Open a per-point memo for the numeric layer.

    While the scope is open, theta_numeric, eta_numeric and
    modular.denominator_numeric answer a repeated argument from a dict
    keyed by the raw mpmath tuples of the argument, the requested error
    and mp.prec, so a value is never reused at another precision; each
    tau also keeps one entry of its nome powers for the lattice sums.
    The memo belongs to the current context (thread), is closed with
    the scope, and nothing outlives it.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def memoized(key, compute):
    """compute(), answered from the open numeric_memo() under key and
    the working precision when one is open."""
    memo = _MEMO.get()
    if memo is None:
        return compute()
    key += (mp.prec,)
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


@lru_cache(maxsize=None)
def _default_abs_err(prec):
    """10^-(dps-5) at the working precision prec, and its natural log."""
    with mp.workprec(prec):
        abs_err = mp.mpf(10) ** (-(mp.dps - 5))
        return abs_err, float(mp.log(abs_err))


def theta_numeric(label, tau, z, abs_err=None):
    """theta_label(tau, z) by direct lattice summation.

    Terms are added symmetrically outward until a geometric majorant
    bounds both remaining tails below abs_err (default 10^-(dps-5) at
    the working precision).  Raises TailBoundError when the bound cannot
    be met within a fixed term budget, before summing.  The returned
    value carries two errors:

        tail       below abs_err;
        rounding   at most 2^-prec (|theta| + max(1, T)), where
                   T = e^{pi Im(z)^2 / Im(tau)} bounds every term.

    Rounding scales with the largest term, so a large theta value is
    not accurate to abs_err.  Inside numeric_memo() a repeated argument
    is answered from the memo.
    """
    _check_label(label)
    tau = mp.mpc(tau)
    z = mp.mpc(z)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    if abs_err is None:
        abs_err, log_err = _default_abs_err(mp.prec)
    else:
        abs_err = mp.mpf(abs_err)
        if abs_err <= 0:
            raise ValueError("abs_err must be positive")
        log_err = float(mp.log(abs_err))
    return memoized((label, tau._mpc_, z._mpc_, abs_err._mpf_),
                    lambda: _theta_lattice_sum(label, tau, z, log_err))


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
    term, add up to less than abs_err = e^log_err.  The first gated step
    has a closed form; the bound is tried from there on.  Each comparison
    is made against a slack of 1e-9 times the size of the logs taken, far
    above double rounding, so the rule never stops before the exact one.
    Raises TailBoundError past the term budget.
    """
    h0 = a / 2
    piy, piu = math.pi * y, math.pi * u
    # s_pos(n) = e^{-pi y (2n + 3 + 2 h0) - 2 pi u} and
    # s_neg(n) = e^{-pi y (2n + 5 - 2 h0) + 2 pi u} fall below the gate
    # after first / 2 steps; their product e^{-pi y (4n + 8)} must too,
    # which rules out a y too small for the budget (or underflowed to 0)
    n = _N_CAP + 1
    if piy * (4 * _N_CAP + 8) > -2 * _GATE:
        lim = -_GATE / piy
        first = max(lim - 2 * u / y - 3 - 2 * h0,
                    lim + 2 * u / y - 5 + 2 * h0)
        n = max(0, math.floor(min(first / 2, n)))
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
    fixed-point rounding stays below 2^-prec max(1, T) / 4.
    """
    h0 = a / 2
    first = min(0.0, -math.pi * y * h0 * h0 - 2 * math.pi * u * h0,
                -math.pi * y * (h0 - 1) ** 2 - 2 * math.pi * u * (h0 - 1))
    spread = math.pi * u * u / y - first
    return int(spread / math.log(2)) + 3 * (n + 2).bit_length() + 8


def _nome_powers(tau, wp):
    """q^{1/8}, q^{1/2} and q^2 for q = e^{2 pi i tau} as mpc tuples of
    at least wp bits.  Inside numeric_memo() each tau keeps one entry,
    recomputed only when a sum needs more bits than it holds."""
    memo = _MEMO.get()
    key = ("nome", tau._mpc_)
    got = memo.get(key) if memo is not None else None
    if got is None or got[0] < wp:
        re, im = tau._mpc_
        pi4 = mpf_shift(mpf_pi(wp), -2)
        q8 = mpc_exp((mpf_neg(mpf_mul(pi4, im, wp)), mpf_mul(pi4, re, wp)),
                     wp)
        p = mpc_square(mpc_square(q8, wp), wp)
        got = (wp, q8, p, mpc_square(p, wp))
        if memo is not None:
            memo[key] = got
    return got[1:]


def _fixed(c, wp):
    return to_fixed(c[0], wp), to_fixed(c[1], wp)


def _theta_lattice_sum(label, tau, z, log_err):
    """sum_h e^{pi i tau h^2 + 2 pi i (z + b/2) h} over h in a/2 + Z.

    The sum walks outward from h0 = a/2 on both sides by a running
    product: a term times its ratio r to the next one out, and each r
    times q^2 per step.  The step count (_stop_step) and the guard bits
    (_guard_bits) come from float log-magnitudes before anything is
    summed; the sum itself runs on fixed-point ints at wp = prec + g
    bits, as mp.jtheta does.  Besides the nome powers of tau, it costs
    one exponential E = e^{pi i (z + b/2)}: r = q^{1/2} E^2 (a = 0) or
    q^2 E^2 (a = 1) outward, q^2 / r inward, and term(h0) = 1 or q^{1/8} E.
    """
    a, b = int(label[0]), int(label[1])
    y = to_float(tau._mpc_[1])
    u = to_float(z._mpc_[1])
    n = _stop_step(a, y, u, log_err)
    wp = mp.prec + _guard_bits(a, y, u, n)
    q8, p, q2 = _nome_powers(tau, wp)
    re, im = z._mpc_
    pi = mpf_pi(wp)
    e = mpc_exp((mpf_neg(mpf_mul(pi, im, wp)), mpf_mul(pi, re, wp)), wp)
    if b:
        e = (mpf_neg(e[1]), e[0])
    r_pos = mpc_mul(q2 if a else p, mpc_square(e, wp), wp)
    r_neg = mpc_div(q2, r_pos, wp)                # term(h0 - 1) / term(h0)
    t_pos = mpc_mul(q8, e, wp) if a else (fone, fzero)
    t_neg = mpc_mul(t_pos, r_neg, wp)             # term(h0 - 1)
    tpr, tpi = _fixed(t_pos, wp)
    tnr, tni = _fixed(t_neg, wp)
    rpr, rpi = _fixed(r_pos, wp)
    rnr, rni = _fixed(mpc_mul(r_neg, q2, wp), wp)
    qr, qi = _fixed(q2, wp)
    sr = si = 0
    for _ in range(n):
        sr += tpr + tnr
        si += tpi + tni
        tpr, tpi = (tpr * rpr - tpi * rpi) >> wp, (tpr * rpi + tpi * rpr) >> wp
        rpr, rpi = (rpr * qr - rpi * qi) >> wp, (rpr * qi + rpi * qr) >> wp
        tnr, tni = (tnr * rnr - tni * rni) >> wp, (tnr * rni + tni * rnr) >> wp
        rnr, rni = (rnr * qr - rni * qi) >> wp, (rnr * qi + rni * qr) >> wp
    sr += tpr + tnr
    si += tpi + tni
    prec = mp.prec
    return mp.make_mpc((from_man_exp(sr, -wp, prec, round_nearest),
                        from_man_exp(si, -wp, prec, round_nearest)))


def eta_numeric(tau):
    """Dedekind eta via the q-Pochhammer product at working precision."""
    tau = mp.mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    return memoized(("eta", tau._mpc_), lambda: _eta_product(tau))


def _eta_product(tau):
    q = mp.exp(2j * mp.pi * tau)
    return mp.exp(2j * mp.pi * tau / 24) * mp.qp(q)
