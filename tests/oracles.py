"""Helpers kept only as test oracles: nothing in the package calls
them.

invert_directed and as_series are the generic inverse that the package
used before it divided by a denominator's product factors (qseries.
expand): a padded level recursion on the whole denominator series, with
a window widened by the worst-case climb of its x-support.  They share
no code with expand, which is why they are the oracle it is checked
against.  shifted_theta_sum sums a shifted theta over its index lattice,
with no product form, for the same reason.  mpf_stop_step is the stop
rule that theta's lattice sum ran in mpf arithmetic before it found its
step count from float logs, kept as the oracle of that count, and
gated_stop_step the float-log rule as it ran before it started from the
closed-form bound on the tails: from the first gated step, kept as the
oracle of that start.
truncate, q_valuation_bound, x_support and character_numeric are views
that only the tests read.  theta_numeric and eta_numeric are one-theta
ThetaPasses and psi_numeric a one-block PsiPlan, the one-shot cases of
the package's evaluation paths; family_dens and family_plan are the
denominators and the PsiPlan that span_closure builds for a family,
and family_values one pass of it converted to mpmath.  sides_equal
compares the two series of ThetaQuotient.sides.  Only the tests call
any of these.

appell_terms and eval_numeric_per_term are the mpmath loops that
mockpsi.phi_a11_numeric and qseries.eval_points ran before they took
their exponentials once per call: two exponentials per Appell term, one
per series term.  They share no running product with the package, so
they are the oracles those are checked against.

cross_multiplied_equals is sides_equal as it ran before the factors
both sides share were cancelled: each side the product of all the
series it names.  reduction_params_scan is the reduction suite's
scan as it ran before it read the heart ranges: every level tuple up to
M + 1, kept where ReductionParams does not raise.  They are the oracles
of the cancelling comparison and of the in-range scan.
reduction_hs_fractions is characters.reduction_hs on Fractions, term by
term, as it ran before it computed h and s on ints: the oracle of the
int form.

lstsq_min_norm_mp is the least-squares fit that span_closure ran
before it certified with the predicted matrices, on mpmath matrices,
with its rank cut, condition bound and IllConditionedError: it finds
the transform's matrix from the sample values alone, so it is the
oracle that rediscovers predicted_s_matrix and predicted_t_matrix.
binary_power raises an mpmath exponential of its own by square and
multiply, as ThetaPass raised each base per request before it built
one power table per pass from one root per coordinate, the oracle of
the table.  walk_sums feeds each walk of a pass its inputs one walk at
a time, each the product of its table entries in factor order, and
theta_read reads a request's theta from its walk by parity and quarter
turns, both as ThetaPass did before its PassPlan was compiled: the
oracles of the compiled products and reads.

theta_factors, expand_rational and quotient_expand are the listing and
the expansion front as they ran before ThetaQuotient.expand listed each
factor on its key's int lattice: the triple product with Fraction
exponents, the lattice as the lcm of the exponents' denominators, and
the quotient listed with both.  They are the oracles of the int listing
and of expand's gcd reduction.  coefficient reads one coefficient at
rational exponents, a view that only the tests read.

from_json_dict reads qseries.to_json_dict's canonical JSON back into a
series, the inverse that the serialization round-trip tests check.
theta_args reads a theta key's ints back as theta_shifted's arguments.

one, mul, product_fold and scale_monomial are the pairwise product that
ThetaQuotient.series ran before qseries.product fused it: the factors
multiplied two at a time, smallest first, each product trusted below
min(Qa + min(0, vb), Qb + min(0, va)), and the lead applied after;
fold_times_lead is that fold with its lead, and fold_series is series()
as it ran then, each factor expanded at its exact order, not rounded up
to a whole one.  They are the oracles of the fused product and of the
whole-order rule.
"""

import math
from fractions import Fraction
import functools
from itertools import product as iproduct

from mpmath import mp
from mpmath.libmp import to_float

from thetachar.characters import (BLOCK_SIGNS, HEARTS, ReductionParams,
                                  dd_indices, denominator_label, sign_eps)
from thetachar.mockpsi import (HALF, POLE_THRESHOLD, PoleProximityError,
                               PsiParams, PsiPlan, _mpfrac)
from thetachar.modular import _block_sign_sector, _mpc_any
from thetachar.qseries import (ONE, CoefficientRingError,
                               GaussianRational, JacobiSeries,
                               UntrustedOrderError, _div, _fixed, _from_mpc,
                               _lcm, _mul, equal_to_order, expand,
                               restrict_window, to_mpc)
from thetachar.theta import (_GATE, _N_CAP, PassPlan, TailBoundError,
                             ThetaPass, ThetaQuotient, _check_label,
                             _key_valuation, _stop_step, _walk, eta_request,
                             theta_key)


def truncate(a, q_order):
    """Restrict trust to q_order <= current q_order, dropping terms."""
    q_order = Fraction(q_order)
    if q_order > a.q_order:
        raise UntrustedOrderError(
            "cannot raise q_order from %s to %s" % (a.q_order, q_order))
    q_den = _lcm(a.q_den, q_order.denominator)
    s = a._with_lattice(q_den, a.x_den)
    return JacobiSeries(q_den, a.x_den, int(q_order * q_den), s.c, s.window_n)


def q_valuation_bound(a):
    """A lower bound on the q-valuation of the untruncated series: the
    smallest stored exponent, or q_order if nothing is stored."""
    if not a.c:
        return a.q_order
    return Fraction(min(qn for (qn, _) in a.c), a.q_den)


def x_support(a):
    """(min, max) stored x-exponents as Fractions, or None."""
    if not a.c:
        return None
    xs = [xn for (_, xn) in a.c]
    return (Fraction(min(xs), a.x_den), Fraction(max(xs), a.x_den))


def coefficient(a, q_exp, x_exp):
    """The coefficient of q^q_exp x^x_exp in the series a, 0 off its
    lattice."""
    q_exp = Fraction(q_exp) * a.q_den
    x_exp = Fraction(x_exp) * a.x_den
    if q_exp.denominator != 1 or x_exp.denominator != 1:
        return GaussianRational(0)
    return a.c.get((int(q_exp), int(x_exp)), GaussianRational(0))


def from_json_dict(d):
    """The series whose canonical JSON form (to_json_dict) is d."""
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


def theta_factors(label, below, tau_scale=1, z_scale=1, r_tau=0, r_one=0):
    """The Jacobi triple product of theta_shifted(label, ., tau_scale,
    z_scale, r_tau, r_one) as ((pre_q, pre_x, pre_c), factors) with
    Fraction exponents: the prefactor pre_c q^pre_q x^pre_x, and the
    (e, k, c) of every two-term factor (1 + c x^k q^e) with e < below.
    Raises CoefficientRingError where a phase is not a power of i."""
    label, ts, zs, r_tau, r_one = theta_args(
        theta_key(label, tau_scale, z_scale, r_tau, r_one))
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


def theta_args(key):
    """The (label, tau_scale, z_scale, r_tau, r_one) of a theta key, the
    shifts as Fractions: the arguments theta_shifted takes."""
    label, ts, zs, r, d, k, f = key
    return label, ts, zs, Fraction(r, d), Fraction(k, f)


def expand_rational(monomials, factors, q_order, x_window=None):
    """qseries.expand with rational exponents and coefficients: the
    lattice is the lcm of the denominators of every exponent given, each
    monomial's, each factor's, q_order's and the window's."""
    q_order = Fraction(q_order)
    groups = [[(Fraction(e), Fraction(k), GaussianRational.coerce(c), p)
               for e, k, c, p in group] for group in (monomials, factors)]
    ends = [Fraction(end) for end in x_window or ()]
    q_den = math.lcm(q_order.denominator,
                     *(f[0].denominator for g in groups for f in g))
    x_den = math.lcm(*(f[1].denominator for g in groups for f in g),
                     *(end.denominator for end in ends))
    monomials, factors = ([(int(e * q_den), int(k * x_den), c, p)
                           for e, k, c, p in g] for g in groups)
    return expand(q_den, x_den, monomials, factors, int(q_order * q_den),
                  tuple(int(end * x_den) for end in ends) or None)


def quotient_expand(quotient, q_order, x_window=None):
    """ThetaQuotient.expand listed with Fraction exponents: theta_factors
    for a theta, q^{m/24} and the (m n, 0, -1) for eta(m tau), each below
    max(1, q_order - v), through expand_rational; the result must start
    at q^v."""
    q_order = Fraction(q_order)
    v = quotient.valuation()
    below = max(1, q_order - v)
    a, b, k = quotient.lead
    monomials = [(a, b, GaussianRational(1).times_i_power(k), 1)]
    factors = []
    for part, p in ((quotient.num, 1), (quotient.den, -1)):
        for key, n in part.items():
            if key[0] == "eta":
                m = key[1]
                pre, more = ((Fraction(m, 24), 0, 1),
                             [(m * i, 0, -1)
                              for i in range(1, math.ceil(below / m))])
            else:
                label, *args = theta_args(key)
                pre, more = theta_factors(label, below, *args)
            monomials += [pre + (p,)] * n
            factors += [f + (p,) for f in more] * n
    ser = expand_rational(monomials, factors, q_order, x_window)
    low = Fraction(min(ser.c)[0], ser.q_den) if ser.c else v
    if low != v:
        raise AssertionError("expansion starts at q^%s, not at its "
                             "valuation %s" % (low, v))
    return ser


def family_dens(members):
    """The (theta label d, sign) of each member's denominator R."""
    sign_sectors = [_block_sign_sector(block) for block, _ in members]
    return [(denominator_label(*ss), ss[0]) for ss in sign_sectors]


def family_plan(M, members):
    """The PsiPlan of the members Psi_{j1,j2}/R of a family, as
    span_closure plans it: their blocks on the diagonal, each over its
    denominator R."""
    return PsiPlan([PsiParams(M, *pair, *block) for block, pair in members],
                   True, family_dens(members))


def family_values(M, members, tau, z):
    """The members Psi_{j1,j2}/R at the diagonal point (tau, z), from one
    ThetaPass planned with every theta, eta and denominator they take."""
    return [to_mpc(v) for v in family_plan(M, members).values((tau, z))]


def character_numeric(M, k1, k2, heart, sign, twisted, p):
    """Numeric character of the reduced module: the signed Psi
    numerator over the matching denominator, no series inversion."""
    if not p.is_diagonal:
        raise ValueError("character evaluation needs z1 = z2 and t = 0")
    j, k = dd_indices(M, k1, k2, heart, twisted)
    block = (sign_eps(sign), HALF if not twisted else Fraction(0))
    val, = family_values(M, [(block, (j, k))], _mpc_any(p.tau),
                         _mpc_any(p.z1))
    return BLOCK_SIGNS[(heart, sign, twisted)] * val


def theta_numeric(label, tau, z):
    """theta_label(tau, z) from the one-theta ThetaPass: one
    exponential e^{pi i z}, taken with its reciprocal, besides the
    nome.  It carries ThetaPass's tail and rounding errors."""
    _check_label(label)
    request = (int(label[0]), int(label[1]), 1, (0, 1), 0)
    tp = ThetaPass((mp.mpc(tau), mp.mpc(z)), PassPlan([request]))
    return to_mpc(tp.theta(request))


def psi_numeric(params, tau, z1, z2, t):
    """Psi^{[M,1;eps]}_{j,k;eps'}(tau, z1, z2, t) from the closed form:
    the one-block PsiPlan, on the diagonal where z1 = z2, at t = 0, times
    e^{-2 pi i t/M}."""
    tau, z1, z2, t = (_mpc_any(v) for v in (tau, z1, z2, t))
    coords = (tau, z1) if z1 == z2 else (tau, z1, z2)
    value, = PsiPlan([params], z1 == z2).values(coords)
    return (mp.exp(-2j * mp.pi * t / params.M) if t else 1) * to_mpc(value)


def eta_numeric(tau):
    """Dedekind eta by its pentagonal series
    q^{1/24} sum_n (-1)^n q^{n(3n-1)/2}, which is
    e^{pi i tau/12} theta_01(3 tau, -tau/2) and is walked as that
    lattice sum, with ThetaPass's tail and rounding bounds."""
    plan = PassPlan([eta_request(1, 0)], [[((0, 1, 12), 1)]])
    tp = ThetaPass((mp.mpc(tau),), plan)
    return to_mpc(_mul(tp.read(plan.prefactors[0]),
                       tp.theta(eta_request(1, 0)), tp.wp))


def walk_inputs(roots, a, m, w):
    """The factors (i, n) of the four inputs and the q^2 of walk
    (a, m, w), over the roots r_i = e^{pi i x_i/D_i}, D_i = roots[i][0],
    listed per walk as PassPlan listed them before it compiled the
    distinct products."""
    dens = {i: d for i, (d, *_) in roots.items()}
    q = m * dens[0] // 4
    e = {i: k * (dens[0] // 2 if i == 0 else dens[i])
         for i, k in enumerate(w) if k}

    def product(qn, sign):
        out = {i: sign * n for i, n in e.items()}
        out[0] = out.get(0, 0) + qn
        return tuple((i, n) for i, n in sorted(out.items()) if n)
    if a:
        return (product(q, 1), product(8 * q, 2), product(q, -1),
                product(8 * q, -2), ((0, 8 * q),))
    return ((), product(4 * q, 2), product(4 * q, -2),
            product(12 * q, -2), ((0, 8 * q),))


def walk_sums(tp):
    """The (even, odd) partial sums of each walk of tp's plan, in its
    order, fed as ThetaPass fed them before its plan was compiled: per
    walk, each input the product of tp's table entries in factor order
    (walk_inputs), made fixed point, at the pass's step counts."""
    log_err = -tp.prec * math.log(2)
    y = to_float(tp.coords[0]._mpc_[1])
    ims = [y / 2] + [to_float(z._mpc_[1]) for z in tp.coords[1:]]
    out = []
    for a, m, w in tp.plan.walks:
        u = math.fsum(k * v for k, v in zip(w, ims))
        inputs = []
        for factors in walk_inputs(tp.plan.roots, a, m, w):
            x = ONE
            if factors:
                x = tp._tables[factors[0][0]][factors[0][1]]
                for i, n in factors[1:]:
                    x = _mul(x, tp._tables[i][n], tp.wp)
            inputs.append(_fixed(x, tp.wp))
        out.append(_walk(_stop_step(a, m * y, u, log_err), *inputs, tp.wp))
    return out


def theta_read(sums, request):
    """theta_ab(m tau, v + e/2) of request (a, b, m, w, e) from its
    walk's (even, odd) sums, as ThetaPass.theta read it before the plan
    resolved each request: the odd sum added or, for b + e odd,
    subtracted, then turned a (b + e) mod 4 times by i."""
    a, b, _, _, e = request
    (er, ei), (odd_r, odd_i) = sums
    p = (b + e) % 4
    if p % 2:
        re, im = er - odd_r, ei - odd_i
    else:
        re, im = er + odd_r, ei + odd_i
    for _ in range(a * p):
        re, im = -im, re
    return re, im


def binary_power(x, c, n, wp):
    """e^{pi i n c x} for a Fraction c and an int n: the exponential
    e^{pi i c x} (mpmath, at wp + 20 bits) rounded to wp bits, or its
    reciprocal, raised to |n| by binary powering on ThetaPass values."""
    with mp.workprec(wp + 20):
        unit = _from_mpc(mp.exp(1j * mp.pi * _mpfrac(Fraction(c))
                                * mp.mpc(x))._mpc_, wp)
    if n < 0:
        unit = _div(ONE, unit, wp)
    out, m = ONE, abs(n)
    while m:
        if m & 1:
            out = _mul(out, unit, wp)
        unit = _mul(unit, unit, wp)
        m >>= 1
    return out


# the fit's rank cut and its bound on the retained condition number
RANK_CUTOFF = 1e-10
COND_THRESHOLD = 1e8


class IllConditionedError(ArithmeticError):
    """The fit's sample matrix is too ill-conditioned to trust."""


def lstsq_min_norm_mp(A, B):
    """Minimum-norm least squares via scaled normal equations, on
    mpmath matrices A and B at the working precision.

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


def sides_equal(a, b, q_order):
    """a == b below q_order for ThetaQuotients, cross-multiplied with
    the factors both sides share cancelled: the series of a.sides(b)
    compared."""
    return equal_to_order(*a.sides(b, q_order))


def cross_multiplied_equals(a, b, q_order):
    """a == b below q_order for ThetaQuotients: a.lead a.num b.den
    against b.lead b.num a.den, each the product of all its factors."""
    q_order = Fraction(q_order)
    lhs = ThetaQuotient(a.lead, a.num + b.den)
    rhs = ThetaQuotient(b.lead, b.num + a.den)
    return equal_to_order(lhs.series(q_order), rhs.series(q_order), q_order)


def reduction_params_scan(M, ms):
    """Every in-range ReductionParams at level M with m in ms and
    0 <= k1, k2 <= M + 1, tried one by one."""
    for m in ms:
        for m2, twisted, heart, k1, k2 in iproduct(
                range(m + 1), (False, True), HEARTS, range(M + 2),
                range(M + 2)):
            try:
                params = ReductionParams(M, m, m2, k1, k2, heart, twisted)
            except ValueError:
                continue
            yield params


def reduction_hs_fractions(params):
    """characters.reduction_hs as it ran before it computed on ints:
    each term a Fraction, with m/M and the half-integers a, b."""
    p = params
    mM = Fraction(p.m, p.M)
    k1, k2, m2 = p.k1, p.k2, p.m2
    if not p.twisted:
        if p.heart in ("I", "IV"):
            s = -mM * k2 + m2
        else:
            s = mM * k2 - m2 - 2
        if p.heart in ("I", "III"):
            a, b = k1 + HALF, k1 + k2 + HALF
        else:
            a, b = k1 - HALF, k1 + k2 - HALF
        h = -mM * a * b + (m2 + 1) * a - (-mM + 2) / 4
        return (h, s)
    if p.heart in ("I", "IV"):
        s = mM * (k2 + 1) - m2 - 1
    else:
        s = -mM * (k2 - 1) + m2 + 1
    a = {"I": k1, "II": k1, "III": k1 + 1, "IV": k1 - 1}[p.heart]
    b = {"I": k1 + k2 + 1, "II": k1 + k2 - 1,
         "III": k1 + k2, "IV": k1 + k2}[p.heart]
    h = -mM * a * b + (m2 + 1) * a - (-mM + 1) / 4
    return (h, s)


def appell_terms(m, s, tau, z1, z2, j_cutoff):
    """The terms j = -j_cutoff .. j_cutoff of the Appell sum Phi1 at
    t = 0, each e^{2 pi i (m j (z1 + z2) + s z1)} q^{m j^2 + s j}
    / (1 - x1 q^j)^2 from two exponentials at the working precision.
    Raises PoleProximityError where
    |1 - x1 q^j| < POLE_THRESHOLD max(1, |x1 q^j|)."""
    tau, z1, z2 = (mp.mpc(v) for v in (tau, z1, z2))
    s = _mpfrac(Fraction(s))
    out = []
    for j in range(-j_cutoff, j_cutoff + 1):
        edge = mp.exp(2j * mp.pi * (z1 + j * tau))
        den = 1 - edge
        if abs(den) < POLE_THRESHOLD * max(1, abs(edge)):
            raise PoleProximityError(
                "Appell denominator (1 - x1 q^%d) too close to zero" % j)
        expo = m * j * (z1 + z2) + s * z1 + tau * (m * j * j + s * j)
        out.append(mp.exp(2j * mp.pi * expo) / den ** 2)
    return out


def eval_numeric_per_term(a, tau, z):
    """The series summed with one exponential per term."""
    tau, z = mp.mpc(tau), mp.mpc(z)
    total = mp.mpc(0)
    for (qn, xn), v in a.c.items():
        w = 2j * mp.pi * (tau * qn / a.q_den + z * xn / a.x_den)
        total += (_mpfrac(Fraction(v.re)) + 1j * _mpfrac(Fraction(v.im))) \
            * mp.exp(w)
    return total


def subst_scale_tau(a, m):
    """tau -> m*tau for a positive integer m: exact, q_order scales by m."""
    m = int(m)
    if m < 1:
        raise ValueError("tau scale must be a positive integer")
    terms = {(qn * m, xn): v for (qn, xn), v in a.c.items()}
    return JacobiSeries(a.q_den, a.x_den, a.order_n * m, terms, a.window_n)


def subst_scale_z(a, m):
    """z -> m*z for a positive integer m: exact, window endpoints scale."""
    m = int(m)
    if m < 1:
        raise ValueError("z scale must be a positive integer")
    terms = {(qn, xn * m): v for (qn, xn), v in a.c.items()}
    win = None
    if a.window_n is not None:
        win = (a.window_n[0] * m, a.window_n[1] * m)
    return JacobiSeries(a.q_den, a.x_den, a.order_n, terms, win)


def shifted_theta_sum(label, q_order, ts, zs, r_tau, r_one):
    """theta_label(ts*tau, zs*z + r_tau*tau + r_one) trusted below
    q_order, summed directly over h = n + a/2:

        sum q^{ts h^2/2 + r_tau h} x^{zs h} e^{pi i (b + 2 r_one) h}.

    Raises CoefficientRingError when a phase is not a power of i."""
    a, b = int(label[0]), int(label[1])
    q_order, r_tau, r_one = Fraction(q_order), Fraction(r_tau), Fraction(r_one)
    # e^{pi i t} = i^{2t}, and 2t = turns * h is an integer at every
    # h = n + a/2 exactly when it is at h = 1 and at h = a/2
    turns = 2 * (b + 2 * r_one)
    if (turns.denominator, (turns * a / 2).denominator) != (1, 1):
        raise CoefficientRingError("phase exp(pi i %s h) is not a power of "
                                   "i at h = %d/2" % (turns / 2, a))
    # ts h^2/2 + r_tau h < q_order needs
    # |h + r_tau/ts| < sqrt(2 q_order/ts + (r_tau/ts)^2)
    n_max = int(2 * abs(r_tau) / ts) + math.isqrt(int(2 * abs(q_order) / ts)
                                                  + 1) + 2
    terms = {}
    for n in range(-n_max, n_max + 1):
        h = n + Fraction(a, 2)
        e = ts * h * h / 2 + r_tau * h
        if e < q_order:
            terms[(e, zs * h)] = GaussianRational(1).times_i_power(turns * h)
    q_den = x_den = 1
    for e, k in terms:
        q_den, x_den = _lcm(q_den, e.denominator), _lcm(x_den, k.denominator)
    q_den = _lcm(q_den, q_order.denominator)
    return JacobiSeries(q_den, x_den, q_order * q_den,
                        {(e * q_den, k * x_den): c
                         for (e, k), c in terms.items()})


def mpf_stop_step(label, tau, z, abs_err):
    """The step n at which the mpf lattice sum of theta_label(tau, z)
    stopped, or None where it raised for want of terms: walk outward
    from h0 = a/2, carrying the magnitude m of the first unsummed term
    on each side and its ratio s to the next one out, and stop once both
    s lie below 0.9 and m_pos/(1 - s_pos) + m_neg/(1 - s_neg) < abs_err.
    """
    a = int(label[0])
    y, u, h0 = mp.im(tau), mp.im(z), mp.mpf(a) / 2

    def mag(h):
        return mp.exp(-mp.pi * y * h * h - 2 * mp.pi * u * h)

    g = mp.exp(-2 * mp.pi * y)
    m_pos = mag(h0 + 1)
    s_pos = mag(h0 + 2) / m_pos
    m_neg = mag(h0 - 2)
    s_neg = mag(h0 - 3) / m_neg
    gate, n_cap = mp.mpf("0.9"), 100000
    steep = max(s_pos, s_neg)
    if steep >= gate and mp.log(steep / gate) / (2 * mp.pi * y) >= n_cap:
        return None
    n = 0
    while True:
        if s_pos < gate and s_neg < gate:
            if m_pos / (1 - s_pos) + m_neg / (1 - s_neg) < abs_err:
                return n
        n += 1
        if n > n_cap:
            return None
        m_pos *= s_pos
        s_pos *= g
        m_neg *= s_neg
        s_neg *= g


def gated_stop_step(a, y, u, log_err):
    """theta._stop_step's rule tried from the first gated step on: the
    first n at which both outward ratios lie below the gate 0.9 and the
    two tails' geometric majorants add up to less than e^log_err, each
    compared against the slack of 1e-9 times the size of the logs taken.
    Raises TailBoundError past the term budget."""
    h0 = a / 2
    piy, piu = math.pi * y, math.pi * u
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


def first_difference(a, b, q_order):
    """Smallest (q_exp, x_exp) where the two differ below q_order, or
    None when equal; useful for failure reporting."""
    q_order = Fraction(q_order)
    a, b = JacobiSeries._aligned(a, b)
    bound = q_order * a.q_den
    zero = GaussianRational(0)
    diffs = []
    for key in set(a.c) | set(b.c):
        if key[0] >= bound:
            continue
        if a.c.get(key, zero) != b.c.get(key, zero):
            diffs.append(key)
    if not diffs:
        return None
    qn, xn = min(diffs)
    return (Fraction(qn, a.q_den), Fraction(xn, a.x_den))


def gaussian_inverse(c):
    """1/c for a nonzero Gaussian rational, with Fraction parts."""
    n = c.re * c.re + c.im * c.im
    if n == 0:
        raise ZeroDivisionError("inverse of zero Gaussian rational")
    return GaussianRational(Fraction(c.re, n), Fraction(-c.im, n))


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
        return {x: v for x, v in poly.items()
                if x >= floor_ and not v.is_zero()}

    def pmul(p1, p2, floor_):
        out = {}
        for x1, v1 in p1.items():
            for x2, v2 in p2.items():
                x = x1 + x2
                if x >= floor_:
                    out[x] = out.get(x, GaussianRational(0)) + v1 * v2
        return trim(out, floor_)

    # T0 = A0^{-1} descending: c0^{-1} x^{-e0} * sum_k (-u)^k
    c0inv = gaussian_inverse(c0)
    u = {x - e0: v * c0inv for x, v in a0.items() if x != e0}
    t0 = {-e0: c0inv}
    powk = {0: GaussianRational(1)}
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


def as_series(num, den, q_order, x_window):
    """num * invert_directed(den, suitable window), trimmed to x_window
    and truncated to q_order; UntrustedOrderError when the product is
    not trusted that far."""
    lo = Fraction(x_window[0])
    hi = Fraction(x_window[1])
    sup = x_support(num) or (Fraction(0), Fraction(0))
    inv = invert_directed(den, (lo - sup[1], hi - sup[0]))
    out = restrict_window(mul(num, inv), (lo, hi))
    if out.q_order < q_order:
        raise UntrustedOrderError(
            "ratio expansion trusted only below %s < %s"
            % (out.q_order, Fraction(q_order)))
    return truncate(out, q_order)


def one(q_order, q_den=1, x_den=1):
    """The series 1 trusted below q_order."""
    q_order = Fraction(q_order)
    q_den = _lcm(q_den, q_order.denominator)
    return JacobiSeries(q_den, x_den, q_order * q_den,
                        {(0, 0): GaussianRational(1)})


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


def product_fold(factors):
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


def fold_times_lead(factors, lead, q_order):
    """i^k q^a x^b times the product of factors, lead = (a, b, k): the
    pairwise fold, or 1 below q_order - a when there is no factor, times
    the lead monomial."""
    a, b, k = lead
    out = product_fold(factors) if factors else one(Fraction(q_order) - a)
    return scale_monomial(out, a, b, GaussianRational(1).times_i_power(k))


def fold_series(quotient, q_order):
    """ThetaQuotient.series as it ran before the fused product: each
    factor expanded below its exact order q_order - a - S + min(0, v),
    with no rounding up, for S the sum of min(0, v) over the factors,
    then folded (fold_times_lead)."""
    q_order = Fraction(q_order)
    dips = {key: min(0, _key_valuation(key)) for key in quotient.num}
    deficit = sum(n * dips[key] for key, n in quotient.num.items())
    top = max(q_order - quotient.lead[0], deficit) - deficit
    factors = [ThetaQuotient(num={key: 1}).expand(top + dips[key])[0]
               for key, n in quotient.num.items() for _ in range(n)]
    return fold_times_lead(factors, quotient.lead, q_order)
