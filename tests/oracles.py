"""Series helpers kept only as test oracles: nothing in the package
calls them."""

from fractions import Fraction

from thetachar.qseries import GaussianRational, JacobiSeries


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
