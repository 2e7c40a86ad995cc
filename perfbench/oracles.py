"""Answers the benchmark checks srak against, derived without srak.

Everything here is plain ``fractions`` arithmetic on matrices written out
in this file, so a defect in srak cannot make its own check pass.
"""

from fractions import Fraction
from itertools import product
from math import factorial

# S3 on its reflection representation h (any faithful 2x2 reflection
# matrices give the same invariant theory).
S3_REFLECTIONS = (((-1, 1), (0, 1)), ((1, 0), (1, -1)))


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def _closure(gens):
    ident = ((1, 0), (0, 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = _mat_mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return sorted(seen)


def _series_inverse(poly, n):
    """First n coefficients of 1/poly(t), poly[0] == 1."""
    out = []
    for d in range(n):
        acc = Fraction(1 if d == 0 else 0)
        for k in range(1, min(d, len(poly) - 1) + 1):
            acc -= poly[k] * out[d - k]
        out.append(acc)
    return out


def molien_dims_s3(max_degree):
    """dim C[h + h*]^{S3} in degrees 0..max_degree, by Molien's formula.

    An element g acts on h + h* by g and its inverse transpose, so the
    Molien denominator is det(1 - t g) det(1 - t g^-T).
    """
    group = _closure(S3_REFLECTIONS)
    if len(group) != 6:
        raise AssertionError("S3 closure has order %d" % len(group))
    total = [Fraction(0)] * (max_degree + 1)
    for g in group:
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        tr = g[0][0] + g[1][1]
        # for 2x2, tr(g^-T) = tr(g) / det(g) and det(g^-T) = 1 / det(g)
        tr_dual = Fraction(tr, det)
        det_dual = Fraction(1, det)
        p_h = [Fraction(1), Fraction(-tr), Fraction(det)]
        p_dual = [Fraction(1), -tr_dual, det_dual]
        prod = [Fraction(0)] * 5
        for i, a in enumerate(p_h):
            for j, b in enumerate(p_dual):
                prod[i + j] += a * b
        for d, coeff in enumerate(_series_inverse(prod, max_degree + 1)):
            total[d] += coeff
    dims = [x / len(group) for x in total]
    if any(x.denominator != 1 for x in dims):
        raise AssertionError("Molien coefficients are not integers: %s" % dims)
    return [int(x) for x in dims]


def scan_verdict(c, cutoff):
    """Expected S3 scan verdict at parameter c (Berest-Etingof-Ginzburg 2003).

    H_c(S3) has a finite-dimensional quotient exactly when c = +-r/3 with
    3 not dividing r; it has dimension r^2 and its top degree is 2(r - 1),
    so a scan to ``cutoff`` sees it collapse only when 2(r - 1) < cutoff.
    Returns ("finite", dim) or ("infinite", None).
    """
    c = Fraction(c)
    if c.denominator == 3:
        r = abs(c.numerator)
        if 2 * (r - 1) < cutoff:
            return "finite", r * r
    return "infinite", None


def s4_points_with_stabilizer_order(order, radius=2):
    """Integer points b of [-radius, radius]^3, in the basis e_i - e_(i+1) of
    the sum-zero module of S4, whose stabilizer in S4 has the given order.

    The stabilizer of a vector of R^4 is the product of the symmetric
    groups on its blocks of equal coordinates.
    """
    out = []
    for b in product(range(-radius, radius + 1), repeat=3):
        if not any(b):
            continue
        v = (b[0], b[1] - b[0], b[2] - b[1], -b[2])
        stab = 1
        for value in set(v):
            stab *= factorial(v.count(value))
        if stab == order:
            out.append(b)
    return out
