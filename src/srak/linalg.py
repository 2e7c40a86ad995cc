"""Exact linear algebra over the rationals.

One elimination routine, ``RankTracker``, does every row reduction.  It
keeps its rows sparse (``{column: value}``) and fully reduced; a row's
pivot is its lowest nonzero column and rows are taken in input order, so
identical inputs give identical outputs.  An input row is either a dense
list or such a map, holding nonzero values only; it is never modified.
The reduced row-echelon form is unique, so ``rref`` equals dense
Gauss-Jordan elimination.  The one exception is ``integer_rank``, the
rank of an int matrix by fraction-free elimination, which the pairing
scans take once per parameter value.
"""

from math import gcd

from .coeffs import R0, R1, rat
from .coeffs import _kernel as K


def mat_identity(n):
    return [[R1 if i == j else R0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Matrix product; a pair of entries with an exact zero adds nothing.

    A right factor with no rows records no column count, so the product
    is taken to have no columns: one empty row per row of ``a``.
    """
    if not b:
        return [[] for _ in a]
    p = len(b[0])
    out = []
    for row in a:
        acc = [R0] * p
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v) if x), R0) for row in a]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[x * s for x in row] for row in a]


def mat_eq(a, b):
    """Entrywise equality; matrices of different shapes are unequal."""
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _reduced(rows):
    """A ``RankTracker`` that has absorbed ``rows``."""
    tracker = RankTracker()
    for row in rows:
        tracker.add(row)
    return tracker


def rref(rows, ncols):
    """Reduced row-echelon form. Returns (rows, pivot_columns), the rows
    dense and in pivot order.  The input rows are not modified."""
    tracker = _reduced(rows)
    pivots = sorted(tracker.rows)
    return [[tracker.rows[p].get(c, R0) for c in range(ncols)] for p in pivots], pivots


def rank(rows, ncols):
    return len(rref(rows, ncols)[1])


def integer_rank(rows):
    """Rank of a matrix of ints by fraction-free elimination (Bareiss,
    *Math. Comp.* 1968), without making a ``Fraction``.

    Each step takes as pivot the leftmost nonzero column c of the rows
    left, a row r0 with a = r0[c] != 0 in it, and replaces every other row
    r by (a*r - r[c]*r0) / prev over the columns after c, prev being the
    pivot of the step before (1 at the first).  The division is exact:
    after k steps each entry is a (k+1)-minor of the input and prev a
    k-minor (Sylvester's identity), so the entries grow no larger than
    the minors.  Rows that become zero are dropped.
    """
    work = [list(r) for r in rows if any(r)]
    rank, prev = 0, 1
    while work:
        c = min(next(j for j, x in enumerate(r) if x) for r in work)
        k = next(i for i, r in enumerate(work) if r[c])
        top = work[k][c + 1 :]
        a = work[k][c]
        nxt = []
        for i, r in enumerate(work):
            if i == k:
                continue
            b = r[c]
            if b:
                new = [(a * x - b * y) // prev for x, y in zip(r[c + 1 :], top)]
            else:
                new = [a * x // prev for x in r[c + 1 :]]
            if any(new):
                nxt.append(new)
        work, prev = nxt, a
        rank += 1
    return rank


def nullspace(rows, ncols):
    """Basis of the right null space, one vector per free column.

    Each basis vector has a 1 in its free column and zeros in the other
    free columns; deterministic given the input.  The entries are read off
    the sparse reduced rows: row p holds -v[p] at each free column f.
    """
    pivot_rows = _reduced(rows).rows
    basis = {}
    for f in range(ncols):
        if f not in pivot_rows:
            basis[f] = v = [R0] * ncols
            v[f] = R1
    for p, row in pivot_rows.items():
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x
    return list(basis.values())


def mat_inverse(a):
    """Exact inverse; raises ValueError when singular."""
    n = len(a)
    aug = [list(a[i]) + [R1 if i == j else R0 for j in range(n)] for i in range(n)]
    red, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def mat_rank(a):
    if not a:
        return 0
    return rank(a, len(a[0]))


def mat_det(a):
    """Exact determinant: the product of the leading entries that the
    elimination divides by, times the sign of the pivot permutation."""
    tracker = RankTracker()
    det, pivots = R1, []
    for row in a:
        absorbed = tracker.absorb(row)
        if absorbed is None:
            return R0
        pivots.append(absorbed[0])
        det = det * absorbed[1]
    inversions = sum(1 for i, p in enumerate(pivots) for q in pivots[:i] if q > p)
    return -det if inversions % 2 else det


def column_space_basis(a):
    """Columns of ``a`` forming a basis of its column space (as vectors)."""
    if not a:
        return []
    _, pivots = rref(a, len(a[0]))
    at = mat_transpose(a)
    return [at[c] for c in pivots]


def _as_map(vec):
    """A new ``{column: value}`` map of a dense list or of such a map."""
    return dict(vec) if isinstance(vec, dict) else {c: x for c, x in enumerate(vec) if x}


class RankTracker:
    """Incremental exact elimination: feed vectors, learn which are new.

    ``rows`` maps each pivot column to its sparse row: 1 at the pivot, no
    entry at any other pivot column."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        """``vec`` (a dense list, or a ``{column: value}`` map of nonzero
        values) minus its components along the pivot rows, as a new sparse
        map; empty exactly when ``vec`` lies in the span."""
        v = _as_map(vec)
        # each pivot row is zero at every other pivot column, so the
        # entries of vec at the pivot columns are the multipliers
        for p in [p for p in v if p in self.rows]:
            K.maxpy(v, self.rows[p], -v[p])
        return v

    def absorb(self, vec):
        """Reduce ``vec``; store what is left with its leading entry scaled
        to 1 and clear that pivot from the earlier rows.  Returns (pivot,
        leading entry before scaling), or None when ``vec`` is in the span."""
        v = self.reduce(vec)
        if not v:
            return None
        p = min(v)
        lead = v[p]
        row = K.mscale(v, R1 / lead)
        for other in self.rows.values():
            f = other.get(p)
            if f:
                K.maxpy(other, row, -f)
        self.rows[p] = row
        return p, lead

    def add(self, vec):
        """Absorb ``vec``; returns True when it enlarges the span."""
        return self.absorb(vec) is not None

    @property
    def rank(self):
        return len(self.rows)


def clear_denominators(vec):
    """Scale a rational vector to integer entries with content 1.

    Deterministic sign: the first nonzero entry becomes positive.
    """
    nums = []
    dens = []
    for x in vec:
        q = rat(x)
        nums.append(int(q.numerator))
        dens.append(int(q.denominator))
    if not any(nums):
        return [R0] * len(vec)
    lcm = 1
    for d in dens:
        lcm = lcm * d // gcd(lcm, d)
    ints = [n * (lcm // d) for n, d in zip(nums, dens)]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    first = next(v for v in ints if v)
    if first < 0:
        ints = [-v for v in ints]
    return [rat(v) for v in ints]
