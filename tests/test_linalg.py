import random

import pytest
import sympy as sp
from conftest import dense_rref
from hypothesis import given, settings
from hypothesis import strategies as st

from srak import linalg
from srak.coeffs import R0, R1, rat


def to_sympy(m):
    return sp.Matrix([[sp.Rational(int(x.numerator), int(x.denominator)) for x in row] for row in m])


def rand_mat(rng, rows, cols):
    return [[rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]


def test_rank_and_nullspace_against_sympy():
    rng = random.Random(21)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_mat(rng, rows, cols)
        assert linalg.rank(m, cols) == to_sympy(m).rank()
        null = linalg.nullspace(m, cols)
        assert len(null) == cols - to_sympy(m).rank()
        for v in null:
            prod = [sum((m[i][j] * v[j] for j in range(cols)), R0) for i in range(rows)]
            assert all(x == R0 for x in prod)


def test_inverse_against_sympy():
    rng = random.Random(22)
    done = 0
    while done < 10:
        m = rand_mat(rng, 3, 3)
        sm = to_sympy(m)
        if sm.det() == 0:
            continue
        inv = linalg.mat_inverse(m)
        assert to_sympy(inv) == sm.inv()
        done += 1


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        linalg.mat_inverse([[R1, R1], [R1, R1]])


def test_rank_tracker_matches_rank():
    rng = random.Random(23)
    for _ in range(10):
        rows, cols = rng.randint(2, 6), rng.randint(2, 5)
        m = rand_mat(rng, rows, cols)
        tr = linalg.RankTracker()
        for row in m:
            tr.add(row)
        assert tr.rank == linalg.rank(m, cols)
        for row in m:
            assert not tr.reduce(row)


def test_clear_denominators():
    v = [rat(1, 2), rat(-3, 4), R0]
    cleared = linalg.clear_denominators(v)
    assert cleared == [rat(2), rat(-3), R0]
    assert linalg.clear_denominators([rat(-1, 3), R0]) == [rat(1), R0]


def test_column_space_basis():
    m = [[R1, rat(2)], [rat(2), rat(4)]]
    basis = linalg.column_space_basis(m)
    assert len(basis) == 1
    assert basis[0] == (R1, rat(2)) or list(basis[0]) == [R1, rat(2)]


@st.composite
def sparse_matrices(draw, square=False, nrows=None):
    """Random rational matrices, from empty to 8 x 8 (tall, wide or square),
    with a drawn share of zero entries and, unless square, extra zero and
    duplicate rows."""
    nrows = draw(st.integers(0, 8)) if nrows is None else nrows
    ncols = nrows if square else draw(st.integers(0, 8))
    zeros_per_entry = draw(st.integers(0, 4))
    entry = st.tuples(st.integers(0, zeros_per_entry), st.integers(-4, 4), st.integers(1, 3)).map(
        lambda t: rat(t[1], t[2]) if t[0] == 0 else R0)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if not square:
        for _ in range(draw(st.integers(0, 2))):
            copy = list(rows[draw(st.integers(0, len(rows) - 1))]) if rows and draw(st.booleans()) else [R0] * ncols
            rows.insert(draw(st.integers(0, len(rows))), copy)
    return rows, ncols


def times(rows, v):
    return [sum((x * y for x, y in zip(row, v)), R0) for row in rows]


@settings(deadline=None)
@given(sparse_matrices())
def test_rref_rank_nullspace_match_dense_reference(case):
    rows, ncols = case
    before = [list(r) for r in rows]
    red, pivots = linalg.rref(rows, ncols)
    assert rows == before
    assert (red, pivots) == dense_rref(rows, ncols)
    assert linalg.rank(rows, ncols) == len(pivots)
    null = linalg.nullspace(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    assert len(null) == len(free)
    for f, v in zip(free, null):
        assert all(x == R0 for x in times(rows, v))
        assert [v[c] for c in free] == [R1 if c == f else R0 for c in free]


@settings(deadline=None)
@given(sparse_matrices(), st.data())
def test_rank_tracker_matches_dense_reference(case, data):
    rows, ncols = case
    tr = linalg.RankTracker()
    for i, row in enumerate(rows):
        grew = tr.add(row)
        assert tr.rank == len(dense_rref(rows[: i + 1], ncols)[1])
        assert grew == (tr.rank > len(dense_rref(rows[:i], ncols)[1]))
    assert all(not tr.reduce(row) for row in rows)
    vec = data.draw(st.lists(st.sampled_from([R0, R0, R1, rat(-2, 3)]), min_size=ncols, max_size=ncols))
    inside = len(dense_rref(rows + [vec], ncols)[1]) == tr.rank
    assert (not tr.reduce(vec)) == inside
    # a unit vector at a free column is never in the row space
    free = [c for c in range(ncols) if c not in dense_rref(rows, ncols)[1]]
    if free:
        unit = [R1 if c == free[0] else R0 for c in range(ncols)]
        assert tr.reduce(unit)
        assert tr.add(unit) and not tr.reduce(unit)


def as_map(row):
    return {c: x for c, x in enumerate(row) if x}


@settings(deadline=None)
@given(sparse_matrices(), st.booleans(), st.data())
def test_map_rows_match_dense_rows(case, drop_zero_rows, data):
    """{col: value} rows give what their dense lists give, with or without
    the all-zero rows, and the caller's maps come back unchanged."""
    rows, ncols = case
    maps = [as_map(row) for row in rows if any(row) or not drop_zero_rows]
    before = [dict(m) for m in maps]
    assert linalg.rref(maps, ncols) == linalg.rref(rows, ncols)
    assert linalg.nullspace(maps, ncols) == linalg.nullspace(rows, ncols)
    dense_tr, map_tr = linalg.RankTracker(), linalg.RankTracker()
    for row in rows:
        grew = dense_tr.add(row)
        if any(row) or not drop_zero_rows:
            assert map_tr.add(as_map(row)) == grew
    assert map_tr.rows == dense_tr.rows
    assert all(not map_tr.reduce(m) for m in maps)
    vec = data.draw(st.lists(st.sampled_from([R0, R0, R1, rat(-2, 3)]), min_size=ncols, max_size=ncols))
    vec_map = as_map(vec)
    assert map_tr.reduce(vec_map) == dense_tr.reduce(vec)
    assert maps == before and vec_map == as_map(vec)


@settings(deadline=None)
@given(sparse_matrices(square=True))
def test_inverse_matches_dense_reference(case):
    a, n = case
    aug = [list(row) + [R1 if i == j else R0 for j in range(n)] for i, row in enumerate(a)]
    red, pivots = dense_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        with pytest.raises(ValueError):
            linalg.mat_inverse(a)
        return
    inv = linalg.mat_inverse(a)
    assert inv == [row[n:] for row in red]
    assert linalg.mat_mul(a, inv) == linalg.mat_identity(n)


def test_mat_eq_compares_shapes():
    assert linalg.mat_eq([[1, 0]], [[1, 0]])
    assert not linalg.mat_eq([[1, 0]], [[1]])
    assert not linalg.mat_eq([[1]], [[1, 0]])
    assert not linalg.mat_eq([[1]], [[1], [0]])
    assert not linalg.mat_eq([], [[1]])
    assert linalg.mat_eq([], [])


def test_mat_mul_with_empty_right_factor():
    # a right factor with no rows records no column count: one empty row per row of a
    assert linalg.mat_mul([], []) == []
    assert linalg.mat_mul([[], []], []) == [[], []]


@settings(deadline=None)
@given(sparse_matrices(square=True))
def test_det_against_sympy(case):
    a, n = case
    expected = to_sympy(a).det() if n else 1
    assert linalg.mat_det(a) == rat(int(sp.numer(expected)), int(sp.denom(expected)))


@settings(deadline=None)
@given(sparse_matrices(square=True), st.data())
def test_products_match_dense_sums(case, data):
    a, n = case
    if not n:
        return
    b = data.draw(sparse_matrices(square=True, nrows=n))[0]
    # every entry product, zero factors included, as before zeros were skipped
    dense = [[sum((a[i][k] * b[k][j] for k in range(n)), R0) for j in range(n)] for i in range(n)]
    assert linalg.mat_mul(a, b) == dense
    assert linalg.mat_vec(a, b[0]) == [row[0] for row in linalg.mat_mul(a, linalg.mat_transpose(b))]


@st.composite
def int_matrices(draw):
    """Int matrices from empty to 8 x 8 (tall, wide or square): small or
    huge entries of both signs, a drawn share of zeros, and often a drawn
    rank (a product of two thin factors), plus zero and duplicate rows."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    big = draw(st.booleans())
    entry = st.integers(-10**30, 10**30) if big else st.integers(-4, 4)
    zeros = draw(st.integers(0, 3))
    entry = st.tuples(st.integers(0, zeros), entry).map(lambda t: t[1] if t[0] == 0 else 0)
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
        rows = [[sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)] if k else [0] * ncols for lrow in left]
    else:
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, 2))):
        copy = list(rows[draw(st.integers(0, len(rows) - 1))]) if rows and draw(st.booleans()) else [0] * ncols
        rows.insert(draw(st.integers(0, len(rows))), copy)
    return rows, ncols


@settings(deadline=None, max_examples=300)
@given(int_matrices())
def test_integer_rank_matches_rank(case):
    rows, ncols = case
    before = [list(r) for r in rows]
    assert linalg.integer_rank(rows) == linalg.rank(rows, ncols)
    assert rows == before


def test_integer_rank_on_low_rank_products():
    # a product of n x k and k x m factors has rank <= k, so its rows
    # must reduce to zero after k exact steps; seeded, so every run sees
    # the same 400 matrices
    rng = random.Random(31)
    for _ in range(400):
        n, m, k = rng.randint(2, 8), rng.randint(2, 8), rng.randint(1, 4)
        bound = rng.choice((4, 10**6))
        left = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(n)]
        right = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(k)]
        rows = [[sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)] for lrow in left]
        assert linalg.integer_rank(rows) == linalg.rank(rows, m)


def test_integer_rank_edge_cases():
    assert linalg.integer_rank([]) == 0
    assert linalg.integer_rank([[]]) == 0
    assert linalg.integer_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert linalg.integer_rank([[1], [2], [-3], [0]]) == 1  # tall
    assert linalg.integer_rank([[0, 0, 2, 4, 6]]) == 1  # wide
    assert linalg.integer_rank([[1, 2], [1, 2], [1, 2]]) == 1  # duplicate rows
    big = 10**40
    assert linalg.integer_rank([[big, -1], [-big * big, big]]) == 1
    assert linalg.integer_rank([[big, -1], [-big * big, big + 1]]) == 2
    # a zero leading minor: the pivot comes from a later row
    assert linalg.integer_rank([[0, 1, 1], [1, 1, 0], [1, 2, 1]]) == 2
    assert linalg.integer_rank([[0, 1, 1], [1, 1, 0], [1, 2, 2]]) == 3
