import math
import time

import pytest
import sympy as sp

from srak import groups as G
from srak import linalg
from srak.coeffs import R0, R1, rat


def brute_force_closure(mats):
    """Independent fixpoint closure oracle over sympy matrices."""
    gens = [sp.ImmutableMatrix(m) for m in mats]
    n = gens[0].shape[0]
    elems = {sp.ImmutableMatrix(sp.eye(n))}
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            for g in gens:
                p = sp.ImmutableMatrix(a * g)
                if p not in elems:
                    elems.add(p)
                    changed = True
    return elems


def to_sympy_rows(mat):
    return [[sp.Rational(int(x.numerator), int(x.denominator)) for x in row] for row in mat]


STD_OMEGA_2 = [[0, -1], [1, 0]]


def test_order_two_group():
    g = G.generate_group([[[-1, 0], [0, -1]]], STD_OMEGA_2)
    assert g.order == 2
    assert g.mul(1, 1) == 0
    assert g.inv[1] == 1


def test_s3_closure_against_brute_force(g3):
    assert g3.order == 6
    assert len(g3.classes) == 3
    oracle = brute_force_closure([to_sympy_rows(g3.mats[i]) for i in g3.generator_ids])
    assert len(oracle) == 6
    mine = {sp.ImmutableMatrix(to_sympy_rows(m)) for m in g3.mats}
    assert mine == oracle


def test_not_symplectic_rejected():
    with pytest.raises(G.GroupError, match="not symplectic"):
        G.generate_group([[[2, 0], [0, 1]]], STD_OMEGA_2)


def test_infinite_group_bounded():
    # a shear preserves the standard form but has infinite order
    with pytest.raises(G.GroupError, match="not finite"):
        G.generate_group([[[1, 1], [0, 1]]], STD_OMEGA_2, max_order=100)


def test_reflections_minus_identity():
    g = G.generate_group([[[-1, 0], [0, -1]]], STD_OMEGA_2)
    rd = G.symplectic_reflections(g)
    assert rd.reflections == (1,)
    assert rd.num_orbits == 1
    # im(s - 1) = V: the form equals the ambient one
    x, y = (R1, R0), (R0, R1)
    assert rd.omega_s_eval(1, x, y) == g.omega_eval(x, y)


def test_reflections_s3(rd3, g3):
    assert len(rd3.reflections) == 3
    assert rd3.num_orbits == 1
    # oracle: rank enumeration over all six elements
    count = 0
    for i in range(g3.order):
        m = sp.Matrix(to_sympy_rows(g3.mats[i])) - sp.eye(4)
        if m.rank() == 2:
            count += 1
    assert count == 3


def test_trivial_group_no_reflections():
    g = G.generate_group([], STD_OMEGA_2)
    rd = G.symplectic_reflections(g)
    assert rd.reflections == ()


def test_omega_s_kernel_and_image(rd3, g3):
    s = rd3.reflections[0]
    m = [list(row) for row in g3.mats[s]]
    ident = linalg.mat_identity(4)
    diff = linalg.mat_sub(m, ident)
    ker = linalg.nullspace(diff, 4)
    im = linalg.column_space_basis(diff)
    for v in ker:
        for w in im:
            assert rd3.omega_s_eval(s, v, w) == R0
            assert rd3.omega_s_eval(s, w, v) == R0
    # on the moving plane the form agrees with the ambient one
    a, b = im[0], im[1]
    assert rd3.omega_s_eval(s, a, b) == g3.omega_eval(a, b)


def test_omega_s_error_for_non_reflection(rd3):
    with pytest.raises(G.GroupError):
        rd3.omega_s_eval(0, (R1, R0, R0, R0), (R0, R1, R0, R0))


def test_reflection_weights(g2, rd2, g3, rd3):
    assert G.reflection_weight(g2, rd2, 0) == rat(1)
    assert G.reflection_weight(g3, rd3, 0) == rat(3, 2)


def test_reflection_weight_reducible_error():
    # S2 x S2 acting blockwise on a 4-dimensional doubled space
    gens = [[[-1, 0], [0, 1]], [[1, 0], [0, -1]]]
    vgens, omega, _ = G.double_up(gens)
    g = G.generate_group(vgens, omega, h_dim=2)
    rd = G.symplectic_reflections(g)
    assert rd.num_orbits == 2
    for i in range(rd.num_orbits):
        with pytest.raises(G.GroupError, match="reducible"):
            G.reflection_weight(g, rd, i)


def test_stabilizers(g3):
    zero = (R0,) * 4
    assert G.stabilizer(g3, zero) == list(range(6))
    generic = (rat(1), rat(5), R0, R0)
    assert G.stabilizer(g3, generic) == [0]
    on_wall = (rat(2), rat(1), R0, R0)
    stab = G.stabilizer(g3, on_wall)
    assert len(stab) == 2
    # scaling invariance with equality at nonzero scale
    scaled = tuple(rat(7) * v for v in on_wall)
    assert G.stabilizer(g3, scaled) == stab


def test_leaf_data_trivial_and_full(g2):
    leaf = G.leaf_data(g2, [0])
    assert len(leaf.v0_basis) == 2 and len(leaf.vplus_basis) == 0
    assert leaf.normalizer_ids == (0, 1)
    leaf2 = G.leaf_data(g2, [0, 1])
    assert len(leaf2.v0_basis) == 0 and len(leaf2.vplus_basis) == 2


def test_leaf_data_s3_s2(g3):
    sub = G.stabilizer(g3, (rat(2), rat(1), R0, R0))
    leaf = G.leaf_data(g3, sub)
    assert len(leaf.v0_basis) == 2
    assert len(leaf.vplus_basis) == 2
    assert leaf.xi_order == 1
    # the fixed space is symplectic and the complement is its perp
    gram = [[g3.omega_eval(a, b) for b in leaf.v0_basis] for a in leaf.v0_basis]
    assert linalg.mat_rank(gram) == 2
    assert all(g3.omega_eval(a, b) == R0 for a in leaf.v0_basis for b in leaf.vplus_basis)
    # both pieces are stable
    for gid in sub:
        for v in leaf.v0_basis:
            assert g3.apply(gid, v) == tuple(v)


def test_conjugation_preserves_orbit_and_form(g3, rd3):
    for g in range(g3.order):
        for s in rd3.reflections:
            s2 = g3.conjugate(g, s)
            assert s2 in rd3.orbit_of
            assert rd3.orbit_of[s2] == rd3.orbit_of[s]
            for xi in range(4):
                for yi in range(4):
                    x = tuple(R1 if k == xi else R0 for k in range(4))
                    y = tuple(R1 if k == yi else R0 for k in range(4))
                    assert rd3.omega_s_eval(s2, g3.apply(g, x), g3.apply(g, y)) == rd3.omega_s_eval(s, x, y)


def test_group_spec_rejects_unknown_fields():
    with pytest.raises(G.GroupError, match="unknown group-spec fields"):
        G.group_from_spec({"builtin": {"type": "symmetric", "n": 2}, "bogus": 1})


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"dim_h": -1, "generators_on_h": []}, "dim_h must be positive"),
        ({"dim_h": 0, "generators_on_h": []}, "dim_h must be positive"),
        ({"dim_h": 1, "generators_on_h": [[["0"]]]}, "generator matrix is singular"),
        ({"dim_h": 2, "generators_on_h": [[["1", "2"], ["1/2", "1"]]]}, "generator matrix is singular"),
    ],
    ids=["negative-dim", "zero-dim", "zero-generator", "rank-one-generator"],
)
def test_group_spec_rejects_degenerate_input(spec, message):
    with pytest.raises(G.GroupError, match=message):
        G.group_from_spec(spec)


def test_permutation_representation():
    g = G.group_from_spec({"builtin": {"type": "symmetric", "n": 3, "rep": "permutation"}})
    assert g.order == 6
    assert g.dim == 6
    rd = G.symplectic_reflections(g)
    assert len(rd.reflections) == 3


# a dihedral group of order 8 in a skew basis, so that its matrices have
# denominators
DIHEDRAL_SKEW = {"dim_h": 2, "generators_on_h": [[["1/2", "-5/2"], ["1/2", "-1/2"]], [[1, -2], [0, -1]]]}


@pytest.mark.parametrize(
    "spec, order",
    [({"builtin": {"type": "symmetric", "n": n}}, math.factorial(n)) for n in (3, 4, 5)] + [(DIHEDRAL_SKEW, 8)],
    ids=["S3", "S4", "S5", "dihedral-skew"],
)
def test_closure_tables_against_matrix_products(spec, order):
    g = G.group_from_spec(spec)
    k = g.order
    assert k == order
    # every table entry against the product of the matrices, computed with
    # integers after clearing a common denominator d: (d a)(d b) = d (d ab)
    d = math.lcm(*(int(x.denominator) for m in g.mats for row in m for x in row))
    ints = [tuple(tuple(int(x * d) for x in row) for row in m) for m in g.mats]
    cols = [tuple(zip(*m)) for m in ints]
    index = {tuple(tuple(d * x for x in row) for row in m): i for i, m in enumerate(ints)}
    assert len(index) == k
    for i in range(k):
        for j in range(k):
            prod = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols[j]) for row in ints[i])
            assert g.table[i][j] == index[prod]
    for i in range(k):
        assert g.table[i][g.inv[i]] == 0 == g.table[g.inv[i]][i]
    # the classes partition the group into orbits of conjugation by every element
    assert sorted(x for cl in g.classes for x in cl) == list(range(k))
    for cl in g.classes:
        for x in cl:
            assert {g.conjugate(h, x) for h in range(k)} == set(cl)


def test_closure_matrix_product_count(monkeypatch):
    # a count, not a time: each of the 24 elements of S4 times each of the
    # 3 generators, plus the two products of each generator's form check
    mat_mul = linalg.mat_mul
    calls = []

    def counted(a, b):
        calls.append(None)
        return mat_mul(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    g = G.group_from_spec({"builtin": {"type": "symmetric", "n": 4}})
    assert g.order == 24 and len(g.generator_ids) == 3
    assert len(calls) <= 24 * 3 + 2 * 3


def test_oversized_builtin_fails_before_closure(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("closure started")

    monkeypatch.setattr(G, "generate_group", no_closure)
    start = time.perf_counter()
    with pytest.raises(G.GroupError, match="not finite within bound %d" % G.DEFAULT_MAX_ORDER):
        G.group_from_spec({"builtin": {"type": "symmetric", "n": 9}})
    assert time.perf_counter() - start < 1.0
    with pytest.raises(G.GroupError, match="not finite within bound 100"):
        G.group_from_spec({"builtin": {"type": "symmetric", "n": 5, "rep": "permutation"}}, max_order=100)
