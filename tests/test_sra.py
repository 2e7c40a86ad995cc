import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest
from conftest import PRODUCT_SPEC, S2_SPEC, S3_SPEC, S4_SPEC, fraction_normal_form, reference_center, reference_satake, spherical_corner
from hypothesis import given, settings
from hypothesis import strategies as st

from srak import cherednik as CH
from srak import completion as CP
from srak import groups as G
from srak import sra as S
from srak.coeffs import ArityError, ParamPoly, R0, R1, rat
from srak.selftest import associativity_suite, random_element


def test_normalize_examples(ch2):
    alg = ch2.algebra
    x, y, s = ch2.x(0), ch2.y(0), ch2.group_elt(1)
    yx = y * x
    assert yx == alg.parse("x*y + t - 2*c1*s")
    assert (x * x).to_str() == "x^2"
    assert s * x == alg.parse("-x*s")


def test_multiply_examples(ch2):
    alg = ch2.algebra
    a = random_element(alg, random.Random(1))
    assert alg.one() * a == a
    assert ch2.x(0) * ch2.y(0) == alg.parse("x*y")


def test_zero_vector_annihilates(ch2):
    alg = ch2.algebra
    assert alg.normalize_word([(R0, R0), (R1, R0)]) == alg.zero()


def test_specialize_examples(ch2):
    alg = ch2.algebra
    e = alg.parse("t - 2*c1*s")
    spec = e.specialize(t=R1, c=[rat(1, 2)])
    assert spec == alg.parse("1 - s").specialize(t=R0, c=[R0])
    # t = c = 0 lands in the commutative smash product: yx = xy there
    yx = (ch2.y(0) * ch2.x(0)).specialize(t=R0, c=[R0])
    assert yx == alg.parse("x*y").specialize(t=R0, c=[R0])


def test_rescaling_isomorphism_squares(ch2):
    # v -> k v intertwines parameters (t, c) with (k^2 t, k^2 c); only
    # square scalings are available over the rationals
    alg = ch2.algebra
    k = rat(2)
    a = k * k

    def scale_elt(w):
        return alg.element({(m, g): p * (k ** len(m)) for (m, g), p in w.coefficients().items()})

    def scale_params(w):
        out = {}
        for key, p in w.coefficients().items():
            q = ParamPoly(alg.nparams, {e: c * a ** sum(e) for e, c in p.terms.items()})
            out[key] = q
        return alg.element(out)

    def psi(w):
        return scale_params(scale_elt(w))

    rng = random.Random(9)
    for _ in range(10):
        u = random_element(alg, rng, max_degree=3)
        v = random_element(alg, rng, max_degree=3)
        assert psi(alg.multiply(u, v)) == alg.multiply(psi(u), psi(v))


def test_pbw_dimension(ch2, ch3, omega_alg3):
    assert S.pbw_dimension(ch2.algebra, 3) == 4 * 2
    assert S.pbw_dimension(ch2.algebra, 0) == 2
    assert S.pbw_dimension(ch3.algebra, 2) == 10 * 6
    # enumeration oracle: monomials of degree d in 2n variables
    for alg in (ch2.algebra, omega_alg3):
        for d in range(5):
            count = sum(1 for _ in _monos(alg.nv, d)) * alg.group.order
            assert S.pbw_dimension(alg, d) == count


def _monos(nv, d):
    if d == 0:
        yield ()
        return
    def rec(prefix, start, left):
        if left == 0:
            yield tuple(prefix)
            return
        for v in range(start, nv):
            yield from rec(prefix + [v], v, left - 1)
    yield from rec([], 0, d)


def test_pbw_dimension_negative_degree(ch2):
    with pytest.raises(S.AlgebraError):
        S.pbw_dimension(ch2.algebra, -1)


def test_associativity_battery(omega_alg2, omega_alg3):
    assert associativity_suite(omega_alg2, 60) == 0
    assert associativity_suite(omega_alg3, 60) == 0


def test_spherical_corner_examples(ch2):
    alg = ch2.algebra
    e = S.spherical_idempotent(alg)
    assert alg.multiply(e, e) == e
    assert spherical_corner(alg, alg.one()) == e
    assert spherical_corner(alg, ch2.x(0)) == alg.zero()
    x2 = alg.parse("x^2")
    assert spherical_corner(alg, x2) == alg.multiply(x2, e)
    # corner closure: e a e * e b e = e (...) e
    a, b = alg.parse("x*y"), alg.parse("y^2*s")
    prod = alg.multiply(spherical_corner(alg, a), spherical_corner(alg, b))
    assert alg.multiply(alg.multiply(e, prod), e) == prod


def test_center_basis_degree_two(ch2):
    alg = ch2.algebra
    cb = S.center_basis(alg, 2)
    assert cb.graded_dims == [1, 0, 3]
    strs = {z.to_str() for z in cb.elements}
    assert "-c1*s + x*y" in strs
    assert "x^2" in strs and "y^2" in strs and "1" in strs


def test_center_basis_degree_one(ch2):
    cb = S.center_basis(ch2.algebra, 1)
    assert [z.to_str() for z in cb.elements] == ["1"]


def test_center_basis_c_zero(ch2):
    # specialized at c = 0: the invariants of the commutative smash product
    cb = S.center_basis(ch2.algebra, 4, c_values=[R0])
    assert cb.graded_dims == [1, 0, 3, 0, 5]
    for z in cb.elements:
        assert S.recheck_central(ch2.algebra, z, c_values=[R0])


def test_center_specialized_nontrivial_c(ch2):
    cb = S.center_basis(ch2.algebra, 2, c_values=[rat(3)])
    assert cb.graded_dims == [1, 0, 3]
    for z in cb.elements:
        assert S.recheck_central(ch2.algebra, z, c_values=[rat(3)])


def test_center_recheck_and_satake(ch2):
    cb = S.center_basis(ch2.algebra, 4)
    assert cb.graded_dims == [1, 0, 3, 0, 5]
    for z in cb.elements:
        assert S.recheck_central(ch2.algebra, z)
    sat = S.satake_corner_check(ch2.algebra, cb.elements, 4)
    assert sat["spans_corner"]
    assert sat["corner_dim"] == 9


# (Cherednik fixture, degree, c_values, include_t, whether to compare the
# corner check too)
CENTER_CASES = {
    "S2-deg4-generic": ("ch2", 4, None, False, True),
    "S2-deg4-c=1/2": ("ch2", 4, [rat(1, 2)], False, True),
    "S3-deg3-generic": ("ch3", 3, None, False, True),
    "S3-deg3-c=-5/13": ("ch3", 3, [rat(-5, 13)], False, True),
    "S3-deg3-include_t": ("ch3", 3, None, True, False),
    "S4-deg2-generic": ("ch4", 2, None, False, False),
    # h reducible: two orbits of lines, and the permutation module
    "product-deg2-generic": ("chprod", 2, None, False, True),
    "product-deg2-c=(1/3,-2/5)": ("chprod", 2, [rat(1, 3), rat(-2, 5)], False, True),
    "S3perm-deg2-generic": ("ch3perm", 2, None, False, True),
}


@pytest.mark.parametrize("case", list(CENTER_CASES))
def test_center_matches_dense_reference(request, case):
    """The sparse center equals the dense reference element for element,
    and so does the corner check on it."""
    fixture, d, c_values, include_t, check_corner = CENTER_CASES[case]
    alg = request.getfixturevalue(fixture).algebra
    cb = S.center_basis(alg, d, c_values=c_values, include_t=include_t)
    elements, dims = reference_center(alg, d, c_values=c_values, include_t=include_t)
    assert cb.elements == elements
    assert cb.graded_dims == dims
    if check_corner:
        assert S.satake_corner_check(alg, cb.elements, d, c_values=c_values) == reference_satake(alg, cb.elements, d, c_values)


@pytest.mark.parametrize("fixture", ["ch3", "ch4", "chprod"])
@pytest.mark.parametrize("form", ["cherednik", "omega-form"])
def test_conjugation_sum_matches_products(request, fixture, form):
    """g z g^-1 read off the cached normal forms equals the two full
    products, one group element at a time and summed over the group."""
    ch = request.getfixturevalue(fixture)
    alg = ch.algebra if form == "cherednik" else S.SRAlgebra.omega_form(ch.group, ch.rdata)
    grp = alg.group
    rng = random.Random(97)
    for _ in range(4):
        z = random_element(alg, rng, max_degree=3) + random_element(alg, rng, max_degree=2).scale(ParamPoly.var(alg.nparams, 1))
        for g in rng.sample(range(grp.order), min(grp.order, 6)):
            want = alg.multiply(alg.group_elt(g), alg.multiply(z, alg.group_elt(grp.inv[g])))
            assert S.SRAElement(alg, S.conjugation_sum(alg, z, [g])) == want
        everything = range(grp.order)
        want = sum((alg.multiply(alg.group_elt(g), alg.multiply(z, alg.group_elt(grp.inv[g]))) for g in everything), alg.zero())
        assert S.SRAElement(alg, S.conjugation_sum(alg, z, everything)) == want


@pytest.mark.parametrize("fixture, expected", [("ch2", [0, 1]), ("ch3", [0, 2]), ("ch4", [0, 3]), ("ch3perm", [0, 3]),
                                               ("chprod", [0, 1, 2, 3])])
def test_test_elements_span_by_orbits(request, fixture, expected):
    """One x and one y when W mixes all of h (S_n on the reflection or the
    permutation module); every basis vector for the product group, whose
    orbits are single lines."""
    assert S._test_elements(request.getfixturevalue(fixture).algebra) == expected


def test_tampered_s3_center_fails():
    """The criterion-12 flip, seen through the form-driven S3 algebra, still
    breaks the center: the degree-3 dimensions or the corner check."""
    from srak.selftest import tampered_s3

    _bad_ch, bad_alg, _b = tampered_s3()
    cb = S.center_basis(bad_alg, 3)
    sat = S.satake_corner_check(bad_alg, cb.elements, 3)
    assert cb.graded_dims != [1, 0, 3, 4] or not sat["spans_corner"]


def test_center_refuses_a_table_that_is_not_weight_homogeneous():
    """The Weyl relation [v2, v1] = 1 under the order-4 rotation: a
    conjugate of a weight-2 key has a constant term, outside the weight-2
    keys, so the H^W solve refuses the symbolic center instead of solving
    on a space that conjugation does not preserve."""
    rot = [[R0, -R1], [R1, R0]]
    grp = G.generate_group([rot], [[R0, R1], [-R1, R0]])
    alg = S.SRAlgebra(grp, {(1, 0): ((0, {(0,): R1}),)}, 1)
    with pytest.raises(S.AlgebraError, match="conjugation leaves"):
        S.center_basis(alg, 2)


def test_generic_center_is_parameters_only(ch2):
    cb = S.center_basis(ch2.algebra, 4, include_t=True)
    assert all(z.vdegree() == 0 for z in cb.elements)
    assert len(cb.elements) == 1  # the unit, as a module generator


def test_poisson_examples(ch2):
    alg = ch2.algebra
    x2, y2 = alg.parse("x^2"), alg.parse("y^2")
    z = alg.parse("x*y - c1*s")
    # {z, z} = 0 and {1, z} = 0
    assert S.poisson_bracket(alg, z, z) == alg.zero()
    assert S.poisson_bracket(alg, alg.one(), z) == alg.zero()
    # frozen value; the leading term matches the classical bracket -4xy
    pb = S.poisson_bracket(alg, x2, y2)
    assert pb == alg.parse("-4*x*y + 4*c1*s").specialize(t=R0)
    assert pb == (rat(-4) * z).specialize(t=R0)


def test_poisson_not_central_error(ch2):
    alg = ch2.algebra
    with pytest.raises(S.AlgebraError, match="not central"):
        S.poisson_bracket(alg, ch2.x(0), ch2.y(0))


def classical_bracket_top(alg, z1, z2):
    """Independent oracle: the symplectic-form bracket of the top parts,
    computed in the commutative polynomial ring."""
    n = alg.nv
    x_count = alg.x_count

    def top(z):
        d = z.vdegree()
        return {m: p for (m, g), p in z.coefficients().items() if len(m) == d and g == 0}

    def to_exp(m):
        e = [0] * n
        for v in m:
            e[v] += 1
        return tuple(e)

    t1 = {to_exp(m): p for m, p in top(z1).items()}
    t2 = {to_exp(m): p for m, p in top(z2).items()}
    out = {}
    for e1, p1 in t1.items():
        for e2, p2 in t2.items():
            for i in range(x_count):
                # {x_i, y_i} = omega(x_i, y_i) = -1 with this form
                for (da, db, sign) in ((i, x_count + i, rat(-1)), (x_count + i, i, rat(1))):
                    if e1[da] and e2[db]:
                        e = list(e1)
                        e[da] -= 1
                        f = list(e2)
                        f[db] -= 1
                        key = tuple(a + b for a, b in zip(e, f))
                        coeff = sign * rat(e1[da]) * rat(e2[db])
                        cur = out.get(key)
                        add = p1 * p2 * coeff
                        tot = add if cur is None else cur + add
                        if tot:
                            out[key] = tot
                        else:
                            out.pop(key, None)
    return out


def test_poisson_leading_terms_are_classical(ch2):
    alg = ch2.algebra
    cb = S.center_basis(alg, 4)
    zs = [z for z in cb.elements if z.vdegree() >= 2]
    for z1 in zs:
        for z2 in zs:
            pb = S.poisson_bracket(alg, z1, z2)
            want = classical_bracket_top(alg, z1, z2)
            deg = z1.vdegree() + z2.vdegree() - 2
            got = {}
            for (m, g), p in pb.coefficients().items():
                if len(m) == deg and g == 0:
                    e = [0] * alg.nv
                    for v in m:
                        e[v] += 1
                    got[tuple(e)] = p
            want = {k: v for k, v in want.items() if v}
            assert got == want


def test_poisson_jacobi_and_leibniz(ch2):
    alg = ch2.algebra
    cb = S.center_basis(alg, 4)
    zs = cb.elements

    def pb(a, b):
        return S.poisson_bracket(alg, a, b)

    for (a, b, c) in combinations(zs, 3):
        assert pb(a, pb(b, c)) + pb(b, pb(c, a)) + pb(c, pb(a, b)) == alg.zero()
    for a in zs[:5]:
        for b in zs[:5]:
            for c in zs[:5]:
                prod = alg.multiply(b, c).specialize(t=R0)
                lhs = pb(a, prod)
                rhs = alg.multiply(pb(a, b), c).specialize(t=R0) + alg.multiply(b, pb(a, c)).specialize(t=R0)
                assert lhs == rhs


def test_simplicity_lattice_s2(g2, rd2):
    m = [G.reflection_weight(g2, rd2, 0)]
    irr = [(dim, (tr,)) for (_l, dim, tr) in S.sn_reflection_characters(2)]
    lat = S.simplicity_lattice(m, irr)
    assert lat == [(rat(-1),), (rat(1),)]


def test_simplicity_lattice_trivial():
    assert S.simplicity_lattice([], []) == []


def test_simplicity_lattice_s3(g3, rd3):
    m = [G.reflection_weight(g3, rd3, 0)]
    irr = [(dim, (tr,)) for (_l, dim, tr) in S.sn_reflection_characters(3)]
    lat = S.simplicity_lattice(m, irr)
    assert lat == [(rat(-3, 2),), (rat(3, 2),)]


def test_lattice_gate():
    lat = [(rat(-1),), (rat(1),)]
    assert S.lattice_gate(lat, [rat(3)])["candidate_nonsimple"]
    assert not S.lattice_gate(lat, [rat(1, 3)])["candidate_nonsimple"]


def mn_transposition_character(lam):
    """Independent oracle: remove a domino, signed by its height, and
    count standard tableaux of the rest."""
    lam = list(lam)
    total = 0

    def is_partition(shape):
        shape = [s for s in shape if s > 0]
        return all(shape[i] >= shape[i + 1] for i in range(len(shape) - 1)), shape

    for i in range(len(lam)):
        # horizontal domino: the last two cells of row i
        cand = list(lam)
        cand[i] -= 2
        okp, shape = is_partition(cand)
        if cand[i] >= 0 and okp and (i + 1 >= len(lam) or lam[i + 1] <= cand[i]):
            total += S.hook_dimension(tuple(shape)) if shape else 1
        # vertical domino: same column, so the two rows must have equal length
        if i + 1 < len(lam) and lam[i] == lam[i + 1]:
            cand = list(lam)
            cand[i] -= 1
            cand[i + 1] -= 1
            okp, shape = is_partition(cand)
            if cand[i + 1] >= 0 and okp and (i + 2 >= len(lam) or lam[i + 2] <= cand[i + 1]):
                total -= S.hook_dimension(tuple(shape)) if shape else 1
    return total


def test_sn_reflection_characters_small():
    assert [(d, int(t)) for (_l, d, t) in S.sn_reflection_characters(2)] == [(1, 1), (1, -1)]
    assert [(d, int(t)) for (_l, d, t) in S.sn_reflection_characters(3)] == [(1, 1), (2, 0), (1, -1)]
    vals = {l: (d, int(t)) for (l, d, t) in S.sn_reflection_characters(4)}
    assert vals[(2, 2)] == (2, 0)


def test_sn_reflection_characters_against_mn_oracle():
    for n in range(2, 9):
        for (lam, dim, tr) in S.sn_reflection_characters(n):
            assert S.hook_dimension(lam) == dim
            assert mn_transposition_character(lam) == tr


def test_parse_print_roundtrip(ch2, ch3):
    rng = random.Random(31)
    for ch in (ch2, ch3):
        for _ in range(15):
            elt = random_element(ch.algebra, rng, max_degree=3)
            assert ch.algebra.parse(elt.to_str()) == elt


def test_center_of_form_presentation():
    # the smallest doubled instance, presented through the form data
    grp = G.group_from_spec({"dim_h": 1, "generators_on_h": [[["-1"]]], "gen_names": ["s"]})
    rdata = G.symplectic_reflections(grp)
    alg = S.SRAlgebra.omega_form(grp, rdata)
    cb = S.center_basis(alg, 2)
    assert cb.graded_dims == [1, 0, 3]
    for z in cb.elements:
        assert S.recheck_central(alg, z)
    # the coupled element uses the form-normalized parameter: [v2, v1]
    # carries t + c1 s, so the coupling constant differs from the pairing
    # presentation by the conversion factor
    coupled = [z for z in cb.elements if {g for (_m, g) in z.coefficients()} != {0}]
    assert len(coupled) == 1


def test_permutation_representation_cross_check():
    # the permutation module contains a trivial summand: the action is
    # symplectically reducible, but the engine and the modules still work
    ch = CH.build_cherednik({"builtin": {"type": "symmetric", "n": 3, "rep": "permutation"}})
    assert ch.h_dim == 3
    assert len(ch.reflections) == 3
    from srak.selftest import associativity_suite

    assert associativity_suite(ch.algebra, 25, seed=5) == 0
    rels = CH.module_relation_report(ch, 2)
    assert all(rels.values()), rels
    for i in range(ch.rdata.num_orbits):
        with pytest.raises(G.GroupError, match="reducible"):
            G.reflection_weight(ch.group, ch.rdata, i)


def test_parse_errors(ch2):
    with pytest.raises(S.AlgebraError):
        ch2.algebra.parse("x + unknown")
    with pytest.raises(S.AlgebraError):
        ch2.algebra.parse("x + (y")
    with pytest.raises(ValueError):
        ch2.algebra.parse("1/0 * x")
    for text in ("x^", "x*", "", "-", "x^-1"):
        with pytest.raises(S.LiteralError):
            ch2.algebra.parse(text)
    top = "x^%d" % S.MAX_LITERAL_EXPONENT
    assert ch2.algebra.parse(top).to_str() == top
    with pytest.raises(S.LiteralError, match="exceeds"):
        ch2.algebra.parse("x^%d" % (S.MAX_LITERAL_EXPONENT + 1))


# -- the integer rewriting core against a plain Fraction reference ---------

# D4 on h in a basis where its matrices are not integral
DIHEDRAL_SPEC = {"dim_h": 2, "generators_on_h": [[[0, "1/2"], [2, 0]], [[1, 0], [0, -1]]], "gen_names": ["r", "f"]}


def _retabled(alg, identity_term):
    """alg with the t-term of every kappa entry replaced by identity_term(w),
    w its coefficient on t."""
    t = (1,) + (0,) * (alg.nparams - 1)
    kappa = {
        key: tuple((gid, identity_term(poly[t]) if t in poly else poly) for gid, poly in terms)
        for key, terms in alg.kappa.items()
    }
    return S.SRAlgebra(alg.group, kappa, alg.nparams, x_count=alg.x_count)


@lru_cache(maxsize=None)
def engine_algebra(name):
    """Algebras whose products the reference checks, by name."""
    if name == "dihedral-omega":
        g = G.group_from_spec(DIHEDRAL_SPEC)
        return S.SRAlgebra.omega_form(g, G.symplectic_reflections(g))
    if name == "s3-pairing":
        return CH.build_cherednik(S3_SPEC).algebra
    if name == "s3-completion":
        return CP.completion_iso(CH.build_cherednik(S3_SPEC), [1, -1], 3).talg.algebra
    spec = S2_SPEC if name == "s2-omega" else S3_SPEC
    g = G.group_from_spec(spec)
    alg = S.SRAlgebra.omega_form(g, G.symplectic_reflections(g))
    if name == "s3-t-third":
        # the t-coefficients scaled by 1/3: the scale of t becomes 3
        return _retabled(alg, lambda w: {(1, 0): w / 3})
    if name == "s3-constant-third":
        # t pinned to 1/3: a constant kappa term with a denominator stays a Fraction
        return _retabled(alg, lambda w: {(0, 0): w / 3})
    return alg


def elements(alg, max_degree=2):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    poly = st.dictionaries(st.tuples(*[st.integers(0, 3)] * alg.nparams), coeff, min_size=1, max_size=2)
    word = st.lists(st.integers(0, alg.nv - 1), max_size=max_degree).map(lambda w: tuple(sorted(w)))
    key = st.tuples(word, st.integers(0, alg.group.order - 1))
    return st.dictionaries(key, poly, max_size=3).map(alg.element)


@pytest.mark.parametrize("name", ["s3-omega", "dihedral-omega"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_parse_inverts_printing(name, data):
    alg = engine_algebra(name)
    e = data.draw(elements(alg, max_degree=3))
    assert alg.parse(e.to_str()) == e


# the S3 omega form has scales d = (1, 2), so u_1 = c_1 / 2 is not c_1;
# the product group has two reflection orbits, three parameters
EDGE_ALGEBRAS = {"s3-omega": lambda: engine_algebra("s3-omega"), "product": lambda: CH.build_cherednik(PRODUCT_SPEC).algebra}


def raw_terms(alg, max_degree=2):
    """Raw {(sorted word, gid): {exponents: nonzero Fraction}} maps."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    poly = st.dictionaries(st.tuples(*[st.integers(0, 3)] * alg.nparams), coeff, min_size=1, max_size=3)
    word = st.lists(st.integers(0, alg.nv - 1), max_size=max_degree).map(lambda w: tuple(sorted(w)))
    return st.dictionaries(st.tuples(word, st.integers(0, alg.group.order - 1)), poly, max_size=4)


@pytest.mark.parametrize("name", sorted(EDGE_ALGEBRAS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_edges_round_trip_the_c_variables(name, data):
    """Elements hold u-variables; what goes in through ``element`` comes
    back out of ``coefficients``, printing and parsing agree, and
    ``specialize`` on packed keys agrees with ``ParamPoly.specialize``."""
    alg = EDGE_ALGEBRAS[name]()
    raw = data.draw(raw_terms(alg))
    e = alg.element(raw)
    assert {k: p.terms for k, p in e.coefficients().items()} == raw
    text = e.to_str()
    assert alg.parse(text) == e
    assert alg.parse(text).to_str() == text
    value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    t = data.draw(st.none() | value)
    c = data.draw(st.none() | st.lists(value, min_size=alg.nparams - 1, max_size=alg.nparams - 1))
    values = {} if t is None else {0: t}
    values.update({i + 1: v for i, v in enumerate(c or [])})
    want = {k: p.specialize(values) for k, p in e.coefficients().items()}
    assert e.specialize(t=t, c=c).coefficients() == {k: p for k, p in want.items() if p}


def test_engine_paths_build_no_param_poly(g3, rd3, chprod, monkeypatch):
    """Products, conjugation sums, the center and its corner check run on
    the flat u-maps alone: no coefficient is converted on the way."""
    alg = S.SRAlgebra.omega_form(g3, rd3)  # cold caches: the rewriting runs under the patch
    rng = random.Random(23)
    elts = [random_element(alg, rng, max_degree=3) + random_element(alg, rng).scale(ParamPoly.var(2, 1))
            for _ in range(4)]
    palg = chprod.algebra

    def refuse(*args, **kwargs):
        raise AssertionError("a ParamPoly was built")

    monkeypatch.setattr(ParamPoly, "__init__", refuse)
    for a in elts:
        for b in elts:
            alg.multiply(a, b)
            alg.multiply(a, b, xcap=2)
        S.conjugation_sum(alg, a, range(alg.group.order))
    for c_values in (None, [rat(2, 7)]):
        basis = S.center_basis(alg, 3, c_values=c_values)
        S.satake_corner_check(alg, basis.elements, 3, c_values=c_values)
    S.center_basis(palg, 2)
    S.center_basis(palg, 2, c_values=[rat(1, 3), rat(-2, 5)])
    monkeypatch.undo()
    assert basis.graded_dims == [1, 0, 3, 4]  # the Molien series of S3 on h + h*


@pytest.mark.parametrize("name", ["s3-omega", "s3-t-third"])
def test_poisson_bracket_divides_by_t(name):
    """{t a, b} = [a, b] at t = 0 for any a and b, with t carrying a scale
    (3 in s3-t-third) on the packed keys; a commutator with a t-free part
    is refused."""
    alg = engine_algebra(name)
    rng = random.Random(31)
    t = ParamPoly.var(alg.nparams, 0)
    for _ in range(6):
        a, b = random_element(alg, rng, max_degree=3), random_element(alg, rng, max_degree=3)
        want = (a * b - b * a).specialize(t=R0)
        assert S.poisson_bracket(alg, a.scale(t), b) == want
        assert S.poisson_bracket(alg, a.scale(t * t), b) == alg.zero()
    with pytest.raises(S.AlgebraError, match="not central"):
        S.poisson_bracket(alg, alg.gen(0), alg.gen(2))


def test_element_rejects_exponents_the_core_cannot_hold(omega_alg3):
    # in a product, zip would silently truncate wrong-arity keys, and a
    # negative exponent would borrow from the next packed field
    for raw in ({(1,): 1}, {(0, 1, 5): 1}, {(0, -1): 1}):
        with pytest.raises(ArityError):
            omega_alg3.element({((0,), 0): raw})
    with pytest.raises(ArityError):
        omega_alg3.element({((0,), 0): ParamPoly.var(3, 0)})
    elt = omega_alg3.element({((0,), 0): {(0, 1): Fraction(1)}, ((1,), 0): {(2, 0): 0}})
    assert elt == omega_alg3.parse("c1*x1")


def reference_product(alg, a, b, xcap=None):
    terms = []
    for (m1, g1), p1 in a.coefficients().items():
        for (m2, g2), p2 in b.coefficients().items():
            letters = [("v", v) for v in m1] + [("g", g1)] + [("v", v) for v in m2] + [("g", g2)]
            terms.append((letters, p1.terms, p2.terms))
    out = fraction_normal_form(alg, terms)
    if xcap is not None:
        out = {(m, g): p for (m, g), p in out.items() if sum(1 for v in m if v < alg.x_count) < xcap}
    return out


def term_maps(elt):
    return {k: p.terms for k, p in elt.coefficients().items()}


@pytest.mark.parametrize(
    "name", ["s2-omega", "s3-omega", "s3-pairing", "s3-completion", "s3-t-third", "s3-constant-third", "dihedral-omega"]
)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_multiply_matches_fraction_reference(name, data):
    alg = engine_algebra(name)
    a, b = data.draw(elements(alg)), data.draw(elements(alg))
    assert term_maps(alg.multiply(a, b)) == reference_product(alg, a, b)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), xcap=st.integers(1, 3))
def test_truncated_multiply_matches_fraction_reference(data, xcap):
    alg = engine_algebra("s3-completion")
    a, b = data.draw(elements(alg)), data.draw(elements(alg))
    assert term_maps(alg.multiply(a, b, xcap=xcap)) == reference_product(alg, a, b, xcap)


def test_multiply_prunes_at_xcap(ch3, ch4):
    # completion.TElt.__mul__ does not truncate again: multiply alone must
    # leave no term of x-degree >= xcap
    pruned = 0
    for ch in (ch3, ch4):
        alg = ch.algebra
        rng = random.Random(11)
        elts = [random_element(alg, rng, max_degree=3) for _ in range(5)]
        for a in elts:
            for b in elts:
                full = alg.multiply(a, b)
                for k in (1, 2, 3):
                    cut = alg.multiply(a, b, xcap=k)
                    assert cut.xdegree() < k
                    assert cut == full.truncate_x(k)
                    pruned += full.xdegree() >= k
    assert pruned


def test_scales():
    assert engine_algebra("s3-omega").scales == (1, 2)
    assert engine_algebra("s3-t-third").scales == (3, 2)
    assert engine_algebra("s3-constant-third").scales == (1, 2)
    assert engine_algebra("s3-completion").scales == (1, 1)
    assert not all(x.denominator == 1 for m in engine_algebra("dihedral-omega").group.mats for r in m for x in r)


def _cache_values(alg):
    for cache in (alg._word_cache, alg._gmono_cache):
        for normal_form in cache.values():
            yield from normal_form.values()
    for expansion in alg._gexp_cache.values():
        for _, c in expansion:
            yield c


def _session(alg, coeff, count=8):
    """Products of random pairs of elements built without multiplying,
    so that these products alone fill the caches."""
    rng = random.Random(7)

    def factor():
        terms = {}
        for _ in range(3):
            word = tuple(sorted(rng.randrange(alg.nv) for _ in range(rng.randint(0, 3))))
            exps = tuple(rng.randint(0, 1) for _ in range(alg.nparams))
            terms[(word, rng.randrange(alg.group.order))] = {exps: coeff(rng)}
        return alg.element(terms)

    return [alg.multiply(factor(), factor()) for _ in range(count)]


def _halves(rng):
    return rat(rng.choice([1, -2, 3]), rng.choice([1, 2]))


def _values(products):
    return [c for elt in products for p in elt.coefficients().values() for c in p.terms.values()]


def test_rewriting_caches_hold_ints(g3, rd3):
    alg = S.SRAlgebra.omega_form(g3, rd3)
    _session(alg, _halves)
    assert alg._word_cache and alg._gmono_cache and alg._gexp_cache
    assert all(type(c) is int for c in _cache_values(alg))


def test_word_cache_holds_normal_forms(g3, rd3):
    # each cached entry is a flat map {(sorted word, gid, packed u-monomial):
    # value}; read back in the c-variables (u_p = c_p / d_p) it must be the
    # plain Fraction rewriting of its word
    alg = S.SRAlgebra.omega_form(g3, rd3)
    _session(alg, _halves, count=4)
    assert len(alg._word_cache) > 20
    for word, normal_form in alg._word_cache.items():
        assert all(c != 0 for c in normal_form.values()), word
        assert _in_c_variables(alg, normal_form) == fraction_normal_form(alg, [([("v", v) for v in word],)]), word


def _in_c_variables(alg, normal_form):
    """A flat normal form read back in the c-variables (u_p = c_p / d_p):
    {(word, gid): {exponents: Fraction}}, its words unpacked."""
    out = {}
    for (m, g, key), c in normal_form.items():
        m = alg.word_of(m)
        e = S.unpack_key(key, alg.nparams)
        weight = 1
        for d, k in zip(alg.scales, e):
            weight *= d**k
        out.setdefault((m, g), {})[e] = Fraction(c) / weight
    return out


def test_no_float_reaches_a_term_map(g3, rd3):
    # int / int is a float: the boundary must divide exactly
    values = _values(_session(S.SRAlgebra.omega_form(g3, rd3), _halves))
    assert any(c.denominator != 1 for c in values)
    assert not any(isinstance(c, float) for c in values)


def test_products_have_fraction_coefficients(g2, rd2, g3, rd3):
    values = _values(_session(S.SRAlgebra.omega_form(g3, rd3), _halves))
    # int coefficients in, on an algebra whose scales are all 1
    values += _values(_session(S.SRAlgebra.omega_form(g2, rd2), lambda rng: rng.choice([1, -2, 3])))
    assert values and all(type(c) is Fraction for c in values)


def test_to_str_keys_each_group_matrix_once(monkeypatch):
    # the canonical order needs one matrix key per group element, computed
    # once per group however often elements are printed
    calls = []
    inner = G.mat_key

    def counting(mat):
        calls.append(mat)
        return inner(mat)

    monkeypatch.setattr(G, "mat_key", counting)
    g3 = G.group_from_spec(S3_SPEC)  # a fresh group: no key computed yet
    alg = S.SRAlgebra.omega_form(g3, G.symplectic_reflections(g3))
    rng = random.Random(5)
    elts = [random_element(alg, rng) for _ in range(6)]
    everything = alg.zero()
    for gid in range(g3.order):
        everything = everything + alg.group_elt(gid)
    elts.append(everything * alg.gen(0) * alg.gen(3))
    printed = [e.to_str() for e in elts]
    for _ in range(3):
        assert [e.to_str() for e in elts] == printed
    assert 0 < len(calls) <= g3.order
    for e in elts:
        order = sorted(e.coefficients(), key=lambda k: (len(k[0]), k[0], inner(g3.mats[k[1]])))
        assert [k for k, _ in e.sorted_terms()] == order


# -- the free-letter rule on presentations that are not x prefix / y suffix --


def _reindexed_s3():
    """The S3 omega form in the basis order (x1, y1, x2, y2): the group's
    matrices and form, and the commutator table, permuted."""
    alg = engine_algebra("s3-omega")
    grp = alg.group
    perm = (0, 2, 1, 3)  # new index -> old index
    n = len(perm)

    def permuted(mat):
        return tuple(tuple(mat[perm[a]][perm[b]] for b in range(n)) for a in range(n))

    group = G.FiniteSymplecticGroup(n, permuted(grp.omega), [permuted(m) for m in grp.mats], grp.table, grp.inv,
                                    grp.classes, grp.generator_ids, gen_names=grp.gen_names)
    kappa = {}
    for a in range(n):
        for b in range(a):
            i, j = perm[a], perm[b]
            if i > j:
                terms = alg.kappa.get((i, j), ())
            else:
                terms = tuple((g, {e: -c for e, c in poly.items()}) for g, poly in alg.kappa.get((j, i), ()))
            if terms:
                kappa[(a, b)] = terms
    return S.SRAlgebra(group, kappa, alg.nparams)


def _weyl_table():
    """Constant commutators [v1, v0] = t, [v3, v0] = 2, [v3, v2] = t - 1 on
    four letters with the trivial group: v2 commutes with every smaller
    letter and v1 with every larger one, but v0 and v3 with neither."""
    group = G.group_from_spec({"dim_h": 2, "generators_on_h": []})
    t, one = (1,), (0,)
    kappa = {(1, 0): ((0, {t: rat(1)}),), (3, 0): ((0, {one: rat(2)}),), (3, 2): ((0, {t: rat(1), one: rat(-1)}),)}
    return S.SRAlgebra(group, kappa, 1)


FREE_LETTER_ALGEBRAS = {"s3-reindexed": _reindexed_s3, "weyl": _weyl_table}


@pytest.mark.parametrize("name, lower, upper", [
    ("s3-reindexed", (True, False, False, False), (False, False, False, False)),
    ("weyl", (True, False, True, False), (False, True, False, True)),
])
def test_free_letters_match_the_fraction_reference(name, lower, upper):
    """Word normal forms and products, with the lower-free prefix and the
    upper-free suffix of each word only sorted in, equal plain rewriting."""
    alg = FREE_LETTER_ALGEBRAS[name]()
    assert (alg._lower_free, alg._upper_free) == (lower, upper)
    rng = random.Random(38)
    for _ in range(80):
        word = tuple(rng.randrange(alg.nv) for _ in range(rng.randint(2, 6)))
        want = fraction_normal_form(alg, [([("v", v) for v in word],)])
        assert _in_c_variables(alg, alg._word_normal(word)) == want, word
    for _ in range(20):
        a, b = random_element(alg, rng, max_degree=3), random_element(alg, rng, max_degree=3)
        assert term_maps(alg.multiply(a, b)) == reference_product(alg, a, b)



def _omega_s4():
    g = G.group_from_spec(S4_SPEC)
    return S.SRAlgebra.omega_form(g, G.symplectic_reflections(g))


HEAD_SPLIT_ALGEBRAS = {"s3-omega": lambda: engine_algebra("s3-omega"), "s4-omega": _omega_s4, **FREE_LETTER_ALGEBRAS}


@pytest.mark.parametrize("name", sorted(HEAD_SPLIT_ALGEBRAS))
def test_head_split_products_match_the_fraction_reference(name):
    """Products of two- and three-term elements equal plain rewriting, read
    through ``coefficients()`` (the packed words unpacked): ``multiply``
    adds each left word's lower-free letters into the normal form of the
    rest times each piece, and those letters need not lead the order."""
    alg = HEAD_SPLIT_ALGEBRAS[name]()
    assert any(alg._lower_free) and not all(alg._lower_free)
    rng = random.Random(40)

    def factor():
        terms = {}
        for _ in range(rng.choice((2, 3))):
            word = tuple(sorted(rng.randrange(alg.nv) for _ in range(rng.randint(0, 3))))
            exps = tuple(rng.randint(0, 1) for _ in range(alg.nparams))
            terms[(word, rng.randrange(alg.group.order))] = {exps: rat(rng.choice([1, -2, 3]), rng.choice([1, 2]))}
        return alg.element(terms)

    for _ in range(20 if name == "s4-omega" else 40):
        a, b = factor(), factor()
        assert term_maps(alg.multiply(a, b)) == reference_product(alg, a, b)


def test_words_refuse_to_carry(omega_alg2):
    """A word has fewer than 2^WORD_BITS letters, so a letter's field never
    carries into the next one and the field sums that read a word's length
    and x-degree stay exact: a product that could reach 2^WORD_BITS
    letters, a literal that writes one and a word that has one are
    refused, and one letter less multiplies."""
    alg = omega_alg2
    top = 1 << S.WORD_BITS
    x, y = alg.gen(0), alg.gen(1)
    long_x = alg.gen(0, top - 1)
    assert list(long_x.coefficients()) == [((0,) * (top - 1), 0)]
    assert alg.gen(0, top - 2) * x == long_x
    assert alg.parse("*".join(["x^100"] * 10) + "*x^23") == long_x
    # y moves past every x: the top term keeps all top - 1 letters
    got = y * alg.gen(0, top - 2)
    assert max(got.coefficients(), key=lambda k: len(k[0])) == ((0,) * (top - 2) + (1,), 0)
    assert (got.vdegree(), got.xdegree(), got.ydegree()) == (top - 1, top - 2, 1)
    for a, b in [(long_x, x), (y, long_x), (alg.gen(0, top // 2), alg.gen(1, top // 2))]:
        with pytest.raises(S.AlgebraError, match="2\\^%d letters" % S.WORD_BITS):
            a * b
    with pytest.raises(S.AlgebraError) as err:
        alg.parse("*".join(["x^100"] * 10) + "*x^24")
    assert not isinstance(err.value, S.LiteralError)
    for build in (lambda: alg.gen(0, top), lambda: alg.element({((0,) * top, 0): {(0, 0): 1}})):
        with pytest.raises(S.AlgebraError, match="2\\^%d" % S.WORD_BITS):
            build()

def _count_multiply(monkeypatch):
    calls = []
    inner = S.SRAlgebra.multiply

    def counting(self, a, b, xcap=None):
        calls.append(xcap)
        return inner(self, a, b, xcap)

    monkeypatch.setattr(S.SRAlgebra, "multiply", counting)
    return calls


def test_literal_letters_parse_without_multiplying(omega_alg3, monkeypatch):
    # a letter is one right insertion, a number a scaling and a group
    # element a relabeling: none of them multiplies
    calls = _count_multiply(monkeypatch)
    got = omega_alg3.parse("3*x1*y2*x1*s1*s2 - y1*x2")
    monkeypatch.undo()
    assert calls == []
    s12 = omega_alg3.parse("s1*s2")
    want = omega_alg3.gen(0) * omega_alg3.gen(3) * omega_alg3.gen(0) * s12 * 3 - omega_alg3.gen(2) * omega_alg3.gen(1)
    assert got == want


def test_pbw_pass_multiply_count(monkeypatch):
    # one pass of the benchmark's pbw workload at seed 1: 1536 triples, and
    # for each only the four products (ab)c and a(bc)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    pbw = workloads.Pbw()
    jobs = list(pbw.pass_jobs(1, 0, pbw.build(), {}))
    calls = _count_multiply(monkeypatch)
    for job in jobs:
        job.run()
    assert len(calls) == 4 * len(jobs) == 6144
