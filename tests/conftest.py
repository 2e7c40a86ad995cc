from fractions import Fraction

import pytest

from srak import centralizer as C
from srak import cherednik as CH
from srak import groups as G
from srak import linalg
from srak import sra as S
from srak.coeffs import ParamPoly, R0, R1, rat


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import LINES
    except ImportError:
        return
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)


S2_SPEC = {"builtin": {"type": "symmetric", "n": 2, "rep": "reflection"}, "gen_names": ["s"]}
S3_SPEC = {"builtin": {"type": "symmetric", "n": 3, "rep": "reflection"}, "gen_names": ["s1", "s2"]}
S4_SPEC = {"builtin": {"type": "symmetric", "n": 4, "rep": "reflection"}}
S3_PERM_SPEC = {"builtin": {"type": "symmetric", "n": 3, "rep": "permutation"}}
# the product of two rank-one groups: two reflection orbits, and h splits
# into two lines that no group element mixes
PRODUCT_SPEC = {
    "dim_h": 2,
    "generators_on_h": [[["-1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]]],
    "gen_names": ["s1", "s2"],
}
WEYL_SPEC = {"dim_h": 1, "generators_on_h": []}


@pytest.fixture(scope="session")
def g2():
    return G.group_from_spec(S2_SPEC)


@pytest.fixture(scope="session")
def g3():
    return G.group_from_spec(S3_SPEC)


@pytest.fixture(scope="session")
def rd2(g2):
    return G.symplectic_reflections(g2)


@pytest.fixture(scope="session")
def rd3(g3):
    return G.symplectic_reflections(g3)


@pytest.fixture(scope="session")
def ch2():
    return CH.build_cherednik(S2_SPEC)


@pytest.fixture(scope="session")
def ch3():
    return CH.build_cherednik(S3_SPEC)


@pytest.fixture(scope="session")
def ch4():
    return CH.build_cherednik(S4_SPEC)


@pytest.fixture(scope="session")
def ch3perm():
    return CH.build_cherednik(S3_PERM_SPEC)


@pytest.fixture(scope="session")
def chprod():
    return CH.build_cherednik(PRODUCT_SPEC)


@pytest.fixture(scope="session")
def omega_alg2(g2, rd2):
    return S.SRAlgebra.omega_form(g2, rd2)


@pytest.fixture(scope="session")
def omega_alg3(g3, rd3):
    return S.SRAlgebra.omega_form(g3, rd3)


def group_algebra_context(grp, sub):
    """Coset matrices of (grp, sub) over the group algebra of grp: the
    group-only elements of an algebra with no commutator table."""
    return C.CentralizerContext(grp, sub, S.SRAlgebra(grp, {}, 1).group_elt)


def dense_product(a, b):
    """Reference coset-matrix product: every one of the k^3 entry products,
    zero factors included, summed in the order of the middle index."""
    k = a.ctx.k
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = a.ctx.zero_entry
            for l in range(k):
                acc = acc + a.mat[i][l] * b.mat[l][j]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def tampered_iso(ch, spec, b, order):
    """Completion isomorphism at b of a build of ``spec`` whose form of the
    first reflection fixing b is sign-flipped, with mu from ``ch``, the
    untampered build."""
    from srak import completion as CP
    from srak.selftest import tampered_cherednik

    sub = set(G.stabilizer(ch.group, tuple(b) + (R0,) * len(b)))
    s_star = next(s for s in ch.rdata.reflections if s in sub)
    bad_ch, _ = tampered_cherednik(spec, s_star)
    return CP.completion_iso_with_mu(bad_ch, b, order, CH.convention_solve(ch))


def reference_telt_product(a, b):
    """Reference truncated product, without the product memo: the order
    debit of ``completion.TElt.__mul__`` on the factors' own values, one
    ``multiply`` of the two values as they are, truncated again at the
    effective order."""
    from srak import completion as CP

    if not isinstance(b, CP.TElt):
        return CP.TElt(a.parent, a.value.scale(b), a.order)
    cap = a.parent.order
    new_order = None
    if a.order is not None:
        new_order = a.order - b.value.ydegree()
    if b.order is not None:
        o = b.order - a.value.ydegree()
        new_order = o if new_order is None else min(new_order, o)
    eff = cap if new_order is None else min(cap, new_order)
    if eff <= 0:
        raise CP.CompletionError("truncation order exhausted: product is valid to order <= 0")
    if new_order is None and a.value.xdegree() + b.value.xdegree() >= eff:
        new_order = eff
    v = a.parent.algebra.multiply(a.value, b.value, xcap=eff)
    return CP.TElt(a.parent, v.truncate_x(eff), new_order)


def exhaustive_relations(iso):
    """Reference verdicts of the completion relations, group part on every
    element: the group law on all |G|^2 pairs (with no separate check of
    w_e, so w = 0 passes it) and conjugation by every w_g.  Returns
    {relation name: pass}."""
    from srak import completion as CP

    ch, grp, n, order = iso.ch, iso.ch.group, iso.ch.h_dim, iso.order - 1
    X, Y, W = iso.x_images, iso.y_images, iso.w_images
    names = ("group_multiplicativity", "w_x_conjugation", "w_y_conjugation", "x_commute", "y_commute", "y_x_commutator")
    verdicts = dict.fromkeys(names, True)

    def record(name, a, b):
        verdicts[name] = verdicts[name] and CP._matrices_agree(a, b, order)[0]

    def combination(images, block, j):
        out = iso.ctx.zero()
        for l in range(n):
            if block[l][j]:
                out = out + images[l].scale(block[l][j])
        return out

    for i in range(n):
        for j in range(i + 1, n):
            record("x_commute", X[i] * X[j], X[j] * X[i])
            record("y_commute", Y[i] * Y[j], Y[j] * Y[i])
        for j in range(n):
            record("y_x_commutator", Y[i] * X[j] - X[j] * Y[i], CP._pairing_rhs_matrix(iso, i, j))
    for g in range(grp.order):
        for j in range(n):
            record("w_x_conjugation", W[g] * X[j] * W[grp.inv[g]], combination(X, grp.hstar_block(g), j))
            record("w_y_conjugation", W[g] * Y[j] * W[grp.inv[g]], combination(Y, grp.h_block(g), j))
        for h in range(grp.order):
            record("group_multiplicativity", W[g] * W[h], W[grp.mul(g, h)])
    return verdicts


def unpacked(vec, nparams):
    """A Dunkl module vector {(exponents, component, packed (t, c) key):
    value} as {(exponents, component): ParamPoly}: the one place the tests
    read packed module values."""
    out = {}
    for (e, comp, key), a in vec.items():
        out.setdefault((e, comp), {})[S.unpack_key(key, nparams)] = Fraction(a)
    return {k: ParamPoly(nparams, terms) for k, terms in out.items()}


def pairwise_gram(ch, d, c_values=None, tau=None):
    """Reference pairing matrix: B(f, g) = (f(D) g)(0) pair by pair, with
    f(D) applying every D_0 first, then D_1, ..., and specializing at t = 1
    (and at ``c_values``) only at the end, through ``ParamPoly.specialize``."""
    mod = CH.StandardModule(ch, tau=tau)
    n = ch.h_dim
    spec = {0: R1}
    for i, v in enumerate(c_values or ()):
        spec[i + 1] = rat(v) if isinstance(v, int) else v
    monos = S.monomials(n, d)
    rows = []
    for f in monos:
        row = []
        for g in monos:
            vec = mod.monomial(g)
            for i in range(n):
                for _ in range(f[i]):
                    vec = mod.lowering_basis(i, vec)
            row.append(unpacked(vec, ch.nparams).get(((0,) * n, 0), ParamPoly.zero(ch.nparams)).specialize(spec))
        rows.append(row)
    return monos, rows


def reference_scan(ch, c_values, cutoff):
    """Reference scan, one value at a time: both symbolic towers as
    ``ParamPoly`` matrices (``contravariant_gram`` per degree), then for
    each c every entry specialized (``ParamPoly.specialize``) and every
    matrix ranked over ``Fraction`` (``linalg.rank``); the verdicts
    combine as in ``cherednik.scan_one``."""
    towers = {name: [CH.contravariant_gram(ch, d, tau=tau) for d in range(cutoff + 1)]
              for name, tau in (("trivial", None), ("determinant", CH.determinant_character(ch)))}
    out = []
    for c in c_values:
        cval = Fraction(c)
        profiles = {}
        for name, tower in towers.items():
            ranks = []
            for monos, rows in tower:
                num = [[p.specialize({1: cval}).const_value() for p in row] for row in rows]
                ranks.append(linalg.rank(num, len(monos)))
            profiles[name] = CH._rank_profile_verdict(ranks, cutoff)
        finite = [name for name, pr in profiles.items() if pr["verdict"] == "finite"]
        if finite:
            rec = {"verdict": "finite", "dim": profiles[finite[0]]["dim"], "witness_weight": finite[0]}
        elif all(pr["verdict"] == "infinite" for pr in profiles.values()):
            rec = {"verdict": "infinite", "witness_degree": cutoff}
        else:
            rec = {"verdict": "inconclusive"}
        rec["ranks"] = profiles["trivial"]["ranks"]
        rec["profiles"] = {name: pr["ranks"] for name, pr in profiles.items()}
        rec["c"] = str(cval)
        out.append(rec)
    return out


def dense_rref(rows, ncols):
    """Reference reduced row-echelon form by dense Gauss-Jordan elimination:
    for each column in turn, the first remaining row with a nonzero entry
    there is swapped up, scaled to a leading 1 and cleared from every other
    row (a clearing step visits only the columns where the pivot row is
    nonzero).  Returns (rows, pivot_columns)."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = R1 / m[r][c]
        m[r] = top = [x * inv for x in m[r]]
        nonzero = [(j, y) for j, y in enumerate(top) if y]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                for j, y in nonzero:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
    return m[:r], pivots


def fraction_normal_form(alg, terms):
    """Reference PBW normal form of a sum of words by plain rewriting over
    Fraction, in the public parameters.  Each term is (letters, coefficient,
    ...), its coefficients multiplied; a letter is ("v", basis index) or
    ("g", group id), a coefficient {exponents: value}.
    Rules, first applicable position first: adjacent group letters multiply;
    g v becomes sum_l mats[g][l][v] v_l g; once every group letter sits at
    the end, an inverted pair v_j v_i (j > i) becomes v_i v_j plus alg.kappa's
    (j, i) terms, each with its group letter in place of the pair.
    Returns {(sorted word, gid): {exponents: Fraction}}, zeros pruned."""
    mats, mul, arity = alg.group.mats, alg.group.mul, alg.nparams
    memo = {}

    def add(out, key, poly, scale):
        acc = out.setdefault(key, {})
        for e, c in poly.items():
            acc[e] = acc.get(e, Fraction(0)) + Fraction(scale) * Fraction(c)
            if not acc[e]:
                del acc[e]
        if not acc:
            del out[key]

    def times(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + Fraction(c1) * Fraction(c2)
        return {e: c for e, c in out.items() if c}

    def nf(word):
        if word in memo:
            return memo[word]
        out = {}
        pairs = list(enumerate(zip(word, word[1:])))
        gpos = next((k for k, (a, b) in pairs if a[0] == "g"), None)
        if gpos is not None:
            (_, g), (kind, v) = word[gpos], word[gpos + 1]
            rest, head = word[gpos + 2 :], word[:gpos]
            if kind == "g":
                moves = [(head + (("g", mul(g, v)),) + rest, 1)]
            else:
                moves = [(head + (("v", l), ("g", g)) + rest, mats[g][l][v]) for l in range(alg.nv) if mats[g][l][v]]
            for w, scale in moves:
                for key, p in nf(w).items():
                    add(out, key, p, scale)
        else:
            inv = next((k for k, (a, b) in pairs if a[0] == b[0] == "v" and a[1] > b[1]), None)
            if inv is None:
                vecs = tuple(i for kind, i in word if kind == "v")
                gid = word[-1][1] if word and word[-1][0] == "g" else 0
                out = {(vecs, gid): {(0,) * arity: Fraction(1)}}
            else:
                (_, j), (_, i) = word[inv], word[inv + 1]
                head, rest = word[:inv], word[inv + 2 :]
                for key, p in nf(head + (("v", i), ("v", j)) + rest).items():
                    add(out, key, p, 1)
                for gid, kpoly in alg.kappa.get((j, i), ()):
                    for key, p in nf(head + (("g", gid),) + rest).items():
                        add(out, key, times(kpoly, p), 1)
        memo[word] = out
        return out

    out = {}
    for letters, *coeffs in terms:
        coeff = {(0,) * arity: Fraction(1)}
        for q in coeffs:
            coeff = times(coeff, q)
        for key, p in nf(tuple(letters)).items():
            add(out, key, times(coeff, p), 1)
    return out


def dense_flatten(elt, slots):
    """Reference coordinates of an element: a dense list over every
    (mono, gid, param-exponent) slot known so far, new slots appended."""
    vec = [R0] * len(slots)
    for (m, g), p in elt.coefficients().items():
        for pe, c in p.terms.items():
            idx = slots.get((m, g, pe))
            if idx is None:
                slots[(m, g, pe)] = idx = len(slots)
            while len(vec) < len(slots):
                vec.append(R0)
            vec[idx] = vec[idx] + c
    return vec


def dense_padded(elts, slots):
    """``dense_flatten`` of each element, all padded to the final width."""
    vecs = [dense_flatten(z, slots) for z in elts]
    return [v + [R0] * (len(slots) - len(v)) for v in vecs]


def dense_rank(vecs, ncols):
    return len(dense_rref(vecs, ncols)[1])


def dense_nullspace(rows, ncols):
    """Reference null space from ``dense_rref``: one vector per free column,
    1 there, 0 at the other free columns."""
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [R0] * ncols
        v[f] = R1
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def _dense_specialize(elt, t, c_values):
    """t first, then c, in two passes."""
    if t is not None:
        elt = elt.specialize(t=t)
    if c_values is not None:
        elt = elt.specialize(c=c_values)
    return elt


def key_element(alg, key):
    """The element c^pe (m, g) of a coordinate key (m, g, pe)."""
    m, g, pe = key
    return alg.element({(m, g): {pe: R1}})


def reference_center(alg, d, c_values=None, include_t=False):
    """Reference degree-truncated center at t = 0: each candidate's
    commutators with the basis vectors and group generators as dense
    columns over every slot, stacked into one dense matrix whose null space
    ``dense_nullspace`` takes; with symbolic parameters, weight by weight,
    keeping the elements that raise the dense rank over the parameter
    multiples of the weight below.  Returns (elements, graded_dims)."""
    test_elts = [alg.gen(i) for i in range(alg.nv)] + [alg.group_elt(g) for g in alg.group.generator_ids]
    t = None if include_t else R0

    def combinations(basis_elts):
        slots = {}
        cols = [[dense_flatten(_dense_specialize(z.commutator(u), t, c_values), slots) for u in test_elts]
                for z in basis_elts]
        width = len(slots)
        cols = [[v + [R0] * (width - len(v)) for v in col] for col in cols]
        rows = [[col[r][s] for col in cols] for r in range(len(test_elts)) for s in range(width)]
        out = []
        for v in dense_nullspace(rows, len(basis_elts)):
            acc = alg.zero()
            for coef, z in zip(linalg.clear_denominators(v), basis_elts):
                if coef:
                    acc = acc + z.scale(coef)
            out.append(acc)
        return out

    dims = [0] * (d + 1)
    if c_values is not None:
        elements = combinations([key_element(alg, k) for k in S._coord_keys(alg, d, c_values, include_t)])
        elements.sort(key=lambda e: (e.vdegree(), sorted(e.coefficients())))
        for e in elements:
            dims[e.vdegree()] += 1
        return elements, dims
    elements, by_weight = [], {}
    pvars = list(range(alg.nparams)) if include_t else list(range(1, alg.nparams))
    keys = S._coord_keys(alg, d, None, include_t)
    for w in range(d + 1):
        found = combinations([key_element(alg, k) for k in keys if len(k[0]) + 2 * sum(k[2]) == w])
        by_weight[w] = found
        old = [z.scale(ParamPoly.var(alg.nparams, pv)) for z in by_weight.get(w - 2, []) for pv in pvars]
        slots = {}
        vecs = dense_padded(old + found, slots)
        kept = []
        for i, v in enumerate(vecs):
            if dense_rank(kept + [v], len(slots)) > len(kept):
                kept.append(v)
                if i >= len(old):
                    elements.append(found[i - len(old)])
                    dims[found[i - len(old)].vdegree()] += 1
    return elements, dims


def spherical_corner(alg, a):
    """e a e with the spherical idempotent e, by two full products."""
    e = S.spherical_idempotent(alg)
    return alg.multiply(alg.multiply(e, a), e)


def reference_satake(alg, basis, d, c_values=None):
    """Reference ``sra.satake_corner_check``: dense ranks of e z and of the
    corners e m e (two full products each), specialized c first, then
    t = 0."""
    from itertools import combinations_with_replacement

    e = S.spherical_idempotent(alg)
    slots = {}
    vecs = dense_padded([_dense_specialize(alg.multiply(e, z), None, c_values).specialize(t=R0) for z in basis], slots)
    injective = dense_rank(vecs, len(slots)) == len(basis)
    corners = []
    for deg in range(d + 1):
        for m in combinations_with_replacement(range(alg.nv), deg):
            z = alg.element({(m, 0): ParamPoly.one(alg.nparams)})
            corners.append(_dense_specialize(spherical_corner(alg, z), R0, c_values))
    slots2 = {}
    corner_dim = dense_rank(dense_padded(corners, slots2), len(slots2))
    return {"injective": injective, "corner_dim": corner_dim, "basis_size": len(basis),
            "spans_corner": injective and corner_dim == len(basis)}
