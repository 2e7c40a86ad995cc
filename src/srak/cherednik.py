"""Rational Cherednik presentation, Dunkl modules, and type-A reports.

For a finite rational W in GL(h) doubled onto V = h + h*, the algebra is
presented by

    [x, x'] = [y, y'] = 0,
    [y, x]  = t<y, x> - sum_s c(s) <x, a_s^vee> <y, a_s> s,

with a_s in h* and a_s^vee in h spanning the reflection lines and
normalized so <a_s, a_s^vee> = 2.  A per-reflection eigenvalue check
pins the nontrivial eigenvalue on h* to -1 (forced for rational matrices
of finite order with a one-dimensional moving line).

The lowest-weight polynomial module K[h] (x) tau carries x by
multiplication, W through its action twisted by tau, and y by the lowering
operator

    f (x) u  ->  t d_y f (x) u + SIGN * sum_s c(s) <y, a_s> ((f - s.f)/a_s) (x) tau(s) u,

whose sign is not taken from any convention: ``solve_module_sign``
recovers the unique sign making the defining relations hold and the
frozen constant ``MODULE_LOWERING_SIGN`` is regression-tested against
it.  The pairing of degree-d polynomials  B(f, g) = (f(D) g)(0)
(substitute lowering operators for the coordinates of f) detects
singular vectors through its kernel; total collapse of its rank detects
finite-dimensional simple quotients.

One coefficient representation runs from the lowering operator to the
rank: a module vector is a flat map keyed by (x-exponents, component,
packed (t, c)-monomial), as an ``sra`` element is, so the factors t and
c(s) above are key shifts; the pairing tower reads the lowered vectors
at t = 1 as packed Z[c] maps, and the scan ranks one integer matrix per
value of c.  On this side ``ParamPoly`` appears only in
``contravariant_gram``, the printed view of one degree.
"""

from math import lcm

from . import groups as G
from . import linalg
from .coeffs import ParamPoly, R0, R1, exact, parse_rational, rat, rat_str
from .coeffs import _kernel as K
from .sra import PACK_BITS, SRAElement, SRAlgebra, _lower, unpack_key
from .sra import monomials as _monomials

MODULE_LOWERING_SIGN = -1


class CherednikError(ValueError):
    pass


class Reflection:
    __slots__ = ("gid", "alpha", "alpha_vee", "orbit", "eigenvalue")

    def __init__(self, gid, alpha, alpha_vee, orbit, eigenvalue):
        self.gid = gid
        self.alpha = alpha
        self.alpha_vee = alpha_vee
        self.orbit = orbit
        self.eigenvalue = eigenvalue


class CherednikAlgebra:
    """Pairing-normalized presentation on V = h + h*.

    ``group`` is the doubled symplectic group (x-block, then y-block),
    ``reflections`` carry the root/coroot data, and ``algebra`` is the
    PBW engine with the commutator table of the displayed relations.
    Parameters stay symbolic; specialize elements as needed.
    """

    def __init__(self, group, rdata, reflections, algebra):
        self.group = group
        self.rdata = rdata
        self.reflections = reflections
        self.algebra = algebra
        self.h_dim = group.h_dim

    @property
    def nparams(self):
        return self.algebra.nparams

    def x_index(self, i):
        return i

    def y_index(self, i):
        return self.h_dim + i

    def x(self, i):
        return self.algebra.gen(self.x_index(i))

    def y(self, i):
        return self.algebra.gen(self.y_index(i))

    def group_elt(self, gid):
        return self.algebra.group_elt(gid)


def _line_generator(mat_minus_id, dim):
    cols = linalg.column_space_basis(mat_minus_id)
    if len(cols) != 1:
        raise CherednikError("moving space is not a line")
    return linalg.clear_denominators(list(cols[0]))


def reflection_alpha_data(group, rdata):
    """Root/coroot data for every reflection of a doubled group.

    alpha spans the moving line on h*, alpha_vee the moving line on h,
    scaled so the pairing is 2; the h*-eigenvalue is verified to be -1.
    """
    n = group.h_dim
    if n is None:
        raise CherednikError("group does not carry a doubled h-structure")
    out = []
    ident = linalg.mat_identity(n)
    for s in rdata.reflections:
        hs = [list(row) for row in group.hstar_block(s)]
        hb = [list(row) for row in group.h_block(s)]
        m_star = linalg.mat_sub(hs, ident)
        m_h = linalg.mat_sub(hb, ident)
        if linalg.mat_rank(m_star) != 1 or linalg.mat_rank(m_h) != 1:
            raise CherednikError("reflection does not move a line on h")
        alpha = _line_generator(m_star, n)
        avee = _line_generator(m_h, n)
        # eigenvalue on h*: s(alpha) = lambda * alpha
        img = linalg.mat_vec(hs, list(alpha))
        pivot = next(i for i, v in enumerate(alpha) if v)
        lam = img[pivot] / alpha[pivot]
        if list(linalg.mat_vec(hs, list(alpha))) != [lam * v for v in alpha]:
            raise CherednikError("moving line is not an eigenline")
        if lam != -R1:
            raise CherednikError("nontrivial reflection eigenvalue is not -1")
        pair = sum((a * b for a, b in zip(alpha, avee)), R0)
        if not pair:
            raise CherednikError("root/coroot pairing degenerates")
        avee = [rat(2) / pair * v for v in avee]
        out.append(Reflection(s, tuple(alpha), tuple(avee), rdata.orbit_of[s], lam))
    return out


def build_cherednik(spec_or_group, max_order=G.DEFAULT_MAX_ORDER):
    """Cherednik presentation from a group spec mapping or a built group."""
    if isinstance(spec_or_group, dict):
        group = G.group_from_spec(spec_or_group, max_order=max_order)
    else:
        group = spec_or_group
    if group.h_dim is None:
        raise CherednikError("group does not carry a doubled h-structure")
    rdata = G.symplectic_reflections(group)
    reflections = reflection_alpha_data(group, rdata)
    n = group.h_dim
    nparams = rdata.num_orbits + 1
    kappa = {}
    for i in range(n):
        for j in range(n):
            # [y_i, x_j]: basis index of y_i is n+i > j
            terms = {}
            if i == j:
                K.emap_axpy(terms, 0, {(1,) + (0,) * (nparams - 1): R1}, R1)
            for ref in reflections:
                coeff = -(ref.alpha_vee[j] * ref.alpha[i])
                if coeff:
                    e = [0] * nparams
                    e[ref.orbit + 1] = 1
                    K.emap_axpy(terms, ref.gid, {tuple(e): R1}, coeff)
            if terms:
                kappa[(n + i, j)] = tuple(sorted(terms.items()))
    alg = SRAlgebra(group, kappa, nparams, x_count=n, presentation="pairing", rdata=rdata)
    ch = CherednikAlgebra(group, rdata, reflections, alg)
    # spot-check the relations on all generator pairs
    for i in range(n):
        for j in range(n):
            com = alg.multiply(ch.y(i), ch.x(j)) - alg.multiply(ch.x(j), ch.y(i))
            expect = _pairing_commutator(ch, i, j)
            if com != expect:
                raise CherednikError("relation table failed its self-check")  # pragma: no cover
    return ch


def _pairing_commutator(ch, yi, xj):
    """[y_i, x_j] as dictated by the displayed relations."""
    alg = ch.algebra
    out = alg.zero()
    if yi == xj:
        out = out + alg.param(0)
    for ref in ch.reflections:
        coeff = -(ref.alpha_vee[xj] * ref.alpha[yi])
        if coeff:
            out = out + alg.group_elt(ref.gid).scale(ParamPoly.var(alg.nparams, ref.orbit + 1, coeff=coeff))
    return out


def convention_solve(ch):
    """Scalar mu with (form-normalized c) = mu * (pairing-normalized c).

    Determined by equating the two commutator tables; raises when no
    single scalar is consistent (an omega normalization bug).
    """
    rdata = ch.rdata
    n = ch.h_dim
    mu = None
    for ref in ch.reflections:
        for i in range(n):
            for j in range(n):
                yvec = tuple(R1 if k == n + i else R0 for k in range(2 * n))
                xvec = tuple(R1 if k == j else R0 for k in range(2 * n))
                ws = rdata.omega_s_eval(ref.gid, yvec, xvec)
                pair_coeff = -(ref.alpha_vee[j] * ref.alpha[i])
                if not ws and not pair_coeff:
                    continue
                if not ws:
                    raise CherednikError("no consistent conversion scalar (degenerate form value)")
                cand = pair_coeff / ws
                if mu is None:
                    mu = cand
                elif mu != cand:
                    raise CherednikError("no consistent conversion scalar")
    if mu is None:
        raise CherednikError("group has no reflections; conversion scalar is unconstrained")
    return mu


def euler_element(ch):
    """sum_i x_i y_i + dim(h)/2 - sum_s 2 c(s)/(1 - lambda_s) s, normal form."""
    alg = ch.algebra
    out = alg.scalar(rat(ch.h_dim, 2))
    for i in range(ch.h_dim):
        out = out + SRAElement(alg, {(alg.pack_word((ch.x_index(i), ch.y_index(i))), 0, 0): 1})
    for ref in ch.reflections:
        coeff = -(rat(2) / (R1 - ref.eigenvalue))
        out = out + alg.group_elt(ref.gid).scale(ParamPoly.var(alg.nparams, ref.orbit + 1, coeff=coeff))
    return out


# -- the lowest-weight polynomial module -------------------------------------


class StandardModule:
    """K[h] (x) tau with exact coefficients in Z[t, c] (Q[t, c] where the
    data needs it).

    A vector is the flat map {(exponent tuple over the x-coordinates, tau
    index, packed (t, c1..cr)-monomial): value}, the shape of an ``sra``
    element: ``sra.pack_key`` puts t in field 0 and orbit o in field
    o + 1, and values are ints wherever the data is integral (every value
    on S_n).  Multiplying by t or c_o adds one field unit to every key
    (``mul_param``).  A lowering raises the parameter degree by one as it
    lowers the x-degree, so no field of a vector grown from monomials
    carries.  ``tau`` maps every group id to an exact matrix; None means
    the trivial one-dimensional representation.
    """

    def __init__(self, ch, tau=None, sign=MODULE_LOWERING_SIGN):
        self.ch = ch
        self.n = ch.h_dim
        self.sign = _lower(sign)
        if tau is None:
            tau = {g: ((1,),) for g in range(ch.group.order)}
        else:
            tau = {g: tuple(tuple(_lower(x) for x in row) for row in m) for g, m in tau.items()}
            self._validate_tau(tau)
        self.tau = tau
        self.tau_dim = len(next(iter(tau.values())))
        self._images = {}  # (gid, exponents) -> the image of that x-monomial
        # each reflection with its root, integral entries as ints so the lowering stays on ints
        self._roots = [(ref, tuple(_lower(a) for a in ref.alpha)) for ref in ch.reflections]

    def _validate_tau(self, tau):
        grp = self.ch.group
        if set(tau) != set(range(grp.order)):
            raise CherednikError("tau must supply a matrix for every group element")
        size = len(tau[0])
        if not size or any(len(m) != size or any(len(row) != size for row in m) for m in tau.values()):
            raise CherednikError("tau matrices must be square, nonempty and all of one size")
        # tau(e) = 1 plus the Cayley edges is the whole group law
        # (FiniteSymplecticGroup.cayley_edges); it refuses tau = 0
        mats = {g: [list(r) for r in m] for g, m in tau.items()}
        if not linalg.mat_eq(mats[0], linalg.mat_identity(len(mats[0]))):
            raise CherednikError("tau matrices do not form a representation")
        for g, s, gs in grp.cayley_edges():
            if not linalg.mat_eq(linalg.mat_mul(mats[g], mats[s]), mats[gs]):
                raise CherednikError("tau matrices do not form a representation")

    # -- vector helpers -------------------------------------------------

    def zero(self):
        return {}

    def monomial(self, exps, comp=0, coeff=1):
        return {(tuple(exps), comp, 0): coeff}

    def add(self, u, v):
        return K.madd(u, v)

    def scale(self, u, c):
        return K.mscale(u, _lower(c))

    def degree(self, u):
        return max((sum(e) for (e, _, _) in u), default=0)

    def mul_x(self, i, u):
        return {(_shift(e, i), c, k): a for (e, c, k), a in u.items()}

    def mul_param(self, p, u):
        """Parameter p (t for p = 0, the orbit-o parameter for p = o + 1)
        times u: one field unit added to every key."""
        unit = 1 << (PACK_BITS * p)
        return {(e, c, k + unit): a for (e, c, k), a in u.items()}

    def _image(self, gid, e):
        """The image of x^e under ``gid`` as {exponents: coefficient},
        memoized and built one linear form at a time: with j the last
        variable of e, g.x^e = (g.x^(e - 1_j)) (g.x_j)."""
        hit = self._images.get((gid, e))
        if hit is None:
            j = max((i for i, k in enumerate(e) if k), default=None)
            if j is None:
                hit = {e: 1}
            else:
                block = self.ch.group.hstar_block(gid)  # x_j -> sum_i block[i][j] x_i
                form = {_shift((0,) * self.n, i): _lower(block[i][j]) for i in range(self.n) if block[i][j]}
                hit = K.mmul(self._image(gid, _shift(e, j, -1)), form)
            self._images[(gid, e)] = hit
        return hit

    def act_poly(self, gid, u):
        """The polynomial half of the action: exponents transform, the
        lowest-weight component is untouched."""
        out = {}
        for (e, comp, k), a in u.items():
            K.maxpy(out, {(mono, comp, k): b for mono, b in self._image(gid, e).items()}, a)
        return out

    def tau_mix(self, gid, u):
        """The lowest-weight half of the action: components transform."""
        tau = self.tau[gid]
        if self.tau_dim == 1:
            return self.scale(u, tau[0][0])
        out = {}
        for (e, comp, k), a in u.items():
            K.maxpy(out, {(e, c2, k): row[comp] for c2, row in enumerate(tau) if row[comp]}, a)
        return out

    def act(self, gid, u):
        """w . (f (x) u) = (w.f) (x) tau(w) u."""
        return self.tau_mix(gid, self.act_poly(gid, u))

    def _divided_difference(self, u, ref, alpha):
        """tau(s) ((u - s-poly. u)/alpha_s): divide the polynomial parts,
        then mix the lowest-weight components."""
        work = self.add(u, self.scale(self.act_poly(ref.gid, u), -1))
        pivot = next(i for i, v in enumerate(alpha) if v)
        inv = R1 / alpha[pivot]
        rest = [(i, a) for i, a in enumerate(alpha) if i != pivot and a]
        out = {}
        # divide by the linear form along the pivot variable, all terms of
        # the highest pivot exponent at once: subtracting q * (alpha - pivot
        # term) adds terms one pivot exponent lower, so no key repeats
        while work:
            top = max(e[pivot] for e, _, _ in work)
            if top == 0:
                raise CherednikError("division by the root form left a remainder")
            for e, comp, k in [key for key in work if key[0][pivot] == top]:
                e2 = _shift(e, pivot, -1)
                q = out[(e2, comp, k)] = _lower(work.pop((e, comp, k)) * inv)
                K.maxpy(work, {(_shift(e2, i), comp, k): b for i, b in rest}, -q)
        return self.tau_mix(ref.gid, out)

    def lowering(self, y_coeffs, u):
        """The y-action: t * directional derivative + reflection terms."""
        ys = [(i, _lower(a)) for i, a in enumerate(y_coeffs) if a]
        out = {}
        # t * d_y: t is the key's lowest field
        for (e, comp, k), a in u.items():
            K.maxpy(out, {(_shift(e, i, -1), comp, k + 1): y * e[i] for i, y in ys if e[i]}, a)
        # reflection corrections, each times its orbit parameter
        for ref, alpha in self._roots:
            pair = sum(y * alpha[i] for i, y in ys)
            if pair:
                dd = self.mul_param(ref.orbit + 1, self._divided_difference(u, ref, alpha))
                K.maxpy(out, dd, _lower(self.sign * pair))
        return out

    def lowering_basis(self, i, u):
        return self.lowering([1 if j == i else 0 for j in range(self.n)], u)


def solve_module_sign(ch, degree=3):
    """The unique sign making the module satisfy the defining relations."""
    good = []
    for sign in (1, -1):
        mod = StandardModule(ch, sign=sign)
        vectors = (mod.monomial(e) for d in range(degree + 1) for e in _monomials(ch.h_dim, d))
        if all(_y_x_commutator_holds(ch, mod, u) for u in vectors):
            good.append(sign)
    if len(good) != 1:
        raise CherednikError("module sign is not pinned by the relations")
    return good[0]


def _shift(e, i, k=1):
    """The exponent tuple e with k added at position i."""
    return e[:i] + (e[i] + k,) + e[i + 1 :]


def module_relation_report(ch, max_degree, tau=None):
    """Check every defining relation as operators on monomials up to degree.

    Relations: x's commute; y's commute; w x w^{-1} = (w x); w y w^{-1}
    = (w y); [y, x] equals its group-algebra value.  Returns a dict of
    per-relation booleans.
    """
    mod = StandardModule(ch, tau)
    ok = {
        "x_commute": True,
        "y_commute": True,
        "w_x_conjugation": True,
        "w_y_conjugation": True,
        "y_x_commutator": True,
    }
    n = ch.h_dim
    vectors = []
    for d in range(max_degree + 1):
        for e in _monomials(n, d):
            for comp in range(mod.tau_dim):
                vectors.append(mod.monomial(e, comp))
    grp = ch.group
    for u in vectors:
        for i in range(n):
            for j in range(i + 1, n):
                a = mod.mul_x(i, mod.mul_x(j, u))
                b = mod.mul_x(j, mod.mul_x(i, u))
                if a != b:
                    ok["x_commute"] = False
                a = mod.lowering_basis(i, mod.lowering_basis(j, u))
                b = mod.lowering_basis(j, mod.lowering_basis(i, u))
                if a != b:
                    ok["y_commute"] = False
        for g in range(grp.order):
            hst = grp.hstar_block(g)
            hb = grp.h_block(g)
            for j in range(n):
                # w x_j w^{-1} = sum_i hst[i][j] x_i
                lhs = mod.act(g, mod.mul_x(j, mod.act(grp.inv[g], u)))
                rhs = {}
                for i in range(n):
                    if hst[i][j]:
                        rhs = mod.add(rhs, mod.scale(mod.mul_x(i, u), hst[i][j]))
                if lhs != rhs:
                    ok["w_x_conjugation"] = False
                lhs = mod.act(g, mod.lowering_basis(j, mod.act(grp.inv[g], u)))
                rhs = mod.lowering([hb[i][j] for i in range(n)], u)
                if lhs != rhs:
                    ok["w_y_conjugation"] = False
        if not _y_x_commutator_holds(ch, mod, u):
            ok["y_x_commutator"] = False
    return ok


def _y_x_commutator_holds(ch, mod, u):
    """Whether every [y_i, x_j] acts on the vector u as its group-algebra value."""
    n = ch.h_dim
    for i in range(n):
        for j in range(n):
            lhs = mod.add(
                mod.lowering_basis(i, mod.mul_x(j, u)),
                mod.scale(mod.mul_x(j, mod.lowering_basis(i, u)), -1),
            )
            rhs = mod.mul_param(0, u) if i == j else {}
            for ref in ch.reflections:
                coeff = -(ref.alpha_vee[j] * ref.alpha[i])
                if coeff:
                    K.maxpy(rhs, mod.mul_param(ref.orbit + 1, mod.act(ref.gid, u)), _lower(coeff))
            if lhs != rhs:
                return False
    return True


# -- contravariant pairing ----------------------------------------------------


def determinant_character(ch):
    """The one-dimensional character w -> det(w on h), as tau matrices."""
    return {g: ((linalg.mat_det([list(r) for r in ch.group.h_block(g)]),),) for g in range(ch.group.order)}


def packed_gram_tower(ch, cutoff, c_values=None, tau=None):
    """Pairing matrices B_d(f, g) = (f(D) g)(0) for d = 0..cutoff at t = 1,
    with packed Z[c] entries.

    One pass by degree recursion (the contravariant form of Dunkl, de
    Jeu and Opdam, 1994): peel the lowest index i with f_i > 0, so that
    f = x_i f', and

        B_d(f, g) = sum_h B_{d-1}(f', h) (D_i g)_h

    over the degree-(d-1) support of D_i g.  f(D) applies all D_0 first,
    then D_1, ..., and peeling the lowest index keeps exactly that order,
    so every entry equals the per-pair definition even where the D's fail
    to commute.  A degree costs n * dim_d lowering applications (one per
    coordinate and column) instead of d * dim_d^2; only the previous
    degree's matrix and monomial index are kept while building.

    D_i is the lowering operator of the i-th dual basis vector
    (``StandardModule.lowering_basis``), and D_i g is already a packed
    map in (t, c).  Its coefficients are read at t = 1 (and at
    ``c_values``, which may name the first few orbits) by dropping the t
    field of each key (``_packed_at_t1``), which leaves one int key per
    c-monomial: the exponent of orbit o in bits [PACK_BITS*o,
    PACK_BITS*(o+1)), so a one-orbit key is the exponent of c itself.
    Values are ints where integral (every value on S_n) and ``Fraction``
    otherwise.  Each entry accumulates through
    ``coeffs._kernel.emap_addmul``; specializing before the products gives
    the same values, as specialization is a ring homomorphism.

    Returns a list of (monomials, rows) per degree, with each row a
    sparse map {column: packed polynomial} that omits zero entries.
    """
    if cutoff < 0:
        raise CherednikError("the pairing degree must be non-negative, got %d" % cutoff)
    mod = StandardModule(ch, tau=tau)
    if mod.tau_dim != 1:
        raise CherednikError("the pairing matrix is implemented for one-dimensional lowest weights")
    n = ch.h_dim
    fixed = [(PACK_BITS * o, exact(v)) for o, v in enumerate(c_values or ())]
    prev_index = {(0,) * n: 0}
    prev_rows = [{0: {0: 1}}]
    tower = [([(0,) * n], prev_rows)]
    for d in range(1, cutoff + 1):
        monos = _monomials(n, d)
        # lowered[i][k]: D_i of the k-th monomial as (previous index, packed value) pairs
        lowered = []
        for i in range(n):
            cols = []
            for g in monos:
                vec = _packed_at_t1(mod.lowering_basis(i, mod.monomial(g)), fixed)
                cols.append([(prev_index[e], val) for e, val in vec.items() if val])
            lowered.append(cols)
        rows = []
        for f in monos:
            i = next(j for j, k in enumerate(f) if k)
            prev_row = prev_rows[prev_index[_shift(f, i, -1)]]
            row = {}
            # every lowered coefficient has c-degree <= 1, so a degree-d
            # entry has exponents <= d and no packed field carries
            for j, col in enumerate(lowered[i]):
                for h, val in col:
                    if h in prev_row:
                        K.emap_addmul(row, j, prev_row[h], val, 1)
            rows.append(row)
        tower.append((monos, rows))
        prev_index = {e: k for k, e in enumerate(monos)}
        prev_rows = rows
    return tower


def _packed_at_t1(vec, fixed):
    """A module vector's coefficients at t = 1 and at the orbit values
    ``fixed`` ((field shift, value) pairs) as {exponents: packed Z[c]
    map}, integral values made ints: dropping the t field is
    ``key >> PACK_BITS``, after which orbit o sits in field o."""
    mask = (1 << PACK_BITS) - 1
    out = {}
    for (e, _, key), a in vec.items():
        key >>= PACK_BITS
        for shift, v in fixed:
            k = (key >> shift) & mask
            if k:
                a = a * v**k
                key -= k << shift
        poly = out.setdefault(e, {})
        poly[key] = poly.get(key, 0) + a
    return {e: {key: _lower(a) for key, a in poly.items() if a} for e, poly in out.items()}


def _unpacked(m, nparams):
    """A packed map at t = 1 as a ``ParamPoly`` with ``Fraction`` values."""
    return ParamPoly(nparams, {(0,) + unpack_key(key, nparams - 1): exact(a) for key, a in m.items()})


def contravariant_gram(ch, d, c_values=None, tau=None):
    """Gram matrix of B(f, g) = (f(D) g)(0) on degree-d monomials at t = 1.

    f(D) substitutes the lowering operator of the dual basis vector for
    each coordinate.  In a basis that is not orthonormal for the
    invariant metric this raw pairing need not be symmetric; it is
    congruent to the symmetric form (metric duals substituted instead),
    so its ranks and kernels, which are all the scan verdicts consume,
    are those of the symmetric form.  B_0 = 1.

    The degree-d level of ``packed_gram_tower`` (which peels the lowest
    index of each row monomial, f = x_i f', with B_d(f, g) = sum_h
    B_{d-1}(f', h) (D_i g)_h, at a cost of n * dim_k lowering
    applications for each degree k <= d), rows made dense and each entry
    converted once to a ``ParamPoly``: the parameter-polynomial view that
    ``cherednik gram`` prints.

    ``tau`` restricts to one-dimensional lowest weights here (matrices
    per group element); None means trivial.  Entries are parameter
    polynomials in the orbit parameters (constants when ``c_values``
    specializes them all).  Row/column order is the sorted exponent
    order of ``sra.monomials``.
    """
    monos, rows = packed_gram_tower(ch, d, c_values=c_values, tau=tau)[d]
    return monos, [[_unpacked(row.get(j, {}), ch.nparams) for j in range(len(monos))] for row in rows]


def gram_rank(rows):
    """Rank of a ``contravariant_gram`` matrix at specialized parameters."""
    if not all(p.is_const() for row in rows for p in row):
        raise CherednikError("rank needs specialized parameters")
    return linalg.rank([[p.const_value() for p in row] for row in rows], len(rows))


def gram_kernel_vectors(ch, d, c_values):
    """Kernel of the degree-d pairing at specialized parameters, as module
    vectors with constant coefficients (the singular-vector candidates).
    ``c_values`` must name every orbit: an entry left with a parameter
    raises ``CherednikError``, as in ``gram_rank``."""
    monos, rows = packed_gram_tower(ch, d, c_values=c_values)[d]
    if any(key for row in rows for entry in row.values() for key in entry):
        raise CherednikError("kernel needs specialized parameters")
    num = [[row.get(j, {}).get(0, 0) for j in range(len(monos))] for row in rows]
    return [{(e, 0, 0): _lower(a) for a, e in zip(v, monos) if a} for v in linalg.nullspace(num, len(monos))]


def _rank_profile_verdict(ranks, cutoff):
    if cutoff == 0:
        # the degree-0 rank is always 1: a profile of it alone decides nothing
        return {"verdict": "inconclusive", "ranks": ranks}
    first_zero = next((d for d, r in enumerate(ranks) if r == 0), None)
    if first_zero is not None and all(r == 0 for r in ranks[first_zero:]):
        return {"verdict": "finite", "dim": sum(ranks), "ranks": ranks}
    if ranks[-1] > 0:
        return {"verdict": "infinite", "witness_degree": cutoff, "ranks": ranks}
    return {"verdict": "inconclusive", "ranks": ranks}


def scan_grams(ch, cutoff):
    """Packed pairing towers for both one-dimensional lowest weights
    (trivial and determinant), reusable across parameter values.

    One ``packed_gram_tower`` per weight builds every degree up to the
    cutoff by the lowest-index recursion, at n * dim_d lowering
    applications per degree d (88 per weight for S3 at cutoff 8, against
    1740 pair by pair).  Each weight maps to its list of degree-d
    matrices, kept as they are: sparse rows of packed Z[c] entries.
    """
    return {
        "trivial": [rows for _, rows in packed_gram_tower(ch, cutoff)],
        "determinant": [rows for _, rows in packed_gram_tower(ch, cutoff, tau=determinant_character(ch))],
    }


def _integer_matrix(rows, p, q):
    """The int matrix L * q^D * B(p/q) of a square one-orbit packed matrix
    (keys are exponents of c): D is its largest c-degree and L the least
    common multiple of its value denominators, so entry sum_k a_k c^k
    becomes sum_k L a_k p^k q^(D-k)."""
    entries = [e for row in rows for e in row.values()]
    top = max((k for e in entries for k in e), default=0)
    fractions = [a for e in entries for a in e.values() if type(a) is not int]
    den = lcm(*(a.denominator for a in fractions))
    weights = [den * p**k * q ** (top - k) for k in range(top + 1)]
    out = []
    for row in rows:
        line = [0] * len(rows)
        for j, e in row.items():
            line[j] = sum(a * weights[k] for k, a in e.items())
        out.append(line)
    if fractions:
        # each sum is a Fraction with denominator 1
        out = [[int(x) for x in line] for line in out]
    return out


def scan_one(grams, cutoff, cval):
    """Per-parameter verdict from the packed towers of ``scan_grams``.

    For c = p/q each degree-d matrix gives one int matrix L * q^D *
    B_d(p/q) (``_integer_matrix``); a nonzero scale keeps the rank, which
    ``linalg.integer_rank`` takes by fraction-free elimination.  No
    parameter polynomial or ``Fraction`` matrix is built per value.

    A finite-dimensional quotient on either one-dimensional lowest
    weight certifies the algebra-level verdict "finite"; the reported
    dimension is the collapsing module's.
    """
    p, q = cval.numerator, cval.denominator
    profiles = {}
    for name, gs in grams.items():
        ranks = [linalg.integer_rank(_integer_matrix(gs[d], p, q)) for d in range(cutoff + 1)]
        profiles[name] = _rank_profile_verdict(ranks, cutoff)
    finite = [name for name, pr in profiles.items() if pr["verdict"] == "finite"]
    if finite:
        name = finite[0]
        out = {"verdict": "finite", "dim": profiles[name]["dim"], "witness_weight": name}
    elif all(pr["verdict"] == "infinite" for pr in profiles.values()):
        out = {"verdict": "infinite", "witness_degree": cutoff}
    else:
        out = {"verdict": "inconclusive"}
    out["ranks"] = profiles["trivial"]["ranks"]
    out["profiles"] = {name: pr["ranks"] for name, pr in profiles.items()}
    out["c"] = rat_str(cval)
    return out


def finite_dim_scan(ch, c_list, cutoff):
    """Rank profile of the pairing for each parameter value.

    Both one-dimensional lowest weights (trivial and determinant) are
    scanned; the verdicts are "finite" (some rank profile reaches 0 at a
    degree <= cutoff and stays 0 through it; the dimension is the sum of
    that profile's surviving ranks), "infinite" (every profile still has
    positive rank at the cutoff), or "inconclusive" (always at cutoff 0,
    where the only rank is the degree-0 one, which is 1).  The scan never
    extrapolates beyond the cutoff.
    """
    if ch.nparams != 2:
        raise CherednikError("scan expects a single reflection orbit")
    cvals = [parse_rational(c) if isinstance(c, str) else exact(c) for c in c_list]
    if not cvals:
        raise CherednikError("the scan names no parameter value")
    grams = scan_grams(ch, cutoff)
    return [scan_one(grams, cutoff, cval) for cval in cvals]


# -- type A -------------------------------------------------------------------


def leaf_support_label(n, m, j):
    """Young-subgroup fixed-locus label and its symplectic dimension."""
    if m <= 0:
        raise CherednikError("m must be positive")
    if j * m > n:
        raise CherednikError("the Young subgroup does not fit: j*m > n")
    if j == 0:
        label = "full space"
        subgroup = "trivial"
    else:
        subgroup = " x ".join(["S%d" % m] * j)
        label = "pi(V^(%s))" % subgroup
    dim = 2 * (n - 1) - 2 * j * (m - 1)
    return {"subgroup": subgroup, "label": label, "dimension": dim}


def type_a_report(n, c, slice_cutoff=None, include_slice_evidence=True):
    """Ideal-lattice prediction for the symmetric group on n letters.

    For c = q/m in lowest terms with 1 < m <= n the algebra at t = 1 is
    predicted non-simple with exactly s = floor(n/m) proper two-sided
    ideals, nested, labeled by the Young subgroups S_m^(x j); otherwise it
    is predicted simple.  The ideal count is a recorded prediction; the
    attached computational evidence is the rank collapse of the slice
    pairing for S_m at the same parameter.  A slice cutoff of 0 is
    refused: a cutoff-0 scan is always inconclusive, so it cannot decide
    the evidence either way.
    """
    if n < 2:
        raise CherednikError("n must be at least 2")
    if slice_cutoff == 0:
        raise CherednikError("a slice cutoff of 0 decides nothing: the degree-0 pairing rank is always 1")
    cval = parse_rational(c) if isinstance(c, str) else exact(c)
    q, m = int(cval.numerator), int(cval.denominator)
    report = {
        "n": n,
        "c": rat_str(cval),
        "q": q,
        "m": m,
    }
    if m <= 1 or m > n or q == 0:
        report["simple"] = True
        report["reason"] = "denominator m=%d is not in the range 1 < m <= n" % m
        return report
    s = n // m
    report["simple"] = False
    report["ideal_count"] = s
    chain = []
    for j in range(1, s + 1):
        lab = leaf_support_label(n, m, j)
        chain.append({"index": j, "subgroup": lab["subgroup"], "variety": lab["label"], "dimension": lab["dimension"]})
    report["ideal_chain"] = chain
    report["chain_strict"] = True
    if include_slice_evidence:
        ch = build_cherednik({"builtin": {"type": "symmetric", "n": m, "rep": "reflection"}})
        cutoff = slice_cutoff if slice_cutoff is not None else (abs(q) - 1) * (m - 1) + 2
        scan = finite_dim_scan(ch, [cval], cutoff)
        report["slice_group"] = "S%d" % m
        report["slice_scan"] = scan[0]
        report["slice_has_finite_dim_module"] = scan[0]["verdict"] == "finite"
    return report
