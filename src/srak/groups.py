"""Finite rational matrix groups acting symplectically.

Groups are built by closure from generating matrices that preserve a
fixed nondegenerate skew form.  Elements are kept as tuples of tuples of
exact rationals; identity of elements is identity of their reduced
entries, so closure deduplication is exact.  Everything derived here
(multiplication table, conjugacy classes, reflection data, fixed-space
decompositions, normalizers) is computed once and frozen; groups are
safe to share between threads.

Reflections in the symplectic sense are the elements s with
rank(s - 1) = 2; for each the package records the projection onto
im(s - 1) along ker(s - 1) and the induced skew form supported on that
plane, both of which the algebra layer consumes.
"""

import math

from . import linalg
from .coeffs import R0, R1, exact, parse_rational, rat

DEFAULT_MAX_ORDER = 20160


class GroupError(ValueError):
    pass


def _freeze(mat):
    return tuple(tuple(rat(x) for x in row) for row in mat)


def _thaw(mat):
    return [list(row) for row in mat]


def mat_key(mat):
    """Canonical sort key of a rational matrix (row-major reduced entries)."""
    return tuple((int(x.numerator), int(x.denominator)) for row in mat for x in row)


def preserves_form(mat, omega):
    m = _thaw(mat)
    return linalg.mat_eq(linalg.mat_mul(linalg.mat_transpose(m), linalg.mat_mul(_thaw(omega), m)), _thaw(omega))


class FiniteSymplecticGroup:
    """A finite group of exact rational symplectic matrices.

    ``mats[i]`` is the matrix of element i; index 0 is the identity.
    ``table[i][j]`` is the index of mats[i] @ mats[j].  ``generator_ids``
    generate the group (a reindexed subgroup lists every non-identity
    element).  ``h_dim`` is set when the group was produced by doubling
    an action on h onto h ⊕ h* (x-coordinates first, then y-coordinates).
    """

    def __init__(self, dim, omega, mats, table, inv, classes, generator_ids, h_dim=None, gen_names=None):
        self.dim = dim
        self.omega = omega
        self.mats = mats
        self.table = table
        self.inv = inv
        self.classes = classes
        self.generator_ids = generator_ids
        self.h_dim = h_dim
        self.gen_names = gen_names
        self.index = {m: i for i, m in enumerate(mats)}
        self._omega_inv = None
        self._sort_keys = None

    @property
    def order(self):
        return len(self.mats)

    def mul(self, i, j):
        return self.table[i][j]

    @property
    def sort_keys(self):
        """``mat_key`` of every element's matrix, by element index; computed
        on first use, once per group."""
        if self._sort_keys is None:
            self._sort_keys = tuple(mat_key(m) for m in self.mats)
        return self._sort_keys

    def conjugate(self, g, x):
        """Index of g x g^{-1}."""
        return self.mul(self.mul(g, x), self.inv[g])

    def apply(self, g, vec):
        """Action of element g on a vector of V (column convention)."""
        return tuple(linalg.mat_vec(_thaw(self.mats[g]), list(vec)))

    def apply_dual(self, g, covec):
        """Contragredient action on V*: transpose of the inverse matrix."""
        minv = self.mats[self.inv[g]]
        n = self.dim
        return tuple(sum((minv[i][j] * covec[i] for i in range(n)), R0) for j in range(n))

    def omega_eval(self, x, y):
        n = self.dim
        return sum((x[i] * self.omega[i][j] * y[j] for i in range(n) for j in range(n)), R0)

    def cayley_edges(self):
        """The triples (g, s, g s) for every element g and generator s.

        A map w on the group with w(e) = 1 and w(g) w(s) = w(g s) on every
        edge is a homomorphism.  Proof: W is finite, so every h is a
        positive word s_1 ... s_m in the generators (s^-1 = s^(ord s - 1)).
        By induction on m, w(g) w(h) = w(g h) for every g: m = 0 is
        w(e) = 1; for h = h' s, w(g) w(h' s) = w(g) w(h') w(s) =
        w(g h') w(s) = w(g h' s), by the edge at (h', s), the induction
        hypothesis and the edge at (g h', s).  So |G| * |S| products
        replace the |G|^2 of the full group law.
        """
        return [(g, s, self.table[g][s]) for g in range(self.order) for s in self.generator_ids]

    # -- subgroup utilities -------------------------------------------

    def is_subgroup(self, ids):
        s = set(ids)
        if 0 not in s:
            return False
        return all(self.mul(a, b) in s for a in s for b in s)

    def subgroup_closure(self, ids):
        s = {0} | set(ids)
        frontier = list(s)
        while frontier:
            nxt = []
            for a in list(s):
                for b in frontier:
                    p = self.mul(a, b)
                    if p not in s:
                        s.add(p)
                        nxt.append(p)
            frontier = nxt
        return frozenset(s)

    def normalizer(self, ids):
        s = set(ids)
        return sorted(g for g in range(self.order) if {self.conjugate(g, x) for x in s} == s)

    def subgroup_ids_of_matrices(self, mats):
        """Ids of the given matrices inside this group (order preserved)."""
        out = []
        for m in mats:
            key = _freeze(m)
            if key not in self.index:
                raise GroupError("matrix is not an element of the group")
            out.append(self.index[key])
        return out

    def h_block(self, g):
        """Action on h (y-coordinates block) for doubled groups."""
        if self.h_dim is None:
            raise GroupError("group does not carry a doubled h-structure")
        n = self.h_dim
        m = self.mats[g]
        return tuple(tuple(m[n + i][n + j] for j in range(n)) for i in range(n))

    def hstar_block(self, g):
        """Action on h* (x-coordinates block) for doubled groups."""
        if self.h_dim is None:
            raise GroupError("group does not carry a doubled h-structure")
        n = self.h_dim
        m = self.mats[g]
        return tuple(tuple(m[i][j] for j in range(n)) for i in range(n))


def generate_group(generators, omega, max_order=DEFAULT_MAX_ORDER, h_dim=None, gen_names=None):
    """Closure of the generators; errors when not symplectic or not finite.

    Element ids are assigned in breadth-first discovery order starting
    from the identity, which makes them deterministic for a fixed
    generator list.  The breadth-first search is the only place that
    multiplies matrices (k * |generators| products for a group of order
    k): it records the right-regular permutation of each generator and,
    for every new element, the (parent id, generator) pair that reached
    it.  The Cayley table, the inverses and the conjugacy classes then
    follow by integer lookups, since mats[i] @ mats[j] is
    (mats[i] @ mats[parent(j)]) @ generator(j).
    """
    if not generators:
        generators = []
    dim = len(omega)
    om = _freeze(omega)
    if linalg.mat_rank(_thaw(om)) != dim:
        raise GroupError("form is degenerate")
    for i in range(dim):
        for j in range(dim):
            if om[i][j] != -om[j][i]:
                raise GroupError("form is not skew-symmetric")
    gens = [_freeze(g) for g in generators]
    for g in gens:
        if not preserves_form(g, om):
            raise GroupError("not symplectic: generator does not preserve the form")
    ident = _freeze(linalg.mat_identity(dim))
    mats = [ident]
    index = {ident: 0}
    word = [None]  # word[j] = (parent id, generator position) with mats[j] = mats[parent] @ gens[pos]
    right = []  # right[i][pos] = index of mats[i] @ gens[pos]
    # ids are handed out in discovery order, so scanning them in id order
    # is the breadth-first search, one frontier after the other
    i = 0
    while i < len(mats):
        m = _thaw(mats[i])
        row = []
        for pos, g in enumerate(gens):
            # mat_mul of frozen matrices already has Fraction entries
            p = tuple(map(tuple, linalg.mat_mul(m, _thaw(g))))
            pid = index.get(p)
            if pid is None:
                if len(mats) >= max_order:
                    raise GroupError("group not finite within bound %d" % max_order)
                pid = index[p] = len(mats)
                mats.append(p)
                word.append((i, pos))
            row.append(pid)
        right.append(row)
        i += 1
    k = len(mats)
    table = []
    for i in range(k):
        row = [i]
        for j in range(1, k):
            parent, pos = word[j]
            row.append(right[row[parent]][pos])
        table.append(row)
    inv = [row.index(0) for row in table]
    gen_ids = [index[g] for g in gens]
    classes = _conjugacy_classes(table, inv, gen_ids)
    return FiniteSymplecticGroup(dim, om, mats, table, inv, classes, gen_ids, h_dim=h_dim, gen_names=gen_names)


def _conjugacy_classes(table, inv, gens):
    """Orbits under conjugation by the elements ``gens`` (generators of the
    group, or all of it), each sorted, in the order of their least ids."""
    seen = [False] * len(table)
    classes = []
    for i in range(len(table)):
        if seen[i]:
            continue
        orbit = {i}
        stack = [i]
        while stack:
            x = stack.pop()
            for g in gens:
                y = table[table[g][x]][inv[g]]
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        for x in orbit:
            seen[x] = True
        classes.append(tuple(sorted(orbit)))
    return classes


def subgroup_group(G, ids):
    """A subgroup, reindexed as a standalone group.

    Returns (group, to_parent) where ``to_parent[i]`` is the parent id of
    the subgroup element i.  Element 0 is the identity; the remaining
    elements keep the parent's id order.
    """
    ids = sorted(set(ids))
    if not G.is_subgroup(ids):
        raise GroupError("ids do not form a subgroup")
    order = [0] + [i for i in ids if i != 0]
    pos = {g: n for n, g in enumerate(order)}
    k = len(order)
    mats = tuple(G.mats[g] for g in order)
    table = [[pos[G.mul(order[i], order[j])] for j in range(k)] for i in range(k)]
    inv = [pos[G.inv[g]] for g in order]
    classes = _conjugacy_classes(table, inv, range(k))
    sub = FiniteSymplecticGroup(G.dim, G.omega, mats, table, inv, classes, list(range(1, k)), h_dim=G.h_dim)
    return sub, order


class ReflectionData:
    """Symplectic reflections of a group with their planes and forms.

    Per reflection id s: ``projection[s]`` projects V onto im(s - 1)
    along ker(s - 1); ``omega_s[s]`` is the matrix of the skew form that
    agrees with the ambient form on im(s - 1) and kills ker(s - 1);
    ``orbit_of[s]`` indexes the conjugation orbit (orbits are numbered by
    their minimal element id).
    """

    def __init__(self, group, reflections, orbits, projection, omega_s):
        self.group = group
        self.reflections = reflections
        self.orbits = orbits
        self.orbit_of = {}
        for i, orb in enumerate(orbits):
            for s in orb:
                self.orbit_of[s] = i
        self.projection = projection
        self.omega_s = omega_s

    @property
    def num_orbits(self):
        return len(self.orbits)

    def omega_s_eval(self, s, x, y):
        if s not in self.orbit_of:
            raise GroupError("element %d is not a symplectic reflection" % s)
        m = self.omega_s[s]
        n = self.group.dim
        return sum((x[i] * m[i][j] * y[j] for i in range(n) for j in range(n)), R0)


def symplectic_reflections(G):
    """All elements with rank(g - 1) = 2, orbit-partitioned."""
    dim = G.dim
    refl = []
    proj = {}
    oms = {}
    ident = linalg.mat_identity(dim)
    for g in range(G.order):
        m = linalg.mat_sub(_thaw(G.mats[g]), ident)
        if linalg.mat_rank(m) != 2:
            continue
        refl.append(g)
        im_basis = linalg.column_space_basis(m)
        ker_basis = linalg.nullspace(m, dim)
        cols = [list(v) for v in im_basis] + [list(v) for v in ker_basis]
        T = linalg.mat_transpose(cols)  # columns are the basis vectors
        Tinv = linalg.mat_inverse(T)
        sel = [[R1 if (i == j and i < 2) else R0 for j in range(dim)] for i in range(dim)]
        P = linalg.mat_mul(T, linalg.mat_mul(sel, Tinv))
        proj[g] = tuple(tuple(row) for row in P)
        Pm = _thaw(proj[g])
        omega_s = linalg.mat_mul(linalg.mat_transpose(Pm), linalg.mat_mul(_thaw(G.omega), Pm))
        oms[g] = tuple(tuple(row) for row in omega_s)
    rset = set(refl)
    orbits = []
    for cl in G.classes:
        inter = sorted(set(cl) & rset)
        if inter:
            if len(inter) != len(cl):
                raise GroupError("conjugacy class mixes reflections and non-reflections")  # pragma: no cover
            orbits.append(tuple(inter))
    orbits.sort(key=lambda orb: orb[0])
    return ReflectionData(G, tuple(sorted(refl)), tuple(orbits), proj, oms)


def reflection_weight(G, rdata, orbit_index):
    """Scalar m with sum of the orbit's forms equal to m * omega.

    Raises when the sum is not proportional to the ambient form (the
    action is then symplectically reducible and the weight is undefined).
    """
    dim = G.dim
    total = [[R0] * dim for _ in range(dim)]
    for s in rdata.orbits[orbit_index]:
        m = rdata.omega_s[s]
        for i in range(dim):
            for j in range(dim):
                total[i][j] = total[i][j] + m[i][j]
    scalar = None
    for i in range(dim):
        for j in range(dim):
            if G.omega[i][j]:
                cand = total[i][j] / G.omega[i][j]
                if scalar is None:
                    scalar = cand
                elif scalar != cand:
                    raise GroupError("symplectically reducible action; orbit weight undefined")
            elif total[i][j]:
                raise GroupError("symplectically reducible action; orbit weight undefined")
    return scalar


def stabilizer(G, b):
    """Ids of the elements fixing the covector b in V*."""
    b = tuple(exact(x) for x in b)
    return sorted(g for g in range(G.order) if G.apply_dual(g, b) == b)


class LeafData:
    def __init__(self, subgroup_ids, v0_basis, vplus_basis, normalizer_ids, xi_order):
        self.subgroup_ids = subgroup_ids
        self.v0_basis = v0_basis
        self.vplus_basis = vplus_basis
        self.normalizer_ids = normalizer_ids
        self.xi_order = xi_order


def leaf_data(G, sub_ids):
    """Fixed space, stable complement, and normalizer of a subgroup.

    V0 is the common fixed space of the subgroup; the complement is the
    image of (1 - average projector), the sum of the nontrivial isotypic
    components, and is the unique stable complement.
    """
    ids = sorted(set(sub_ids))
    if not G.is_subgroup(ids):
        raise GroupError("ids do not form a subgroup")
    dim = G.dim
    rows = []
    ident = linalg.mat_identity(dim)
    for g in ids:
        if g == 0:
            continue
        rows.extend(linalg.mat_sub(_thaw(G.mats[g]), ident))
    v0 = linalg.nullspace(rows, dim) if rows else [list(r) for r in ident]
    avg = [[R0] * dim for _ in range(dim)]
    for g in ids:
        m = G.mats[g]
        for i in range(dim):
            for j in range(dim):
                avg[i][j] = avg[i][j] + m[i][j]
    scale = rat(1, len(ids))
    avg = linalg.mat_scale(avg, scale)
    complement = linalg.mat_sub(ident, avg)
    vplus = linalg.column_space_basis(complement)
    if len(v0) + len(vplus) != dim:
        raise GroupError("fixed-space decomposition failed")  # pragma: no cover
    norm = G.normalizer(ids)
    return LeafData(tuple(ids), [tuple(v) for v in v0], [tuple(v) for v in vplus], tuple(norm), len(norm) // len(ids))


# -- constructions on h doubled onto h + h* ---------------------------


def double_up(h_gens, dim_h=None):
    """Double matrices on h to V = h* + h with the standard pairing form.

    Coordinates: x-block (action by inverse-transpose) first, then
    y-block (the given action).  The form is om((a,alpha),(b,beta)) =
    <beta,a> - <alpha,b>, whose matrix in these coordinates is
    [[0, -I], [I, 0]].
    """
    if not h_gens and dim_h is None:
        raise GroupError("no generators given and no dimension specified")
    n = len(h_gens[0]) if h_gens else dim_h
    vgens = []
    for a in h_gens:
        a = [list(map(rat, row)) for row in a]
        try:
            ainvt = linalg.mat_transpose(linalg.mat_inverse(a))
        except ValueError:
            raise GroupError("generator matrix is singular") from None
        block = [[R0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            for j in range(n):
                block[i][j] = ainvt[i][j]
                block[n + i][n + j] = a[i][j]
        vgens.append(block)
    omega = [[R0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        omega[i][n + i] = -R1
        omega[n + i][i] = R1
    return vgens, omega, n


def symmetric_group_hgens(n, rep="reflection"):
    """Generator matrices of the symmetric group on its h-module.

    ``permutation``: the n-dimensional permutation module (adjacent
    transpositions).  ``reflection``: the (n-1)-dimensional sum-zero
    module in the basis e_i - e_{i+1}.
    """
    if n < 1:
        raise GroupError("n must be positive")
    gens = []
    if rep == "permutation":
        for k in range(n - 1):
            m = linalg.mat_identity(n)
            m[k][k] = m[k + 1][k + 1] = R0
            m[k][k + 1] = m[k + 1][k] = R1
            gens.append(m)
        return gens
    if rep != "reflection":
        raise GroupError("unknown symmetric-group representation: %r" % rep)
    d = n - 1
    if d == 0:
        raise GroupError("reflection representation of S1 is zero-dimensional")

    def perm_on_basis(k):
        # adjacent transposition (k, k+1) acting on f_i = e_i - e_{i+1}
        m = [[R0] * d for _ in range(d)]
        for i in range(d):
            # image of f_i: e_{s(i)} - e_{s(i+1)} expressed in the f-basis
            image = [R0] * n
            a, b = i, i + 1
            sa = a if a not in (k, k + 1) else (k + 1 if a == k else k)
            sb = b if b not in (k, k + 1) else (k + 1 if b == k else k)
            image[sa] = image[sa] + R1
            image[sb] = image[sb] - R1
            # e_j = f_j + f_{j+1} + ... pattern: solve by telescoping
            acc = R0
            for row in range(d):
                acc = acc + image[row]
                m[row][i] = acc
        return m

    for k in range(n - 1):
        gens.append(perm_on_basis(k))
    return gens


def group_from_spec(spec, max_order=DEFAULT_MAX_ORDER):
    """Build a doubled symplectic group from a specification mapping.

    Keys: ``dim_h`` with ``generators_on_h`` (entries "p/q" strings or
    ints), or ``builtin`` = {"type": "symmetric", "n": k, "rep":
    "reflection"|"permutation"}.  Optional ``gen_names`` labels the
    generators for parsing and printing.  Unknown keys are rejected.
    """
    allowed = {"dim_h", "generators_on_h", "builtin", "gen_names", "name"}
    unknown = set(spec) - allowed
    if unknown:
        raise GroupError("unknown group-spec fields: %s" % ", ".join(sorted(unknown)))
    if "builtin" in spec:
        b = spec["builtin"]
        if b.get("type") != "symmetric":
            raise GroupError("unknown builtin type: %r" % b.get("type"))
        n = int(b["n"])
        rep = b.get("rep", "reflection")
        hgens = symmetric_group_hgens(n, rep)
        if math.factorial(n) > max_order:
            # both representations are faithful, so the order is n!
            raise GroupError("group not finite within bound %d" % max_order)
        names = spec.get("gen_names") or ["s%d" % (i + 1) for i in range(len(hgens))]
    else:
        if "dim_h" not in spec or "generators_on_h" not in spec:
            raise GroupError("group spec needs dim_h and generators_on_h (or builtin)")
        dim_h = int(spec["dim_h"])
        if dim_h < 1:
            raise GroupError("dim_h must be positive")
        hgens = []
        for gm in spec["generators_on_h"]:
            if len(gm) != dim_h or any(len(row) != dim_h for row in gm):
                raise GroupError("generator matrix has wrong shape")
            hgens.append([[parse_rational(x) if isinstance(x, str) else rat(x) for x in row] for row in gm])
        names = spec.get("gen_names") or ["g%d" % (i + 1) for i in range(len(hgens))]
    dim_h = int(spec["dim_h"]) if "dim_h" in spec else None
    vgens, omega, h_dim = double_up(hgens, dim_h=dim_h)
    return generate_group(vgens, omega, max_order=max_order, h_dim=h_dim, gen_names=list(names))
