"""Truncated point completions and the explicit completion isomorphism.

Completion here is x-adic: for a doubled algebra on V = h + h*, elements
of the completed algebra at a base point b in h are normal forms whose
x-part (the h*-coordinates, recentered at b) is kept modulo a fixed
truncation order; the y-part and the group part stay polynomial.  Every
truncated element carries the order to which it is valid, and products
debit that order by the y-degrees of the factors (commuting a y past the
unknown x-tail can lower the x-degree), so agreement is never reported
beyond what is provable.

Every element is kept in content form, lam * P: a rational lam and an
integral P, so its arithmetic runs on integers from the product memo to
the relation checks.  Products are memoized up to central rational
scalars: each ``TruncatedAlgebra`` interns integral primitive parts,
multiplies each distinct pair of them once per effective order, on the
integer PBW core, and answers every later product with the memo's shared
primitive and a new lam.  Sums and comparisons cross-multiply contents,
and the rational values are expanded only at the edges (``TElt.value``).

The isomorphism onto the coset-matrix algebra over the stabilizer's own
completed algebra sends group elements to right-translation matrices,
the h*-coordinates to recentered diagonal matrices, and the
h-coordinates to a lowering-style matrix whose off-diagonal part divides
by the recentered root forms; those divisions are geometric series
truncated at the working order.  ``verify_homomorphism`` mechanizes the
defining-relation check at finite order, with the group part checked on
the generators of W (the Cayley edges for the group law, conjugation by
the generators alone), which the presentation makes sufficient.  The
matrix entries are ``TElt``s, with the arithmetic ``centralizer`` asks
of an entry: ``==`` is equality modulo the smaller of the two orders,
and ``bool`` is false only on an exact zero, so that a zero known only
modulo an order still passes that order on through a product.  A
relation check fails any comparison that is not known to the order it
checks, naming the entry; ``mod_param_baseline`` compares against the
parameter-free commutative-level map; ``equivariance_check`` verifies
the second-scaling homogeneity of the images.
"""

import math
from fractions import Fraction

from . import groups as G
from .centralizer import CentralizerContext, CentralizerElement, embed_group
from .cherednik import convention_solve
from .coeffs import ParamPoly, R0, R1, exact, rat
from .sra import SRAElement, SRAlgebra, _specializer, omega_kappa


class CompletionError(ValueError):
    pass


class TruncatedAlgebra:
    """A doubled PBW algebra completed x-adically at truncation order N.

    It owns the intern table and the product memo of its truncated
    elements.  A primitive is an element of the PBW engine with integer
    values (in its u-variables) of gcd 1 whose value at the least (word,
    group, packed monomial) key is positive, so every element is a
    rational times exactly one primitive.  Primitives are found by hash
    bucket and confirmed by exact ``==``, so two different primitives
    never share an id.  Rational scalars are central, so
    (lam_a P_a)(lam_b P_b) = lam_a lam_b (P_a P_b): the product of each
    (id_a, id_b, effective order) is computed once, on integral
    coefficients, and interned in turn, and every later product of
    multiples of the same two primitives is a memo answer.
    """

    def __init__(self, algebra, order):
        if algebra.x_count is None:
            raise CompletionError("x-adic completion needs a doubled algebra")
        self.algebra = algebra
        self.order = order
        self._ids = {}  # hash of a primitive -> ids of the primitives with that hash
        self._prims = []  # id -> (primitive element, x-degree, y-degree)
        self._products = {}  # (id_a, id_b, xcap) -> (lam, id) with P_a P_b = lam P_id
        self._zero = TElt(self, algebra.zero(), None)

    def _intern(self, elt):
        """(lam, id) with elt = lam * P_id, for an element with int or
        ``Fraction`` values; lam is (1, 1) for the zero element."""
        terms = elt.terms
        num, den, ints = 0, 1, True
        for c in terms.values():
            num = math.gcd(num, c.numerator)
            if type(c) is not int:
                ints = False
                den = math.lcm(den, c.denominator)
        if terms and terms[min(terms)] < 0:
            num = -num
        if num and (num != 1 or not ints):
            elt = SRAElement(self.algebra, {k: c.numerator * (den // c.denominator) // num for k, c in terms.items()})
        key = hash(frozenset(elt.terms.items()))
        bucket = self._ids.setdefault(key, [])
        for pid in bucket:
            if self._prims[pid][0] == elt:
                break
        else:
            pid = len(self._prims)
            bucket.append(pid)
            self._prims.append((elt, elt.xdegree(), elt.ydegree()))
        return (num or 1, den), pid

    def zero(self):
        """The exact zero, one shared instance (elements are immutable)."""
        return self._zero

    def one(self):
        return TElt(self, self.algebra.one(), None)

    def scalar(self, value):
        return TElt(self, self.algebra.scalar(value), None)

    def group_elt(self, gid):
        return TElt(self, self.algebra.group_elt(gid), None)

    def y_gen(self, i):
        return TElt(self, self.algebra.gen(self.algebra.x_count + i), None)

    def x_linear(self, coeffs, const=None):
        """Linear combination of the x-coordinates plus an optional constant."""
        acc = self.algebra.zero()
        for i, c in enumerate(coeffs):
            c = exact(c)
            if c:
                acc = acc + self.algebra.gen(i).scale(c)
        if const is not None and const:
            acc = acc + self.algebra.scalar(const)
        return TElt(self, acc, None)

    def geometric_inverse(self, const, coeffs, order=None):
        """(const + sum coeffs_i x_i)^(-1) as a truncated series.

        Requires a nonzero constant term; the series is exact modulo the
        truncation order.
        """
        o = self.order if order is None else order
        const = exact(const)
        if not const:
            raise CompletionError("series inverse needs an invertible constant term")
        inv_c = R1 / const
        lin = self.x_linear(coeffs).value  # pure x-part, commutative
        out = self.algebra.scalar(inv_c)
        power = self.algebra.one()
        for k in range(1, o):
            power = self.algebra.multiply(power, lin, xcap=o)
            if not power:
                break
            out = out + power.scale((-inv_c) ** k * inv_c)
        return TElt(self, out, o)


def _ratio(num, den):
    """The rational num/den (den > 0) as a reduced pair."""
    g = math.gcd(num, den)
    return (num, den) if g == 1 else (num // g, den // g)


def _telt(parent, lam, elt, order, pid):
    """A ``TElt`` from its content form, with no check and no copy."""
    t = object.__new__(TElt)
    t.parent = parent
    t.lam = lam
    t.elt = elt
    t.order = order
    t.pid = pid
    return t


def _content_form(parent, lam, terms, order):
    """The ``TElt`` lam * terms, for a flat map with int or ``Fraction``
    values: their common denominator moves into the content."""
    den, ints = 1, True
    for c in terms.values():
        if type(c) is not int:
            ints = False
            den = math.lcm(den, c.denominator)
    if not ints:
        terms = {k: c.numerator * (den // c.denominator) for k, c in terms.items()}
        lam = _ratio(lam[0], lam[1] * den)
    return _telt(parent, lam, SRAElement(parent.algebra, terms), order, None)


class TElt:
    """Truncated element in content form: lam * P, valid modulo x-order
    ``order``.

    lam is a nonzero rational, a reduced pair (numerator, denominator > 0)
    of ints, and P (``elt``) an ``SRAElement`` with integer values;
    ``pid`` is P's id in the parent's intern table once P is the interned
    primitive.  A product's P is; any other element's becomes it on its
    first use as a factor, when (lam, P) is rewritten in place, the value
    unchanged.
    ``order`` None means exact (a polynomial, no truncation debt); an
    element with an order holds no term of x-degree at or above it.
    Products are memo answers that share the memo's primitive, sums and
    comparisons run on integers over one common denominator, and rational
    scaling only multiplies lam.  ``value``, the element with rational
    values, is expanded on each read, for the edges: printing a
    difference, the specialization checks and tests.
    """

    __slots__ = ("parent", "lam", "elt", "order", "pid")

    def __new__(cls, parent, value, order):
        """The element ``value`` of the parent's algebra, truncated at
        ``order`` unless that is None."""
        if order is not None:
            value = value.truncate_x(order)
        return _content_form(parent, (1, 1), value.terms, order)

    @property
    def value(self):
        """lam * P with rational values, expanded on each read."""
        num, den = self.lam
        if den == 1:
            return self.elt if num == 1 else self.elt.scale(num)
        return self.elt.scale(Fraction(num, den))

    def _effective(self):
        return self.parent.order if self.order is None else min(self.order, self.parent.order)

    def _below(self, order):
        """P without its terms of x-degree >= order: P itself when it is
        truncated at its own order or its x-degree is known to be lower."""
        if self.order is not None and self.order <= order:
            return self.elt
        if self.pid is not None and self.parent._prims[self.pid][1] < order:
            return self.elt
        return self.elt.truncate_x(order)

    def __add__(self, other):
        o1, o2 = self.order, other.order
        if o2 is None and not other.elt.terms:
            return self
        if o1 is None and not self.elt.terms:
            return other
        o = o1 if o2 is None else o2 if o1 is None else min(o1, o2)
        a, b = (self.elt, other.elt) if o is None else (self._below(o), other._below(o))
        (na, da), (nb, db) = self.lam, other.lam
        if da == db and na == nb:
            lam, elt = self.lam, a + b
        elif da == db and na == -nb:
            lam, elt = self.lam, a - b
        else:
            # lam = g / d, d the common denominator and g the gcd of the
            # two numerators over it
            d = da // math.gcd(da, db) * db
            ca, cb = na * (d // da), nb * (d // db)
            g = math.gcd(ca, cb)
            lam, elt = _ratio(g, d), a.scale(ca // g) + b.scale(cb // g)
        if o is None and not elt.terms:
            return self.parent._zero
        return _telt(self.parent, lam, elt, o, None)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if self.order is None and not self.elt.terms:
            return self
        num, den = self.lam
        return _telt(self.parent, (-num, den), self.elt, self.order, self.pid)

    def _prime(self):
        """Rewrite lam * P with P the interned primitive; return its id."""
        (n, d), pid = self.parent._intern(self.elt)
        num, den = self.lam
        self.lam = _ratio(num * n, den * d)
        self.elt = self.parent._prims[pid][0]
        self.pid = pid
        return pid

    def __mul__(self, other):
        if not isinstance(other, TElt):
            return self._scaled(other)
        parent = self.parent
        ia = self._prime() if self.pid is None else self.pid
        ib = other._prime() if other.pid is None else other.pid
        prims = parent._prims
        _, xa, ya = prims[ia]
        _, xb, yb = prims[ib]
        cap = parent.order
        new_order = None
        if self.order is not None:
            new_order = self.order - yb
        if other.order is not None:
            o = other.order - ya
            new_order = o if new_order is None else min(new_order, o)
        eff = cap if new_order is None else min(cap, new_order)
        if eff <= 0:
            raise CompletionError("truncation order exhausted: product is valid to order <= 0")
        if new_order is None and xa + xb >= eff:
            # the product of two exact polynomials can reach the storage
            # cap; once capped it is no longer exact
            new_order = eff
        key = (ia, ib, eff)
        hit = parent._products.get(key)
        if hit is None:
            # multiply prunes every term of x-degree >= eff
            v = parent.algebra.multiply(prims[ia][0], prims[ib][0], xcap=eff)
            hit = parent._products[key] = parent._intern(v)
        (na, da), (nb, db), ((nv, dv), iv) = self.lam, other.lam, hit
        return _telt(parent, _ratio(na * nb * nv, da * db * dv), prims[iv][0], new_order, iv)

    def _scaled(self, r):
        """This element times a rational or a ``ParamPoly``."""
        if isinstance(r, ParamPoly):
            return _content_form(self.parent, self.lam, self.elt.scale(r).terms, self.order)
        if not r:
            return _telt(self.parent, (1, 1), self.parent.algebra.zero(), self.order, None)
        num, den = self.lam
        return _telt(self.parent, _ratio(num * r.numerator, den * r.denominator), self.elt, self.order, self.pid)

    __rmul__ = _scaled

    def __eq__(self, other):
        if not isinstance(other, TElt):
            return NotImplemented
        return self.eq_mod(other)

    __hash__ = None

    def __bool__(self):
        """Not an exact zero: a zero known only modulo its order is true."""
        return self.order is not None or bool(self.elt.terms)

    def eq_mod(self, other, order=None):
        o = min(self._effective(), other._effective())
        if order is not None:
            o = min(o, order)
        a, b = self._below(o).terms, other._below(o).terms
        if len(a) != len(b):
            return False
        if self.lam == other.lam:
            return a == b
        # lam_a a == lam_b b, cross-multiplied over the denominators
        (na, da), (nb, db) = self.lam, other.lam
        ka, kb = na * db, nb * da
        return all(b.get(key, 0) * kb == c * ka for key, c in a.items())

    def specialize(self, t=None, c=None):
        return self._specialized(_specializer(self.parent.algebra, t, c))

    def _specialized(self, spec):
        """P specialized by ``spec`` (``sra._specializer``), times lam."""
        out = {}
        for (m, g, k), x in self.elt.terms.items():
            k2, f, _, _ = spec(k)
            if f:
                key = (m, g, k2)
                out[key] = out.get(key, 0) + x * f
        return _content_form(self.parent, self.lam, {k: x for k, x in out.items() if x}, self.order)

    def __repr__(self):
        return "<%s | order %s>" % (self.value.to_str(), self.order)


def first_difference(a, b, order=None):
    """The first differing (monomial, group, coefficient) triple, or None."""
    o = min(a._effective(), b._effective())
    if order is not None:
        o = min(o, order)
    d = (a - b).value.truncate_x(o)
    if not d:
        return None
    coeffs = d.coefficients()
    key = min(coeffs, key=lambda k: (len(k[0]), k[0], k[1]))
    return (key[0], key[1], coeffs[key].to_str())


# -- the completion isomorphism ------------------------------------------------


class CompletionIso:
    """Generator images of the point-completion isomorphism.

    Source: the doubled algebra of W completed at b.  Target: coset
    matrices over the stabilizer subalgebra completed at 0, every entry
    truncated at the working order.  ``w_images[g]``, ``x_images[i]``,
    ``y_images[i]`` are the images of the group elements and of the
    recentered coordinate generators.
    """

    def __init__(self, ch, b, order, ctx, talg, sub_ids, to_parent, w_images, x_images, y_images, mu):
        self.ch = ch
        self.b = b
        self.order = order
        self.ctx = ctx
        self.talg = talg
        self.sub_ids = sub_ids
        self.to_parent = to_parent
        self.w_images = w_images
        self.x_images = x_images
        self.y_images = y_images
        self.mu = mu


def subalgebra_presentation(ch, sub_ids, mu):
    """The stabilizer's own algebra, form-normalized with converted
    parameters: commutators built from the ambient form and the
    per-reflection forms of the reflections inside the subgroup, with
    orbit parameters scaled by mu (so they match the ambient pairing
    presentation)."""
    sub, to_parent = G.subgroup_group(ch.group, sub_ids)
    kappa = omega_kappa(ch.group, ch.rdata, {p: i for i, p in enumerate(to_parent)}, mu)
    alg = SRAlgebra(sub, kappa, ch.nparams, x_count=ch.group.h_dim, presentation="omega-form-converted")
    return alg, sub, to_parent


def completion_iso(ch, b, order):
    """Build the isomorphism data for a base point b (h-coordinates).

    The stabilizer of b is computed from the group action; every
    reflection outside it must pair nontrivially with b (otherwise the
    base point sits on a forbidden hyperplane and the off-diagonal
    denominators fail to invert).
    """
    return completion_iso_with_mu(ch, b, order, None)


def completion_iso_with_mu(ch, b, order, mu):
    """Same as ``completion_iso`` but with the presentation-conversion
    scalar pinned by the caller instead of solved from the form data."""
    n = ch.h_dim
    b = [exact(v) for v in b]
    if len(b) != n:
        raise CompletionError("base point has wrong dimension")
    bcov = tuple(b) + (R0,) * n  # V*-coordinates: pairings with x's, then with y's
    sub_ids = G.stabilizer(ch.group, bcov)
    sub_set = set(sub_ids)
    outside = []  # (reflection, its pairing with b) off the stabilizer
    for ref in ch.reflections:
        pairing = sum((bi * ai for bi, ai in zip(b, ref.alpha)), R0)
        if ref.gid in sub_set:
            if pairing:
                raise CompletionError("stabilizer bookkeeping failed")  # pragma: no cover
        elif not pairing:
            raise CompletionError("base point not in the required stratum")
        else:
            outside.append((ref, pairing))
    if mu is None:
        mu = convention_solve(ch)
    alg_sub, sub, to_parent = subalgebra_presentation(ch, sub_ids, mu)
    talg = TruncatedAlgebra(alg_sub, order)
    local = {p: i for i, p in enumerate(to_parent)}
    ctx = CentralizerContext(ch.group, sub_ids, lambda h: talg.group_elt(local[h]))
    grp = ch.group

    w_images = {g: embed_group(ctx, g) for g in range(grp.order)}

    x_images = []
    for j in range(n):
        entries = []
        for i in range(ctx.k):
            gi = ctx.reps[i]
            hst = grp.hstar_block(gi)
            coeffs_vec = [hst[l][j] for l in range(n)]  # g_i . x_j in the x-basis
            const = sum((bb * cc for bb, cc in zip(b, coeffs_vec)), R0)
            entries.append(talg.x_linear(coeffs_vec, const))
        x_images.append(ctx.diagonal(entries))

    # the lowering image divides by (alpha, x + b), which is the same
    # series in every coset
    outside = [(ref, talg.geometric_inverse(pairing, ref.alpha)) for ref, pairing in outside]
    y_images = []
    for j in range(n):
        rows = [[talg.zero() for _ in range(ctx.k)] for _ in range(ctx.k)]
        for i in range(ctx.k):
            gi = ctx.reps[i]
            hb = grp.h_block(gi)
            yvec = [hb[l][j] for l in range(n)]  # g_i . y_j in the y-basis
            acc = talg.zero()
            for l, cc in enumerate(yvec):
                if cc:
                    acc = acc + cc * talg.y_gen(l)
            rows[i][i] = rows[i][i] + acc
            for ref, series in outside:
                alpha_pair = sum((ref.alpha[l] * yvec[l] for l in range(n)), R0)
                if not alpha_pair:
                    continue
                weight = ParamPoly.var(ch.nparams, ref.orbit + 1, coeff=rat(2) / (R1 - ref.eigenvalue) * alpha_pair)
                coefficient = weight * series
                sgi = grp.mul(ref.gid, gi)
                kidx = ctx.coset_of[sgi]
                hpart = grp.mul(sgi, grp.inv[ctx.reps[kidx]])
                carried = coefficient * ctx.coefficient(hpart)
                rows[i][kidx] = rows[i][kidx] + carried
                rows[i][i] = rows[i][i] - coefficient
        y_images.append(ctx.from_matrix(rows))

    return CompletionIso(ch, b, order, ctx, talg, tuple(sub_ids), to_parent, w_images, x_images, y_images, mu)


# -- verification ---------------------------------------------------------


def _pairing_rhs_matrix(iso, yi, xj):
    ch = iso.ch
    out = None
    if yi == xj:
        out = iso.ctx.one().scale(ParamPoly.var(ch.nparams, 0))
    for ref in ch.reflections:
        coeff = -(ref.alpha_vee[xj] * ref.alpha[yi])
        if coeff:
            m = iso.w_images[ref.gid].scale(ParamPoly.var(ch.nparams, ref.orbit + 1, coeff=coeff))
            out = m if out is None else out + m
    return out if out is not None else iso.ctx.zero()


def _matrices_agree(a, b, order):
    """(True, None) when every entry pair agrees modulo ``order``, else
    (False, the first difference).  A pair that is not known to that
    order fails too, with a record naming the entry and the order its
    comparison reaches; ``order`` None compares modulo whatever order the
    entries carry."""
    zero = a.ctx.zero_entry
    for i, (r1, r2) in enumerate(zip(a.mat, b.mat)):
        # ``is not zero`` first: most entries are the context's shared zero
        for j in [j for j, (x, y) in enumerate(zip(r1, r2)) if x is not zero or y is not zero]:
            x, y = r1[j], r2[j]
            if x or y:
                if order is not None:
                    reached = min(x._effective(), y._effective())
                    if reached < order:
                        return (False, {"entry": [i, j], "order_reached": reached})
                if not x.eq_mod(y, order):
                    return (False, first_difference(x, y, order))
    return (True, None)


def verify_homomorphism(iso):
    """Check every defining relation on the images, modulo order - 1.

    The algebra is presented by generators and relations, so the group
    part of the relations is checked on the generating set S of W only:

    - ``x_commute``, ``y_commute``: every pair of coordinate images;
    - ``y_x_commutator``: every (y_i, x_j) pair against the pairing
      presentation;
    - ``group_multiplicativity``: w_e is the identity matrix and
      w_g w_s = w_{gs} on every Cayley edge (g, s), |G| |S| products
      instead of |G|^2; by ``FiniteSymplecticGroup.cayley_edges`` that is
      the whole group law.  It also refuses w = 0, which the |G|^2 law
      alone accepts;
    - ``w_x_conjugation``, ``w_y_conjugation``: conjugation by w_s for
      s in S; with multiplicativity that gives conjugation by every w_g.

    Returns a report dict: per-relation verdicts plus the first failing
    coefficient when a relation breaks.
    """
    ch = iso.ch
    n = ch.h_dim
    order = iso.order - 1
    checks = {}

    def record(name, ok, detail):
        cur = checks.get(name)
        if cur is None or (cur["pass"] and not ok):
            checks[name] = {"pass": ok, "first_failure": detail}

    for i in range(n):
        for j in range(i + 1, n):
            ok, det = _matrices_agree(
                iso.x_images[i] * iso.x_images[j], iso.x_images[j] * iso.x_images[i], order
            )
            record("x_commute", ok, det)
            ok, det = _matrices_agree(
                iso.y_images[i] * iso.y_images[j], iso.y_images[j] * iso.y_images[i], order
            )
            record("y_commute", ok, det)
    if n == 1:
        checks.setdefault("x_commute", {"pass": True, "first_failure": None})
        checks.setdefault("y_commute", {"pass": True, "first_failure": None})

    # conjugation on the generators only: given multiplicativity,
    # w_{gs} v w_{gs}^-1 = w_g (w_s v w_s^-1) w_g^-1, and h_block and
    # hstar_block are representations, so R_s for every s gives R_g for
    # every g; group elements keep x-degree, so this holds modulo the order
    grp = ch.group
    for g in grp.generator_ids:
        hst = grp.hstar_block(g)
        hb = grp.h_block(g)
        ginv = grp.inv[g]
        for j in range(n):
            lhs = iso.w_images[g] * iso.x_images[j] * iso.w_images[ginv]
            rhs = None
            for l in range(n):
                if hst[l][j]:
                    m = iso.x_images[l].scale(hst[l][j])
                    rhs = m if rhs is None else rhs + m
            ok, det = _matrices_agree(lhs, rhs, order)
            record("w_x_conjugation", ok, det)
            lhs = iso.w_images[g] * iso.y_images[j] * iso.w_images[ginv]
            rhs = None
            for l in range(n):
                if hb[l][j]:
                    m = iso.y_images[l].scale(hb[l][j])
                    rhs = m if rhs is None else rhs + m
            ok, det = _matrices_agree(lhs, rhs, order)
            record("w_y_conjugation", ok, det)
    if not grp.generator_ids:
        # trivial group: conjugation by w_e = 1 is the identity
        checks.setdefault("w_x_conjugation", {"pass": True, "first_failure": None})
        checks.setdefault("w_y_conjugation", {"pass": True, "first_failure": None})

    # the group law: w_e = 1 plus one product per Cayley edge (see
    # FiniteSymplecticGroup.cayley_edges for why that is all of it)
    ok, det = _matrices_agree(iso.w_images[0], iso.ctx.one(), order)
    record("group_multiplicativity", ok, det)
    for g, s, gs in grp.cayley_edges():
        ok, det = _matrices_agree(iso.w_images[g] * iso.w_images[s], iso.w_images[gs], order)
        record("group_multiplicativity", ok, det)

    for i in range(n):
        for j in range(n):
            lhs = iso.y_images[i] * iso.x_images[j] - iso.x_images[j] * iso.y_images[i]
            rhs = _pairing_rhs_matrix(iso, i, j)
            ok, det = _matrices_agree(lhs, rhs, order)
            record("y_x_commutator", ok, det)

    checks_sorted = {k: checks[k] for k in sorted(checks)}
    return {"order_checked": order, "all_pass": all(v["pass"] for v in checks.values()), "relations": checks_sorted}


def parameter_free_baseline(iso):
    """Images of the commutative-level map at the shifted base point.

    Group elements translate cosets; a coordinate v goes to the diagonal
    matrix of the functions (rep . v) recentered at b, which keeps the
    constant pairing term on the x-side and nothing on the y-side.
    """
    ch = iso.ch
    ctx = iso.ctx
    talg = iso.talg
    n = ch.h_dim
    grp = ch.group
    x_base = []
    y_base = []
    for j in range(n):
        xe = []
        ye = []
        for i in range(ctx.k):
            gi = ctx.reps[i]
            hst = grp.hstar_block(gi)
            hb = grp.h_block(gi)
            xv = [hst[l][j] for l in range(n)]
            const = sum((bb * cc for bb, cc in zip(iso.b, xv)), R0)
            xe.append(talg.x_linear(xv, const))
            acc = talg.zero()
            for l in range(n):
                if hb[l][j]:
                    acc = acc + hb[l][j] * talg.y_gen(l)
            ye.append(acc)
        x_base.append(ctx.diagonal(xe))
        y_base.append(ctx.diagonal(ye))
    return {"w": dict(iso.w_images), "x": x_base, "y": y_base}


def mod_param_baseline(iso):
    """Setting every parameter to zero must reproduce the baseline map;
    the x- and group images must be parameter-free outright."""
    base = parameter_free_baseline(iso)
    report = {"x_match": True, "y_match": True, "w_match": True, "x_parameter_free": True, "first_failure": None}

    spec = _specializer(iso.talg.algebra, R0, [R0] * (iso.ch.nparams - 1))

    def zero_params(m):
        return CentralizerElement(m.ctx, tuple(tuple(x._specialized(spec) if x else x for x in row) for row in m.mat))

    for j in range(iso.ch.h_dim):
        ok, det = _matrices_agree(zero_params(iso.x_images[j]), base["x"][j], None)
        if not ok:
            report["x_match"] = False
            report["first_failure"] = report["first_failure"] or det
        ok, det = _matrices_agree(iso.x_images[j], base["x"][j], None)
        if not ok:
            report["x_parameter_free"] = False
            report["first_failure"] = report["first_failure"] or det
        ok, det = _matrices_agree(zero_params(iso.y_images[j]), base["y"][j], None)
        if not ok:
            report["y_match"] = False
            report["first_failure"] = report["first_failure"] or det
    for g in range(iso.ch.group.order):
        ok, det = _matrices_agree(zero_params(iso.w_images[g]), base["w"][g], None)
        if not ok:
            report["w_match"] = False
            report["first_failure"] = report["first_failure"] or det
    report["pass"] = report["x_match"] and report["y_match"] and report["w_match"] and report["x_parameter_free"]
    return report


def _second_scaling_weight(telt, xc):
    """Weight of a nonzero entry under y -> L^2 y, params -> L^2 params,
    x fixed; None when it is not homogeneous.  Read off P's keys, which
    are the value's."""
    alg = telt.parent.algebra
    weights = {alg._letters(w, alg.nv) - alg._letters(w, xc) + sum(alg._unpack(k)[0]) for w, _, k in telt.elt.terms}
    return weights.pop() if len(weights) == 1 else None


def equivariance_check(iso):
    """Second-scaling homogeneity of the images: x and group images have
    weight 0, y images weight 1, as identities of truncated coefficients
    with the scaling treated as a formal variable."""
    xc = iso.talg.algebra.x_count

    def homogeneous(images, weight):
        entries = (x for m in images for row in m.mat for x in row if x.elt.terms)
        return all(_second_scaling_weight(x, xc) == weight for x in entries)

    report = {
        "x_weight0": homogeneous(iso.x_images, 0),
        "w_weight0": homogeneous(iso.w_images.values(), 0),
        "y_weight1": homogeneous(iso.y_images, 1),
    }
    report["pass"] = report["x_weight0"] and report["w_weight0"] and report["y_weight1"]
    return report
