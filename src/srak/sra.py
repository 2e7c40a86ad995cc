"""PBW engine for deformation algebras of a finite symplectic group.

An algebra here is the quotient of T(V) # G over the parameter
polynomial ring by commutation relations

    v_j v_i  =  v_i v_j + kappa(v_j, v_i)        (j > i in a fixed basis)

where kappa takes values in group-algebra elements with polynomial
coefficients.  Elements are kept in normal form.

Rewriting moves group elements right past vectors (pure relabeling) and
sorts a word by inserting letters: the letters after its longest sorted
prefix are folded in one at a time, a normal form times a letter v is
(w, h) v = w (h . v) h, and a sorted word m' a times a letter v < a is

    NF(m' a v)  =  NF(m' v) a  +  m' kappa(a, v).

The top term of NF(m' v) is the sorted m' v, and a sorts after it; every
other term is two letters shorter, and m' g is a normal form.  So each
recursive call is on a shorter word, or on one as long with fewer letters
after its sorted prefix, and the depth grows with the length of a word,
not with its inversions.  The PBW property (Etingof-Ginzburg, Invent.
Math. 2002, Thm 1.3) makes the rewriting confluent for any order of the
letters (Bergman's diamond lemma, Adv. Math. 1978), so the order of the
insertions does not matter.

A letter is lower-free when it commutes with every smaller letter, and
upper-free when every letter of its G-span (the support of its columns in
the group matrices) commutes with every larger one; both sets are read
off the table when the algebra is built.  Sorting them in meets no kappa
term, so NF(P core S), with P the longest lower-free prefix and S the
longest upper-free suffix, is NF(core) with P and, through each term's
group part, S sorted into each term: in a doubled algebra only y...x cores
are rewritten.  ``_word_cache`` holds the normal form of each word met (a
letter tuple) and of each prefix of a folded core.  ``multiply`` takes
every lower-free letter of a sorted left word off as its head (each moves
to the front past the smaller letters) and memoizes NF(rest . piece) by
the pair of packed words; g . m is folded one letter at a time
(``_gmono_normal``), one term per monomial.

The omega-form presentation (kappa built from the symplectic form and the
per-reflection forms, with parameter t on the identity and c_i on orbit
i) is the default; the Cherednik layer installs its own table.

Coefficients live in rescaled parameters.  Each parameter c_p gets a
scale d_p, the least common multiple of the denominators of the kappa
coefficients on its linear monomial, and the engine works in the
variables u_p = c_p / d_p, in which the builtin kappa tables and group
matrices are integral (the S3 omega-form kappa has d = (1, 2)).  A
monomial u^e is keyed by one int, with e_p in bits
[PACK_BITS*p, PACK_BITS*(p+1)), so multiplying two monomials is adding two
ints (packed exponent vectors, Monagan-Pearce 2007).  A sorted word is
packed alike, the count of letter l in bits [WORD_BITS*l, WORD_BITS*(l+1)):
sorting commuting letters together is adding words, the last letter is
the top field, and the length and x-degree are sums of the low fields,
read off one product with the all-ones word.  An element, the rewriting
caches and every intermediate result are one kind of flat map with one
key per term, (packed sorted word, gid, packed u-monomial) -> int or
Fraction.  The coefficient of u^e is that of c^e times prod d_p^e_p.

Conversion to and from the public c-variables (``ParamPoly``, exponent
tuples, ``Fraction`` values) happens only at the edges: ``element``,
``scalar``, ``param``, ``SRAElement.scale`` by a ``ParamPoly`` and the
literal parser's parameters pack coefficients in (``SRAlgebra._to_u``),
and ``SRAElement.coefficients`` (which ``to_str`` prints) unpacks them and
divides back exactly; words convert at the same edges (``pack_word``,
``word_of``).  ``specialize`` substitutes on the packed keys.  A carry
between fields would be silent, so ``multiply`` first bounds the product:
L(a) + L(b) letters, L a factor's longest word, must stay below
2^WORD_BITS, and E(a) + E(b) + k*(L(a) + L(b))//2, with E a factor's
largest parameter exponent and k the largest exponent in the kappa table
(each kappa step removes two letters), below 2^PACK_BITS; else it raises
AlgebraError (``_fits``, which the parser also asks before it inserts
letters).  Packing an exponent or a word that does not fit raises too.
Data that stays non-integral after scaling (a constant kappa term with a
denominator, a non-integral group matrix) flows through the same code as
``Fraction`` values mixed with ints.

Also here: the spherical corner, degree-truncated center computation
with its corner cross-checks, the Poisson bracket on the t = 0 center,
the trace-obstruction lattice, and symmetric-group character data for
it.  All operations are pure; algebras and elements may be shared
between threads.
"""

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from . import linalg
from .coeffs import ArityError, ParamPoly, R0, R1, check_exponents, exact, rat
from .coeffs import _kernel as K


# width in bits of one parameter's field in a packed monomial key: the
# exponent e_p of u^e sits in bits [PACK_BITS*p, PACK_BITS*(p+1))
PACK_BITS = 32
_FIELD = 1 << PACK_BITS

# width in bits of one letter's field in a packed word: a sorted word with
# e_l copies of letter l is the int sum of e_l << (WORD_BITS*l); a word of
# S4's six letters fits 60 bits, two 30-bit digits of a Python int
WORD_BITS = 10
_WFIELD = 1 << WORD_BITS


def pack_key(e):
    """The packed key of an exponent vector (no field check)."""
    key = 0
    for p, k in enumerate(e):
        key |= k << (PACK_BITS * p)
    return key


def unpack_key(key, nvars):
    """The exponent tuple of a packed key in ``nvars`` variables."""
    return tuple((key >> (PACK_BITS * p)) & (_FIELD - 1) for p in range(nvars))


class AlgebraError(ValueError):
    pass


class LiteralError(AlgebraError):
    """A malformed element literal."""


def _lower(x):
    """An int or Fraction as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def omega_kappa(group, rdata, local=None, mu=R1):
    """The commutator table of the omega-form presentation:

        kappa(v_j, v_i) = t*omega(v_j, v_i) + sum_s mu*c(s)*omega_s(v_j, v_i)*s

    with c(s) the parameter of the conjugation orbit of s.  ``local`` maps
    group ids to the ids they carry in the table, and only the reflections
    it contains enter (None: every reflection, under its own id); ``mu``
    converts the parameter normalization.
    """
    if local is None:
        local = {s: s for s in rdata.reflections}
    kept = [s for s in rdata.reflections if s in local]
    nparams = rdata.num_orbits + 1
    n = group.dim
    kappa = {}
    for j in range(n):
        for i in range(j):
            terms = {}
            vi = tuple(R1 if k == i else R0 for k in range(n))
            vj = tuple(R1 if k == j else R0 for k in range(n))
            w = group.omega_eval(vj, vi)
            if w:
                K.emap_axpy(terms, 0, {(1,) + (0,) * (nparams - 1): R1}, w)
            for s in kept:
                ws = rdata.omega_s_eval(s, vj, vi)
                if ws:
                    e = [0] * nparams
                    e[rdata.orbit_of[s] + 1] = 1
                    K.emap_axpy(terms, local[s], {tuple(e): R1}, ws * mu)
            if terms:
                kappa[(j, i)] = tuple(sorted(terms.items()))
    return kappa


class SRAlgebra:
    """Descriptor: group, basis order, commutator table, parameters."""

    def __init__(self, group, kappa, nparams, x_count=None, names=None, presentation="custom", rdata=None):
        self.group = group
        self.nv = group.dim
        self.kappa = kappa  # dict (j, i) j>i -> tuple of (gid, raw poly dict)
        self.nparams = nparams
        scales = [1] * nparams
        for terms in kappa.values():
            for _, poly in terms:
                for e, c in poly.items():
                    if sum(e) == 1:
                        p = e.index(1)
                        scales[p] = math.lcm(scales[p], c.denominator)
        self.scales = tuple(scales)
        self._packs = {}  # exponent tuple -> (packed key, weight, largest exponent)
        self._unpacks = {}  # packed key -> (exponent tuple, weight)
        self._specs = {}  # substituted values -> memo of ``_specializer``
        # the rewriting table in the u-variables, keyed by packed monomials,
        # with no zero coefficient (``_insert`` adds its terms one by one)
        self._kappa = {key: tuple((gid, self._to_u({e: c for e, c in poly.items() if c})) for gid, poly in terms)
                       for key, terms in kappa.items()}
        self._kappa_exp = max((e for terms in self._kappa.values() for _, poly in terms for k in poly for e in unpack_key(k, nparams)), default=0)
        self.x_count = x_count
        self.rdata = rdata
        self.presentation = presentation
        self.names = names or self._default_names()
        self._word_cache = {}  # letter tuple -> its normal form
        self._pair_cache = {}  # (packed w, packed u), both sorted -> NF(w u)
        self._gexp_cache = {}
        self._gmono_cache = {}
        self._columns = {}
        self._words = {}  # packed word -> letter tuple
        self._literal_names = None  # built by the first ``parse``
        for (j, i) in kappa:
            if not (0 <= i < j < self.nv):
                raise AlgebraError("kappa table must be indexed by pairs j > i")
        # the letters that commute with every smaller one (lower-free), and
        # those whose G-span commutes with every larger one (upper-free)
        rewrites = {key for key, terms in kappa.items() if terms}
        n = self.nv
        self._lower_free = tuple(not any((a, v) in rewrites for v in range(a)) for a in range(n))
        span = [{l for mat in group.mats for l in range(n) if mat[l][v]} for v in range(n)]
        self._upper_free = tuple(not any((b, l) in rewrites for l in span[v] for b in range(l + 1, n)) for v in range(n))
        # the one-letter words, their sum, and the fields of the lower-free letters
        self._units = tuple(1 << (WORD_BITS * l) for l in range(n))
        self._ones = sum(self._units)
        self._lower_mask = sum(u for u, free in zip(self._units, self._lower_free) if free)

    def _default_names(self):
        n = self.nv
        if self.x_count is not None and 2 * self.x_count == n:
            h = self.x_count
            if h == 1:
                vnames = ["x", "y"]
            else:
                vnames = ["x%d" % (i + 1) for i in range(h)] + ["y%d" % (i + 1) for i in range(h)]
        else:
            vnames = ["v%d" % (i + 1) for i in range(n)]
        pnames = ["t"] + ["c%d" % i for i in range(1, self.nparams)]
        gnames = {0: "e"}
        gen_names = self.group.gen_names
        for pos, gid in enumerate(self.group.generator_ids):
            if gen_names and pos < len(gen_names):
                gnames.setdefault(gid, gen_names[pos])
        return {"v": vnames, "p": pnames, "g": gnames}

    def group_name(self, gid):
        return self.names["g"].get(gid, "g%d" % gid)

    # -- constructors ---------------------------------------------------

    @classmethod
    def omega_form(cls, group, rdata):
        """Build the presentation driven by the symplectic form data
        (``omega_kappa`` over every reflection)."""
        kappa = omega_kappa(group, rdata)
        return cls(group, kappa, rdata.num_orbits + 1, x_count=group.h_dim, presentation="omega-form", rdata=rdata)

    # -- element constructors -------------------------------------------

    def zero(self):
        return SRAElement(self, {})

    def scalar(self, value):
        if isinstance(value, ParamPoly):
            if value.arity != self.nparams:
                raise AlgebraError("parameter arity mismatch")
            return SRAElement(self, {(0, 0, k): c for k, c in self._to_u(value.terms).items()})
        return SRAElement(self, {(0, 0, 0): value} if value else {})

    def one(self):
        return self.scalar(1)

    def param(self, index):
        return self.scalar(ParamPoly.var(self.nparams, index))

    def gen(self, v_index, power=1):
        if not (0 <= v_index < self.nv):
            raise AlgebraError("basis index out of range")
        return SRAElement(self, {(self.pack_word((v_index,) * power), 0, 0): 1})

    def group_elt(self, gid):
        return SRAElement(self, {(0, gid, 0): 1})

    def vector(self, coeffs, gid=0):
        """Element sum(coeffs[i] * v_i) * g."""
        return SRAElement(self, {(self._units[i], gid, 0): c for i, c in enumerate(coeffs) if c})

    def element(self, raw_terms):
        """Element from {(sorted word, gid): coefficient}, a coefficient a
        ParamPoly or a raw {exponents: rational} map in the c-variables.
        Raises ArityError on an exponent tuple of the wrong length or with a
        negative entry, and AlgebraError on one or a word too large to pack."""
        terms = {}
        for (m, g), v in raw_terms.items():
            if isinstance(v, ParamPoly):
                if v.arity != self.nparams:
                    raise ArityError("coefficient arity %d, expected %d" % (v.arity, self.nparams))
                v = v.terms
            w = self.pack_word(m)
            for k, c in self._to_u({e: c for e, c in v.items() if c}).items():
                terms[(w, g, k)] = c
        return SRAElement(self, terms)

    def pack_word(self, word):
        """The packed int of a word (a letter tuple, in any order); raises
        AlgebraError on 2^WORD_BITS letters or more."""
        if len(word) >= _WFIELD:
            raise AlgebraError("a word of %d letters reaches 2^%d" % (len(word), WORD_BITS))
        return sum(map(self._units.__getitem__, word))

    def word_of(self, w):
        """The sorted letter tuple of a packed word (memoized)."""
        hit = self._words.get(w)
        if hit is None:
            hit = self._words[w] = tuple(l for l in range(self.nv) for _ in range((w >> (WORD_BITS * l)) & (_WFIELD - 1)))
        return hit

    def _letters(self, w, below):
        """The number of letters < ``below`` in the packed word w (``nv``:
        its length): field p of w * ``_ones`` holds the sum of w's fields up
        to p, exact while a word has fewer than 2^WORD_BITS letters."""
        return (w * self._ones >> WORD_BITS * (below - 1)) & (_WFIELD - 1)

    # -- rewriting core --------------------------------------------------
    #
    # Coefficients are in the u-variables, ints wherever the data is
    # integral, each monomial u^e keyed by one packed int (``PACK_BITS``).

    def _pack(self, e):
        """(packed key, weight prod d_p^e_p) of an exponent tuple; raises
        ArityError on a malformed one and AlgebraError on an exponent too
        large for its field."""
        hit = self._packs.get(e)
        if hit is None:
            top = max(check_exponents(self.nparams, e), default=0)
            if top >= _FIELD:
                raise AlgebraError("parameter exponent %d reaches 2^%d" % (top, PACK_BITS))
            w = 1
            for d, k in zip(self.scales, e):
                w *= d**k
            hit = self._packs[e] = (pack_key(e), w)
        return hit

    def _to_u(self, terms):
        """A coefficient map in the c-variables, rewritten in the u-variables
        with packed keys: the input edge of every element."""
        out = {}
        for e, c in terms.items():
            key, w = self._pack(e)
            out[key] = _lower(c * w if w != 1 else c)
        return out

    def _unpack(self, key):
        """(exponent tuple, weight prod d_p^e_p) of a packed key."""
        hit = self._unpacks.get(key)
        if hit is None:
            e = unpack_key(key, self.nparams)
            hit = self._unpacks[key] = (e, self._pack(e)[1])
        return hit

    def _column(self, gid, v):
        key = (gid, v)
        col = self._columns.get(key)
        if col is None:
            mat = self.group.mats[gid]
            col = tuple((l, _lower(mat[l][v])) for l in range(self.nv) if mat[l][v])
            self._columns[key] = col
        return col

    def _gexpand(self, gid, word):
        """g . word for a word whose letters' G-spans commute (an upper-free
        tail), as a tuple of (packed word, coefficient)."""
        key = (gid, word)
        hit = self._gexp_cache.get(key)
        if hit is not None:
            return hit
        units = self._units
        acc = {0: 1}
        # merged by hand: routed through K.maxpy this builds a map per letter, measurably slower
        for v in word:
            col = self._column(gid, v)
            nxt = {}
            for w, c in acc.items():
                for l, m in col:
                    k = w + units[l]
                    cur = nxt.get(k)
                    if cur is None:
                        nxt[k] = c * m
                    else:
                        cur = cur + c * m
                        if cur:
                            nxt[k] = cur
                        else:
                            del nxt[k]
            acc = nxt
        out = self._gexp_cache[key] = tuple(acc.items())
        return out

    def _word_normal(self, word):
        """Normal form of a plain word of basis indices (a letter tuple).

        Returns a frozen flat map {(packed sorted word, gid, packed key):
        value}.  Callers must not mutate the result.  The free letters and
        the fold of the core are described in the module docstring.
        """
        hit = self._word_cache.get(word)
        if hit is not None:
            return hit
        cache, lower, upper = self._word_cache, self._lower_free, self._upper_free
        i, j = 0, len(word)
        while i < j and lower[word[i]]:
            i += 1
        while j > i and upper[word[j - 1]]:
            j -= 1
        core = word[i:j]
        s = 1
        while s < len(core) and core[s - 1] <= core[s]:
            s += 1
        if s >= len(core):
            out = {(self.pack_word(word), 0, 0): 1}
        elif i or j < len(word):
            head, tail = self.pack_word(word[:i]), word[j:]
            plain = ((self.pack_word(tail), 1),)
            out = {}
            for (m, h, k), c in self._word_normal(core).items():
                for w, q in self._gexpand(h, tail) if h and tail else plain:
                    key = (head + m + w, h, k)
                    cur = out.get(key, 0) + c * q
                    if cur:
                        out[key] = cur
                    else:
                        del out[key]
        else:
            out = self._insert(core[:s], core[s])
            for t in range(s + 1, len(core)):
                cache[core[:t]] = out
                out = self._right_letter(out, core[t])
        cache[word] = out
        return out

    def _insert(self, word, v):
        """Normal form of the sorted word m = m' a (a letter tuple) times a
        letter v < a: NF(m' v) a + m' kappa(a, v)."""
        head, a = word[:-1], word[-1]
        if not head or head[-1] <= v:
            out = {(self.pack_word(word) + self._units[v], 0, 0): 1}
        else:
            out = self._right_letter(self._word_normal(head + (v,)), a)
        head = self.pack_word(head)
        for gid, poly in self._kappa.get((a, v), ()):
            for k, c in poly.items():
                key = (head, gid, k)
                cur = out.get(key, 0) + c
                if cur:
                    out[key] = cur
                else:
                    del out[key]
        return out

    def _pair(self, w, u):
        """NF(w u) for two packed sorted words, memoized by the pair."""
        out = self._pair_cache[(w, u)] = self._word_normal(self.word_of(w) + self.word_of(u))
        return out

    def _right_letter(self, nf, v):
        """The flat normal form ``nf`` times the letter v on the right, as a
        new map: (w, h) v = w (h . v) h, one insertion per letter of h . v
        that does not already sort after w (w's last letter is its top
        field)."""
        table, units, pairs = self.group.table, self._units, self._pair_cache
        out = {}
        for (w, h, k), c in nf.items():
            last = (w.bit_length() - 1) // WORD_BITS
            for l, q in self._column(h, v):
                if last <= l:
                    key = (w + units[l], h, k)
                    cur = out.get(key, 0) + c * q
                    if cur:
                        out[key] = cur
                    else:
                        del out[key]
                else:
                    src = pairs.get((w, units[l]))
                    if src is None:
                        src = self._pair(w, units[l])
                    K.pbw_addmul(out, src, {k: c}, q, table, h)
        return out

    def _gmono_normal(self, gid, mono):
        """Normal form of the element g . mono (no trailing group part): g mono
        = NF(g . mono) g, folded one letter at a time (one term per monomial)."""
        key = (gid, mono)
        hit = self._gmono_cache.get(key)
        if hit is not None:
            return hit
        out = {(0, gid, 0): 1}
        for v in self.word_of(mono):
            out = self._right_letter(out, v)
        table, ginv = self.group.table, self.group.inv[gid]
        out = self._gmono_cache[key] = {(w, table[h][ginv], k): c for (w, h, k), c in out.items()}
        return out

    def _fits(self, what, *maps, letters=0):
        """Raise AlgebraError unless a product of the flat maps ``maps``,
        with ``letters`` more letters, keeps every packed field in range: a
        word needs fewer than 2^WORD_BITS letters, and each kappa step
        removes two letters and raises an exponent by at most
        ``_kappa_exp``."""
        ones, shift, top = self._ones, WORD_BITS * (self.nv - 1), 0
        for terms in maps:
            longest = high = 0
            for w, _, k in terms:
                if (w * ones >> shift) & (_WFIELD - 1) > longest:
                    longest = (w * ones >> shift) & (_WFIELD - 1)
                while k:
                    if k & (_FIELD - 1) > high:
                        high = k & (_FIELD - 1)
                    k >>= PACK_BITS
            top, letters = top + high, letters + longest
        if letters >= _WFIELD:
            raise AlgebraError("a word of this %s could reach 2^%d letters" % (what, WORD_BITS))
        if top + self._kappa_exp * (letters // 2) >= _FIELD:
            raise AlgebraError("a parameter exponent of this %s could reach 2^%d" % (what, PACK_BITS))

    def multiply(self, a, b, xcap=None):
        """Normal-form product.  ``xcap`` prunes terms whose x-degree is
        provably >= xcap (doubled algebras only).  Raises AlgebraError when
        a parameter exponent of the product could reach 2^PACK_BITS or a
        word 2^WORD_BITS letters.  With m1 = head rest, head the lower-free
        letters, NF(m1 g1 m2 g2) is head NF(rest p) h' g1 g2 over the terms
        p h' of NF(g1 . m2) (``_gmono_normal``)."""
        if a.algebra is not b.algebra:
            raise AlgebraError("elements of different algebras")
        self._fits("product", a.terms, b.terms)
        letters, xc, nv = self._letters, self.x_count, self.nv
        table, pairs, mask = self.group.table, self._pair_cache, self._lower_mask
        ones, xs, fm = self._ones, WORD_BITS * (xc - 1) if xcap is not None else 0, _WFIELD - 1
        # (word, gid, packed key, value, x-degree minus y-degree: kappa
        # steps keep it, and it bounds the x-degree)
        right = [(m2, g2, k2, c2 if type(c2) is int else _lower(c2), 2 * letters(m2, xc) - letters(m2, nv) if xcap is not None else 0)
                 for (m2, g2, k2), c2 in b.terms.items()]
        rows = {}  # g1 -> the right terms with NF(g1 . m2) and g1 g2
        out = {}
        get = out.get
        for (m1, g1, k1), c1 in a.terms.items():
            if type(c1) is not int:
                c1 = _lower(c1)
            head = m1 & mask
            rest = m1 - head
            if xcap is not None:
                xy1 = 2 * letters(m1, xc) - letters(m1, nv)
                room = xcap - letters(head, xc)
            row = rows.get(g1)
            if row is None:
                row = rows[g1] = [(self._gmono_normal(g1, m2).items(), table[g1][g2], k2, c2, xy2) for m2, g2, k2, c2, xy2 in right]
            for pieces, g12, k2, c2, xy2 in row:
                if xcap is not None and xy1 + xy2 >= xcap:
                    continue
                k12, c12 = k1 + k2, c1 * c2
                for (mp, gp, kq), q in pieces:
                    # the memo probed here: most pieces hit, and a method
                    # call per hit was measurably slower
                    src = pairs.get((rest, mp))
                    if src is None:
                        src = self._pair(rest, mp)
                    g, kk, s = table[gp][g12], k12 + kq, c12 * q
                    for (m, h, kb), cb in src.items():
                        if xcap is not None and (m * ones >> xs) & fm >= room:
                            continue
                        key = (m + head, table[h][g], kb + kk)
                        cur = get(key)
                        if cur is None:
                            out[key] = s * cb
                        else:
                            cur = cur + s * cb
                            if cur:
                                out[key] = cur
                            else:
                                del out[key]
        return SRAElement(self, out)

    def _times(self, poly, elt):
        """``elt`` times the scalar {packed key: value} ``poly``; raises
        AlgebraError when an exponent would not fit its field."""
        # scaling rewrites nothing: the words do not count
        self._fits("product", [(0, 0, k) for _, _, k in elt.terms], [(0, 0, k) for k in poly])
        return SRAElement(self, K.pbw_addmul({}, elt.terms, poly, 1, self.group.table, 0))

    def normalize_word(self, factors):
        """Normal form of a product of factors.

        Each factor is a V-vector (sequence of rationals of length 2n), a
        group element ("g", gid), a parameter polynomial, or a rational.
        A zero vector annihilates the word.
        """
        acc = self.one()
        for f in factors:
            if isinstance(f, tuple) and len(f) == 2 and f[0] == "g":
                acc = self.multiply(acc, self.group_elt(f[1]))
            elif isinstance(f, (list, tuple)):
                acc = self.multiply(acc, self.vector(f))
            else:
                acc = acc.scale(f)
        return acc

    # -- parsing ----------------------------------------------------------

    def parse(self, text):
        """Parse an element literal like "y*x - t + 2*c1*s"."""
        return _parse_element(self, text)


class SRAElement:
    """Normal-form element: the flat map
    {(sorted word, gid, packed u-monomial): int or Fraction}."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, SRAElement):
            return self.algebra is other.algebra and self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, SRAElement):
            other = self.algebra.scalar(other)
        if self.algebra is not other.algebra:
            raise AlgebraError("elements of different algebras")
        return SRAElement(self.algebra, K.madd(self.terms, other.terms))

    def __sub__(self, other):
        if not isinstance(other, SRAElement):
            other = self.algebra.scalar(other)
        return self + (-other)

    def __neg__(self):
        return SRAElement(self.algebra, K.mneg(self.terms))

    def __mul__(self, other):
        if isinstance(other, SRAElement):
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars and parameters are central
        return self.scale(other)

    def scale(self, c):
        """This element times a rational or a ``ParamPoly``."""
        alg = self.algebra
        if isinstance(c, ParamPoly):
            return alg._times(alg._to_u(c.terms), self)
        return SRAElement(alg, K.mscale(self.terms, c))

    def commutator(self, other):
        return self * other - other * self

    def specialize(self, t=None, c=None):
        """Substitute rationals for t and/or the orbit parameters."""
        spec = _specializer(self.algebra, t, c)
        out = {}
        for (m, g, k), x in self.terms.items():
            k2, f, _, _ = spec(k)
            if f:
                key = (m, g, k2)
                out[key] = out.get(key, 0) + x * f
        return SRAElement(self.algebra, {k: x for k, x in out.items() if x})

    def coefficients(self):
        """The terms in the public c-variables: {(sorted word, gid): ParamPoly},
        keyed by exponent tuples, with ``Fraction`` values."""
        alg = self.algebra
        grouped = {}
        for (m, g, k), c in self.terms.items():
            e, w = alg._unpack(k)
            m = alg.word_of(m)
            poly = grouped.get((m, g))
            if poly is None:
                poly = grouped[(m, g)] = {}
            poly[e] = Fraction(c, w) if type(c) is int else c / w
        return {k: ParamPoly(alg.nparams, v) for k, v in grouped.items()}

    def vdegree(self):
        """Filtration degree: length of the longest word present."""
        return max((self.algebra._letters(m, self.algebra.nv) for (m, _, _) in self.terms), default=0)

    def xdegree(self):
        alg = self.algebra
        return max((alg._letters(m, alg.x_count) for (m, _, _) in self.terms), default=0)

    def ydegree(self):
        alg = self.algebra
        return max((alg._letters(m, alg.nv) - alg._letters(m, alg.x_count) for (m, _, _) in self.terms), default=0)

    def truncate_x(self, order):
        """Drop terms of x-degree >= order (doubled algebras; the x letters
        are the low fields of a packed word)."""
        alg = self.algebra
        ones, xs = alg._ones, WORD_BITS * (alg.x_count - 1)
        out = {k: v for k, v in self.terms.items() if (k[0] * ones >> xs) & (_WFIELD - 1) < order}
        return SRAElement(alg, out)

    def sorted_terms(self):
        """``coefficients`` in canonical order: graded-lex on the monomial,
        then the group element's canonical matrix key (``groups.mat_key``)."""
        keys = self.algebra.group.sort_keys
        return sorted(self.coefficients().items(), key=lambda kv: (len(kv[0][0]), kv[0][0], keys[kv[0][1]]))

    def to_str(self):
        if not self.terms:
            return "0"
        alg = self.algebra
        vnames = alg.names["v"]
        pnames = alg.names["p"]
        chunks = []
        for (m, g), p in self.sorted_terms():
            factors = []
            i = 0
            while i < len(m):
                j = i
                while j < len(m) and m[j] == m[i]:
                    j += 1
                factors.append(vnames[m[i]] if j - i == 1 else "%s^%d" % (vnames[m[i]], j - i))
                i = j
            if g != 0:
                factors.append(alg.group_name(g))
            body = "*".join(factors)
            ps = p.to_str(pnames)
            if body:
                if ps == "1":
                    chunks.append(body)
                elif ps == "-1":
                    chunks.append("-" + body)
                elif "+" in ps or (ps.count("-") - ps.startswith("-")) > 0:
                    chunks.append("(%s)*%s" % (ps, body))
                else:
                    chunks.append("%s*%s" % (ps, body))
            else:
                chunks.append(ps if ("+" not in ps and (ps.count("-") - ps.startswith("-")) == 0) else "(%s)" % ps)
        out = chunks[0]
        for t in chunks[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def __repr__(self):
        return "<%s>" % self.to_str()


# -- literal parsing ------------------------------------------------------

# largest exponent an element literal may write: a power is built one
# factor at a time, so an unbounded one is an unbounded computation
MAX_LITERAL_EXPONENT = 100

# one token after optional blanks: a number p or p/q, a name, an operator,
# or any other character (an error)
_TOKEN = r"\s*(?:(\d+(?:/\d+)?)|([^\W\d]\w*)|([-+*^()])|(\S))"


def _literal_names(alg):
    """Element-literal names: basis vectors, parameters (``c`` too when
    there is one orbit) and group elements, earlier kinds first."""
    names = {nm: ("v", i) for i, nm in enumerate(alg.names["v"])}
    names.update((nm, ("p", i)) for i, nm in enumerate(alg.names["p"]))
    if alg.nparams == 2:
        names.setdefault("c", ("p", 1))
    for gid in range(alg.group.order):
        names.setdefault(alg.group_name(gid), ("g", gid))
    return names


def _number(tok):
    """The int or Fraction that a number token writes."""
    num, _, den = tok.partition("/")
    if not den:
        return int(num)
    if not int(den):
        raise LiteralError("zero denominator in %r" % tok)
    return _lower(Fraction(int(num), int(den)))


def _parse_element(alg, text):
    tokens = []
    for num, name, op, bad in re.findall(_TOKEN, text):
        if bad:
            raise LiteralError("unexpected character %r in element literal" % bad)
        tokens.append(num or name or op)
    if alg._literal_names is None:
        alg._literal_names = _literal_names(alg)
    names = alg._literal_names
    table = alg.group.table
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise LiteralError("element literal %r ends early" % text)
        tok = tokens[pos]
        pos += 1
        return tok

    def times(a, b):
        # scalars and parameters are central: a factor whose terms all have
        # the empty word and the identity group part scales the other
        for s, f in ((a, b), (b, a)):
            if all(not m and not g for m, g, _ in s.terms):
                return alg._times({k: x for (_, _, k), x in s.terms.items()}, f)
        return a * b

    def parse_factor(terms):
        """The flat map ``terms`` times the next factor to its power: by
        right insertions for a letter, by scaling for a number, by
        relabeling for a group element, else through ``times``."""
        tok = take()
        if tok == "(":
            kind, base = "e", parse_expr()
            if peek() != ")":
                raise LiteralError("unbalanced parentheses in element literal")
            take()
        elif tok[0].isdigit():
            kind, base = "n", _number(tok)
        elif tok in names:
            kind, base = names[tok]
        else:
            raise LiteralError("unknown symbol %r in element literal" % tok)
        n = 1
        if peek() == "^":
            take()
            exp = take()
            if not exp.isdecimal():
                raise LiteralError("exponent must be a nonnegative integer")
            n = int(exp)
            if n > MAX_LITERAL_EXPONENT:
                raise LiteralError("exponent %d exceeds the literal limit %d" % (n, MAX_LITERAL_EXPONENT))
        if kind == "v":
            alg._fits("product", terms, letters=n)
            for _ in range(n):
                terms = alg._right_letter(terms, base)
        elif kind == "n":
            terms = K.mscale(terms, base**n)
        elif kind == "g":
            g = 0
            for _ in range(n):
                g = table[g][base]
            terms = {(m, table[h][g], k): c for (m, h, k), c in terms.items()}
        else:
            out = SRAElement(alg, terms)
            base = alg.param(base) if kind == "p" else base
            for _ in range(n):
                out = times(out, base)
            terms = out.terms
        return terms

    def parse_term():
        terms = parse_factor({(0, 0, 0): 1})
        while peek() == "*":
            take()
            terms = parse_factor(terms)
        return SRAElement(alg, terms)

    def parse_expr():
        negate = peek() == "-"
        if peek() in ("+", "-"):
            take()
        out = parse_term()
        if negate:
            out = -out
        while peek() in ("+", "-"):
            out = out - parse_term() if take() == "-" else out + parse_term()
        return out

    result = parse_expr()
    if pos != len(tokens):
        raise LiteralError("trailing garbage in element literal")
    return result


# -- graded dimensions ------------------------------------------------------


def pbw_dimension(alg, d):
    """Count of normal-form basis elements of V-degree exactly d."""
    if d < 0:
        raise AlgebraError("degree must be nonnegative")
    n = alg.nv
    return math.comb(d + n - 1, n - 1) * alg.group.order


# -- spherical corner -------------------------------------------------------


def spherical_idempotent(alg):
    scale = rat(1, alg.group.order)
    return SRAElement(alg, {(0, g, 0): scale for g in range(alg.group.order)})


# -- center computation -----------------------------------------------------


def monomials(n, d):
    """Exponent tuples of the degree-d monomials in n variables, sorted."""
    return sorted(tuple(m.count(i) for i in range(n)) for m in combinations_with_replacement(range(n), d))


def _coord_keys(alg, d, c_values, include_t):
    """Coordinate keys (mono, gid, param exponents) for elements of
    V-degree <= d.  With symbolic parameters the keys carry parameter
    exponents and enumeration is by scaling weight; with specialized
    parameters the exponents are all zero."""
    coords = range(alg.nv)
    keys = []
    if c_values is not None:
        for deg in range(d + 1):
            for m in combinations_with_replacement(coords, deg):
                for g in range(alg.group.order):
                    keys.append((m, g, (0,) * alg.nparams))
        return keys
    # symbolic: enumerate by weight w = |mono| + 2*|param exponents|
    lead = () if include_t else (0,)
    pexps = [[lead + e for e in monomials(alg.nparams - len(lead), pdeg)] for pdeg in range(d // 2 + 1)]
    for w in range(d + 1):
        for pdeg in range(w // 2 + 1):
            vdeg = w - 2 * pdeg
            for m in combinations_with_replacement(coords, vdeg):
                for g in range(alg.group.order):
                    for pe in pexps[pdeg]:
                        keys.append((m, g, pe))
    return keys


def conjugation_sum(alg, elt, gids):
    """sum over g in ``gids`` of g * elt * g^-1, with no product rewritten,
    as a flat map {(word, gid, packed u-monomial): value} (the terms of an
    element).

    g (m, h) g^-1 = (g . m) g h g^-1, and ``_gmono_normal(g, m)`` caches the
    normal form of g . m: each of its terms (word, h', u^k) gives the term
    (word, h' g h g^-1, u^k).  In a doubled algebra the x's commute with
    each other and so do the y's, so that normal form only sorts.  Raises
    AlgebraError when a parameter exponent could reach 2^PACK_BITS.
    """
    table, inv = alg.group.table, alg.group.inv
    alg._fits("conjugate", elt.terms)
    out = {}
    for (m, h, k), x in elt.terms.items():
        for g in gids:
            K.pbw_addmul(out, alg._gmono_normal(g, m), {k: x}, 1, table, table[table[g][h]][inv[g]])
    return out


def _bracket(alg, z, i):
    """[z, v_i] as a flat map, for z a flat map: z v_i is one right
    insertion (``_right_letter``), v_i z puts v_i in front (``_pair``).
    The caller bounds the exponents (``center_basis``)."""
    table, pairs, vi = alg.group.table, alg._pair_cache, alg._units[i]
    out = alg._right_letter(z, i)
    for (m, h, k), x in z.items():
        src = pairs.get((vi, m))
        K.pbw_addmul(out, alg._pair(vi, m) if src is None else src, {k: x}, -1, table, h)
    return out


def _specializer(alg, t, c_values):
    """A memoized map from a packed u-monomial u^e to (the packed key of e
    with the substituted variables set to 0, the factor prod (v_p/d_p)^e_p
    over them that substitutes u_p = v_p/d_p, that exponent tuple, the
    factor that turns the coefficient of u^e into that of the c-monomial
    with the substitution made).  As in ``SRAElement.specialize``, t and
    the orbit parameters are substituted unless None.  One memo per
    algebra and substitution."""
    values = {} if t is None else {0: exact(t)}
    if c_values is not None:
        if len(c_values) != alg.nparams - 1:
            raise AlgebraError("expected %d orbit parameters" % (alg.nparams - 1))
        for i, v in enumerate(c_values):
            values[i + 1] = exact(v)
    memo = alg._specs.setdefault(tuple(sorted(values.items())), {})

    def spec(key):
        hit = memo.get(key)
        if hit is None:
            e = list(alg._unpack(key)[0])
            f = R1
            for p, v in values.items():
                if e[p]:
                    f *= (v / alg.scales[p]) ** e[p]
                    e[p] = 0
            e = tuple(e)
            k2, w = alg._pack(e)
            hit = memo[key] = (k2, _lower(f), e, _lower(f / w))
        return hit

    return spec


def _coords(flat, slots, spec):
    """A flat map in the u-variables, specialized by ``spec``
    (``_specializer``), as a sparse map {slot index: value} over
    (word, gid, exponents) slots; a slot met for the first time is
    appended to ``slots``."""
    vec = {}
    for (m, g, k), x in flat.items():
        _, _, e, f = spec(k)
        if f:
            key = (m, g, e)
            idx = slots.get(key)
            if idx is None:
                slots[key] = idx = len(slots)
            vec[idx] = vec.get(idx, 0) + (x * f if f != 1 else x)
    return {i: x for i, x in vec.items() if x}


def _test_elements(alg):
    """The indices i of the basis vectors v_i whose orbits under the group
    span V, taken greedily in index order: v_i is taken when it is not in
    the span of the orbits of those taken before.  An element of H^W that
    commutes with v commutes with w v w^-1 = w . v for every w, so on H^W
    commuting with these is commuting with V.  For S_n on h (reflection or
    permutation) that is one x and one y; the product of two rank-one
    groups needs all four vectors."""
    span = linalg.RankTracker()
    out = []
    for i in range(alg.nv):
        if span.reduce({i: R1}):
            out.append(i)
            for g in range(alg.group.order):
                span.add(dict(alg._column(g, i)))
    return out


class CenterBasis:
    """Result of the degree-truncated center computation.

    ``elements`` are normal-form central elements; with symbolic
    parameters they form a module basis over the parameter ring (scaling
    weight homogeneous, new at their own weight); ``graded_dims[d]``
    counts basis elements of top V-degree d. ``cutoff`` records the
    truncation: centrality is asserted for the span only up to it.
    """

    def __init__(self, elements, graded_dims, cutoff, mode):
        self.elements = elements
        self.graded_dims = graded_dims
        self.cutoff = cutoff
        self.mode = mode


def center_basis(alg, d, c_values=None, include_t=False, t_value=None):
    """Basis of central elements of V-degree <= d at t = t_value (default 0).

    ``c_values``: rationals to specialize the orbit parameters, or None
    to work with symbolic parameters (module basis over the parameter
    ring).  ``include_t`` keeps t symbolic instead of pinning it (used by
    the generic-center cross-check).

    The solve runs on H^W: a central element commutes with W, so it is the
    image of itself under the Reynolds operator z -> sum_g g z g^-1 (up to
    1/|W|).  The unknowns are the independent Reynolds images of the
    coordinate keys (``conjugation_sum``, no product rewritten); a key
    whose group part is not its class's least element is skipped, since
    the images of (m, h) and of the (m', k h k^-1) span the same space.
    On H^W commuting with V is commuting with ``_test_elements``.  The null
    vectors are mapped back to key coordinates and reduced with each pivot
    at the highest key, which re-derives the ``linalg.nullspace`` basis of
    the key-by-key system (1 in its own free key, 0 in the other free
    keys): that basis depends only on the null space and the key order.
    Raises AlgebraError when conjugation leaves the span of the keys (a
    commutator table that is not homogeneous in the scaling weight).
    """
    if t_value is None:
        t_value = R0
    # the keys carry parameter exponents <= d // 2 (a t-power stands for
    # them), and a bracket adds one letter to a key's d
    alg._fits("degree-%d center" % d, [(0, 0, d // 2)], letters=d + 1)
    spec = _specializer(alg, None if include_t else t_value, c_values)
    pack = alg._pack
    reps = {cls[0] for cls in alg.group.classes}
    everything = range(alg.group.order)
    table, inv = alg.group.table, alg.group.inv
    # [z, v] is invariant under the stabilizer S of v when z is in H^W, so
    # (as for the unknowns) it vanishes when its terms vanish at one group
    # element of each orbit of S acting on the group by conjugation
    tests = []
    for i in _test_elements(alg):
        stab = [g for g in everything if alg._column(g, i) == ((i, 1),)]
        tests.append((i, {h for h in everything if h == min(table[table[g][h]][inv[g]] for g in stab)}))

    def central_combinations(keys):
        keys = [(alg.pack_word(m), g, pe) for m, g, pe in keys]
        index = {k: i for i, k in enumerate(keys)}
        images, vecs = [], []
        tracker = linalg.RankTracker()
        for m, h, pe in keys:
            if h not in reps:
                continue
            # the key's element c^pe (m, h) is d^pe u^pe (m, h)
            pk, weight = pack(pe)
            flat = conjugation_sum(alg, SRAElement(alg, {(m, h, pk): weight}), everything)
            # independence shows on the terms at the class representatives:
            # the top-degree part of a W-invariant element at k h k^-1 is
            # k . (its part at h), so one that vanishes there is 0
            if not tracker.add(_coords({key: x for key, x in flat.items() if key[1] == h}, index, spec)):
                continue
            images.append(flat)
            vecs.append(_coords(flat, index, spec))
        if len(index) > len(keys):
            raise AlgebraError("conjugation leaves the span of the degree-%d keys" % d)
        # one column per image, stacking its brackets with every test
        # vector, transposed into one sparse row per (test vector, slot)
        # that occurs; each distinct row once (columns fill in ascending
        # order, so equal rows list their items alike), shortest first: the
        # RREF does not depend on the row order, and a row with one entry
        # settles its column before longer rows can fill it in
        slots = {}
        by_test = [{} for _ in tests]
        for j, z in enumerate(images):
            for rows, (i, seen) in zip(by_test, tests):
                flat = {key: x for key, x in _bracket(alg, z, i).items() if key[1] in seen}
                for slot, x in _coords(flat, slots, spec).items():
                    row = rows.get(slot)
                    if row is None:
                        rows[slot] = row = {}
                    row[j] = x
        distinct = {tuple(row.items()): row for rows in by_test for row in rows.values()}
        matrix_rows = sorted(distinct.values(), key=len)
        # the null vectors in key coordinates, reduced on reversed columns
        top = len(keys) - 1
        reduced = linalg.RankTracker()
        for v in linalg.nullspace(matrix_rows, len(images)):
            acc = {}
            for a, vec in zip(v, vecs):
                K.maxpy(acc, vec, a)
            reduced.add({top - i: x for i, x in acc.items()})
        out = []
        for p in sorted(reduced.rows, reverse=True):
            cols = sorted(top - c for c in reduced.rows[p])
            terms = {}
            for i, coef in zip(cols, linalg.clear_denominators([reduced.rows[p][top - i] for i in cols])):
                m, g, pe = keys[i]
                pk, weight = pack(pe)
                terms[(m, g, pk)] = coef * weight
            out.append(SRAElement(alg, terms))
        return out

    if c_values is not None:
        elements = central_combinations(_coord_keys(alg, d, c_values, include_t))
        # every packed key is 0 here: the order is by (word, gid)
        elements.sort(key=lambda e: (e.vdegree(), sorted((alg.word_of(m), g) for m, g, _ in e.terms)))
        dims = [0] * (d + 1)
        for e in elements:
            dims[e.vdegree()] += 1
        return CenterBasis(elements, dims, d, "specialized")

    # symbolic parameters: weight-by-weight over Q, keeping only the
    # elements that are new modulo parameter multiples of lower weights
    elements = []
    dims = [0] * (d + 1)
    prev_weight_elts = {}
    units = [1 << (PACK_BITS * pv) for pv in range(0 if include_t else 1, alg.nparams)]
    all_keys = _coord_keys(alg, d, None, include_t)
    for w in range(d + 1):
        keys = [k for k in all_keys if len(k[0]) + 2 * sum(k[2]) == w]
        if not keys:
            prev_weight_elts[w] = []
            continue
        weight_elements = central_combinations(keys)
        prev_weight_elts[w] = weight_elements
        # new = complement of (parameter * weight-(w-2) center) in weight-w center
        # u_p z spans the line of c_p z; adding the key of u_p to each
        # packed key multiplies by it
        old = [{(m, g, k + unit): x for (m, g, k), x in z.terms.items()}
               for z in prev_weight_elts.get(w - 2, []) for unit in units]
        coordslots = {}
        tracker = linalg.RankTracker()
        for flat in old:
            tracker.add(_coords(flat, coordslots, spec))
        for z in weight_elements:
            if tracker.add(_coords(z.terms, coordslots, spec)):
                elements.append(z)
                dims[z.vdegree()] += 1
    return CenterBasis(elements, dims, d, "symbolic")


def recheck_central(alg, elt, c_values=None, include_t=False, t_value=None):
    """Post-hoc check, independent of the H^W solve: commutes with every
    basis vector and every group generator."""
    if t_value is None:
        t_value = R0
    t = None if include_t else t_value
    tests = [alg.gen(i) for i in range(alg.nv)] + [alg.group_elt(g) for g in alg.group.generator_ids]
    return not any(elt.commutator(u).specialize(t=t, c=c_values) for u in tests)


def _dropped(flat):
    """A flat map with its group parts dropped and summed: the words x
    with x e = (the map) e, e the spherical idempotent (h e = e)."""
    out = {}
    for (m, _, k), x in flat.items():
        out[(m, 0, k)] = out.get((m, 0, k), 0) + x
    return out


def satake_corner_check(alg, basis, d, c_values=None):
    """The corner map z -> e z e on the center: injectivity plus equality
    with the dimension of the degree-<= d spherical corner.  Neither side
    rewrites a product.

    x -> x e is injective on the span of the words, and h e = e.  The
    center side: for central z = sum_h b_h h, e z e = z e = (sum_h b_h) e,
    so the map is injective on the basis exactly when the basis with its
    group parts dropped and summed has full rank.  This leans on
    centrality, which ``recheck_central`` certifies in the same report
    with every basis vector and generator; for a z that is not central,
    e z need not equal z e.  The corner side: g e = e gives
    e m e = (1/|W|) (sum_g g m g^-1) e, so the corner's dimension is the
    rank of the ``conjugation_sum`` of each monomial with its group parts
    dropped.  And e (m g) e = e m e, so one sum per monomial spans the
    corner."""
    spec = _specializer(alg, R0, c_values)
    slots = {}
    tr = linalg.RankTracker()
    for z in basis:
        tr.add(_coords(_dropped(z.terms), slots, spec))
    injective = tr.rank == len(basis)

    slots2 = {}
    tr2 = linalg.RankTracker()
    everything = range(alg.group.order)
    for deg in range(d + 1):
        for m in combinations_with_replacement(range(alg.nv), deg):
            flat = conjugation_sum(alg, SRAElement(alg, {(alg.pack_word(m), 0, 0): 1}), everything)
            tr2.add(_coords(_dropped(flat), slots2, spec))
    corner_dim = tr2.rank
    return {"injective": injective, "corner_dim": corner_dim, "basis_size": len(basis), "spans_corner": injective and corner_dim == len(basis)}


# -- Poisson bracket --------------------------------------------------------


def poisson_bracket(alg, z1, z2):
    """Bracket on the t = 0 center: lift with identical coefficients,
    commutate over the full parameter ring, divide exactly by t, set t = 0.

    Raises AlgebraError when the commutator is not divisible by t (the
    inputs were not central at t = 0).
    """
    com = alg.multiply(z1, z2) - alg.multiply(z2, z1)
    # t = d_0 u_0: dividing by t lowers the t field of a packed key by one
    # and divides the value by d_0; setting t = 0 keeps the terms whose t
    # field is then 0
    d0 = Fraction(alg.scales[0])
    out = {}
    for (m, g, k), x in com.terms.items():
        tk = k & (_FIELD - 1)
        if not tk:
            raise AlgebraError("inputs not central at t=0: commutator has a t-free part")
        if tk == 1:
            out[(m, g, k - 1)] = x / d0
    return SRAElement(alg, out)


# -- the trace-obstruction lattice and its gate -----------------------------


def simplicity_lattice(m_list, irreducibles):
    """Generators (m_i * n_i(M'))_i over the irreducibles, zero vectors
    removed, deduplicated, sorted."""
    vecs = set()
    for dim, traces in irreducibles:
        if len(traces) != len(m_list):
            raise AlgebraError("trace vector has wrong orbit count")
        v = tuple(m * n for m, n in zip(m_list, traces))
        if any(v):
            vecs.add(v)
    return sorted(vecs)


def lattice_gate(lattice, c_list, t_value=1):
    """True when some integer pairing occurs: the no-finite-dimensional-
    representation certificate fails and the parameter is a candidate for
    non-simplicity.  c in omega-form normalization, t = 1 scaling."""
    t_value = exact(t_value)
    witnesses = []
    for lam in lattice:
        val = sum((l * exact(c) for l, c in zip(lam, c_list)), R0) / t_value
        if val == int(val):
            witnesses.append(lam)
    return {"candidate_nonsimple": bool(witnesses), "integral_witnesses": witnesses}


# -- symmetric group characters ----------------------------------------------


def partitions(n):
    """Partitions of n in descending lexicographic order."""
    out = []

    def rec(left, maxpart, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        for k in range(min(left, maxpart), 0, -1):
            rec(left - k, k, acc + [k])

    rec(n, n, [])
    return out


@lru_cache(maxsize=None)
def hook_dimension(lam):
    """Number of standard tableaux by the hook length formula."""
    n = sum(lam)
    conj = [0] * (lam[0] if lam else 0)
    for part in lam:
        for j in range(part):
            conj[j] += 1
    prod = 1
    for i, part in enumerate(lam):
        for j in range(part):
            prod *= part - j + conj[j] - i - 1
    return math.factorial(n) // prod


def sn_reflection_characters(n):
    """Per partition of n: (dimension, character value on a transposition).

    The trace is dim * 2 * (sum of contents) / (n(n-1)).
    """
    if not (2 <= n <= 10):
        raise AlgebraError("supported range is 2 <= n <= 10")
    out = []
    for lam in partitions(n):
        dim = hook_dimension(lam)
        contents = sum(j - i for i, part in enumerate(lam) for j in range(part))
        tr = rat(dim * 2 * contents, n * (n - 1))
        if tr != int(tr):
            raise AlgebraError("character value is not integral")  # pragma: no cover
        out.append((lam, dim, rat(int(tr))))
    return out
