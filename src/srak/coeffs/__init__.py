"""Exact coefficient arithmetic: rationals and parameter polynomials.

Rationals are ``fractions.Fraction``: arbitrary-precision, always reduced,
positive denominator.

``ParamPoly`` is a multivariate polynomial in the deformation parameters
``t (= c0), c1, ..., cr`` with rational coefficients, stored as a sparse
map from exponent tuples of fixed arity ``r + 1`` to nonzero rationals.
All values are immutable in use: operations return fresh objects and
never mutate shared state, so anything here may be freely shared between
threads.
"""

from fractions import Fraction

from . import _kernel as K

# the only kernel and the only rational type; kept because perfbench/run.py
# stamps its runs with them
KERNEL_BACKEND = "pure"
RAT_BACKEND = "fractions"


def rat(p, q=1):
    """Exact rational p/q."""
    return Fraction(p, q)


R0 = rat(0)
R1 = rat(1)


def exact(x):
    """``x`` with an int made a ``Fraction``, so that ``/`` on it stays
    exact (int/int is a float); any other value is returned unchanged."""
    return Fraction(x) if isinstance(x, int) else x


def is_rational(x):
    return isinstance(x, (int, Fraction))


def parse_rational(text):
    """Parse "p/q" or "p" into an exact rational.

    Raises ValueError on malformed input, including zero denominators.
    """
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            p, q = int(num), int(den)
        except ValueError:
            raise ValueError("malformed rational: %r" % text) from None
        if q == 0:
            raise ValueError("malformed rational (zero denominator): %r" % text)
        return rat(p, q)
    try:
        return rat(int(s))
    except ValueError:
        raise ValueError("malformed rational: %r" % text) from None


def rat_str(x):
    """Serialize a rational (an int or a ``Fraction``) as "p/q" ("p" when
    the denominator is 1)."""
    return str(x)


class ArityError(ValueError):
    """Mismatched parameter arity between polynomial operands."""


def _check_arity(a, b):
    if a.arity != b.arity:
        raise ArityError("parameter arity mismatch: %d vs %d" % (a.arity, b.arity))


def check_exponents(arity, exponents):
    """``exponents`` as a tuple; raises ArityError unless it has length
    ``arity`` and only non-negative int entries."""
    e = tuple(exponents)
    if len(e) != arity:
        raise ArityError("exponent vector %r has arity %d, expected %d" % (e, len(e), arity))
    if not all(type(k) is int and k >= 0 for k in e):
        raise ArityError("exponent vector %r has an entry that is not a non-negative integer" % (e,))
    return e


class ParamPoly:
    """Polynomial in the parameters with exact rational coefficients.

    ``terms`` maps exponent tuples of length ``arity`` to nonzero
    rationals.  Variable 0 is t; variables 1..r are the reflection-orbit
    parameters.  Canonical order for display and hashing is graded
    lexicographic with t < c1 < ... < cr.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        if terms is None:
            terms = {}
        for e in terms:
            if len(e) != arity:
                raise ArityError("exponent vector %r has arity %d, expected %d" % (e, len(e), arity))
        self.arity = arity
        self.terms = terms

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, arity):
        return cls(arity)

    @classmethod
    def const(cls, arity, value):
        v = exact(value)
        if not v:
            return cls(arity)
        return cls(arity, {(0,) * arity: v})

    @classmethod
    def one(cls, arity):
        return cls.const(arity, R1)

    @classmethod
    def var(cls, arity, index, power=1, coeff=R1):
        if not 0 <= index < arity:
            raise ArityError("variable index %d out of range for arity %d" % (index, arity))
        e = [0] * arity
        e[index] = power
        return cls.monomial(arity, e, coeff)

    @classmethod
    def monomial(cls, arity, exponents, coeff):
        e = check_exponents(arity, exponents)
        if not coeff:
            return cls(arity)
        return cls(arity, {e: coeff})

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        if is_rational(other):
            other = ParamPoly.const(self.arity, other)
        _check_arity(self, other)
        return ParamPoly(self.arity, K.madd(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(self.arity, K.mneg(self.terms))

    def __sub__(self, other):
        if is_rational(other):
            other = ParamPoly.const(self.arity, other)
        _check_arity(self, other)
        return self + (-other)

    def __mul__(self, other):
        if is_rational(other):
            return ParamPoly(self.arity, K.mscale(self.terms, exact(other)))
        if not isinstance(other, ParamPoly):
            return NotImplemented  # an element scales itself (its __rmul__)
        _check_arity(self, other)
        return ParamPoly(self.arity, K.mmul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ParamPoly.one(self.arity)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if is_rational(other):
            other = ParamPoly.const(self.arity, other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    # -- queries ------------------------------------------------------

    def is_const(self):
        return all(not any(e) for e in self.terms)

    def const_value(self):
        """Coefficient of the constant monomial."""
        return self.terms.get((0,) * self.arity, R0)

    # -- the operations the rest of the package needs -----------------

    def specialize(self, values):
        """Substitute rationals for a subset of the variables.

        ``values`` maps variable index -> rational.  Remaining variables
        are kept; arity is unchanged.
        """
        if not values:
            return self
        out = {}
        for e, c in self.terms.items():
            scale = c
            new_e = list(e)
            for idx, val in values.items():
                k = e[idx]
                if k:
                    scale = scale * exact(val) ** k
                    new_e[idx] = 0
            if scale:
                K.maxpy(out, {tuple(new_e): R1}, scale)
        return ParamPoly(self.arity, out)

    # -- printing ------------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order (t < c1 < ... < cr)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def to_str(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = ["t"] + ["c%d" % i for i in range(1, self.arity)]
        chunks = []
        for e, c in self.sorted_terms():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append("%s^%d" % (names[i], k))
            body = "*".join(factors)
            cs = rat_str(c)
            if body:
                if cs == "1":
                    term = body
                elif cs == "-1":
                    term = "-" + body
                else:
                    term = cs + "*" + body
            else:
                term = cs
            chunks.append(term)
        out = chunks[0]
        for t in chunks[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def __repr__(self):
        return "ParamPoly(%s)" % self.to_str()
