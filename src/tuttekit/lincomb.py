"""Finitely supported linear combinations with exact coefficients.

Every value tuttekit computes is one: a polynomial in t (keyed by the power
of t), a polynomial in q and t (keyed by exponent pairs), a symmetric
function (keyed by partitions), a truncated quasisymmetric function (keyed
by compositions) and a graph combination (keyed by labelled graphs).
`LinComb` holds the sparse map from keys to nonzero coefficients and does
all that does not depend on what a key means: merging, addition,
subtraction, scaling, equality and immutability.  `Poly` adds the product
in which exponent keys add.

Scalar coefficients follow one policy, `exact`: an int stays an int and a
Fraction stays a Fraction, so counts never pay for rational arithmetic
until something divides.  Anything else, floats included, is refused.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable


class DomainError(ValueError):
    """A documented precondition on caller-supplied data failed."""


# the most characters of a value that an error message echoes
ECHO_LIMIT = 200


def echo(value) -> str:
    """repr(value) for an error message echoing outside input, kept short: a
    repr over ECHO_LIMIT characters is cut and named by its type and length,
    and an int too long to write (sys.get_int_max_str_digits) by its type."""
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to write>"
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT - 60]}... <{type(value).__name__} of {len(text):,} characters>"


def exact(c) -> int | Fraction:
    """The coefficient policy: an int or a Fraction, anything else refused."""
    if type(c) is int or type(c) is Fraction:
        return c
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    raise DomainError(f"coefficient {echo(c)} is not exact; use an int or a Fraction")


def merge_terms(acc: dict, items: Iterable[tuple]) -> dict:
    """Add (key, coeff) pairs into acc in place, dropping every zero sum."""
    for key, c in items:
        if not c:
            continue
        if key in acc:
            c = acc[key] + c
            if not c:
                del acc[key]
                continue
        acc[key] = c
    return acc


class LRUCache(dict):
    """At most `cap` entries, least recently used first: the one eviction rule of the library's memos.

    `hits`, `misses` and `evictions` count what `hit` and `keep` did since the cache was made.
    """

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap
        self.hits = self.misses = self.evictions = 0

    def hit(self, key, miss=None):
        """The entry at key, moved to the end, or miss; a cache that stores None passes a sentinel."""
        value = self.pop(key, miss)
        if value is not miss:
            self[key] = value
            self.hits += 1
        else:
            self.misses += 1
        return value

    def keep(self, key, value):
        """Store value at key, the oldest entry dropped first if the cache is full; return value."""
        if len(self) >= self.cap:
            del self[next(iter(self))]
            self.evictions += 1
        self[key] = value
        return value


class Immutable:
    """A value whose slots are set once, through object.__setattr__.

    A copy is the value itself.  pickle hands `__setstate__` the pair
    (None, {slot: value}) and the slots are restored there, not through
    the refusing __setattr__.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class LinComb(Immutable):
    """Immutable map `terms` from keys to nonzero coefficients.

    A subclass names its extra fields in `_fields`; they are set before the
    terms, copied into every result and must agree for + and -.  Its hooks
    are `_key` (normalise and validate one key) and `_coeff` (coerce one
    coefficient); `_order` fixes the order of `sorted_terms`, which is the
    order of every printed form.
    """

    __slots__ = ("terms",)
    _fields: tuple[str, ...] = ()
    _order = None  # sort key applied to a term's key; None compares keys

    def __init__(self, terms: dict | Iterable = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        key, coeff = self._key, self._coeff
        clean = merge_terms({}, ((key(k), coeff(c)) for k, c in items))
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _key(key):
        return key

    _coeff = staticmethod(exact)

    def _like(self, terms: dict):
        """A value with this one's fields over terms that are already clean."""
        out = object.__new__(type(self))
        for name in self._fields:
            object.__setattr__(out, name, getattr(self, name))
        object.__setattr__(out, "terms", terms)
        return out

    def _like_nested(self, terms: dict):
        """A value like this one over clean {key: {coefficient key: coefficient}} dicts."""
        zero = self._coeff(0)
        return self._like({k: zero._like(c) for k, c in terms.items()})

    def _operand(self, other):
        """other as a value of this kind, or NotImplemented."""
        return other if type(other) is type(self) else NotImplemented

    def _addend(self, other):
        other = self._operand(other)
        if other is not NotImplemented:
            for name in self._fields:
                mine, theirs = getattr(self, name), getattr(other, name)
                if mine != theirs:
                    raise DomainError(f"{name} mismatch: {mine} vs {theirs}")
        return other

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        for name in self._fields:
            if getattr(self, name) != getattr(other, name):
                return False
        return self.terms == other.terms

    def __hash__(self) -> int:
        fields = tuple(getattr(self, name) for name in self._fields)
        return hash((type(self).__name__, fields, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._addend(other)
        if other is NotImplemented:
            return other
        return self._like(merge_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._addend(other)
        if other is NotImplemented:
            return other
        negated = ((k, -c) for k, c in other.terms.items())
        return self._like(merge_terms(dict(self.terms), negated))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        """Every coefficient times c (coefficients form an integral domain)."""
        c = self._coeff(c)
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def sorted_terms(self) -> list[tuple]:
        order = self._order
        items = self.terms.items()
        if order is None:
            return sorted(items)
        return sorted(items, key=lambda kv: order(kv[0]))


class Poly(LinComb):
    """A polynomial: keys are exponents, and a product adds them.

    `_unit` is the key of the constant term and `_key_sum` adds two keys.
    An int or a Fraction stands for the constant polynomial wherever a
    Poly is expected.
    """

    __slots__ = ()
    _unit = 0
    _key_sum = staticmethod(add)

    @classmethod
    def of(cls, value):
        """value as this kind of polynomial; a scalar becomes a constant."""
        if type(value) is cls:
            return value
        c = exact(value)
        out = object.__new__(cls)
        object.__setattr__(out, "terms", {cls._unit: c} if c else {})
        return out

    @classmethod
    def zero(cls):
        return cls.of(0)

    @classmethod
    def one(cls):
        return cls.of(1)

    def _operand(self, other):
        try:
            return self.of(other)
        except DomainError:
            return NotImplemented

    def __mul__(self, other):
        if type(other) is int or type(other) is Fraction:
            return self.scale(other)
        other = self._operand(other)
        if other is NotImplemented:
            return other
        key_sum = self._key_sum
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = key_sum(k1, k2)
                out[k] = out.get(k, 0) + c1 * c2
        return self._like({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError(f"negative power {k} of a polynomial")
        result, base = self.one(), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result
