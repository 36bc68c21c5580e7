"""Exact rationals, polynomials in t, and partition primitives.

Every module above this one works with exact coefficients under the policy
of `lincomb.exact` (an int stays an int, a Fraction stays a Fraction,
nothing else is accepted), sparse polynomials in the single variable t,
integer partitions stored as weakly decreasing tuples, and set partitions
stored as tuples of blocks (each block an ascending tuple, blocks ordered by
minimum element).
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from itertools import chain, combinations
from math import comb, factorial, prod
from operator import index
from typing import Iterable, Iterator, Sequence

from tuttekit.lincomb import DomainError, Poly, echo, exact

#### bounds ####################################################################

# Set-partition enumeration is the complexity wall (Bell numbers), so the
# operations that sum over all partitions refuse large ground sets.  The
# three vertex caps below are lifted together, and only, by TUTTEKIT_MAX_N.
DEFAULT_ENUMERATION_BOUND = 10
DEFAULT_REDUCTION_BOUND = 7
DEFAULT_CANONICAL_BOUND = 12
# Basis conversions to and from m refuse a degree above this; no knob lifts it.
DEFAULT_DEGREE_BOUND = 12
# Expansions over all edge (or arc) subsets walk 2^m of them.
MAX_SUBSET_EDGES = 16


def resolve_bound(default: int) -> int:
    """Effective ceiling: TUTTEKIT_MAX_N, else default."""
    env = os.environ.get("TUTTEKIT_MAX_N")
    if env:
        try:
            bound = int(env)
        except ValueError:
            raise DomainError(f"TUTTEKIT_MAX_N is not an integer: {echo(env)}")
        if bound < 0:
            raise DomainError(f"TUTTEKIT_MAX_N must be nonnegative: {echo(env)}")
        return bound
    return default


def check_bound(size: int, default: int, what: str) -> None:
    """Refuse a vertex count above the ceiling that resolve_bound gives."""
    bound = resolve_bound(default)
    if size > bound:
        raise DomainError(
            f"{what} limited to {bound} vertices, got {size}; "
            "raise the cap with TUTTEKIT_MAX_N"
        )


def check_subset_count(m: int, noun: str = "edge") -> None:
    """Refuse an expansion over all 2^m subsets of more than MAX_SUBSET_EDGES items."""
    if m > MAX_SUBSET_EDGES:
        raise DomainError(f"{noun}-subset expansion limited to {MAX_SUBSET_EDGES} {noun}s, got {m}")


def subsets_by_size(m: int) -> Iterator[tuple[int, ...]]:
    """Every subset of range(m) as an ascending tuple, smallest first.

    Subsets of one size come in `itertools.combinations` order.  The cap
    check runs at the call, before the first subset is asked for.
    """
    check_subset_count(m)
    return chain.from_iterable(combinations(range(m), k) for k in range(m + 1))


def as_int(value, what: str) -> int:
    """An integer read from outside (JSON, arguments); DomainError for text,
    floats, None and booleans (JSON true is not 1)."""
    if type(value) is not bool:
        try:
            return index(value)
        except TypeError:
            pass
    raise DomainError(f"{what} must be an integer, got {echo(value)}")


def json_field(obj, key: str):
    """obj[key] of a JSON object read from outside; DomainError if obj is not
    an object, which names its type, or if the field is absent."""
    if not isinstance(obj, dict):
        raise DomainError(f"expected a JSON object, got {type(obj).__name__} {echo(obj)}")
    if key not in obj:
        raise DomainError(f"JSON object has no {key!r} field: {echo(obj)}")
    return obj[key]


def json_list(obj, key: str, required: bool = True) -> list | None:
    """obj[key] read from outside, which must be a JSON list; None if optional and absent."""
    if not required and isinstance(obj, dict) and key not in obj:
        return None
    value = json_field(obj, key)
    if not isinstance(value, list):
        raise DomainError(f"JSON field {key!r} must be a list, got {echo(value)}")
    return value


#### rationals #################################################################

def parse_rational(s: str) -> Fraction:
    """Parse 'num/den' (den optional) into an exact Fraction.

    Malformed text and a zero denominator raise DomainError.
    """
    if not isinstance(s, str):
        raise DomainError(f"expected a rational 'num/den' as text, got {echo(s)}")
    num, slash, den = s.strip().partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except ValueError:
        raise DomainError(f"not a rational 'num/den': {echo(s)}")
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in {echo(s)}")


def format_rational(q: Fraction | int) -> str:
    """Serialize an exact number as 'num/den', denominator always present.

    A part longer than the interpreter's limit on int-to-text conversion
    (sys.get_int_max_str_digits) raises DomainError.
    """
    q = Fraction(q)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise DomainError(
            f"a number has more than {sys.get_int_max_str_digits()} digits, the interpreter's "
            "limit for writing an integer as text; PYTHONINTMAXSTRDIGITS raises it"
        ) from None


def as_rational(value) -> Fraction | int:
    """A value to substitute for a variable: exact, or a string like '2/3';
    DomainError for floats and booleans (as in `as_int`, true is not 1)."""
    if isinstance(value, str):
        return parse_rational(value)
    if type(value) is bool:
        raise DomainError(f"cannot substitute the boolean {value!r}; use an int or a Fraction")
    return exact(value)


#### polynomials in t ##########################################################

class TPoly(Poly):
    """Polynomial in t with exact coefficients, immutable and sparse.

    terms maps a power of t to its nonzero coefficient, an int or a
    Fraction (see `lincomb.exact`).  TPoly(coeffs) reads a dense list, with
    coeffs[i] the coefficient of t^i, and `.coeffs` gives that dense view
    back without trailing zeros, so the zero polynomial has coeffs ().
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        super().__init__(enumerate(coeffs))

    # Bound in TPoly's own namespace so that instrumentation wrapping
    # TPoly.__dict__ entries (bench/tracer.py) sees every polynomial operation.
    __add__ = Poly.__add__
    __radd__ = Poly.__radd__
    __sub__ = Poly.__sub__
    __rsub__ = Poly.__rsub__
    __neg__ = Poly.__neg__
    __mul__ = Poly.__mul__
    __rmul__ = Poly.__rmul__
    __pow__ = Poly.__pow__

    @staticmethod
    def t() -> TPoly:
        return TPoly([0, 1])

    @property
    def coeffs(self) -> tuple[Fraction | int, ...]:
        out = [0] * (self.degree() + 1)
        for i, c in self.terms.items():
            out[i] = c
        return tuple(out)

    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return max(self.terms, default=-1)

    def evaluate(self, v) -> Fraction | int:
        """Exact value at t = v (a number, or a string such as '1/2')."""
        v = as_rational(v)
        return sum(c * v**i for i, c in self.terms.items())

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; error if t actually appears."""
        if self.degree() > 0:
            raise DomainError(f"polynomial depends on t: {self}")
        return Fraction(self.terms.get(0, 0))

    def onep_t_powers(self) -> tuple[Fraction | int, ...]:
        """Coefficients c_0..c_d with p(t) = sum c_k (1+t)^k: those of p(u - 1) in u."""
        return tuple(_taylor_shift(self.coeffs, -1))

    @staticmethod
    def from_onep_t_powers(cs: Sequence[Fraction | int]) -> TPoly:
        """Inverse of onep_t_powers: rebuild sum c_k (1+t)^k as a TPoly."""
        return TPoly(_taylor_shift(cs, 1))

    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    @staticmethod
    def from_strings(items: Sequence[str]) -> TPoly:
        """Inverse of to_strings; an integral entry such as '3/1' becomes an int."""
        coeffs = [parse_rational(s) for s in items]
        return TPoly([c.numerator if c.denominator == 1 else c for c in coeffs])

    def __repr__(self) -> str:
        if not self.terms:
            return "TPoly(0)"
        parts = []
        for i, c in self.sorted_terms():
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return "TPoly(" + " + ".join(parts) + ")"


def _taylor_shift(coeffs: Sequence[Fraction | int], s: int) -> list[Fraction | int]:
    """Coefficients of p(x + s), s = 1 or -1, from those of p(x), lowest first: Horner's rule in
    the shifted variable, d(d+1)/2 additions (von zur Gathen and Gerhard, ISSAC 1997)."""
    c = list(coeffs)
    d = len(c) - 1
    if s == 1:
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                c[j] += c[j + 1]
    else:
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                c[j] -= c[j + 1]
    return c


# a row's bytes grow as k^2, and k is an edge or arc count or a tally of them
ONEP_T_CACHE_SIZE = 128
_onep_t_rows: dict[int, TPoly] = {}


def onep_t_power(k: int) -> TPoly:
    """(1+t)^k as a TPoly by C(k, i+1) = C(k, i) (k - i) / (i + 1), kept when k < ONEP_T_CACHE_SIZE."""
    power = _onep_t_rows.get(k)
    if power is None:
        if k < 0:
            raise DomainError(f"negative power {k} of (1+t)")
        row = [1]
        for i in range(k):
            row.append(row[i] * (k - i) // (i + 1))
        power = TPoly.one()._like(dict(enumerate(row)))  # positive ints: nothing to check
        if k < ONEP_T_CACHE_SIZE:
            _onep_t_rows[k] = power
    return power


#### integer partitions ########################################################

def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples, largest part first."""
    if n < 0:
        raise DomainError(f"cannot partition a negative integer {n}")

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    yield from gen(n, n, ())


def augmentation_factor(lam: Sequence[int]) -> int:
    """Product of r_i! over the part multiplicities r_i of lam."""
    counts: dict[int, int] = {}
    for p in lam:
        counts[p] = counts.get(p, 0) + 1
    return prod(map(factorial, counts.values()))


def sorted_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Weakly decreasing tuple from any iterable of positive parts."""
    lam = tuple(sorted(parts, reverse=True))
    if lam and lam[-1] < 1:
        raise DomainError(f"partition parts must be positive: {echo(lam)}")
    return lam


#### set partitions ############################################################

# A set partition of [n] is a tuple of blocks; each block is an ascending
# tuple of vertices and blocks are ordered by their minimum element.


def enumerate_set_partitions(
    n: int,
    *,
    edge_sets: Sequence[Iterable[Sequence[int]]] | None = None,
    weights: Sequence[int] | None = None,
) -> Iterator:
    """Every set partition of [n] once, in restricted-growth-string order:
    the single block (string 00...0) first, all singletons (012...) last,
    and for n = 0 the one empty partition.  Arguments are checked at the call.

    An item is the tuple of blocks or, with weights (one int per vertex),
    of block weight sums.  edge_sets, a sequence of edge lists on [n] (loops
    and repeated pairs allowed), makes it a pair (blocks or sums, counts):
    counts[j] is the number of edges of edge_sets[j] inside one block.  One
    loop in one generator frame walks the strings (Knuth, TAOCP 4A, 7.2.1.5).
    """
    n = as_int(n, "ground set size")
    if n < 0:
        raise DomainError(f"no set partitions of a negative count {n}")
    try:
        unit = list(zip(range(n + 1))) if weights is None else [0, *(as_int(w, "vertex weight") for w in weights)]
    except TypeError:
        raise DomainError(f"vertex weights must be a list of integers, got {echo(weights)}") from None
    if len(unit) != n + 1:
        raise DomainError(f"{len(unit) - 1} vertex weights for a ground set of {n}")
    counted = edge_sets is not None
    try:
        sets = [list(es) for es in edge_sets] if counted else []
    except TypeError:
        raise DomainError(f"edge_sets must be a list of edge lists, got {echo(edge_sets)}") from None
    loops, near, shifts, mask = 0, [()] * (n + 1), (), 0
    if sets:
        # loops (inside every partition) and near[i] = ((u, c), ...), u < i,
        # are packed counts: set k's in bits [k*width, (k+1)*width).  A count
        # never exceeds its set's size, so packed vectors add fieldwise.
        width = max(map(len, sets)).bit_length() or 1
        mask, shifts = (1 << width) - 1, range(0, width * len(sets), width)
        back: list[dict[int, int]] = [{} for _ in range(n + 1)]
        for k, es in enumerate(sets):
            bit = 1 << (k * width)
            for e in es:
                try:
                    u, v = e
                except (TypeError, ValueError):
                    raise DomainError(f"edge must be a pair of vertices, got {echo(e)}") from None
                if type(u) is not int or type(v) is not int:  # ints skip the call
                    u, v = as_int(u, "edge end"), as_int(v, "edge end")
                lo, hi = (u, v) if u <= v else (v, u)
                if not 1 <= lo <= hi <= n:
                    raise DomainError(f"edge {echo((u, v))} leaves the ground set [{n}]")
                back[hi][lo] = back[hi].get(lo, 0) + bit
        loops = sum(d.pop(v, 0) for v, d in enumerate(back))
        near = [tuple(d.items()) for d in back]
    if not n:
        return iter([((), (0,) * len(sets)) if counted else ()])

    def walk():
        sums: list = []  # sums[b]: the sum of unit[v] over block b, a vertex tuple or an int
        choice, joined, saved = [0] * (n + 1), [None] * n, [None] * n
        split: dict[int, tuple[int, ...]] = {}  # packed counts -> counts
        i, c = 1, loops
        while True:
            # vertex i enters with c, the packed counts of vertices 1..i-1 and loops
            j = [c] * (len(sums) + 1)  # j[b]: the counts once i joins block b
            for u, p in near[i]:
                j[choice[u]] += p
            if i < n:
                joined[i], b = j, 0
            else:  # the last vertex: one item per choice, then back up
                if counted:
                    j = [split.get(x) or split.setdefault(x, tuple([x >> s & mask for s in shifts])) for x in j]
                w = unit[n]
                for b, x in enumerate(sums):
                    sums[b] = x + w
                    yield (tuple(sums), j[b]) if counted else tuple(sums)
                    sums[b] = x
                t = (*sums, w)
                yield (t, j[-1]) if counted else t
                i = n - 1
                while i and choice[i] + 1 == len(joined[i]):  # i opened a block
                    sums.pop()
                    i -= 1
                if not i:
                    return
                b, j = choice[i] + 1, joined[i]
                sums[b - 1] = saved[i]
            choice[i], c = b, j[b]
            if b < len(sums):
                saved[i] = x = sums[b]
                sums[b] = x + unit[i]
            else:
                sums.append(unit[i])
            i += 1

    return walk()


def normalize_blocks(n: int, blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Validate and canonically order a full partition of [n]."""
    seen: set[int] = set()
    out = []
    for b in blocks:
        b = tuple(b)
        bt = tuple(sorted(set(b)))
        if len(bt) != len(b):
            raise DomainError(f"repeated element inside block {echo(b)}")
        if not bt:
            raise DomainError("empty block")
        for v in bt:
            if not (1 <= v <= n):
                raise DomainError(f"element {echo(v)} outside ground set [{n}]")
            if v in seen:
                raise DomainError(f"element {echo(v)} appears in two blocks")
            seen.add(v)
        out.append(bt)
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        # n may be large: name the first few and count the rest
        more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
        raise DomainError(f"elements not covered by any block: {missing[:5]}{more}")
    out.sort(key=lambda b: b[0])
    return tuple(out)


def block_index_map(blocks: Sequence[Sequence[int]]) -> dict[int, int]:
    """vertex -> 0-based index of its block."""
    out: dict[int, int] = {}
    for i, b in enumerate(blocks):
        for v in b:
            out[v] = i
    return out


#### counting helpers ##########################################################

def multinomial(counts: Sequence[int]) -> int:
    """Multinomial coefficient (sum counts)! / prod counts!."""
    total = sum(counts)
    out = 1
    for c in counts:
        out *= comb(total, c)
        total -= c
    return out
