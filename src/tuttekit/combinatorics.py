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
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, factorial
from operator import index
from typing import Iterable, Iterator, Sequence

from tuttekit.lincomb import DomainError, Poly, exact

#### bounds ####################################################################

# Set-partition enumeration is the complexity wall (Bell numbers), so the
# operations that sum over all partitions refuse large ground sets unless the
# caller raises the ceiling explicitly or through TUTTEKIT_MAX_N.
DEFAULT_ENUMERATION_BOUND = 10
DEFAULT_REDUCTION_BOUND = 7
DEFAULT_CANONICAL_BOUND = 12
DEFAULT_DEGREE_BOUND = 12
# Expansions over all edge (or arc) subsets walk 2^m of them.
MAX_SUBSET_EDGES = 16


def resolve_bound(default: int, override: int | None = None) -> int:
    """Effective ceiling: explicit argument, else TUTTEKIT_MAX_N, else default."""
    if override is not None:
        return override
    env = os.environ.get("TUTTEKIT_MAX_N")
    if env:
        try:
            bound = int(env)
        except ValueError:
            raise DomainError(f"TUTTEKIT_MAX_N is not an integer: {env!r}")
        if bound < 0:
            raise DomainError(f"TUTTEKIT_MAX_N must be nonnegative: {env!r}")
        return bound
    return default


def check_bound(size: int, default: int, max_n: int | None, what: str) -> None:
    """Refuse a vertex count above the ceiling that resolve_bound gives."""
    bound = resolve_bound(default, max_n)
    if size > bound:
        raise DomainError(
            f"{what} limited to {bound} vertices, got {size}; "
            "raise the cap with max_n or TUTTEKIT_MAX_N"
        )


def check_subset_count(m: int, noun: str = "edge") -> None:
    """Refuse an expansion over all 2^m subsets of more than MAX_SUBSET_EDGES items."""
    if m > MAX_SUBSET_EDGES:
        raise DomainError(f"{noun}-subset expansion limited to {MAX_SUBSET_EDGES} {noun}s, got {m}")


def subsets_by_size(m: int, noun: str = "edge") -> Iterator[tuple[int, ...]]:
    """Every subset of range(m) as an ascending tuple, smallest first.

    Subsets of one size come in `itertools.combinations` order.  The cap
    check runs at the call, before the first subset is asked for.
    """
    check_subset_count(m, noun)
    return chain.from_iterable(combinations(range(m), k) for k in range(m + 1))


def as_int(value, what: str) -> int:
    """An integer read from outside (JSON, arguments); DomainError for text, floats, None."""
    try:
        return index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}")


#### rationals #################################################################

def parse_rational(s: str) -> Fraction:
    """Parse 'num/den' (den optional) into an exact Fraction.

    Malformed text and a zero denominator raise DomainError.
    """
    if not isinstance(s, str):
        raise DomainError(f"expected a rational 'num/den' as text, got {s!r}")
    num, slash, den = s.strip().partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except ValueError:
        raise DomainError(f"not a rational 'num/den': {s!r}")
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in {s!r}")


def format_rational(q: Fraction | int) -> str:
    """Serialize an exact number as 'num/den', denominator always present."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def as_rational(value) -> Fraction | int:
    """A value to substitute for a variable: exact, or a string like '2/3'."""
    return parse_rational(value) if isinstance(value, str) else exact(value)


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
        return tuple(self.terms.get(i, 0) for i in range(self.degree() + 1))

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
        """Coefficients c_0..c_d with p(t) = sum c_k (1+t)^k.

        Obtained by substituting t = u - 1 and expanding in u, exactly.
        """
        out = [0] * (self.degree() + 1)
        for i, a in self.terms.items():
            for k in range(i + 1):
                term = a * comb(i, k)
                out[k] += -term if (i - k) & 1 else term
        return tuple(out)

    @staticmethod
    def from_onep_t_powers(cs: Sequence[Fraction | int]) -> TPoly:
        """Inverse of onep_t_powers: rebuild sum c_k (1+t)^k as a TPoly."""
        out = [0] * len(cs)
        for k, c in enumerate(cs):
            if c:
                for i in range(k + 1):
                    out[i] += c * comb(k, i)
        return TPoly(out)

    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    @staticmethod
    def from_strings(items: Sequence[str]) -> TPoly:
        return TPoly([parse_rational(s) for s in items])

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


@lru_cache(maxsize=None)
def onep_t_power(k: int) -> TPoly:
    """(1+t)^k as a TPoly, cached."""
    if k < 0:
        raise DomainError(f"negative power {k} of (1+t)")
    return TPoly([comb(k, i) for i in range(k + 1)])


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


def part_multiplicities(lam: Sequence[int]) -> dict[int, int]:
    """Map part value -> multiplicity r_i."""
    out: dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def augmentation_factor(lam: Sequence[int]) -> int:
    """Product of r_i! over the part multiplicities of lam."""
    out = 1
    for r in part_multiplicities(lam).values():
        out *= factorial(r)
    return out


def sorted_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Weakly decreasing tuple from any iterable of positive parts."""
    lam = tuple(sorted(parts, reverse=True))
    if lam and lam[-1] < 1:
        raise DomainError(f"partition parts must be positive: {lam!r}")
    return lam


#### set partitions ############################################################

# A set partition of [n] is a tuple of blocks; each block is an ascending
# tuple of vertices and blocks are ordered by their minimum element.

SetPartition = tuple  # alias for readability in signatures


def enumerate_set_partitions(
    n: int,
    *,
    edge_sets: Sequence[Iterable[Sequence[int]]] | None = None,
    max_internal: int | None = None,
) -> Iterator:
    """Every set partition of [n] exactly once.

    Enumeration follows restricted-growth-string lexicographic order, so the
    single-block partition (string 00...0) comes first and all-singletons
    (string 012...) last.  n = 0 yields the one empty partition.

    edge_sets, a sequence of edge lists on [n] (loops and repeated pairs
    allowed), makes each item a pair (blocks, counts): counts[j] is the
    number of edges of edge_sets[j] with both ends in one block, loops and
    multiplicity counted.  The counts grow with the recursion: vertex i
    joining block b adds its loops and its edges to earlier members of b.
    max_internal (with edge_sets) skips every partition in which
    edge_sets[0] has more internal edges than that, pruning a branch as soon
    as it exceeds it; max_internal=0 walks the stable partitions only.
    """
    if n < 0:
        raise DomainError(f"no set partitions of a negative count {n}")
    if max_internal is not None and not edge_sets:
        raise DomainError("max_internal bounds edge_sets[0]; no edge_sets given")
    if edge_sets is None:
        return _plain_partitions(n)
    return _counted_partitions(n, [list(es) for es in edge_sets], max_internal)


def _plain_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    blocks: list[list[int]] = []

    def rec(i: int):
        if i > n:
            yield tuple(map(tuple, blocks))
            return
        for b in range(len(blocks)):
            block = blocks[b]
            block.append(i)
            yield from rec(i + 1)
            block.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(1)


def _counted_partitions(n: int, edge_sets: list[list], max_internal: int | None) -> Iterator:
    # The per-set counts travel packed in one int, set j in bits [j*width,
    # (j+1)*width).  A count never exceeds its set's size, so no field
    # carries into the next and adding two packed vectors adds fieldwise.
    width = max((len(es) for es in edge_sets), default=0).bit_length() or 1
    mask = (1 << width) - 1
    shifts = range(0, width * len(edge_sets), width)
    loops = [0] * (n + 1)  # loops[i]: packed loop counts at vertex i
    back: list[dict[int, int]] = [{} for _ in range(n + 1)]  # back[i][u], u < i: packed edge counts
    for j, es in enumerate(edge_sets):
        unit = 1 << (j * width)
        for u, v in es:
            if not (1 <= u <= n and 1 <= v <= n):
                raise DomainError(f"edge {(u, v)!r} leaves the ground set [{n}]")
            if u > v:
                u, v = v, u
            if u == v:
                loops[v] += unit
            else:
                back[v][u] = back[v].get(u, 0) + unit
    near = [tuple(d.items()) for d in back]
    cap = mask if max_internal is None else max_internal
    blocks: list[list[int]] = []
    where = [0] * (n + 1)  # where[v]: index of v's block

    def rec(i: int, counts: int):
        if i > n:
            yield tuple(map(tuple, blocks)), tuple([(counts >> s) & mask for s in shifts])
            return
        counts += loops[i]
        gain: dict[int, int] = {}
        for u, packed in near[i]:
            b = where[u]
            gain[b] = gain.get(b, 0) + packed
        for b in range(len(blocks)):
            c = counts + gain.get(b, 0)
            if c & mask > cap:
                continue
            block = blocks[b]
            block.append(i)
            where[i] = b
            yield from rec(i + 1, c)
            block.pop()
        if counts & mask <= cap:
            where[i] = len(blocks)
            blocks.append([i])
            yield from rec(i + 1, counts)
            blocks.pop()

    yield from rec(1, 0)


def normalize_blocks(n: int, blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Validate and canonically order a full partition of [n]."""
    seen: set[int] = set()
    out = []
    for b in blocks:
        b = tuple(b)
        bt = tuple(sorted(set(b)))
        if len(bt) != len(b):
            raise DomainError(f"repeated element inside block {b}")
        if not bt:
            raise DomainError("empty block")
        for v in bt:
            if not (1 <= v <= n):
                raise DomainError(f"element {v} outside ground set [{n}]")
            if v in seen:
                raise DomainError(f"element {v} appears in two blocks")
            seen.add(v)
        out.append(bt)
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        raise DomainError(f"elements not covered by any block: {missing}")
    out.sort(key=lambda b: b[0])
    return tuple(out)


def p_shorthand(n: int, blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Partition of [n] with the listed nontrivial blocks, singletons elsewhere."""
    listed = [b for b in (tuple(sorted(set(b))) for b in blocks) if b]
    covered = {v for b in listed for v in b}
    singletons = [(v,) for v in range(1, n + 1) if v not in covered]
    return normalize_blocks(n, listed + singletons)


def lambda_of(blocks: Iterable[Iterable[int]], weights: Sequence[int] | None = None) -> tuple[int, ...]:
    """Block sizes sorted descending; with weights, block weight sums instead."""
    if weights is None:
        return sorted_partition(len(tuple(b)) for b in blocks)
    return sorted_partition(sum(weights[v - 1] for v in b) for b in blocks)


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
