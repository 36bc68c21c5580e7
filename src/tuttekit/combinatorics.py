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
from math import comb, factorial
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
            return int(env)
        except ValueError:
            raise DomainError(f"TUTTEKIT_MAX_N is not an integer: {env!r}")
    return default


#### rationals #################################################################

def parse_rational(s: str) -> Fraction:
    """Parse 'num/den' (den optional) into an exact Fraction."""
    text = s.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


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


def blocks_from_rgs(rgs: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Blocks of the partition encoded by a restricted growth string."""
    nblocks = max(rgs) + 1 if rgs else 0
    blocks: list[list[int]] = [[] for _ in range(nblocks)]
    for i, b in enumerate(rgs):
        blocks[b].append(i + 1)
    return tuple(tuple(b) for b in blocks)


def enumerate_set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every set partition of [n] exactly once.

    Enumeration follows restricted-growth-string lexicographic order, so the
    single-block partition (string 00...0) comes first and all-singletons
    (string 012...) last.  n = 0 yields the one empty partition.
    """
    if n < 0:
        raise DomainError(f"no set partitions of a negative count {n}")
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def rec(i: int, maxseen: int):
        if i == n:
            yield blocks_from_rgs(rgs)
            return
        for b in range(maxseen + 2):
            rgs[i] = b
            yield from rec(i + 1, max(maxseen, b))

    yield from rec(1, 0)


def normalize_blocks(n: int, blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Validate and canonically order a full partition of [n]."""
    seen: set[int] = set()
    out = []
    for b in blocks:
        bt = tuple(sorted(set(b)))
        if len(bt) != len(tuple(b)):
            raise DomainError(f"repeated element inside block {tuple(b)}")
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
