"""Labelled vertex-weighted multigraphs with loops.

Vertices are always 1..n.  Edges form a multiset of unordered pairs stored
sorted, loops as (v, v).  Deletion, contraction, complement, families,
bounded canonical forms, star-forest predicates, orientations, and the
right-endpoint termination order all live here, as do the edge-tuple
edits of the reducer and the record that `quasi.Digraph` shares.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

from tuttekit.combinatorics import (
    DEFAULT_CANONICAL_BOUND,
    DomainError,
    as_int,
    block_index_map,
    check_bound,
    echo,
    json_field,
    json_list,
    normalize_blocks,
    sorted_partition,
)
from tuttekit.lincomb import Immutable

# the largest vertex count a graph, digraph or combination read from outside may have
MAX_VERTICES = 100_000


def endpoints(e: Sequence[int], n: int, what: str = "edge") -> tuple[int, int]:
    """(u, v) of an edge or arc on [n], as given; DomainError unless two integers in [n]."""
    try:
        u, v = e
        u, v = as_int(u, what), as_int(v, what)
    except (TypeError, ValueError):  # DomainError included
        raise DomainError(f"{what} must have two integer endpoints: {echo(e)}") from None
    if not (1 <= u <= n and 1 <= v <= n):
        raise DomainError(f"{what} {echo(e)} leaves the vertex set [{n}]")
    return u, v


def vertex_count(n: int) -> int:
    """The vertex count n read from outside; DomainError unless an integer
    in 0..MAX_VERTICES."""
    n = as_int(n, "vertex count")
    if n < 0:
        raise DomainError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise DomainError(f"vertex count {echo(n)} is over the limit of {MAX_VERTICES}")
    return n


def _vertex_data(n: int, weights: Sequence[int] | None) -> tuple[int, tuple[int, ...]]:
    """(n, weights) of a graph or digraph on [n] read from outside; unit
    weights when None, DomainError unless `vertex_count(n)` accepts n and
    there are n positive integer weights."""
    n = vertex_count(n)
    if weights is None:
        return n, (1,) * n
    ws = tuple(as_int(w, "vertex weight") for w in weights)
    if len(ws) != n:
        raise DomainError(f"expected {n} weights, got {len(ws)}")
    if any(w < 1 for w in ws):
        raise DomainError("vertex weights must be positive")
    return n, ws


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def _norm_edge(e: Sequence[int], n: int) -> tuple[int, int]:
    u, v = endpoints(e, n)
    return (u, v) if u <= v else (v, u)


class _LabelledGraph(Immutable):
    """Immutable vertex count n, sorted tuple of pairs in [n] (loops and
    repeats allowed) and positive weights.  A kind names its pair field,
    `class K(_LabelledGraph, field=...)`, and reads a pair with
    `_read_pair(pair, n)`; records of two kinds are never equal."""

    __slots__ = ("n", "_pairs", "weights")
    _field: str

    def __init_subclass__(cls, field: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field = field
        setattr(cls, field, _LabelledGraph._pairs)

    def __init__(self, n: int, pairs: Iterable[Sequence[int]] = (), weights: Sequence[int] | None = None):
        n, ws = _vertex_data(n, weights)
        read = self._read_pair
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_pairs", tuple(sorted(read(p, n) for p in pairs)))
        object.__setattr__(self, "weights", ws)

    @classmethod
    def _unchecked(cls, n: int, pairs: tuple, weights: tuple[int, ...] | None = None):
        """The record on [n] of a pair tuple that is already read and
        sorted, unit weights when None; nothing is validated."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "_pairs", pairs)
        object.__setattr__(g, "weights", (1,) * n if weights is None else weights)
        return g

    # labelled identity: same vertex count, same pair multiset, same weights
    def key(self) -> tuple:
        return (self.n, self._pairs, self.weights)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def total_weight(self) -> int:
        return sum(self.weights)

    def unit_weights(self) -> bool:
        return all(w == 1 for w in self.weights)

    def has_loop(self) -> bool:
        return any(u == v for u, v in self._pairs)


class Multigraph(_LabelledGraph, field="edges"):
    """Immutable labelled multigraph on [n] with positive vertex weights."""

    __slots__ = ("_canon",)  # the canonical labelling's memo, unset until asked for
    _read_pair = staticmethod(_norm_edge)

    def __repr__(self) -> str:
        w = "" if self.unit_weights() else f", weights={self.weights}"
        return f"Multigraph({self.n}, {list(self.edges)}{w})"

    def has_multi_edge(self) -> bool:
        return len(set(self.edges)) < len(self.edges)


#### basic operations ##########################################################

def _without(edges: tuple, pairs: Iterable[tuple[int, int]]) -> tuple:
    """The sorted tuple edges less the multiset of stored pairs, still
    sorted; DomainError unless it is a sub-multiset."""
    rest = edges
    for e in pairs:
        try:
            i = rest.index(e)
        except ValueError:
            raise DomainError(f"edge {echo(e)} not present (with multiplicity) in {echo(list(edges))}") from None
        rest = rest[:i] + rest[i + 1:]
    return rest


def _relabelled(n: int, edges: Iterable[tuple[int, int]], perm: Sequence[int]) -> tuple:
    """The edges with each vertex v renamed perm[v-1], sorted; DomainError
    unless perm is a permutation of [n]."""
    p = [as_int(x, "permutation entry") for x in perm]
    if sorted(p) != list(range(1, n + 1)):
        raise DomainError(f"not a permutation of [{n}]: {echo(perm)}")
    return tuple(sorted(_pair(p[u - 1], p[v - 1]) for u, v in edges))


def delete_edges(G: Multigraph, S: Iterable[Sequence[int]]) -> Multigraph:
    """Remove the multiset S of edges; vertices and weights unchanged."""
    return Multigraph._unchecked(G.n, _without(G.edges, [_norm_edge(e, G.n) for e in S]), G.weights)


def _component_labels(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """(label, k): the components of ([n], pairs) numbered 0..k-1 in order
    of their least vertex, label[v] that of vertex v (label[0] is unused).

    Merging keeps the smaller representative, so each vertex ends up
    pointing at its component's least vertex, which is then renumbered in
    place; pairs may be loops and may repeat.
    """
    label = list(range(n + 1))
    for u, v in pairs:
        a, b = label[u], label[v]
        if a != b:
            if a > b:
                a, b = b, a
            label = [a if x == b else x for x in label]
    k = 0
    for v in range(1, n + 1):
        if label[v] == v:
            label[v] = k
            k += 1
        else:
            label[v] = label[label[v]]
    return label, k


def _components_of(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of ([n], pairs) as sorted vertex lists, ordered by least vertex."""
    label, k = _component_labels(n, pairs)
    comps: list[list[int]] = [[] for _ in range(k)]
    for v in range(1, n + 1):
        comps[label[v]].append(v)
    return comps


def _flats(n: int, pairs: Sequence[tuple[int, int]]) -> Iterator[tuple[list[int], int]]:
    """`_component_labels(n, S)` once for each set S of pair instances
    whose contraction leaves no loop (each flat of the cycle matroid), the
    labellings of the connected partitions of ([n], pairs).  A flat holds
    every pair inside its components, so |S| is the count of pairs that
    `_quotient` drops.  Arcs are read as edges; labels are shared, read-only.

    One loop walks the pairs in index order and keeps the labels of the
    pairs put in S so far, numbered by least vertex.  A pair whose ends are
    joined already must go in S; putting in a pair that joins the ends of
    one left out cuts that branch, so every branch ends in a flat, at a
    cost of about len(pairs) steps per flat instead of one per subset.
    """
    last = len(pairs)
    todo = [(0, [0, *range(n)], n, ())]
    while todo:
        i, label, k, out = todo.pop()
        while i < last:
            u, v = pairs[i]
            i += 1
            a, b = label[u], label[v]
            if a == b:
                continue
            if a > b:
                a, b = b, a
            if not any((label[x], label[y]) in ((a, b), (b, a)) for x, y in out):
                # put the pair in: block b joins block a, and the blocks after b move down
                merged = [x if x < b else a if x == b else x - 1 for x in label]
                todo.append((i, merged, k - 1, out))
            out += ((u, v),)
        yield label, k


def _quotient(pairs: Iterable[tuple[int, int]], weights: Sequence[int], label, k: int,
              keep_loops: bool = False) -> tuple[list[tuple[int, int]], list[int]]:
    """Pairs and weights with each vertex v merged into block label[v] of
    0..k-1, blocks numbered from 1; a pair inside one block is dropped, or
    kept as a loop with keep_loops.  Weights add over each block."""
    if keep_loops:
        out = [(label[u] + 1, label[v] + 1) for u, v in pairs]
    else:
        out = [(label[u] + 1, label[v] + 1) for u, v in pairs if label[u] != label[v]]
    merged = [0] * k
    for v, w in enumerate(weights, 1):
        merged[label[v]] += w
    return out, merged


def contract_edge_set(G: Multigraph, S: Iterable[Sequence[int]]) -> Multigraph:
    """Contract every edge of the multiset S, in any order (order-independent).

    Vertices merge along the connected components of ([n], S); the component
    containing the smallest vertices keeps the earliest new label, so the
    result lives on [n - merged].  Weights add across merged vertices.  Edges
    outside S are pushed forward and survive as loops when their endpoints
    merge; every edge of S itself disappears (an S-edge whose endpoints have
    already merged is a loop by then, and contracting a loop deletes it).
    """
    s_list = [_norm_edge(e, G.n) for e in S]
    label, k = _component_labels(G.n, s_list)
    return Multigraph(k, *_quotient(_without(G.edges, s_list), G.weights, label, k, keep_loops=True))


def complement(G: Multigraph) -> Multigraph:
    """Simple-graph complement on the same vertex set."""
    if G.has_loop() or G.has_multi_edge():
        raise DomainError("complement requires a simple graph")
    present = set(G.edges)
    edges = [(u, v) for u, v in combinations(range(1, G.n + 1), 2) if (u, v) not in present]
    return Multigraph(G.n, edges, G.weights)


def relabel(G: Multigraph, perm: Sequence[int]) -> Multigraph:
    """Apply the permutation perm (perm[i-1] is the image of vertex i)."""
    edges = _relabelled(G.n, G.edges, perm)
    weights = [0] * G.n
    for p, w in zip(perm, G.weights):
        weights[p - 1] = w
    return Multigraph._unchecked(G.n, edges, tuple(weights))


def internal_edge_count(G: Multigraph, blocks: Iterable[Iterable[int]]) -> int:
    """Edges with both endpoints in one block, multiplicity counted, loops always internal."""
    idx = block_index_map(normalize_blocks(G.n, blocks))
    return sum(1 for u, v in G.edges if idx[u] == idx[v])


#### connectivity ##############################################################

def _neighbour_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """adj[v]: bitmask with bit u set for every neighbour u of v; loops ignored."""
    adj = [0] * (n + 1)
    for u, v in edges:
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def two_edge_connected(G: Multigraph) -> bool:
    """Connected with no bridge; loops are ignored.  One depth-first search
    from vertex 1, on a stack of its own, numbers the vertices in preorder;
    then, children first, low[v] is the least number that v's subtree
    reaches by an edge other than the tree edge into v (skipped by index,
    so a parallel copy counts), and that tree edge is a bridge exactly when
    low[v] is v's own number (Tarjan).  O(n + m) steps."""
    incident: list[list[tuple[int, int]]] = [[] for _ in range(G.n + 1)]
    for i, (u, v) in enumerate(G.edges):
        if u != v:
            incident[u].append((v, i))
            incident[v].append((u, i))
    num, tree = [0] * (G.n + 1), [(0, -1)] * (G.n + 1)  # tree[v]: (parent, edge index)
    order: list[int] = []
    stack = [(1, 0, -1)] if G.n else []
    while stack:
        v, u, i = stack.pop()
        if not num[v]:
            order.append(v)
            num[v], tree[v] = len(order), (u, i)
            stack += [(w, v, j) for w, j in incident[v] if not num[w]]
    low = num[:]
    for v in reversed(order[1:]):
        u, i = tree[v]
        for w, j in incident[v]:
            if j != i and num[w] < low[v]:
                low[v] = num[w]
        if low[v] == num[v]:
            return False
        low[u] = min(low[u], low[v])
    return len(order) == G.n


def connected_partitions(G: Multigraph) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Set partitions of [n] whose every block induces a connected subgraph.

    Generated directly, never by filtering all set partitions: the block of
    the smallest unplaced vertex grows as a connected vertex set inside the
    unplaced vertices (neighbour bitmasks), then the vertices left are
    partitioned the same way.  Blocks are ascending tuples ordered by their
    minimum; the order of the partitions is that of the recursion, not
    restricted-growth order, and callers only sum over them.
    """
    nbr = _neighbour_masks(G.n, G.edges)
    as_block: dict[int, tuple[int, ...]] = {}

    def grow(block: int, frontier: int, free: int) -> Iterator[int]:
        # every connected vertex set that contains block and lies inside
        # block | frontier | free, once each; frontier holds the undecided
        # neighbours of block and free the other undecided vertices.  The
        # lowest frontier vertex is either taken, its free neighbours
        # joining the frontier, or excluded for good.
        if not frontier:
            yield block
            return
        w = frontier & -frontier
        v = w.bit_length() - 1
        yield from grow(block | w, (frontier & ~w) | (nbr[v] & free), free & ~nbr[v])
        yield from grow(block, frontier & ~w, free)

    blocks: list[tuple[int, ...]] = []

    def rec(unplaced: int):
        if not unplaced:
            yield tuple(blocks)
            return
        low = unplaced & -unplaced
        v = low.bit_length() - 1
        rest = unplaced & ~low
        for block in grow(low, nbr[v] & rest, rest & ~nbr[v]):
            b = as_block.get(block)
            if b is None:
                b = as_block[block] = tuple(i for i in range(v, G.n + 1) if block >> i & 1)
            blocks.append(b)
            yield from rec(unplaced & ~block)
            blocks.pop()

    yield from rec(((1 << G.n) - 1) << 1)


#### graph families ############################################################

def edgeless(n: int, weights: Sequence[int] | None = None) -> Multigraph:
    return Multigraph(n, (), weights)


def complete(n: int) -> Multigraph:
    return Multigraph(n, combinations(range(1, n + 1), 2))


def path(n: int) -> Multigraph:
    return Multigraph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Multigraph:
    """Cycle on [n]; n = 1 is a loop and n = 2 a double edge."""
    if n < 1:
        raise DomainError("cycle needs at least one vertex")
    if n == 1:
        return Multigraph(1, [(1, 1)])
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Multigraph(n, edges)


def simple_graph(n: int, mask: int) -> Multigraph:
    """Simple graph on [n] with pair b of `combinations` over [n] where bit b of mask is set."""
    pairs = combinations(range(1, n + 1), 2)
    return Multigraph(n, [p for b, p in enumerate(pairs) if mask >> b & 1])


def broom(n: int, k: int) -> Multigraph:
    """Path on 1..n whose endpoint n is joined to the hub n+k of a k-vertex star.

    The star occupies n+1..n+k with hub n+k; broom(n,0) is the path and
    broom(0,k) the star.
    """
    if n < 0 or k < 0:
        raise DomainError("broom parameters must be nonnegative")
    edges = [(i, i + 1) for i in range(1, n)]
    if n >= 1 and k >= 1:
        edges.append((n, n + k))
    edges += [(j, n + k) for j in range(n + 1, n + k)]
    return Multigraph(n + k, edges)


def canonical_star_forest(lam: Sequence[int]) -> Multigraph:
    """The canonical bright star forest R_lam on consecutive vertex blocks.

    Block i occupies the next lam_i vertices and is a star rooted at the
    block's largest vertex.
    """
    lam = sorted_partition(lam)
    edges = []
    start = 1
    for part in lam:
        hub = start + part - 1
        edges += [(i, hub) for i in range(start, hub)]
        start = hub + 1
    return Multigraph(sum(lam), edges)


#### star-forest structure #####################################################

def is_bright_star_forest(G: Multigraph) -> tuple[bool, tuple[int, int, int] | None]:
    """Test the triple condition defining bright star forests.

    For every a < b < c the edges among {a,b,c} must either number at most one
    or be exactly {ac, bc}.  Returns (True, None) or (False, smallest violating
    triple).  Defined for simple graphs only.

    A triple violates the condition exactly when ab is an edge and c is
    adjacent to a or b, so the smallest violating triple takes the first
    edge ab (in lexicographic order) with a neighbour of a or b above b, and
    the smallest such neighbour as c.  Adjacency is held as bitmasks.
    """
    if G.has_loop() or G.has_multi_edge():
        raise DomainError("bright star forest test requires a simple graph")
    triple = _dull_triple(G.n, G.edges)
    return triple is None, triple


def _dull_triple(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[int, int, int] | None:
    """Smallest violating triple of a simple graph given by its sorted edges, or None."""
    adj = _neighbour_masks(n, edges)
    for a, b in edges:
        above = (adj[a] | adj[b]) >> (b + 1)
        if above:
            return a, b, b + (above & -above).bit_length()
    return None


def star_forest_shape(G: Multigraph) -> tuple[int, ...]:
    """Component sizes of a star forest, sorted descending."""
    return sorted_partition(len(c) for c in _components_of(G.n, G.edges))


def star_forest_canonical_map(G: Multigraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Permutation carrying a bright star forest onto R_lam.

    Components are laid out largest first (ties by smallest vertex); within a
    component the center goes to the block's largest label and leaves fill the
    rest in ascending order.  Returns (lam, perm) with relabel(G, perm) equal
    to canonical_star_forest(lam).
    """
    ok, _ = is_bright_star_forest(G)
    if not ok:
        raise DomainError("not a bright star forest")
    lam, perm = _star_forest_map(G.n, G.edges)
    if relabel(G, perm) != canonical_star_forest(lam):
        raise RuntimeError(f"internal fault: canonical map {perm} does not carry {G!r} onto R{list(lam)}")
    return lam, perm


def _star_forest_map(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (lam, perm) of `star_forest_canonical_map` for the edges of a
    bright star forest on [n]; neither the input nor the map is checked."""
    comps = _components_of(n, edges)
    comps.sort(key=lambda c: (-len(c), c[0]))
    lam = tuple(len(c) for c in comps)
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    perm = [0] * n
    start = 1
    for comp in comps:
        hub = start + len(comp) - 1
        if len(comp) == 1:
            perm[comp[0] - 1] = hub
        else:
            center = max(comp, key=lambda v: (deg[v], v))
            leaves = sorted(v for v in comp if v != center)
            perm[center - 1] = hub
            for offset, v in enumerate(leaves):
                perm[v - 1] = start + offset
        start = hub + 1
    return lam, tuple(perm)


#### canonical form ############################################################

def _canonical_labelling(n: int, pairs: Sequence[tuple[int, int]],
                         weights: Sequence[int]) -> tuple[tuple, tuple[int, ...]]:
    """(form, perm): a hashable form, equal for two weighted multigraphs on
    [n] exactly when they are isomorphic, and a permutation (perm[v-1] the
    new label of vertex v) that carries ([n], pairs, weights) onto it.

    A[u][v] counts the pairs joining u and v, A[v][v] the loops at v.
    Colour refinement splits the vertices into invariant classes: colours
    are ints, ranked first by (weight, loops, degree) and then by a
    vertex's colour and its number of edges into each class (a loop
    counted twice), until no class splits.  Slots 1..n are filled class by
    class in colour order, and the vertex v put in slot k appends its row
    (A[v][u] for the vertices u of slots 1..k-1, then A[v][v]) to a code.
    The form is the weights in slot order and the largest code over all
    such orders.

    A depth-first search extends the code in place.  At each slot only the
    candidates with the largest row can lead to the largest code; a prefix
    below that of the best code found is cut; and of two twin candidates,
    whose swap is an automorphism, only the first is tried.
    """
    adj = [[0] * n for _ in range(n)]
    for u, v in pairs:
        adj[u - 1][v - 1] += 1
        if u != v:
            adj[v - 1][u - 1] += 1

    def ranks(keys: list) -> list[int]:
        index = {key: i for i, key in enumerate(sorted(set(keys)))}
        return [index[key] for key in keys]

    colour = ranks([(weights[v], adj[v][v], sum(adj[v])) for v in range(n)])
    classes = len(set(colour))
    while classes < n:
        sent = [[0] * classes for _ in range(n)]
        for u, v in pairs:
            sent[u - 1][colour[v - 1]] += 1
            sent[v - 1][colour[u - 1]] += 1
        refined = ranks([(colour[v], *sent[v]) for v in range(n)])
        split = len(set(refined))
        if split == classes:
            break
        colour, classes = refined, split

    cells: list[list[int]] = [[] for _ in range(classes)]
    for v in range(n):
        cells[colour[v]].append(v)
    slot_cell = [cell for cell in cells for _ in cell]
    order: list[int] = []  # order[k]: the vertex (0-based) in slot k + 1
    free = [True] * n
    code: list[int] = []
    best: list[int] | None = None
    best_order: list[int] = []

    def twins(u: int, v: int) -> bool:
        # candidates share a colour, so their weights and loop counts agree
        a, b = adj[u], adj[v]
        return all(a[x] == b[x] for x in range(n) if x != u and x != v)

    def rec(ahead: bool) -> None:
        # ahead: the code so far already exceeds the best code's prefix
        nonlocal best, best_order
        k = len(order)
        if k == n:
            if ahead or best is None:
                best, best_order = code[:], order[:]
            return
        top: list[int] = []
        cands: list[int] = []
        for v in slot_cell[k]:
            if free[v]:
                a = adj[v]
                row = [a[u] for u in order]
                row.append(a[v])
                if not cands or row > top:
                    top, cands = row, [v]
                elif row == top:
                    cands.append(v)
        start = len(code)
        if best is not None and not ahead:
            seg = best[start:start + len(top)]
            if top < seg:
                return
            ahead = top > seg
        code.extend(top)
        tried: list[int] = []
        for v in cands:
            if any(twins(u, v) for u in tried):
                continue
            tried.append(v)
            free[v] = False
            order.append(v)
            found = best
            rec(ahead)
            if best is not found:  # best now shares this prefix
                ahead = False
            order.pop()
            free[v] = True
        del code[start:]

    if classes == n:  # one vertex per class leaves one order to take
        best_order = [cell[0] for cell in cells]
        best = [adj[v][u] for k, v in enumerate(best_order) for u in best_order[:k] + [v]]
    else:
        rec(False)
    perm = [0] * n
    for slot, v in enumerate(best_order, 1):
        perm[v] = slot
    return (tuple(weights[v] for v in best_order), tuple(best)), tuple(perm)


def _labelling_of(G: Multigraph) -> tuple[tuple, tuple[int, ...]]:
    """G's `_canonical_labelling`, kept in its `_canon` slot once found."""
    memo = getattr(G, "_canon", None)
    if memo is None:
        check_bound(G.n, DEFAULT_CANONICAL_BOUND, "canonical form")
        memo = _canonical_labelling(G.n, G.edges, G.weights)
        object.__setattr__(G, "_canon", memo)
    return memo


def canonical_form(G: Multigraph) -> bytes:
    """Opaque byte string equal for two graphs iff they are isomorphic."""
    return repr(_labelling_of(G)[0]).encode()


#### orientations ##############################################################

def acyclic_orientations(G: Multigraph) -> Iterator[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
    """All acyclic orientations as (arcs, sinks).

    Parallel edges orient as one bundle (opposite directions would close a
    2-cycle), so orientation choices live on the distinct non-loop adjacent
    pairs.  Any loop closes a directed cycle by itself, so a graph with a
    loop yields nothing.  Sinks are vertices without outgoing arcs; isolated
    vertices are sinks.
    """
    if G.has_loop():
        return
    pairs = sorted({e for e in G.edges if e[0] != e[1]})
    n = G.n

    def has_cycle(arcs: list[tuple[int, int]]) -> bool:
        out_adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        indeg = {v: 0 for v in range(1, n + 1)}
        for u, v in arcs:
            out_adj[u].append(v)
            indeg[v] += 1
        queue = [v for v in range(1, n + 1) if indeg[v] == 0]
        seen = 0
        while queue:
            x = queue.pop()
            seen += 1
            for y in out_adj[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    queue.append(y)
        return seen != n

    for mask in range(1 << len(pairs)):
        arcs = [
            (u, v) if mask >> i & 1 == 0 else (v, u)
            for i, (u, v) in enumerate(pairs)
        ]
        if has_cycle(arcs):
            continue
        outs = {u for u, _ in arcs}
        sinks = tuple(v for v in range(1, n + 1) if v not in outs)
        yield tuple(arcs), sinks


#### right-endpoint order ######################################################

def right_endpoint_key(edges: Sequence[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """Sort key for the termination order on labelled graphs, read from a
    graph's (normalized) edges.

    Graphs with more edges come earlier; among equal edge counts the
    ascending list of larger endpoints is compared lexicographically.
    Every reduction rewrite strictly increases this key on its products.
    """
    return (-len(edges), tuple(sorted(v for _, v in edges)))


#### JSON ######################################################################

def graph_to_json_obj(G: _LabelledGraph) -> dict:
    out: dict = {"n": G.n, G._field: [list(e) for e in G._pairs]}
    if not G.unit_weights():
        out["weights"] = list(G.weights)
    return out


def graph_from_json_obj(obj: dict, kind: type[_LabelledGraph] = Multigraph) -> _LabelledGraph:
    """A graph, or a record of another kind such as `quasi.Digraph`."""
    pairs = json_list(obj, kind._field, required=False) or ()
    return kind(json_field(obj, "n"), pairs, json_list(obj, "weights", required=False))
