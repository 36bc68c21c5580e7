"""Labelled vertex-weighted multigraphs with loops.

Vertices are always 1..n.  Edges form a multiset of unordered pairs stored
sorted, loops as (v, v).  Deletion, contraction, complement, families,
bounded canonical forms, star-forest predicates, orientations, and the
right-endpoint termination order all live here.
"""

from __future__ import annotations

from itertools import combinations
from operator import index
from typing import Iterable, Iterator, Sequence

from tuttekit.combinatorics import (
    DEFAULT_CANONICAL_BOUND,
    DomainError,
    as_int,
    block_index_map,
    check_bound,
    enumerate_set_partitions,
    normalize_blocks,
    sorted_partition,
)

Edge = tuple  # unordered pair stored as (min, max)


def endpoints(e: Sequence[int], n: int, what: str = "edge") -> tuple[int, int]:
    """(u, v) of an edge or arc on [n], as given; DomainError unless two integers in [n]."""
    try:
        u, v = e
        u, v = index(u), index(v)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must have two integer endpoints: {e!r}")
    if not (1 <= u <= n and 1 <= v <= n):
        raise DomainError(f"{what} {e!r} leaves the vertex set [{n}]")
    return u, v


def _norm_edge(e: Sequence[int], n: int) -> tuple[int, int]:
    u, v = endpoints(e, n)
    return (u, v) if u <= v else (v, u)


class Multigraph:
    """Immutable labelled multigraph on [n] with positive vertex weights."""

    __slots__ = ("n", "edges", "weights", "_canon")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = (), weights: Sequence[int] | None = None):
        n = as_int(n, "vertex count")
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        es = tuple(sorted(_norm_edge(e, n) for e in edges))
        if weights is None:
            ws = (1,) * n
        else:
            ws = tuple(as_int(w, "vertex weight") for w in weights)
            if len(ws) != n:
                raise DomainError(f"expected {n} weights, got {len(ws)}")
            if any(w < 1 for w in ws):
                raise DomainError("vertex weights must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError("Multigraph is immutable")

    # labelled identity: same vertex count, same edge multiset, same weights
    def key(self) -> tuple:
        return (self.n, self.edges, self.weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        w = "" if all(x == 1 for x in self.weights) else f", weights={self.weights}"
        return f"Multigraph({self.n}, {list(self.edges)}{w})"

    def total_weight(self) -> int:
        return sum(self.weights)

    def multiplicities(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for e in self.edges:
            out[e] = out.get(e, 0) + 1
        return out

    def loops(self) -> tuple[tuple[int, int], ...]:
        return tuple(e for e in self.edges if e[0] == e[1])

    def has_loop(self) -> bool:
        return any(u == v for u, v in self.edges)

    def has_multi_edge(self) -> bool:
        seen = set()
        for e in self.edges:
            if e in seen:
                return True
            seen.add(e)
        return False

    def is_simple(self) -> bool:
        return not self.has_loop() and not self.has_multi_edge()

    def unit_weights(self) -> bool:
        return all(w == 1 for w in self.weights)


#### basic operations ##########################################################

def delete_edges(G: Multigraph, S: Iterable[Sequence[int]]) -> Multigraph:
    """Remove the multiset S of edges; vertices and weights unchanged."""
    remaining = list(G.edges)
    for e in S:
        pair = _norm_edge(e, G.n)
        try:
            remaining.remove(pair)
        except ValueError:
            raise DomainError(f"edge {pair} not present (with multiplicity) in {G!r}")
    return Multigraph(G.n, remaining, G.weights)


def _components_of(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of ([n], pairs) as sorted vertex lists."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comps: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        comps.setdefault(find(v), []).append(v)
    return sorted(comps.values(), key=lambda c: c[0])


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
    # validate sub-multiset
    avail = G.multiplicities()
    for e in s_list:
        if avail.get(e, 0) <= 0:
            raise DomainError(f"edge {e} not present (with multiplicity) in {G!r}")
        avail[e] -= 1
    comps = _components_of(G.n, [e for e in s_list if e[0] != e[1]])
    label = {}
    for i, comp in enumerate(comps):
        for v in comp:
            label[v] = i + 1
    new_n = len(comps)
    new_weights = [0] * new_n
    for v in range(1, G.n + 1):
        new_weights[label[v] - 1] += G.weights[v - 1]
    remaining = list(G.edges)
    for e in s_list:
        remaining.remove(e)
    new_edges = [(label[u], label[v]) for u, v in remaining]
    return Multigraph(new_n, new_edges, new_weights)


def contract_edge(G: Multigraph, e: Sequence[int]) -> Multigraph:
    """Contract a single edge; a loop contracts to its own deletion."""
    return contract_edge_set(G, [e])


def contract_partition(G: Multigraph, blocks: Iterable[Iterable[int]]) -> Multigraph:
    """Contract each block of a connected partition to a single vertex.

    Every edge with both endpoints in one block disappears (loops included);
    edges between blocks keep their multiplicity.  Blocks must induce
    connected subgraphs.
    """
    blocks = normalize_blocks(G.n, blocks)
    adj = _adjacency(G)
    for b in blocks:
        if not _block_connected(adj, b):
            raise DomainError(f"block {b} does not induce a connected subgraph")
    idx = block_index_map(blocks)
    new_weights = [0] * len(blocks)
    for v in range(1, G.n + 1):
        new_weights[idx[v]] += G.weights[v - 1]
    new_edges = []
    for u, v in G.edges:
        bu, bv = idx[u], idx[v]
        if bu != bv:
            new_edges.append((bu + 1, bv + 1))
    return Multigraph(len(blocks), new_edges, new_weights)


def complement(G: Multigraph) -> Multigraph:
    """Simple-graph complement on the same vertex set."""
    if not G.is_simple():
        raise DomainError("complement requires a simple graph")
    present = set(G.edges)
    edges = [(u, v) for u, v in combinations(range(1, G.n + 1), 2) if (u, v) not in present]
    return Multigraph(G.n, edges, G.weights)


def relabel(G: Multigraph, perm: Sequence[int]) -> Multigraph:
    """Apply the permutation perm (perm[i-1] is the image of vertex i)."""
    if sorted(perm) != list(range(1, G.n + 1)):
        raise DomainError(f"not a permutation of [{G.n}]: {perm!r}")
    new_weights = [0] * G.n
    for v in range(1, G.n + 1):
        new_weights[perm[v - 1] - 1] = G.weights[v - 1]
    new_edges = [(perm[u - 1], perm[v - 1]) for u, v in G.edges]
    return Multigraph(G.n, new_edges, new_weights)


def disjoint_union(G: Multigraph, H: Multigraph) -> Multigraph:
    """G on [n], then H shifted onto [n+1 .. n+m]."""
    shift = G.n
    edges = list(G.edges) + [(u + shift, v + shift) for u, v in H.edges]
    return Multigraph(G.n + H.n, edges, G.weights + H.weights)


def internal_edge_count(G: Multigraph, blocks: Iterable[Iterable[int]]) -> int:
    """Edges with both endpoints in one block, multiplicity counted, loops always internal."""
    idx = block_index_map(normalize_blocks(G.n, blocks))
    return sum(1 for u, v in G.edges if idx[u] == idx[v])


#### connectivity ##############################################################

def _adjacency(G: Multigraph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(G.n + 1)]
    for u, v in G.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _block_connected(adj: list[set[int]], block: Sequence[int]) -> bool:
    """Does the block induce a connected subgraph, given the adjacency sets?"""
    block_set = set(block)
    seen = {block[0]}
    stack = [block[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in block_set and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == block_set


def connected_components(G: Multigraph) -> list[list[int]]:
    return _components_of(G.n, [e for e in G.edges if e[0] != e[1]])


def is_connected(G: Multigraph) -> bool:
    return len(connected_components(G)) <= 1


def two_edge_connected(G: Multigraph) -> bool:
    """Connected with no bridge; loop deletion never disconnects."""
    if not is_connected(G):
        return False
    for i, e in enumerate(G.edges):
        if e[0] == e[1]:
            continue
        rest = G.edges[:i] + G.edges[i + 1:]
        if len(_components_of(G.n, [f for f in rest if f[0] != f[1]])) > 1:
            return False
    return True


def connected_partitions(G: Multigraph) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Set partitions of [n] whose every block induces a connected subgraph."""
    adj = _adjacency(G)

    for pi in enumerate_set_partitions(G.n):
        if all(_block_connected(adj, b) for b in pi):
            yield pi


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


def star(n: int) -> Multigraph:
    """Star on [n] with hub at the largest vertex n."""
    if n < 1:
        raise DomainError("star needs at least one vertex")
    return Multigraph(n, [(i, n) for i in range(1, n)])


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


def canonical_star_forest(lam: Sequence[int], n: int | None = None) -> Multigraph:
    """The canonical bright star forest R_lam on consecutive vertex blocks.

    Block i occupies the next lam_i vertices and is a star rooted at the
    block's largest vertex.
    """
    lam = sorted_partition(lam)
    total = sum(lam)
    if n is not None and n != total:
        raise DomainError(f"partition of size {total} cannot fill [{n}]")
    edges = []
    start = 1
    for part in lam:
        hub = start + part - 1
        edges += [(i, hub) for i in range(start, hub)]
        start = hub + 1
    return Multigraph(total, edges)


#### star-forest structure #####################################################

def is_bright_star_forest(G: Multigraph) -> tuple[bool, tuple[int, int, int] | None]:
    """Test the triple condition defining bright star forests.

    For every a < b < c the edges among {a,b,c} must either number at most one
    or be exactly {ac, bc}.  Returns (True, None) or (False, smallest violating
    triple).  Defined for simple graphs only.
    """
    if G.has_loop() or G.has_multi_edge():
        raise DomainError("bright star forest test requires a simple graph")
    present = set(G.edges)
    for a in range(1, G.n + 1):
        for b in range(a + 1, G.n + 1):
            for c in range(b + 1, G.n + 1):
                inside = {e for e in ((a, b), (a, c), (b, c)) if e in present}
                if len(inside) <= 1:
                    continue
                if inside == {(a, c), (b, c)}:
                    continue
                return False, (a, b, c)
    return True, None


def star_forest_shape(G: Multigraph) -> tuple[int, ...]:
    """Component sizes of a star forest, sorted descending."""
    return sorted_partition(len(c) for c in connected_components(G))


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
    comps = connected_components(G)
    comps.sort(key=lambda c: (-len(c), c[0]))
    lam = tuple(len(c) for c in comps)
    deg = {v: 0 for v in range(1, G.n + 1)}
    for u, v in G.edges:
        deg[u] += 1
        deg[v] += 1
    perm = [0] * G.n
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
    if relabel(G, perm) != canonical_star_forest(lam):
        raise RuntimeError(f"internal fault: canonical map {perm} does not carry {G!r} onto R{list(lam)}")
    return lam, tuple(perm)


#### canonical form ############################################################

def _refined_classes(G: Multigraph) -> list[list[int]]:
    """Isomorphism-invariant vertex classes by iterated neighborhood refinement."""
    mult = G.multiplicities()
    loops = {v: mult.get((v, v), 0) for v in range(1, G.n + 1)}
    nbr: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, G.n + 1)}
    for (u, v), m in mult.items():
        if u != v:
            nbr[u].append((v, m))
            nbr[v].append((u, m))
    color = {v: (G.weights[v - 1], loops[v], sum(m for _, m in nbr[v])) for v in range(1, G.n + 1)}
    for _ in range(G.n):
        key = {
            v: (color[v], tuple(sorted((color[u], m) for u, m in nbr[v])))
            for v in range(1, G.n + 1)
        }
        ranks = {k: i for i, k in enumerate(sorted(set(key.values())))}
        new_color = {v: (color[v], ranks[key[v]]) for v in range(1, G.n + 1)}
        if len(set(new_color.values())) == len(set(color.values())):
            break
        color = new_color
    classes: dict[tuple, list[int]] = {}
    for v in range(1, G.n + 1):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def canonical_graph(G: Multigraph, max_n: int | None = None) -> Multigraph:
    """Canonical representative of the isomorphism class of G.

    Vertices first split into invariant classes; the representative minimizes
    the (weights, edge list) encoding over all class-respecting relabellings,
    found by depth-first search with prefix pruning and twin skipping.  Edges
    are encoded as (larger endpoint, smaller endpoint) so that every edge
    created by assigning a new label sorts after all earlier edges, which is
    what makes prefix pruning sound.  Two graphs are isomorphic exactly when
    their canonical graphs are equal.
    """
    if G._canon is not None:
        return G._canon
    check_bound(G.n, DEFAULT_CANONICAL_BOUND, max_n, "canonical form")
    classes = _refined_classes(G)
    class_of_slot: list[int] = []
    for ci, cls in enumerate(classes):
        class_of_slot += [ci] * len(cls)
    mult = G.multiplicities()

    def m_between(a: int, b: int) -> int:
        return mult.get((a, b) if a <= b else (b, a), 0)

    n = G.n
    best_edges: list[tuple[int, int]] | None = None
    assigned: list[int] = []  # assigned[i] = original vertex receiving label i+1
    used = [False] * (n + 1)

    def new_edge_batch() -> list[tuple[int, int]]:
        # edges from the freshly labelled vertex to earlier labels, then its
        # loops; ascending, and entirely after every previously emitted edge
        k = len(assigned)
        v = assigned[-1]
        out = []
        for i, u in enumerate(assigned[:-1]):
            out += [(k, i + 1)] * m_between(u, v)
        out += [(k, k)] * mult.get((v, v), 0)
        return out

    def rec(edge_prefix: list[tuple[int, int]]):
        nonlocal best_edges
        if best_edges is not None and edge_prefix > best_edges[: len(edge_prefix)]:
            return
        k = len(assigned)
        if k == n:
            if best_edges is None or edge_prefix < best_edges:
                best_edges = edge_prefix
            return
        tried: list[int] = []
        for v in classes[class_of_slot[k]]:
            if used[v]:
                continue
            # twin skipping: swapping v with a tried candidate is an automorphism
            twin = False
            for u in tried:
                if mult.get((u, u), 0) == mult.get((v, v), 0) and all(
                    m_between(u, x) == m_between(v, x) for x in range(1, n + 1) if x not in (u, v)
                ):
                    twin = True
                    break
            if twin:
                continue
            tried.append(v)
            used[v] = True
            assigned.append(v)
            rec(edge_prefix + new_edge_batch())
            assigned.pop()
            used[v] = False

    rec([])
    assert best_edges is not None
    new_weights: list[int] = []
    for cls in classes:
        new_weights += [G.weights[cls[0] - 1]] * len(cls)
    result = Multigraph(n, [(b, a) for a, b in best_edges], new_weights)
    object.__setattr__(G, "_canon", result)
    return result


def canonical_form(G: Multigraph, max_n: int | None = None) -> bytes:
    """Opaque byte string equal for two graphs iff they are isomorphic."""
    C = canonical_graph(G, max_n)
    return repr((C.n, C.edges, C.weights)).encode()


def is_isomorphic(G: Multigraph, H: Multigraph, max_n: int | None = None) -> bool:
    if G.n != H.n or len(G.edges) != len(H.edges) or sorted(G.weights) != sorted(H.weights):
        return False
    return canonical_graph(G, max_n) == canonical_graph(H, max_n)


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

def right_endpoint_key(G: Multigraph) -> tuple[int, tuple[int, ...]]:
    """Sort key for the termination order on labelled graphs.

    Graphs with more edges come earlier; among equal edge counts the
    ascending list of larger endpoints is compared lexicographically.
    Every reduction rewrite strictly increases this key on its products.
    """
    return (-len(G.edges), tuple(sorted(v for _, v in G.edges)))


#### JSON ######################################################################

def graph_to_json_obj(G: Multigraph) -> dict:
    out: dict = {"n": G.n, "edges": [list(e) for e in G.edges]}
    if not G.unit_weights():
        out["weights"] = list(G.weights)
    return out


def json_field(obj, key: str):
    """obj[key] of a JSON object read from outside; DomainError if it is absent."""
    if not isinstance(obj, dict) or key not in obj:
        raise DomainError(f"JSON object has no {key!r} field: {obj!r}")
    return obj[key]


def json_list(obj, key: str, required: bool = True) -> list | None:
    """obj[key] read from outside, which must be a JSON list; None if optional and absent."""
    if not required and isinstance(obj, dict) and key not in obj:
        return None
    value = json_field(obj, key)
    if not isinstance(value, list):
        raise DomainError(f"JSON field {key!r} must be a list, got {value!r}")
    return value


def graph_from_json_obj(obj: dict) -> Multigraph:
    edges = json_list(obj, "edges", required=False) or ()
    return Multigraph(json_field(obj, "n"), edges, json_list(obj, "weights", required=False))
