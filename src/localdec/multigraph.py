"""Finite multigraphs with a fixed canonical ordering of vertices and edges.

Loops and parallel edges are allowed everywhere.  The order in which
vertices and edges were given is part of the value: it fixes every tie in
the algorithms built on top (BFS trees, chord order, echelon bases,
backtracking searches), so that all outputs are reproducible.  Whenever an
algorithm speaks of the "lower" of two ids it means the one earlier in the
canonical order.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Optional


class GraphError(ValueError):
    """Malformed graph data or violated precondition."""


class DisconnectedGraphError(GraphError):
    """An operation that needs a connected graph got a disconnected one."""


class MalformedWalkError(GraphError):
    """A walk violates the incidence structure of its host graph."""


class InvariantError(Exception):
    """A check that holds by construction failed: a library fault, not bad input."""


class _Undecided:
    """Explicit 'search budget exceeded' result.  Never a wrong answer."""

    __slots__ = ()

    def __repr__(self):
        return "UNDECIDED"

    def __bool__(self):
        raise TypeError("an undecided result has no truth value; compare with 'is UNDECIDED'")


UNDECIDED = _Undecided()


class Multigraph:
    """A finite multigraph given by ordered vertex ids and (edge id, endpoint pair) entries."""

    __slots__ = ("vertices", "edges", "ends", "_vpos", "_epos", "_inc", "_bits")

    def __init__(self, vertices: Iterable, edges: Iterable):
        self.vertices = tuple(vertices)
        self._vpos = {v: i for i, v in enumerate(self.vertices)}
        if len(self._vpos) != len(self.vertices):
            raise GraphError("duplicate vertex id")
        eids = []
        ends = {}
        for e, pair in edges:
            u, v = pair
            if e in ends:
                raise GraphError("duplicate edge id %r" % (e,))
            if u not in self._vpos or v not in self._vpos:
                raise GraphError("edge %r has an endpoint outside the vertex set" % (e,))
            ends[e] = (u, v)
            eids.append(e)
        self.edges = tuple(eids)
        self.ends = ends
        self._epos = {e: i for i, e in enumerate(self.edges)}
        inc = {v: [] for v in self.vertices}
        for e in self.edges:
            u, v = ends[e]
            inc[u].append((e, v))
            if v != u:
                inc[v].append((e, u))
        self._inc = {v: tuple(p) for v, p in inc.items()}
        self._bits = None

    # -- basic accessors ---------------------------------------------------

    def n_vertices(self) -> int:
        return len(self.vertices)

    def n_edges(self) -> int:
        return len(self.edges)

    def vpos(self, v) -> int:
        return self._vpos[v]

    def epos(self, e) -> int:
        return self._epos[e]

    def has_vertex(self, v) -> bool:
        return v in self._vpos

    def is_loop(self, e) -> bool:
        u, v = self.ends[e]
        return u == v

    def incident(self, v):
        """(edge, other endpoint) pairs at v in canonical edge order; loops appear once."""
        return self._inc[v]

    def degree(self, v) -> int:
        d = 0
        for e, w in self._inc[v]:
            d += 2 if w == v else 1
        return d

    def edges_between(self, u, v):
        """Edges with endpoint set {u, v}, in canonical order."""
        return tuple(e for e, w in self._inc[u] if w == v) if u != v else tuple(
            e for e, w in self._inc[u] if w == u)

    # -- traversal ---------------------------------------------------------

    def distances(self, start, cap: Optional[int] = None) -> dict:
        """BFS distances from start, truncated at cap when given."""
        if start not in self._vpos:
            raise GraphError("unknown vertex %r" % (start,))
        dist = {start: 0}
        q = deque([start])
        while q:
            u = q.popleft()
            d = dist[u]
            if cap is not None and d >= cap:
                continue
            for e, w in self._inc[u]:
                if w not in dist:
                    dist[w] = d + 1
                    q.append(w)
        return dist

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(self.distances(self.vertices[0])) == len(self.vertices)

    def components(self):
        """Vertex sets of connected components, each a tuple in canonical order."""
        b = self.bits()
        return [self.vertices_of_mask(comp) for comp in _components_masks(b.adj, b.vall)]

    # -- derived graphs ----------------------------------------------------

    def subgraph(self, vertices, edges) -> "Multigraph":
        """Subgraph on the given vertex and edge ids, keeping canonical order."""
        vset = set(vertices)
        eset = set(edges)
        for e in eset:
            u, v = self.ends[e]
            if u not in vset or v not in vset:
                raise GraphError("edge %r leaves the chosen vertex set" % (e,))
        return Multigraph(
            (v for v in self.vertices if v in vset),
            ((e, self.ends[e]) for e in self.edges if e in eset),
        )

    def induced(self, vertices) -> "Multigraph":
        vset = set(vertices)
        es = [e for e in self.edges
              if self.ends[e][0] in vset and self.ends[e][1] in vset]
        return self.subgraph(vset, es)

    def relabel(self, vmap, emap=None) -> "Multigraph":
        """Copy with renamed ids (order preserved)."""
        emap = emap or {}
        return Multigraph(
            (vmap.get(v, v) for v in self.vertices),
            ((emap.get(e, e), (vmap.get(self.ends[e][0], self.ends[e][0]),
                               vmap.get(self.ends[e][1], self.ends[e][1])))
             for e in self.edges),
        )

    # -- bitmask view (used by the separation machinery) ---------------------

    def bits(self):
        """Cached per-vertex adjacency and incidence bitmasks."""
        if self._bits is None:
            n = len(self.vertices)
            adj = [0] * n
            inc_e = [0] * n
            epairs = []
            for e in self.edges:
                u, v = self.ends[e]
                iu, iv = self._vpos[u], self._vpos[v]
                ie = self._epos[e]
                adj[iu] |= 1 << iv
                adj[iv] |= 1 << iu
                inc_e[iu] |= 1 << ie
                inc_e[iv] |= 1 << ie
                epairs.append((iu, iv))
            self._bits = _BitView(
                vall=(1 << n) - 1,
                eall=(1 << len(self.edges)) - 1,
                adj=tuple(adj),
                inc_e=tuple(inc_e),
                epairs=tuple(epairs),
            )
        return self._bits

    def vertex_mask(self, vs) -> int:
        m = 0
        for v in vs:
            m |= 1 << self._vpos[v]
        return m

    def vertices_of_mask(self, mask: int):
        out = []
        while mask:
            b = mask & -mask
            out.append(self.vertices[b.bit_length() - 1])
            mask ^= b
        return tuple(out)

    def edge_mask_within(self, vmask: int) -> int:
        """Mask of the edges with both endpoints inside vmask."""
        b = self.bits()
        missing = b.vall & ~vmask
        out = b.eall
        while missing:
            low = missing & -missing
            out &= ~b.inc_e[low.bit_length() - 1]
            missing ^= low
        return out

    # -- equality and serialization -----------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Multigraph)
                and self.vertices == other.vertices
                and self.edges == other.edges
                and self.ends == other.ends)

    def __repr__(self):
        return "Multigraph(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))

    def to_json_obj(self) -> dict:
        return {
            "vertices": [str(v) for v in self.vertices],
            "edges": [{"id": str(e), "ends": [str(self.ends[e][0]), str(self.ends[e][1])]}
                      for e in self.edges],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "Multigraph":
        try:
            vs = _json_array(obj, "vertices")
            es = [(d["id"], tuple(_json_array(d, "ends"))) for d in _json_array(obj, "edges")]
            for _, pair in es:
                if len(pair) != 2:
                    raise GraphError("edge ends must list exactly two vertices")
            # an id JSON cannot hash, such as a list, fails here
            return Multigraph(vs, es)
        except (KeyError, TypeError) as exc:
            raise GraphError("bad graph JSON: %s" % exc) from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    @staticmethod
    def loads(text: str) -> "Multigraph":
        return Multigraph.from_json_obj(json.loads(text))


def _json_array(obj, key) -> list:
    """obj[key], refused unless it is a JSON array."""
    if not isinstance(obj[key], list):
        raise GraphError("bad graph JSON: %s must be an array" % key)
    return obj[key]


@dataclass(frozen=True)
class _BitView:
    vall: int
    eall: int
    adj: tuple
    inc_e: tuple
    epairs: tuple


def _components_masks(adj, pool: int):
    """Connected components of the subgraph induced on the mask `pool`,
    with `adj` the per-vertex neighbour masks of `Multigraph.bits()`."""
    comps = []
    left = pool
    while left:
        seed = left & -left
        comp = seed
        frontier = seed
        while frontier:
            new = 0
            f = frontier
            while f:
                b = f & -f
                new |= adj[b.bit_length() - 1]
                f ^= b
            new &= pool & ~comp
            comp |= new
            frontier = new
        comps.append(comp)
        left &= ~comp
    return comps


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Walk:
    """Alternating vertex/edge sequence v0 e0 v1 ... e(k-1) vk, possibly trivial."""

    vertices: tuple
    edges: tuple

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def start(self):
        return self.vertices[0]

    @property
    def end(self):
        return self.vertices[-1]

    def is_closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]

    def reverse(self) -> "Walk":
        return Walk(tuple(reversed(self.vertices)), tuple(reversed(self.edges)))

    def concat(self, other: "Walk") -> "Walk":
        if self.end != other.start:
            raise MalformedWalkError("cannot concatenate: endpoints disagree")
        return Walk(self.vertices + other.vertices[1:], self.edges + other.edges)

    @staticmethod
    def trivial(v) -> "Walk":
        return Walk((v,), ())


def check_walk(g: Multigraph, w: Walk) -> None:
    """Raise MalformedWalkError unless w is a walk in g."""
    if len(w.vertices) != len(w.edges) + 1 or not w.vertices:
        raise MalformedWalkError("walk has mismatched vertex/edge counts")
    for v in w.vertices:
        if not g.has_vertex(v):
            raise MalformedWalkError("walk visits unknown vertex %r" % (v,))
    for i, e in enumerate(w.edges):
        if e not in g.ends:
            raise MalformedWalkError("walk uses unknown edge %r" % (e,))
        u, v = g.ends[e]
        step = {w.vertices[i], w.vertices[i + 1]}
        if step != {u, v}:
            raise MalformedWalkError("edge %r does not join consecutive walk vertices" % (e,))


def reduce_walk(g: Multigraph, w: Walk) -> Walk:
    """The reduction of w: iterated deletion of back-and-forth subwalks u e v e u.

    Deletion order does not matter (the result is the free-group normal
    form), so a single stack pass suffices.  Two consecutive traversals of
    one loop cancel like any other edge pair.
    """
    check_walk(g, w)
    vs = [w.vertices[0]]
    es = []
    for e, v in zip(w.edges, w.vertices[1:]):
        if es and es[-1] == e and vs[-2] == v:
            es.pop()
            vs.pop()
        else:
            es.append(e)
            vs.append(v)
    return Walk(tuple(vs), tuple(es))


def homotopic(g: Multigraph, w1: Walk, w2: Walk) -> bool:
    """Walks are homotopic when their reductions coincide."""
    return reduce_walk(g, w1) == reduce_walk(g, w2)


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

def ball(g: Multigraph, centers, rho: int) -> Multigraph:
    """The combinatorial (rho/2)-ball around the vertex set `centers`.

    It holds the vertices at distance at most floor(rho/2) from some
    center x together with the edges yz satisfying
    d(x,y) + 1 + d(z,x) <= rho; equivalently, everything lying on a closed
    walk of length at most rho at some center.  An empty center set yields
    the empty graph.
    """
    if rho < 0:
        raise GraphError("ball radius parameter must be >= 0")
    half = rho // 2
    keep_v = set()
    keep_e = set()
    for x in centers:
        dist = g.distances(x, cap=half)
        keep_v.update(dist)
        for e in g.edges:
            u, v = g.ends[e]
            du = dist.get(u)
            dv = dist.get(v)
            if du is not None and dv is not None and du + 1 + dv <= rho:
                keep_e.add(e)
    return g.subgraph(keep_v, keep_e)


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleSubgraph:
    """A cycle as a cyclic vertex/edge sequence; edges[i] joins vertices[i], vertices[i+1].

    Loops are cycles of length 1, a parallel edge pair is a cycle of
    length 2.  The stored sequence is canonical: it starts at the lowest
    vertex and runs toward its lower neighbour.
    """

    vertices: tuple
    edges: tuple

    @property
    def length(self) -> int:
        return len(self.edges)

    def walk_once_around(self) -> Walk:
        return Walk(self.vertices + (self.vertices[0],), self.edges)


def _canonical_cycle(g: Multigraph, vs, es) -> CycleSubgraph:
    """The cycle vs/es (es[i] joining vs[i] and vs[i+1], cyclically) from its
    lowest vertex toward its lower neighbour; a parallel pair lists its
    edges in edge order."""
    i = min(range(len(vs)), key=lambda j: g.vpos(vs[j]))
    vs, es = vs[i:] + vs[:i], es[i:] + es[:i]
    if len(es) > 1 and ((g.vpos(vs[-1]), g.epos(es[-1]))
                        < (g.vpos(vs[1]), g.epos(es[0]))):
        vs, es = vs[:1] + vs[:0:-1], es[::-1]
    return CycleSubgraph(tuple(vs), tuple(es))


def _cycles_through(g: Multigraph, s, r: int, min_anchor: bool):
    """The cycles of length <= r (r >= 1) through s, each once, as canonical
    `CycleSubgraph`s.

    The search grows simple paths from s and closes them at s, keeping one
    direction of each cycle and one edge order of each parallel pair.  With
    min_anchor it only visits vertices above s, so it reports just the
    cycles whose lowest vertex is s (each cycle of the graph is found from
    one start), and those paths are canonical as found.
    """
    spos = g.vpos(s)
    out = [CycleSubgraph((s,), (e,)) for e, w in g.incident(s) if w == s]
    if r < 2:
        return out
    dist = g.distances(s, cap=r)
    path_v = [s]
    path_set = {s}
    path_e = []

    def extend(u):
        depth = len(path_e)
        for e, w in g.incident(u):
            if w == u:
                continue
            if e in path_e:
                continue
            if w == s:
                if (g.epos(path_e[0]) < g.epos(e) if depth == 1
                        else g.vpos(path_v[1]) < g.vpos(u)):
                    out.append(_canonical_cycle(g, path_v, path_e + [e]))
                continue
            if w in path_set:
                continue
            if min_anchor and g.vpos(w) <= spos:
                continue
            d = dist.get(w)
            if d is None or depth + 1 + d > r:
                continue
            if depth + 2 > r:
                continue
            path_v.append(w)
            path_set.add(w)
            path_e.append(e)
            extend(w)
            path_e.pop()
            path_set.remove(w)
            path_v.pop()

    extend(s)
    return out


def _short_cycles(g: Multigraph, starts, r: int, min_anchor: bool):
    if r < 1:
        return []
    cycles = [c for s in starts for c in _cycles_through(g, s, r, min_anchor)]
    cycles.sort(key=lambda c: (c.length, sorted(g.epos(e) for e in c.edges)))
    return cycles


def enumerate_short_cycles(g: Multigraph, r: int):
    """All cycle subgraphs of length <= r, each once, in canonical order."""
    return _short_cycles(g, g.vertices, r, min_anchor=True)


def cycles_through_vertex(g: Multigraph, v, r: int):
    """All cycle subgraphs of length <= r that contain v, canonically ordered."""
    return _short_cycles(g, (v,), r, min_anchor=False)


# ---------------------------------------------------------------------------
# spanning trees and the cycle space
# ---------------------------------------------------------------------------

def spanning_tree(g: Multigraph, x0) -> tuple:
    """Edge ids of the BFS tree rooted at x0, ties broken by canonical order."""
    if not g.has_vertex(x0):
        raise GraphError("unknown root %r" % (x0,))
    parent = _bfs_parents(g, x0)
    if len(parent) != len(g.vertices):
        raise DisconnectedGraphError("graph is not connected")
    return tuple(sorted((p[0] for p in parent.values() if p), key=g.epos))


def _bfs_parents(g: Multigraph, root, allowed=None) -> dict:
    """(edge, parent) of each vertex BFS reaches from root, over the edges in
    `allowed` when given, ties broken by canonical order; the root maps to None."""
    parent = {root: None}
    q = deque([root])
    while q:
        u = q.popleft()
        for e, w in g.incident(u):
            if w not in parent and (allowed is None or e in allowed):
                parent[w] = (e, u)
                q.append(w)
    return parent


def tree_path_walk(g: Multigraph, parent: dict, a, b) -> Walk:
    """The unique tree walk from a to b (through their meeting point)."""
    up_a = [a]
    cur = a
    seen = {a: 0}
    while parent[cur] is not None:
        cur = parent[cur][1]
        seen[cur] = len(up_a)
        up_a.append(cur)
    up_b = [b]
    cur = b
    while cur not in seen:
        cur = parent[cur][1]
        up_b.append(cur)
    meet = cur
    vs = up_a[: seen[meet] + 1]
    es = []
    for v in vs[:-1]:
        es.append(parent[v][0])
    down = list(reversed(up_b[: up_b.index(meet) + 1]))
    for v in down[1:]:
        es.append(parent[v][0])
        vs.append(v)
    return Walk(tuple(vs), tuple(es))


def fundamental_walks(g: Multigraph, tree, x0):
    """One closed walk at x0 per chord, in canonical chord order.

    The chord is traversed from its lower endpoint first; the rest of the
    walk runs along the tree.
    """
    tset = set(tree)
    parent = _bfs_parents(g, x0, tset)
    if len(parent) != len(g.vertices):
        raise GraphError("edge set is not a spanning tree")
    if len(tset) != len(g.vertices) - 1:
        raise GraphError("edge set is not a spanning tree")
    walks = []
    for e in g.edges:
        if e in tset:
            continue
        u, v = g.ends[e]
        if g.vpos(v) < g.vpos(u):
            u, v = v, u
        to_u = tree_path_walk(g, parent, x0, u)
        back = tree_path_walk(g, parent, v, x0)
        mid = Walk((u, v), (e,))
        walks.append(to_u.concat(mid).concat(back))
    return walks


@dataclass(frozen=True)
class BinaryCycleSpace:
    """GF(2) cycle space of a multigraph, basis in reduced echelon form.

    Vectors are integers whose bit i refers to edge i in the canonical
    order of `edge_ids`.
    """

    edge_ids: tuple
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: int) -> int:
        for row in self.basis:
            piv = row & -row
            if vec & piv:
                vec ^= row
        return vec

    def contains(self, vec: int) -> bool:
        return self.reduce(vec) == 0


def _echelonize(rows):
    basis = {}
    for vec in rows:
        for piv, row in basis.items():
            if vec & piv:
                vec ^= row
        if vec:
            piv = vec & -vec
            for p2 in list(basis):
                if basis[p2] & piv:
                    basis[p2] ^= vec
            basis[piv] = vec
    return tuple(basis[p] for p in sorted(basis))


def edge_vector(g: Multigraph, edges) -> int:
    vec = 0
    for e in edges:
        vec |= 1 << g.epos(e)
    return vec


def cycle_space_basis(g: Multigraph) -> BinaryCycleSpace:
    """Basis from the fundamental cycles of a canonical spanning forest."""
    rows = []
    seen = set()
    for root in g.vertices:
        if root in seen:
            continue
        parent = _bfs_parents(g, root)
        seen.update(parent)
        # edge vectors of the tree paths from the root: u..v is their sum
        to_root = {}
        for v, p in parent.items():
            to_root[v] = 0 if p is None else to_root[p[1]] ^ (1 << g.epos(p[0]))
        tset = {p[0] for p in parent.values() if p}
        for e in g.edges:
            u, v = g.ends[e]
            if e in tset or u not in parent:
                continue
            rows.append((1 << g.epos(e)) ^ to_root[u] ^ to_root[v])
    return BinaryCycleSpace(g.edges, _echelonize(rows))


def short_cycles_span(g: Multigraph, r: int) -> bool:
    """Do the cycles of length <= r span the whole binary cycle space?"""
    target = len(g.edges) - len(g.vertices) + len(g.components())
    if target == 0:
        return True
    basis = {}
    for cyc in enumerate_short_cycles(g, r):
        vec = edge_vector(g, cyc.edges)
        for piv, row in basis.items():
            if vec & piv:
                vec ^= row
        if vec:
            basis[vec & -vec] = vec
            if len(basis) == target:
                return True
    return False


# ---------------------------------------------------------------------------
# isomorphism and automorphisms
# ---------------------------------------------------------------------------

class Isomorphism:
    """A pair of bijections (vertices, edges) commuting with incidence."""

    __slots__ = ("vertex_map", "edge_map")

    def __init__(self, vertex_map: dict, edge_map: dict):
        self.vertex_map = dict(vertex_map)
        self.edge_map = dict(edge_map)

    def __eq__(self, other):
        return (isinstance(other, Isomorphism)
                and self.vertex_map == other.vertex_map
                and self.edge_map == other.edge_map)

    def __hash__(self):
        return hash(frozenset(self.vertex_map.items()))

    def __repr__(self):
        return "Isomorphism(%r)" % (self.vertex_map,)

    def compose(self, other: "Isomorphism") -> "Isomorphism":
        """self after other."""
        return Isomorphism(
            {v: self.vertex_map[w] for v, w in other.vertex_map.items()},
            {e: self.edge_map[f] for e, f in other.edge_map.items()},
        )

    def inverse(self) -> "Isomorphism":
        return Isomorphism(
            {w: v for v, w in self.vertex_map.items()},
            {f: e for e, f in self.edge_map.items()},
        )

    @staticmethod
    def identity(g: Multigraph) -> "Isomorphism":
        return Isomorphism({v: v for v in g.vertices}, {e: e for e in g.edges})


def is_valid_isomorphism(g1: Multigraph, g2: Multigraph, iso: Isomorphism) -> bool:
    if sorted(iso.vertex_map, key=g1.vpos) != list(g1.vertices):
        return False
    if sorted(iso.vertex_map.values(), key=g2.vpos) != list(g2.vertices):
        return False
    if sorted(iso.edge_map, key=g1.epos) != list(g1.edges):
        return False
    if sorted(iso.edge_map.values(), key=g2.epos) != list(g2.edges):
        return False
    for e, f in iso.edge_map.items():
        u, v = g1.ends[e]
        if {iso.vertex_map[u], iso.vertex_map[v]} != set(g2.ends[f]):
            return False
    return True


def _refine_start(g: Multigraph):
    """(neighbour positions, colours) that `_refine` starts from: one position
    per incident edge, a loop once, and the degree and loop count of each vertex."""
    return ([[g.vpos(w) for e, w in g.incident(v)] for v in g.vertices],
            [(g.degree(v), sum(1 for e, w in g.incident(v) if w == v)) for v in g.vertices])


def _refine(nbrs, cols, rounds=None):
    """1-dimensional colour refinement of one graph, given by the neighbour
    positions `nbrs` of each vertex, from the colours `cols`.

    Each round names the signatures (colour, sorted neighbour colours) in
    order of first occurrence.  Without `rounds`, refines until a round
    splits no class and returns (colours, rounds), with one (names, class
    sizes) pair recorded per round.  Given another graph's rounds, replays
    them instead and returns the colours under that graph's names, or None
    once a signature is missing from a round's names or a class size
    differs.  That is the answer of refining both graphs jointly: a
    signature the first graph lacks is a class of size 0 against at least
    1, and once the first graph is stable with equal class sizes, every
    signature of the second is one of its own, so the second is stable in
    the same round.
    """
    if rounds is not None:
        for names, sizes in rounds:
            cols = [names.get((c, tuple(sorted([cols[j] for j in nb]))))
                    for c, nb in zip(cols, nbrs)]
            if None in cols or Counter(cols) != sizes:
                return None
        return cols
    rounds = []
    n_classes = len(set(cols))
    while True:
        names = {}
        cols = [names.setdefault((c, tuple(sorted([cols[j] for j in nb]))), len(names))
                for c, nb in zip(cols, nbrs)]
        rounds.append((names, Counter(cols)))
        if len(names) == n_classes:
            return cols, rounds
        n_classes = len(names)


def _edge_multiplicities_ok(g1, g2, u, x, mapping):
    """Multiplicity of edges from u to each mapped vertex must match at x."""
    for e, w in g1.incident(u):
        if w in mapping and w != u:
            if len(g1.edges_between(u, w)) != len(g2.edges_between(x, mapping[w])):
                return False
    loops1 = sum(1 for e, w in g1.incident(u) if w == u)
    loops2 = sum(1 for e, w in g2.incident(x) if w == x)
    return loops1 == loops2


def _complete_edge_map(g1, g2, vmap):
    """The edge map that keeps each class of parallel edges (and the loops
    at each vertex) in canonical order; such maps compose to such maps."""
    emap = {}
    used = set()
    for e in g1.edges:
        u, v = g1.ends[e]
        candidates = [f for f in g2.edges_between(vmap[u], vmap[v]) if f not in used]
        if not candidates:
            return None
        f = candidates[0]
        emap[e] = f
        used.add(f)
    return emap


def _backtrack(g1: Multigraph, g2: Multigraph, order, c1, c2, budget):
    """First bijection, found by backtracking, of the vertices of g1 onto
    those of g2 that keeps the colours c1, c2 (indexed by vertex position)
    and the edge count between every two vertices, loops included.  Once
    the edge totals agree, counts checked at the pairs joined in g1 hold at
    every pair.  Returns (hit, nodes) as `_iso_search` does, with hit a vertex map.

    When every colour of c2 names one vertex, the colours force the map,
    and one comparison of the mapped edge ends tests it.  A hit is the map
    the search would find with one node per vertex; a miss is left to the
    search, so hits, UNDECIDED and node counts are the search's own.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None, 0
    where = {c: j for j, c in enumerate(c2)}
    if len(where) == len(c2) and len(order) <= budget:
        forced = [where.get(c) for c in c1]
        if None not in forced and len(set(forced)) == len(forced):
            ends1 = sorted((min(forced[a], forced[b]), max(forced[a], forced[b]))
                           for a, b in g1.bits().epairs)
            if ends1 == sorted((min(a, b), max(a, b)) for a, b in g2.bits().epairs):
                return {u: g2.vertices[forced[g1.vpos(u)]] for u in order}, len(order)
    by_color = {}
    for x in g2.vertices:
        by_color.setdefault(c2[g2.vpos(x)], []).append(x)

    mapping = {}
    used = set()
    nodes = 0

    def candidates(u):
        col = c1[g1.vpos(u)]
        anchor = None
        for e, w in g1.incident(u):
            if w in mapping and w != u:
                anchor = w
                break
        if anchor is None:
            pool = by_color.get(col, ())
        else:
            pool = [x for e, x in g2.incident(mapping[anchor]) if x != mapping[anchor]]
            pool = sorted(set(pool), key=g2.vpos)
        return [x for x in pool
                if x not in used and c2[g2.vpos(x)] == col
                and _edge_multiplicities_ok(g1, g2, u, x, mapping)]

    def backtrack(i):
        nonlocal nodes
        if nodes > budget:
            return UNDECIDED
        if i == len(order):
            return dict(mapping)
        u = order[i]
        for x in candidates(u):
            nodes += 1
            mapping[u] = x
            used.add(x)
            hit = backtrack(i + 1)
            del mapping[u]
            used.discard(x)
            if hit is not None:
                return hit
        return None

    return backtrack(0), nodes


def _iso_search(g1: Multigraph, g2: Multigraph, c1, c2, budget: int):
    """First isomorphism found by backtracking from the refined colours c1 of
    g1 and c2 of g2 (`_refine`, in one naming), keeping colours.

    c2 is None when refinement already tells the graphs apart.  Returns
    (hit, nodes): hit is a (vertex map, edge map) pair, None when
    there is no such isomorphism, or UNDECIDED when the search needs more
    than `budget` nodes; nodes counts the vertex assignments tried.
    Vertices are assigned in a BFS-like order so that each new vertex has a
    mapped neighbour whenever the graph is connected, which keeps candidate
    sets small.
    """
    if c2 is None:
        return None, 0

    order = []
    placed = set()
    sizes = Counter(c1)
    ranked = sorted(g1.vertices, key=lambda v: (sizes[c1[g1.vpos(v)]], g1.vpos(v)))
    while len(order) < len(g1.vertices):
        seed = next(v for v in ranked if v not in placed)
        order.append(seed)
        placed.add(seed)
        q = deque([seed])
        while q:
            u = q.popleft()
            for e, w in g1.incident(u):
                if w not in placed:
                    placed.add(w)
                    order.append(w)
                    q.append(w)

    hit, nodes = _backtrack(g1, g2, order, c1, c2, budget)
    if hit is not None and hit is not UNDECIDED:
        # every edge count matches, so the edge map cannot fail
        hit = (hit, _complete_edge_map(g1, g2, hit))
    return hit, nodes


def isomorphic(g1: Multigraph, g2: Multigraph, budget: int = 2_000_000):
    """First isomorphism found under the canonical backtracking order.

    Returns an Isomorphism, None when provably non-isomorphic, or UNDECIDED
    when the search budget runs out.
    """
    c1, rounds = _refine(*_refine_start(g1))
    hit, _nodes = _iso_search(g1, g2, c1, _refine(*_refine_start(g2), rounds), budget)
    if hit is None or hit is UNDECIDED:
        return hit
    return Isomorphism(*hit)


def _orbit(v, gens) -> set:
    orbit = {v}
    todo = [v]
    for x in todo:
        for s in gens:
            y = s.vertex_map[x]
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def automorphism_group(g: Multigraph, budget: int = 2_000_000):
    """(generators, order) of the automorphism group, or UNDECIDED.

    The base b_1..b_k individualizes the first vertex of the smallest
    non-singleton color class until refinement leaves only singletons.
    From the deepest level up, each w in the class of b_i that the
    generators found so far do not send b_i to gets one first-hit search
    for an automorphism fixing b_1..b_{i-1} and sending b_i to w; a hit
    is a generator, a miss rules out the orbit of w (McKay & Piperno,
    Practical graph isomorphism II, 2014).  The generators are then a
    strong generating set, so the order is the product of the base
    points' orbit lengths (Seress, Permutation Group Algorithms, 2003).
    All searches share one node budget; running out gives UNDECIDED.

    Refinement runs once per level: level 0 refines the start colours, and
    level i refines level i-1's colours with b_i individualized.  The
    coarsest equitable refinement is unique, so this gives the classes of
    refining from the start colours with b_1..b_i individualized.  The
    search for w in the class of b_i refines a second copy: level i-1's
    colours with w individualized, replayed through level i's rounds (`_refine`).
    """
    nbrs, start = _refine_start(g)
    levels = [_refine(nbrs, start)]
    base, cells = [], []
    while True:
        colors = levels[-1][0]
        classes = {}
        for v, c in zip(g.vertices, colors):
            classes.setdefault(c, []).append(v)
        open_cells = [cell for cell in classes.values() if len(cell) > 1]
        if not open_cells:
            break
        cell = min(open_cells, key=len)
        base.append(cell[0])
        cells.append(cell)
        p = g.vpos(cell[0])
        levels.append(_refine(nbrs, [-1 if j == p else c for j, c in enumerate(colors)]))
    gens = []
    order = 1
    spent = 0
    for i in range(len(base) - 1, -1, -1):
        orbit = _orbit(base[i], gens)
        ruled_out = set()
        colors, (c1, rounds) = levels[i][0], levels[i + 1]
        for w in cells[i]:
            if w in orbit or w in ruled_out:
                continue
            p = g.vpos(w)
            c2 = _refine(nbrs, [-1 if j == p else c for j, c in enumerate(colors)], rounds)
            hit, nodes = _iso_search(g, g, c1, c2, budget - spent)
            spent += nodes
            if hit is UNDECIDED:
                return UNDECIDED
            if hit is None:
                ruled_out |= _orbit(w, gens)
            else:
                gens.append(Isomorphism(*hit))
                orbit = _orbit(base[i], gens)
        order *= len(orbit)
    return gens, order


def automorphisms(g: Multigraph, budget: int = 2_000_000):
    """The full automorphism group as an explicit list, or UNDECIDED.

    The list is the closure of the generators of `automorphism_group`,
    sorted by vertex images, so it starts with the identity; it is closed
    under composition and inverses.  UNDECIDED when that search runs out
    of budget or the group has more than `budget` elements to list.
    """
    group = automorphism_group(g, budget)
    if group is UNDECIDED or group[1] > budget:
        return UNDECIDED
    gens = [tuple(g.vpos(s.vertex_map[v]) for v in g.vertices) for s in group[0]]
    elements = {tuple(range(len(g.vertices)))}
    todo = list(elements)
    for p in todo:
        for s in gens:
            q = tuple(s[i] for i in p)
            if q not in elements:
                elements.add(q)
                todo.append(q)
    autos = []
    for p in sorted(elements):
        vmap = {v: g.vertices[i] for v, i in zip(g.vertices, p)}
        autos.append(Isomorphism(vmap, _complete_edge_map(g, g, vmap)))
    return autos
