"""Checks of the program's outputs, written apart from the program.

Every check takes plain data (vertex lists, edge-end dicts, bitmasks,
decoded JSON) and returns a list of problems; an empty list means the
output passed.  Nothing here calls into `localdec`, so a fault in the
library cannot hide itself by also being in the check.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial


# ---------------------------------------------------------------------------
# small graph helpers
# ---------------------------------------------------------------------------

def _connected(nodes, ends) -> bool:
    """Is the subgraph induced on `nodes` by the edges in `ends` connected?"""
    nodes = set(nodes)
    if not nodes:
        return False
    adj = {v: set() for v in nodes}
    for u, v in ends.values():
        if u in nodes and v in nodes:
            adj[u].add(v)
            adj[v].add(u)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == nodes


def _degrees(vertices, ends) -> dict:
    deg = {v: 0 for v in vertices}
    for u, v in ends.values():
        deg[u] += 1
        deg[v] += 1
    return deg


def _distances(vertices, ends, start, cap=None) -> dict:
    adj = {v: [] for v in vertices}
    for u, v in ends.values():
        adj[u].append(v)
        adj[v].append(u)
    dist = {start: 0}
    frontier = [start]
    while frontier and (cap is None or dist[frontier[0]] < cap):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def graph_from_json(obj: dict):
    """(vertices, {edge id: (u, v)}) from the program's graph JSON."""
    return (list(obj["vertices"]),
            {e["id"]: tuple(e["ends"]) for e in obj["edges"]})


# ---------------------------------------------------------------------------
# graph-decomposition axioms
# ---------------------------------------------------------------------------

def decomposition_problems(vertices, ends, model_vertices, model_ends, parts) -> list:
    """The axioms of a graph-decomposition of (vertices, ends) modelled on
    (model_vertices, model_ends) with parts[h] = (vertex set, edge set):
    parts are subgraphs, together they cover the graph, the model nodes
    holding a vertex or an edge induce a connected subgraph of the model,
    and the parts of adjacent model nodes intersect."""
    problems = []
    vset = set(vertices)
    if set(parts) != set(model_vertices):
        problems.append("parts and model nodes differ")
        return problems
    for h, (pv, pe) in parts.items():
        if not pv <= vset:
            problems.append("part %s has vertices outside the graph" % h)
        for e in pe:
            if e not in ends or not set(ends[e]) <= pv:
                problems.append("part %s is not a subgraph (edge %s)" % (h, e))
                break
    covered_v = set().union(*(pv for pv, _ in parts.values())) if parts else set()
    covered_e = set().union(*(pe for _, pe in parts.values())) if parts else set()
    if covered_v != vset:
        problems.append("%d vertices lie in no part" % len(vset - covered_v))
    if covered_e != set(ends):
        problems.append("%d edges lie in no part" % len(set(ends) - covered_e))
    for v in vertices:
        holders = [h for h, (pv, _) in parts.items() if v in pv]
        if holders and not _connected(holders, model_ends):
            problems.append("the nodes holding vertex %s are disconnected in H" % v)
            break
    for e in ends:
        holders = [h for h, (_, pe) in parts.items() if e in pe]
        if holders and not _connected(holders, model_ends):
            problems.append("the nodes holding edge %s are disconnected in H" % e)
            break
    for f, (a, b) in model_ends.items():
        if not parts[a][0] & parts[b][0]:
            problems.append("adjacent parts %s, %s do not intersect" % (a, b))
            break
    return problems


# ---------------------------------------------------------------------------
# necklace: the README example
# ---------------------------------------------------------------------------

def necklace_automorphism_count(n: int, clique: int = 5) -> int:
    """|Aut| of n cliques glued in a cycle: the dihedral group of the cycle
    times the permutations of each clique's non-glue vertices."""
    return 2 * n * factorial(clique - 2) ** n


def necklace_problems(out: dict, vertices, ends, n: int):
    """Check a `decompose` JSON output for necklace(n).

    Returns (problems, undecided): `undecided` is true when the program
    did not decide canonicity, which the benchmark counts as a failed
    operation rather than a wrong answer.
    """
    problems = []
    if graph_from_json(out["base"]) != (list(vertices), dict(ends)):
        problems.append("the output's base graph is not the input")
    hv, he = graph_from_json(out["H"])
    deg = _degrees(hv, he)
    if not (len(hv) == n and len(he) == n and _connected(hv, he)
            and all(u != v for u, v in he.values())
            and all(d == 2 for d in deg.values())):
        problems.append("H is not a cycle on %d nodes" % n)
    parts = {}
    for h in hv:
        part = out["parts"].get(h)
        if part is None:
            problems.append("model node %s has no part" % h)
            continue
        pv, pe = graph_from_json(part)
        parts[h] = (set(pv), set(pe))
        pairs = sorted(tuple(sorted(ends[e])) for e in pe if e in ends)
        if len(pv) != 5 or pairs != sorted(combinations(sorted(pv), 2)):
            problems.append("part %s is not a complete graph on 5 vertices" % h)
    if len(parts) == len(hv):
        problems += decomposition_problems(vertices, ends, hv, he, parts)
    labels = out.get("edge_labels", {})
    if set(labels) != set(he) or any(k != 1 for k in labels.values()):
        problems.append("edge labels are not all 1")
    canonicity = out["reports"]["canonicity"]
    undecided = canonicity is None
    if not undecided:
        if canonicity is not True:
            problems.append("canonicity is %r" % canonicity)
        want = necklace_automorphism_count(n)
        if out["provenance"].get("automorphisms") != want:
            problems.append("automorphism count %r, expected %d"
                            % (out["provenance"].get("automorphisms"), want))
    return problems, undecided


# ---------------------------------------------------------------------------
# cover: the truncated ball of the unrolled clique chain
# ---------------------------------------------------------------------------

def chain_ball(radius: int, clique: int = 5):
    """The radius-R ball around glue vertex 0 of the infinite chain of
    cliques glued at cut vertices, as a truncated cover ball keeps it:
    every vertex within distance R, and every edge with an end nearer
    than R.  Returns (vertices in BFS order, ends, depth)."""
    inner = clique - 2
    depth = {("G", 0): 0}
    for k in range(1, radius + 1):
        depth[("G", k)] = depth[("G", -k)] = k
    blocks = range(-radius, radius)   # block b lies between glues b and b + 1
    for b in blocks:
        for j in range(inner):
            depth[("I", b, j)] = max(b + 1, -b)
    ends = {}
    for b in blocks:
        block = [("G", b)] + [("I", b, j) for j in range(inner)] + [("G", b + 1)]
        for u, v in combinations(block, 2):
            if depth[u] < radius or depth[v] < radius:
                ends[(b, u, v)] = (u, v)
    vertices = sorted(depth, key=lambda v: (depth[v], repr(v)))
    return vertices, ends, depth


def _depth_profile(vertices, ends, depth) -> list:
    """Sorted (depth, degree) pairs: an invariant of the rooted ball."""
    deg = _degrees(vertices, ends)
    return sorted((depth[v], deg[v]) for v in vertices)


def cover_problems(out: dict, base_vertices, base_ends, r: int) -> list:
    """Check a truncated `cover` JSON output against the chain ball."""
    problems = []
    if out.get("truncated") is not True:
        problems.append("the cover is not truncated")
        return problems
    certs = out.get("certificates", {})
    for name in ("lift_separation", "radius_stable", "table_covers_ball"):
        if certs.get(name) is not True:
            problems.append("certificate %s is %r" % (name, certs.get(name)))
    radius = out["radius"]
    bv, be = graph_from_json(out["graph"])
    proj_v = out["projection"]["vertices"]
    proj_e = out["projection"]["edges"]
    root = out["root"]
    if proj_v.get(root) != base_vertices[0]:
        problems.append("the root does not lie over the base point")
    cv, ce, cdepth = chain_ball(radius)
    if (len(bv), len(be)) != (len(cv), len(ce)):
        problems.append("ball has %d vertices and %d edges, the chain ball %d and %d"
                        % (len(bv), len(be), len(cv), len(ce)))
        return problems
    bdepth = _distances(bv, be, root)
    if len(bdepth) != len(bv):
        problems.append("the ball is disconnected")
        return problems
    if _depth_profile(bv, be, bdepth) != _depth_profile(cv, ce, cdepth):
        problems.append("the ball's depth and degree profile differs from the chain ball")
    for e, (x, y) in be.items():
        base_e = proj_e.get(e)
        if base_e not in base_ends or \
                sorted(base_ends[base_e]) != sorted((proj_v[x], proj_v[y])):
            problems.append("edge %s does not project onto a base edge" % e)
            break
    base_star = {v: [] for v in base_vertices}
    for e, (u, v) in base_ends.items():
        base_star[u].append(e)
        base_star[v].append(e)
    star = {x: [] for x in bv}
    for e, (x, y) in be.items():
        star[x].append(proj_e[e])
        star[y].append(proj_e[e])
    for x in bv:
        if bdepth[x] < radius and sorted(star[x]) != sorted(base_star[proj_v[x]]):
            problems.append("interior vertex %s is not a local homeomorphism" % x)
            break
    for x in bv:
        if bdepth[x] > radius - r:
            continue
        near = _distances(bv, be, x, cap=r)
        if any(y != x and proj_v[y] == proj_v[x] for y in near):
            problems.append("two lifts of %s lie within distance %d" % (proj_v[x], r))
            break
    return problems


# ---------------------------------------------------------------------------
# corpus: finite-mode decompositions of small random graphs
# ---------------------------------------------------------------------------

def short_cycles_span(vertices, ends, r: int) -> bool:
    """Do the cycles of length at most r span the GF(2) cycle space?"""
    index = {v: i for i, v in enumerate(vertices)}
    eids = list(ends)
    ebit = {e: 1 << i for i, e in enumerate(eids)}
    inc = {v: [] for v in vertices}
    for e, (u, v) in ends.items():
        inc[u].append((e, v))
        if u != v:
            inc[v].append((e, u))
    basis = {}

    def add(mask):
        while mask:
            top = mask.bit_length() - 1
            if top not in basis:
                basis[top] = mask
                return
            mask ^= basis[top]

    def walk(start, v, used, mask, length):
        for e, w in inc[v]:
            if mask & ebit[e]:
                continue
            if w == start:
                add(mask | ebit[e])
            elif length + 1 < r and index[w] > index[start] and w not in used:
                walk(start, w, used | {w}, mask | ebit[e], length + 1)

    for s in vertices:
        walk(s, s, {s}, 0, 0)
    components = 0
    seen = set()
    for v in vertices:
        if v not in seen:
            components += 1
            seen |= set(_distances(vertices, ends, v))
    return len(basis) == len(eids) - len(vertices) + components


def corpus_problems(vertices, ends, model_vertices, model_ends, parts, r: int,
                    canonicity, automorphisms, sheets):
    """Check one finite-mode `decompose` result of the corpus.

    Returns (problems, undecided) as `necklace_problems` does."""
    problems = decomposition_problems(vertices, ends, model_vertices, model_ends, parts)
    undecided = automorphisms is None
    if not undecided and canonicity is not True:
        problems.append("canonicity is %r with the group listed" % canonicity)
    if sheets == 1:
        if not short_cycles_span(vertices, ends, r):
            problems.append("1-sheet cover but the short cycles do not span")
        if not (len(model_ends) == len(model_vertices) - 1
                and _connected(model_vertices, model_ends)):
            problems.append("1-sheet cover but H is not a tree")
    return problems, undecided


# ---------------------------------------------------------------------------
# ball_tangles: the canonical nested set, on side masks
# ---------------------------------------------------------------------------

def _neighbours(adj, mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def _components(adj, pool: int) -> list:
    comps = []
    while pool:
        comp = frontier = pool & -pool
        while frontier:
            frontier = _neighbours(adj, frontier) & pool & ~comp
            comp |= frontier
        comps.append(comp)
        pool &= ~comp
    return comps


def nested(a1: int, b1: int, a2: int, b2: int) -> bool:
    """Are the separations {a1, b1} and {a2, b2} (side masks) nested?"""
    return ((a1 & ~a2 == 0 and b2 & ~b1 == 0) or (a1 & ~b2 == 0 and a2 & ~b1 == 0)
            or (b1 & ~a2 == 0 and b2 & ~a1 == 0) or (b1 & ~b2 == 0 and a2 & ~a1 == 0))


def is_cut_vertex(adj, full: int, i: int) -> bool:
    return len(_components(adj, full & ~(1 << i))) >= 2


def nested_set_problems(adj, members, tangles, max_order: int) -> list:
    """Check a nested set given as (A mask, B mask, universe index) triples
    over a graph with neighbour masks `adj`, and the tangles as choice
    strings over the sorted separation universe.

    Members must be proper separations of order below `max_order`,
    pairwise nested and tight; every order-1 member's separator must be
    a cut vertex; every two tangles that orient a common separation
    differently must be told apart by some member."""
    problems = []
    full = (1 << len(adj)) - 1
    for a, b, _ in members:
        x = a & b
        if a | b != full or a == full or b == full:
            problems.append("member is not a proper separation")
            continue
        if _neighbours(adj, a & ~b) & b & ~a:
            problems.append("member sides are joined by an edge")
        if bin(x).count("1") >= max_order:
            problems.append("member of order %d" % bin(x).count("1"))
        # tight: each side holds a component of G - X adjacent to all of X
        full_comps = [c for c in _components(adj, full & ~x) if _neighbours(adj, c) & x == x]
        if not all(any(c & ~side == 0 for c in full_comps) for side in (a, b)):
            problems.append("member is not tight")
        if bin(x).count("1") == 1 and not is_cut_vertex(adj, full, x.bit_length() - 1):
            problems.append("order-1 member's separator is not a cut vertex")
    for (a1, b1, _), (a2, b2, _) in combinations(members, 2):
        if not nested(a1, b1, a2, b2):
            problems.append("two members cross")
            break
    idx = sorted(i for _, _, i in members)
    for t1, t2 in combinations(tangles, 2):
        m = min(len(t1), len(t2))
        if t1[:m] == t2[:m]:
            continue
        if not any(i < m and t1[i] != t2[i] for i in idx):
            problems.append("two distinguishable tangles share every member's orientation")
            break
    return problems
