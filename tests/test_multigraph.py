"""Tests for the multigraph layer, checked against brute-force oracles."""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from localdec.multigraph import (
    DisconnectedGraphError,
    GraphError,
    Isomorphism,
    MalformedWalkError,
    Multigraph,
    UNDECIDED,
    Walk,
    _backtrack,
    _refine,
    _refine_start,
    automorphism_group,
    automorphisms,
    ball,
    cycle_space_basis,
    cycles_through_vertex,
    edge_vector,
    enumerate_short_cycles,
    fundamental_walks,
    homotopic,
    is_valid_isomorphism,
    isomorphic,
    reduce_walk,
    short_cycles_span,
    spanning_tree,
)


# ---------------------------------------------------------------------------
# graph builders
# ---------------------------------------------------------------------------

def path_graph(n):
    return Multigraph(range(n), ((f"e{i}", (i, i + 1)) for i in range(n - 1)))


def cycle_graph(n):
    return Multigraph(range(n), ((f"e{i}", (i, (i + 1) % n)) for i in range(n)))


def complete_graph(n):
    es = [(f"e{u}_{v}", (u, v)) for u, v in combinations(range(n), 2)]
    return Multigraph(range(n), es)


def theta_graph():
    """Two vertices joined by three parallel edges."""
    return Multigraph("uv", (("a", ("u", "v")), ("b", ("u", "v")), ("c", ("u", "v"))))


def loop_graph():
    return Multigraph(["v"], [("l", ("v", "v"))])


def random_connected_graph(rng, n, extra, allow_multi=False):
    verts = list(range(n))
    edges = []
    for i in range(1, n):
        edges.append((f"t{i}", (rng.randrange(i), i)))
    k = 0
    # one vertex leaves no room for a non-loop edge
    while n > 1 and k < extra:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if not allow_multi and any(set(p) == {u, v} for _, p in edges):
            k += 1
            continue
        edges.append((f"x{k}", (min(u, v), max(u, v))))
        k += 1
    return Multigraph(verts, edges)


def random_walk(rng, g, start, length):
    vs = [start]
    es = []
    for _ in range(length):
        inc = g.incident(vs[-1])
        if not inc:
            break
        e, w = inc[rng.randrange(len(inc))]
        es.append(e)
        vs.append(w)
    return Walk(tuple(vs), tuple(es))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def all_reduction_results(g, w, cap=4000):
    """Exhaustively apply single deletions in every order; return the set of end results."""
    results = set()
    seen = set()
    stack = [(w.vertices, w.edges)]
    while stack:
        vs, es = stack.pop()
        if (vs, es) in seen:
            continue
        seen.add((vs, es))
        if len(seen) > cap:
            raise RuntimeError("oracle blow-up")
        hits = []
        for i in range(len(es) - 1):
            if es[i] == es[i + 1] and vs[i] == vs[i + 2]:
                hits.append(i)
        if not hits:
            results.add((vs, es))
            continue
        for i in hits:
            stack.append((vs[:i + 1] + vs[i + 3:], es[:i] + es[i + 2:]))
    return results


def closed_walks_ball_oracle(g, v, rho):
    """Vertices/edges on closed walks at v of length <= rho, by DFS over walks."""
    keep_v = set()
    keep_e = set()

    def explore(u, vs, es):
        if u == v:
            keep_v.update(vs)
            keep_e.update(es)
        if len(es) >= rho:
            return
        for e, w in g.incident(u):
            remaining = rho - len(es) - 1
            explore(w, vs + [w], es + [e])

    explore(v, [v], [])
    # prune: only walks that actually return to v within the budget count,
    # so re-run keeping only prefixes of closed walks.
    keep_v2 = set()
    keep_e2 = set()

    def explore2(u, vs, es):
        if u == v and es:
            keep_v2.update(vs)
            keep_e2.update(es)
        if len(es) >= rho:
            return
        for e, w in g.incident(u):
            explore2(w, vs + [w], es + [e])

    explore2(v, [v], [])
    keep_v2.add(v)
    return keep_v2, keep_e2


def cycles_by_edge_subsets(g, r):
    """Every edge subset of size <= r that forms a single cycle."""
    out = set()
    for k in range(1, r + 1):
        for es in combinations(g.edges, k):
            deg = {}
            for e in es:
                u, v = g.ends[e]
                deg[u] = deg.get(u, 0) + (2 if u == v else 1)
                if u != v:
                    deg[v] = deg.get(v, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            sub = g.subgraph(deg.keys(), es)
            if sub.is_connected():
                out.add(frozenset(es))
    return out


def brute_force_isomorphism(g1, g2):
    """Try all vertex bijections; return a valid map or None."""
    if len(g1.vertices) != len(g2.vertices):
        return None
    for perm in permutations(g2.vertices):
        vmap = dict(zip(g1.vertices, perm))
        ok = True
        for u, v in combinations(list(g1.vertices), 2):
            if len(g1.edges_between(u, v)) != len(g2.edges_between(vmap[u], vmap[v])):
                ok = False
                break
        if not ok:
            continue
        for u in g1.vertices:
            if len(g1.edges_between(u, u)) != len(g2.edges_between(vmap[u], vmap[u])):
                ok = False
                break
        if ok:
            return vmap
    return None


def brute_force_cycle_rank(g):
    """GF(2) rank of the vectors of all cycles of g."""
    rank = 0
    basis = {}
    for es in cycles_by_edge_subsets(g, len(g.edges)):
        vec = edge_vector(g, es)
        for piv, row in basis.items():
            if vec & piv:
                vec ^= row
        if vec:
            basis[vec & -vec] = vec
            rank += 1
    return rank


# ---------------------------------------------------------------------------
# reduce_walk / homotopic
# ---------------------------------------------------------------------------

def test_trivial_walk_is_reduced():
    g = path_graph(2)
    w = Walk.trivial(0)
    assert reduce_walk(g, w) == w


def test_single_backtrack_cancels():
    g = path_graph(2)
    w = Walk((0, 1, 0), ("e0", "e0"))
    assert reduce_walk(g, w) == Walk.trivial(0)


def test_nested_cancellation_matches_exhaustive_oracle():
    g = path_graph(3)
    w = Walk((0, 1, 2, 1, 0), ("e0", "e1", "e1", "e0"))
    results = all_reduction_results(g, w)
    assert results == {((0,), ())}
    assert reduce_walk(g, w) == Walk.trivial(0)


def test_reduction_confluent_on_random_walks():
    rng = random.Random(7)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(3, 6), rng.randrange(0, 4))
        w = random_walk(rng, g, rng.randrange(len(g.vertices)), rng.randrange(0, 9))
        results = all_reduction_results(g, w)
        assert len(results) == 1
        vs, es = next(iter(results))
        assert reduce_walk(g, w) == Walk(vs, es)


def test_reduce_walk_is_idempotent():
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_graph(rng, 5, 3)
        w = random_walk(rng, g, 0, 10)
        r = reduce_walk(g, w)
        assert reduce_walk(g, r) == r


def test_reduce_walk_rejects_malformed():
    g = path_graph(3)
    with pytest.raises(MalformedWalkError):
        reduce_walk(g, Walk((0, 2), ("e0",)))


def test_homotopic_basics():
    g = complete_graph(3)
    w = Walk((0, 1, 2, 0), ("e0_1", "e1_2", "e0_2"))
    assert homotopic(g, w, w)
    back = Walk((0, 1, 0), ("e0_1", "e0_1"))
    assert homotopic(g, back, Walk.trivial(0))
    assert not homotopic(g, w, w.reverse())


# ---------------------------------------------------------------------------
# ball
# ---------------------------------------------------------------------------

def test_ball_radius_zero():
    g = cycle_graph(6)
    b = ball(g, [0], 0)
    assert b.vertices == (0,)
    assert b.edges == ()


def test_ball_six_cycle_matches_closed_walk_oracle():
    g = cycle_graph(6)
    b = ball(g, [0], 2)
    kv, ke = closed_walks_ball_oracle(g, 0, 2)
    assert set(b.vertices) == kv
    assert set(b.edges) == ke
    assert set(b.edges) == {"e0", "e5"}
    assert set(b.vertices) == {0, 1, 5}


def test_ball_large_radius_gives_whole_graph():
    g = complete_graph(4)
    b = ball(g, [0], 2 * 3 + 1)
    assert b == g


def test_ball_empty_centers():
    g = complete_graph(3)
    b = ball(g, [], 5)
    assert b.vertices == ()


def test_ball_matches_oracle_on_random_graphs():
    rng = random.Random(3)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(0, 5))
        v = rng.randrange(len(g.vertices))
        rho = rng.randrange(0, 6)
        b = ball(g, [v], rho)
        kv, ke = closed_walks_ball_oracle(g, v, rho)
        assert set(b.vertices) == kv
        assert set(b.edges) == ke


def test_ball_monotone_in_radius():
    rng = random.Random(4)
    for _ in range(15):
        g = random_connected_graph(rng, 6, 4)
        v = rng.randrange(6)
        for rho in range(5):
            b1 = ball(g, [v], rho)
            b2 = ball(g, [v], rho + 1)
            assert set(b1.vertices) <= set(b2.vertices)
            assert set(b1.edges) <= set(b2.edges)


def test_ball_contains_short_cycles_through_center():
    rng = random.Random(5)
    for _ in range(15):
        g = random_connected_graph(rng, 6, 5)
        v = 0
        for rho in (3, 4, 5):
            b = ball(g, [v], rho)
            for cyc in enumerate_short_cycles(g, rho):
                if v in cyc.vertices:
                    assert set(cyc.vertices) <= set(b.vertices)
                    assert set(cyc.edges) <= set(b.edges)


def test_ball_union_of_single_center_balls():
    g = path_graph(7)
    b = ball(g, [0, 6], 4)
    b0 = ball(g, [0], 4)
    b6 = ball(g, [6], 4)
    assert set(b.vertices) == set(b0.vertices) | set(b6.vertices)
    assert set(b.edges) == set(b0.edges) | set(b6.edges)


# ---------------------------------------------------------------------------
# short cycles
# ---------------------------------------------------------------------------

def test_k4_triangles():
    g = complete_graph(4)
    cycles = enumerate_short_cycles(g, 3)
    assert len(cycles) == 4
    assert {frozenset(c.edges) for c in cycles} == cycles_by_edge_subsets(g, 3)


def test_five_cycle_has_no_short_cycles_below_girth():
    g = cycle_graph(5)
    assert enumerate_short_cycles(g, 4) == []


def test_loop_is_length_one_cycle():
    g = loop_graph()
    cycles = enumerate_short_cycles(g, 1)
    assert len(cycles) == 1
    assert cycles[0].edges == ("l",)
    assert cycles[0].length == 1


def test_parallel_pair_is_length_two_cycle():
    g = theta_graph()
    cycles = enumerate_short_cycles(g, 2)
    assert {frozenset(c.edges) for c in cycles} == {
        frozenset("ab"), frozenset("ac"), frozenset("bc")}


def test_short_cycles_match_edge_subset_oracle():
    rng = random.Random(12)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(0, 5),
                                   allow_multi=True)
        r = rng.randrange(1, 7)
        ours = {frozenset(c.edges) for c in enumerate_short_cycles(g, r)}
        assert ours == cycles_by_edge_subsets(g, r)


def test_cycle_canonical_orientation():
    g = complete_graph(3)
    (cyc,) = enumerate_short_cycles(g, 3)
    assert cyc.vertices[0] == 0
    assert cyc.vertices[1] == 1


def test_short_cycles_are_canonical_on_shuffled_loopy_graphs():
    rng = random.Random(29)
    for _ in range(60):
        base = random_multigraph(rng, rng.randrange(1, 7), rng.randrange(0, 9), True)
        vs = list(base.vertices)
        es = [(e, base.ends[e][::rng.choice((1, -1))]) for e in base.edges]
        rng.shuffle(vs)
        rng.shuffle(es)
        g = Multigraph(vs, es)
        for r in range(1, 7):
            every = enumerate_short_cycles(g, r)
            for v in g.vertices:
                assert cycles_through_vertex(g, v, r) == [
                    c for c in every if v in c.vertices]
            for c in every:
                k = c.length
                assert c.vertices[0] == min(c.vertices, key=g.vpos)
                for i, e in enumerate(c.edges):
                    assert set(g.ends[e]) == {c.vertices[i], c.vertices[(i + 1) % k]}
                if k >= 3:
                    assert g.vpos(c.vertices[1]) < g.vpos(c.vertices[-1])
                if k == 2:
                    assert g.epos(c.edges[0]) < g.epos(c.edges[1])


# ---------------------------------------------------------------------------
# spanning trees and fundamental walks
# ---------------------------------------------------------------------------

def test_spanning_tree_of_tree_is_everything():
    g = path_graph(5)
    assert set(spanning_tree(g, 0)) == set(g.edges)


def test_spanning_tree_four_cycle_hand_trace():
    g = cycle_graph(4)
    assert set(spanning_tree(g, 0)) == {"e0", "e1", "e3"}


def test_spanning_tree_k3_hand_trace():
    g = Multigraph("abc", (("ab", ("a", "b")), ("ac", ("a", "c")), ("bc", ("b", "c"))))
    assert set(spanning_tree(g, "a")) == {"ab", "ac"}


def test_spanning_tree_disconnected_raises():
    g = Multigraph([0, 1], [])
    with pytest.raises(DisconnectedGraphError):
        spanning_tree(g, 0)


def test_fundamental_walks_tree_input():
    g = path_graph(4)
    t = spanning_tree(g, 0)
    assert fundamental_walks(g, t, 0) == []


def test_fundamental_walk_of_cycle_reduces_to_once_around():
    n = 5
    g = cycle_graph(n)
    t = spanning_tree(g, 0)
    (w,) = fundamental_walks(g, t, 0)
    assert w.is_closed() and w.start == 0
    red = reduce_walk(g, w)
    assert red.length == n
    assert set(red.edges) == set(g.edges)


def test_fundamental_walks_refuse_non_spanning_edge_sets():
    # the first misses vertex 3; the second reaches every vertex but has
    # an edge too many
    with pytest.raises(GraphError, match="edge set is not a spanning tree"):
        fundamental_walks(path_graph(4), ("e0", "e1"), 0)
    g = cycle_graph(4)
    with pytest.raises(GraphError, match="edge set is not a spanning tree"):
        fundamental_walks(g, g.edges, 0)


def test_theta_graph_has_two_fundamental_walks():
    g = theta_graph()
    t = spanning_tree(g, "u")
    ws = fundamental_walks(g, t, "u")
    assert len(ws) == 2


def test_fundamental_walk_count_and_non_homotopy():
    rng = random.Random(21)
    for _ in range(15):
        g = random_connected_graph(rng, 6, 4, allow_multi=True)
        t = spanning_tree(g, 0)
        ws = fundamental_walks(g, t, 0)
        assert len(ws) == len(g.edges) - len(g.vertices) + 1
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                assert not homotopic(g, ws[i], ws[j])


# ---------------------------------------------------------------------------
# cycle space
# ---------------------------------------------------------------------------

def test_cycle_space_dimensions():
    assert cycle_space_basis(path_graph(5)).dim == 0
    assert cycle_space_basis(complete_graph(4)).dim == 3
    two_triangles = Multigraph(
        range(6),
        [("a", (0, 1)), ("b", (1, 2)), ("c", (0, 2)),
         ("d", (3, 4)), ("e", (4, 5)), ("f", (3, 5))],
    )
    assert cycle_space_basis(two_triangles).dim == 2


def test_cycle_space_dim_matches_brute_force_rank():
    rng = random.Random(31)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(0, 5),
                                   allow_multi=True)
        space = cycle_space_basis(g)
        assert space.dim == len(g.edges) - len(g.vertices) + 1
        assert space.dim == brute_force_cycle_rank(g)


def test_cycle_space_basis_vectors_have_even_degrees():
    rng = random.Random(32)
    for _ in range(15):
        g = random_connected_graph(rng, 6, 5, allow_multi=True)
        for row in cycle_space_basis(g).basis:
            deg = {v: 0 for v in g.vertices}
            for i, e in enumerate(g.edges):
                if row >> i & 1:
                    u, v = g.ends[e]
                    deg[u] += 1
                    deg[v] += 1
            assert all(d % 2 == 0 for d in deg.values())


def random_loopy_graph(rng):
    """Up to seven vertices and ten edges drawn with replacement from all
    pairs, loops included: usually disconnected, often with parallel edges."""
    n = rng.randrange(2, 8)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 11))]
    return Multigraph(range(n), [(f"e{i}", p) for i, p in enumerate(pairs)])


def reduced_echelon_basis_of_even_sets(g):
    """For each lowest bit p of an even-degree edge set, the one such set
    whose lowest bit is p and that holds no other of these lowest bits."""
    even = []
    for vec in range(1 << len(g.edges)):
        deg = {v: 0 for v in g.vertices}
        for i, e in enumerate(g.edges):
            if vec >> i & 1:
                u, v = g.ends[e]
                deg[u] += 1
                deg[v] += 1
        if vec and all(d % 2 == 0 for d in deg.values()):
            even.append(vec)
    pivots = {vec & -vec for vec in even}
    rows = []
    for p in sorted(pivots):
        others = sum(pivots) & ~p
        (row,) = [vec for vec in even if vec & -vec == p and vec & others == 0]
        rows.append(row)
    return tuple(rows)


def test_cycle_space_basis_is_reduced_echelon_basis_of_even_sets():
    rng = random.Random(33)
    graphs = [random_loopy_graph(rng) for _ in range(40)]
    assert sum(not g.is_connected() for g in graphs) >= 10
    assert any(g.is_loop(e) for g in graphs for e in g.edges)
    assert any(len(g.edges_between(*g.ends[e])) > 1 for g in graphs for e in g.edges
               if not g.is_loop(e))
    for g in graphs:
        assert cycle_space_basis(g).basis == reduced_echelon_basis_of_even_sets(g)


def test_short_cycles_span_examples():
    g = complete_graph(4)
    assert short_cycles_span(g, 3)
    vecs = [edge_vector(g, c.edges) for c in enumerate_short_cycles(g, 3)]
    basis = {}
    for vec in vecs:
        for piv, row in basis.items():
            if vec & piv:
                vec ^= row
        if vec:
            basis[vec & -vec] = vec
    assert len(basis) == 3
    assert not short_cycles_span(cycle_graph(5), 4)
    assert short_cycles_span(path_graph(6), 3)


# ---------------------------------------------------------------------------
# isomorphism / automorphisms
# ---------------------------------------------------------------------------

def test_isomorphic_to_itself():
    g = complete_graph(4)
    iso = isomorphic(g, g)
    assert iso is not None and iso is not UNDECIDED
    assert is_valid_isomorphism(g, g, iso)


def test_non_isomorphic_edge_counts():
    assert isomorphic(complete_graph(3), path_graph(3)) is None


def test_relabelled_five_cycle_found_and_matches_brute_force():
    g1 = cycle_graph(5)
    g2 = Multigraph("vwxyz", (("f0", ("w", "x")), ("f1", ("x", "v")),
                              ("f2", ("v", "y")), ("f3", ("y", "z")),
                              ("f4", ("z", "w"))))
    iso = isomorphic(g1, g2)
    assert iso is not None and iso is not UNDECIDED
    assert is_valid_isomorphism(g1, g2, iso)
    assert brute_force_isomorphism(g1, g2) is not None


def test_isomorphic_respects_parallel_edges():
    g1 = theta_graph()
    g2 = Multigraph("xy", (("p", ("x", "y")), ("q", ("x", "y")), ("r", ("x", "y"))))
    iso = isomorphic(g1, g2)
    assert iso is not None and iso is not UNDECIDED
    g3 = Multigraph("xy", (("p", ("x", "y")), ("q", ("x", "y")), ("r", ("x", "x"))))
    assert isomorphic(g1, g3) is None


def test_isomorphic_random_relabellings():
    rng = random.Random(41)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(4, 8), rng.randrange(0, 6),
                                   allow_multi=True)
        perm = list(g.vertices)
        rng.shuffle(perm)
        vmap = dict(zip(g.vertices, perm))
        g2 = Multigraph(
            sorted(perm),
            [(e, (vmap[g.ends[e][0]], vmap[g.ends[e][1]])) for e in g.edges],
        )
        iso = isomorphic(g, g2)
        assert iso is not None and iso is not UNDECIDED
        assert is_valid_isomorphism(g, g2, iso)


def test_isomorphic_budget_exhaustion_returns_undecided():
    g = complete_graph(7)
    assert isomorphic(g, g, budget=2) is UNDECIDED


def test_automorphism_counts():
    assert len(automorphisms(complete_graph(3))) == 6
    assert len(automorphisms(cycle_graph(4))) == 8
    assert len(automorphisms(path_graph(3))) == 2


def test_automorphisms_form_group():
    rng = random.Random(51)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randrange(3, 6), rng.randrange(0, 4))
        autos = automorphisms(g)
        assert autos is not UNDECIDED
        assert Isomorphism.identity(g) in autos
        for a in autos:
            assert a.inverse() in autos
            for b in autos:
                assert a.compose(b) in autos


def test_automorphism_group_orders_without_listing():
    from test_graphdec import necklace
    from test_tangles import glued_cliques

    # a listing needs at least one search node per element; these budgets
    # are far below the orders, so the orders come from the stabilizer chain
    for g, order in ((necklace(4), 10_368), (glued_cliques(4), 41_472),
                     (necklace(6), 559_872)):
        found = automorphism_group(g, budget=5_000)
        assert found is not UNDECIDED
        gens, got = found
        assert got == order
        assert len(gens) < 20
        assert all(is_valid_isomorphism(g, g, a) for a in gens)
    assert automorphisms(necklace(6), budget=100_000) is UNDECIDED


def order_preserving_edge_map(g, vmap):
    """The i-th edge between u and v goes to the i-th edge between their
    images (loops likewise); None when some class sizes differ."""
    emap = {}
    for e in g.edges:
        u, v = g.ends[e]
        src = g.edges_between(u, v)
        dst = g.edges_between(vmap[u], vmap[v])
        if len(src) != len(dst):
            return None
        emap[e] = dst[src.index(e)]
    return emap


def random_multigraph(rng, n, extra, connected):
    edges = []
    if connected:
        edges += [(f"t{i}", (rng.randrange(i), i)) for i in range(1, n)]
    edges += [(f"x{k}", (rng.randrange(n), rng.randrange(n))) for k in range(extra)]
    return Multigraph(range(n), edges)


def test_automorphisms_match_brute_force_on_multigraphs():
    rng = random.Random(67)
    disconnected = 0
    for _ in range(60):
        n = rng.randrange(1, 7)
        g = random_multigraph(rng, n, rng.randrange(0, 9), rng.random() < 0.5)
        disconnected += not g.is_connected()
        expected = []
        for perm in permutations(g.vertices):
            vmap = dict(zip(g.vertices, perm))
            emap = order_preserving_edge_map(g, vmap)
            if emap is not None and is_valid_isomorphism(g, g, Isomorphism(vmap, emap)):
                expected.append(Isomorphism(vmap, emap))
        got = automorphisms(g)
        assert got == expected
        assert automorphism_group(g)[1] == len(expected)
    assert disconnected >= 10


def joint_refinement(graphs, pins):
    """The two-graph colour refinement that `_refine`'s replay replaced,
    kept as its referee: both graphs refined together from degree, loop
    count and pin index, with colours named over both; None once the class
    sizes of the two split apart."""
    cols = []
    for g, pinned in zip(graphs, pins):
        pin = {v: i for i, v in enumerate(pinned)}
        cols.append([(g.degree(v), sum(1 for e, w in g.incident(v) if w == v), pin.get(v, -1))
                     for v in g.vertices])
    nbrs = [[[g.vpos(w) for e, w in g.incident(v)] for v in g.vertices] for g in graphs]
    while True:
        key = {}
        for cs in cols:
            for c in cs:
                key.setdefault(c, len(key))
        cols = [[key[c] for c in cs] for cs in cols]
        sizes = Counter(cols[0])
        if any(Counter(cs) != sizes for cs in cols[1:]):
            return None
        sigs = [[(cs[i], tuple(sorted(cs[j] for j in nb))) for i, nb in enumerate(nbs)]
                for cs, nbs in zip(cols, nbrs)]
        key = {}
        for sig in sigs:
            for s in sig:
                key.setdefault(s, len(key))
        refined = [[key[s] for s in sig] for sig in sigs]
        if refined == cols:
            return cols
        cols = refined


def replayed_refinement(g1, g2, xs, ys):
    """The route of `automorphism_group`: g1 refined once per pin, each level
    from the last with the next pin individualized, and g2 replayed through
    g1's rounds at every level."""
    (nbrs1, c1), (nbrs2, c2) = _refine_start(g1), _refine_start(g2)
    for k in range(len(xs) + 1):
        if k:
            c1[g1.vpos(xs[k - 1])] = -1
            c2[g2.vpos(ys[k - 1])] = -1
        c1, rounds = _refine(nbrs1, c1)
        c2 = _refine(nbrs2, c2, rounds)
        if c2 is None:
            return None
    return c1, c2


def colour_classes(c1, c2):
    """Each colour's (class in the first graph, class in the second), as
    sets of vertex positions."""
    pairs = {}
    for k, cs in enumerate((c1, c2)):
        for i, c in enumerate(cs):
            pairs.setdefault(c, (set(), set()))[k].add(i)
    return {(frozenset(a), frozenset(b)) for a, b in pairs.values()}


def cycle_union(lengths):
    """Disjoint cycles of the given lengths; a 2-cycle is two parallel edges."""
    edges, first = [], 0
    for n in lengths:
        edges += [("c%d" % (first + i), (first + i, first + (i + 1) % n)) for i in range(n)]
        first += n
    return Multigraph(range(first), edges)


def refinement_pairs(rng):
    """(kind, g1, g2, pins of g1, pins of g2): a seeded loopy graph against
    a relabelled copy and against a graph with its degrees, and one cycle
    against two."""
    g = random_loopy_graph(rng)
    vs, es = list(g.vertices), list(g.edges)
    rng.shuffle(vs)
    rng.shuffle(es)
    vmap = {v: "r%d" % v for v in vs}
    h = Multigraph([vmap[v] for v in vs],
                   [("f" + e, tuple(vmap[u] for u in g.ends[e])) for e in es])
    xs = rng.sample(g.vertices, rng.randrange(1, 3))
    yield "relabelled", g, h, (), ()
    yield "matched pins", g, h, xs, [vmap[x] for x in xs]
    yield "mismatched pins", g, h, xs, rng.sample(h.vertices, len(xs))
    # swap the ends of two edges, which keeps the degrees, until the
    # graphs are not isomorphic
    for _ in range(20):
        a, b = rng.choice(g.edges), rng.choice(g.edges)
        ends = dict(g.ends)
        ends[a], ends[b] = (g.ends[a][0], g.ends[b][1]), (g.ends[b][0], g.ends[a][1])
        other = Multigraph(g.vertices, ends.items())
        if isomorphic(g, other) is None:
            yield "not isomorphic", g, other, (), ()
            break
    # one cycle against two: all degrees are 2, so refinement alone cannot
    # tell them apart, and a pin in each may or may not
    n = rng.randrange(4, 11)
    m = rng.randrange(2, n - 1)
    yield "not isomorphic", cycle_union([m, n - m]), cycle_union([n]), (), ()
    yield ("not isomorphic", cycle_union([m, n - m]), cycle_union([n]),
           [rng.randrange(n)], [rng.randrange(n)])


def test_replayed_refinement_matches_joint_refinement():
    rng = random.Random(73)
    seen = Counter()
    for _ in range(130):
        for kind, g1, g2, pins1, pins2 in refinement_pairs(rng):
            want = joint_refinement((g1, g2), (pins1, pins2))
            got = replayed_refinement(g1, g2, pins1, pins2)
            seen[kind, want is None] += 1
            assert (got is None) == (want is None)
            if want is not None:
                want_classes, got_classes = colour_classes(*want), colour_classes(*got)
                for side in (0, 1):
                    assert ({pair[side] for pair in got_classes}
                            == {pair[side] for pair in want_classes})
                assert got_classes == want_classes
    assert sum(seen.values()) >= 300
    assert seen["relabelled", False] == seen["matched pins", False] == 130
    for kind in ("mismatched pins", "not isomorphic"):
        assert seen[kind, True] >= 20 and seen[kind, False] >= 20


def test_automorphism_search_budgets_are_pinned():
    from test_graphdec import necklace

    # the smallest budget each search needs; one node less is UNDECIDED,
    # so a rewrite that changes the search path shows here
    rng = random.Random(89)
    loopy = [random_loopy_graph(rng) for _ in range(168)]
    for g, need, order in ((necklace(4), 160, 10_368), (necklace(6), 336, 559_872),
                           (loopy[6], 35, 240), (loopy[26], 28, 48), (loopy[167], 28, 120)):
        assert automorphism_group(g, need - 1) is UNDECIDED
        assert automorphism_group(g, need)[1] == order


def test_backtrack_on_discrete_colours_finds_the_forced_map():
    # distinct colours leave one candidate map: found with one node per
    # vertex when it is an isomorphism, refused otherwise, UNDECIDED below n
    rng = random.Random(97)
    outcomes = Counter()
    for _ in range(200):
        n = rng.randrange(1, 8)
        g = random_multigraph(rng, n, rng.randrange(0, 9), rng.random() < 0.5)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = Multigraph(range(n), [(e, (perm[u], perm[v])) for e, (u, v) in g.ends.items()])
        c1 = rng.sample(range(50), n)
        order = list(g.vertices)
        for c2 in ([c1[perm.index(x)] for x in range(n)], rng.sample(c1, n)):
            forced = {u: c2.index(c1[u]) for u in order}
            is_iso = (Counter(frozenset(forced[x] for x in g.ends[e]) for e in g.edges)
                      == Counter(frozenset(g2.ends[f]) for f in g2.edges))
            hit, nodes = _backtrack(g, g2, order, c1, c2, 10**9)
            if is_iso:
                assert hit == forced and list(hit) == order and nodes == n
                if n:
                    assert _backtrack(g, g2, order, c1, c2, n - 1)[0] is UNDECIDED
            else:
                assert hit is None and nodes < n
            outcomes[is_iso] += 1
    assert outcomes[True] >= 200 and outcomes[False] >= 100


def test_relabel_vertices_and_edges():
    g = cycle_graph(3)
    h = g.relabel({0: "x", 1: "y", 2: "z"}, {"e0": "a"})
    assert h.vertices == ("x", "y", "z")
    assert h.edges == ("a", "e1", "e2")
    assert h.ends["a"] == ("x", "y")
    assert isomorphic(g, h) is not None


def test_json_round_trip_preserves_order():
    g = Multigraph("cab", (("e2", ("a", "b")), ("e1", ("c", "a")), ("l", ("b", "b"))))
    g2 = Multigraph.loads(g.dumps())
    assert g2.vertices == ("c", "a", "b")
    assert g2.edges == ("e2", "e1", "l")
    assert g2.ends["l"] == ("b", "b")


def test_random_connected_graph_on_one_vertex():
    assert random_connected_graph(random.Random(0), 1, 3) == Multigraph([0], [])
