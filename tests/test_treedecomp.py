"""Tests for splitting stars and induced tree-decompositions."""

import random
from itertools import combinations, product

import pytest

from localdec.multigraph import (
    UNDECIDED,
    GraphError,
    Isomorphism,
    Multigraph,
    automorphisms,
)
from localdec.tangles import (
    Separation,
    canonical_nested_set,
    enumerate_separations,
    is_tight,
    nested,
    oriented_le,
)
from localdec.treedecomp import (
    TreeDecomposition,
    consistent_orientations,
    induce_tree_decomposition,
    induced_oriented_separation,
    node_map_under,
    splitting_stars,
    tree_automorphisms_matching,
    verify_tree_decomposition,
)

from test_multigraph import complete_graph, path_graph, random_connected_graph
from test_tangles import glued_cliques, random_loopy_multigraph, two_k5s


def orientations_brute_force(seps):
    """All consistent orientations by scanning every flag vector."""
    out = []
    for flags in product((0, 1), repeat=len(seps)):
        ok = True
        for i, j in combinations(range(len(seps)), 2):
            f1, s1 = seps[i].oriented(bool(flags[i]))
            f2, s2 = seps[j].oriented(bool(flags[j]))
            if oriented_le(s1, f1, f2, s2) or oriented_le(s2, f2, f1, s1):
                ok = False
                break
        if ok:
            out.append(tuple(flags))
    return out


def orientations_backtracking(seps):
    """All consistent orientations in ascending order, by backtracking over
    the flags with the choices made so far as constraints."""
    out = []
    flags = [0] * len(seps)

    def conflicts(i, fi):
        f1, s1 = seps[i].oriented(bool(fi))
        for j in range(i):
            f2, s2 = seps[j].oriented(bool(flags[j]))
            # (s1, f1) <= chosen_j  or  (s2, f2) <= chosen_i
            if oriented_le(s1, f1, f2, s2) or oriented_le(s2, f2, f1, s1):
                return True
        return False

    def rec(i):
        if i == len(seps):
            out.append(tuple(flags))
            return
        for fi in (0, 1):
            if not conflicts(i, fi):
                flags[i] = fi
                rec(i + 1)
        flags[i] = 0

    rec(0)
    return out


def stars_brute_force(seps):
    """The maximal members of each consistent orientation, sorted: the
    splitting stars by their definition."""
    stars = []
    for flags in orientations_backtracking(seps):
        oriented = [s.oriented(bool(f)) for s, f in zip(seps, flags)]
        stars.append(tuple((i, flags[i]) for i, o in enumerate(oriented)
                           if not any(j != i and oriented_le(*o, *p)
                                      for j, p in enumerate(oriented))))
    return sorted(stars)


def assert_stars_match_brute_force(seps):
    assert [s.members for s in splitting_stars(seps)] == stars_brute_force(seps)
    assert consistent_orientations(seps) == orientations_backtracking(seps)


def test_stars_match_brute_force_on_canonical_nested_sets():
    rng = random.Random(74)
    members = 0
    for _ in range(300):
        g = random_loopy_multigraph(rng, rng.randrange(0, 5))
        for k in (2, 3, 4):
            ns = canonical_nested_set(g, k, check_invariance=False)
            assert_stars_match_brute_force(ns.separations)
            members += len(ns)
    assert members >= 500


def side_in_separator(s, t):
    return s.a_mask & ~t.separator == 0 or s.b_mask & ~t.separator == 0


def test_stars_match_brute_force_on_random_nested_families():
    # families of proper separations that need not be tight; a member with
    # a side inside another member's separator crosses it, so a family
    # starting from such a pair is refused as not nested
    rng = random.Random(75)
    compared = non_tight = refused = 0
    for _ in range(300):
        if rng.random() < 0.5:
            g = random_loopy_multigraph(rng, rng.randrange(0, 5))
        else:
            g = random_connected_graph(rng, rng.randrange(3, 9), rng.randrange(0, 4))
        seps = enumerate_separations(g, 4)
        if not seps:
            continue
        pairs = [[s, t] for s in seps for t in seps if s != t and side_in_separator(s, t)]
        family = rng.choice(pairs) if pairs and rng.random() < 0.25 else [rng.choice(seps)]
        for s in rng.sample(seps, len(seps)):
            if len(family) < 12 and s not in family and all(nested(s, t) for t in family):
                family.append(s)
        if all(nested(s, t) for s, t in combinations(family, 2)):
            assert not any(side_in_separator(s, t) for s in family for t in family)
            assert_stars_match_brute_force(family)
            induce_tree_decomposition(g, family)
            compared += 1
            non_tight += any(not is_tight(g, s) for s in family)
        else:
            with pytest.raises(GraphError, match="set of separations is not nested"):
                splitting_stars(family)
            refused += side_in_separator(*family[:2])
    assert compared >= 150 and non_tight >= 100 and refused >= 15


def test_empty_nested_set_single_orientation():
    assert consistent_orientations([]) == [()]


def test_single_separation_two_orientations():
    g = two_k5s()
    ns = canonical_nested_set(g, 2)
    assert len(consistent_orientations(ns)) == 2


def test_chain_of_two_has_three_orientations():
    g = glued_cliques(3)
    ns = canonical_nested_set(g, 2)
    assert len(ns) == 2
    got = consistent_orientations(ns)
    assert len(got) == 3
    assert set(got) == set(orientations_brute_force(ns.separations))


def test_orientations_match_brute_force_on_random_nested_sets():
    rng = random.Random(71)
    count = 0
    while count < 12:
        g = random_connected_graph(rng, rng.randrange(5, 9), rng.randrange(1, 6))
        ns = canonical_nested_set(g, 4)
        if len(ns) == 0:
            continue
        count += 1
        assert set(consistent_orientations(ns)) == set(
            orientations_brute_force(ns.separations))


def test_splitting_star_counts():
    assert len(splitting_stars([])) == 1
    g = two_k5s()
    ns = canonical_nested_set(g, 2)
    stars = splitting_stars(ns)
    assert len(stars) == 2
    assert all(len(s) == 1 for s in stars)
    g3 = glued_cliques(3)
    ns3 = canonical_nested_set(g3, 2)
    assert len(splitting_stars(ns3)) == 3


def test_every_oriented_separation_in_exactly_one_star():
    g = glued_cliques(4)
    ns = canonical_nested_set(g, 3)
    stars = splitting_stars(ns)
    seen = {}
    for s in stars:
        for m in s.members:
            assert m not in seen
            seen[m] = s
    assert len(seen) == 2 * len(ns)


def test_empty_set_tree_decomposition_is_single_part():
    g = complete_graph(4)
    td = induce_tree_decomposition(g, [])
    assert len(td.tree.vertices) == 1
    (t,) = td.tree.vertices
    assert set(td.parts[t]) == set(g.vertices)


def test_two_k5s_tree_decomposition():
    g = two_k5s()
    ns = canonical_nested_set(g, 4)
    td = induce_tree_decomposition(g, ns)
    assert len(td.tree.vertices) == 2
    parts = sorted(tuple(sorted(td.parts[t])) for t in td.tree.vertices)
    cut = [v for v in g.vertices if g.degree(v) == 8]
    assert len(cut) == 1
    assert all(cut[0] in p for p in parts)
    assert all(len(p) == 5 for p in parts)
    report = verify_tree_decomposition(g, td)
    assert report.passed
    assert report.max_adhesion == 1


def test_clique_chain_tree_decomposition_is_path_of_cliques():
    g = glued_cliques(3)
    ns = canonical_nested_set(g, 4)
    td = induce_tree_decomposition(g, ns)
    assert len(td.tree.vertices) == 3
    degs = sorted(td.tree.degree(t) for t in td.tree.vertices)
    assert degs == [1, 1, 2]
    assert all(len(td.parts[t]) == 5 for t in td.tree.vertices)


def test_round_trip_induced_separations_equal_nested_set():
    rng = random.Random(72)
    done = 0
    while done < 10:
        g = random_connected_graph(rng, rng.randrange(5, 10), rng.randrange(1, 6))
        ns = canonical_nested_set(g, 4)
        if len(ns) == 0:
            continue
        done += 1
        td = induce_tree_decomposition(g, ns)
        induced = set()
        for e in td.tree.edges:
            a, b = td.tree.ends[e]
            am, bm = induced_oriented_separation(td, e, b)
            induced.add((min(am, bm), max(am, bm)))
        assert induced == {(s.a_mask, s.b_mask) for s in ns.separations}


def test_rejects_crossing_input():
    from test_multigraph import cycle_graph
    g = cycle_graph(6)
    seps = enumerate_separations(g, 3)
    crossing_pair = None
    from localdec.tangles import crossing
    for s, t in combinations(seps, 2):
        if crossing(s, t):
            crossing_pair = [s, t]
            break
    assert crossing_pair is not None
    with pytest.raises(GraphError):
        induce_tree_decomposition(g, crossing_pair)


def test_rejects_a_separation_listed_twice_with_its_sides_swapped():
    g = two_k5s()
    (s,) = canonical_nested_set(g, 2).separations
    swapped = Separation(s.b_mask, s.a_mask, s.full)
    for seps in ([s, swapped], [swapped, s], [s, s]):
        with pytest.raises(GraphError, match="nested set lists a separation twice"):
            induce_tree_decomposition(g, seps)


def _tree_shape(td):
    """The tree with each node named by its part: the parts, and each edge
    as the pair of its end parts with its adhesion."""
    return ({td.parts[t] for t in td.tree.vertices},
            {(frozenset(td.parts[t] for t in td.tree.ends[e]), td.adhesion(e))
             for e in td.tree.edges})


def test_sides_listed_in_either_order_give_the_same_tree():
    g = Multigraph("abc", [("ab", ("a", "b")), ("bc", ("b", "c"))])
    full = g.bits().vall
    ab, bc = g.vertex_mask("ab"), g.vertex_mask("bc")
    td = induce_tree_decomposition(g, [Separation(ab, bc, full)])
    swapped = induce_tree_decomposition(g, [Separation(bc, ab, full)])
    assert _tree_shape(swapped) == _tree_shape(td) == (
        {("a", "b"), ("b", "c")}, {(frozenset({("a", "b"), ("b", "c")}), ("b",))})
    for t in (td, swapped):
        assert node_map_under(t, Isomorphism.identity(g)) == {n: n for n in t.tree.vertices}
    # a nested set with every member's sides swapped gives the same tree,
    # and the same automorphisms act on it
    for g in (two_k5s(), glued_cliques(3, clique=4), glued_cliques(4, clique=3)):
        seps = canonical_nested_set(g, 4).separations
        assert len(seps) >= 1
        td = induce_tree_decomposition(g, seps)
        swapped = induce_tree_decomposition(
            g, [Separation(s.b_mask, s.a_mask, s.full) for s in seps])
        assert _tree_shape(swapped) == _tree_shape(td)
        for a in automorphisms(g):
            part_maps = []
            for t in (td, swapped):
                m = node_map_under(t, a)
                assert m is not None
                part_maps.append({t.parts[n]: t.parts[m[n]] for n in m})
            assert part_maps[0] == part_maps[1]


def test_rejects_improper_input():
    g = path_graph(3)
    full = g.bits().vall
    with pytest.raises(GraphError):
        induce_tree_decomposition(g, [Separation(full, g.vertex_mask([0]), full)])


def test_verify_detects_missing_part():
    g = two_k5s()
    ns = canonical_nested_set(g, 2)
    td = induce_tree_decomposition(g, ns)
    t0 = td.tree.vertices[0]
    broken_parts = dict(td.parts)
    broken_parts[t0] = tuple(broken_parts[t0][:2])
    broken = TreeDecomposition(g, td.tree, broken_parts, td.stars,
                               td.edge_separation, td.separations)
    report = verify_tree_decomposition(g, broken)
    assert not report.covers_edges
    assert not report.passed


def test_verify_detects_disconnected_subtree():
    # path of 4 cliques; swapping the two end parts breaks the subtree
    # condition for the vertices in them
    g = glued_cliques(4)
    ns = canonical_nested_set(g, 2)
    td = induce_tree_decomposition(g, ns)
    leaves = [t for t in td.tree.vertices if td.tree.degree(t) == 1]
    assert len(leaves) == 2
    swapped = dict(td.parts)
    swapped[leaves[0]], swapped[leaves[1]] = swapped[leaves[1]], swapped[leaves[0]]
    broken = TreeDecomposition(g, td.tree, swapped, td.stars,
                               td.edge_separation, td.separations)
    report = verify_tree_decomposition(g, broken)
    assert report.covers_vertices and report.covers_edges
    assert not report.subtrees_connected
    assert not report.passed


def test_vertex_in_no_part_has_no_connected_subtree():
    g = two_k5s()
    td = induce_tree_decomposition(g, canonical_nested_set(g, 2))
    t = td.tree.vertices[0]
    v = next(v for v in td.parts[t] if sum(v in p for p in td.parts.values()) == 1)
    dropped = dict(td.parts)
    dropped[t] = tuple(u for u in td.parts[t] if u != v)
    broken = TreeDecomposition(g, td.tree, dropped, td.stars,
                               td.edge_separation, td.separations)
    report = verify_tree_decomposition(g, broken)
    assert not report.covers_vertices
    assert not report.subtrees_connected


def test_group_action_transfers_to_tree():
    g = two_k5s()
    ns = canonical_nested_set(g, 4)
    td = induce_tree_decomposition(g, ns)
    autos = automorphisms(g)
    swap = [a for a in autos
            if any(a.vertex_map[v] != v for v in g.vertices)]
    assert swap
    for a in autos:
        mapping = node_map_under(td, a)
        assert mapping is not None
        for t in td.tree.vertices:
            image_part = {a.vertex_map[v] for v in td.parts[t]}
            assert image_part == set(td.parts[mapping[t]])
        # regular tree-decompositions admit at most one such tree action
        assert len(tree_automorphisms_matching(td, a)) == 1


def test_tree_automorphisms_matching_undecided_on_a_large_star():
    # eleven triangles at one hub: the tree is a star with 11 leaves, whose
    # 11! automorphisms are more than `automorphisms` lists
    verts, edges = ["c"], []
    for i in range(11):
        a, b = "t%d_0" % i, "t%d_1" % i
        verts += [a, b]
        edges += [("c%da" % i, ("c", a)), ("c%db" % i, ("c", b)),
                  ("t%d" % i, (a, b))]
    g = Multigraph(verts, edges)
    td = induce_tree_decomposition(g, canonical_nested_set(g, 2))
    assert td.tree.n_vertices() == 12
    identity = Isomorphism({v: v for v in g.vertices}, {e: e for e in g.edges})
    assert tree_automorphisms_matching(td, identity) is UNDECIDED


def test_dot_and_json_exports():
    g = two_k5s()
    ns = canonical_nested_set(g, 2)
    td = induce_tree_decomposition(g, ns)
    obj = td.to_json_obj()
    assert len(obj["nodes"]) == 2 and len(obj["edges"]) == 1
    assert obj["edges"][0]["adhesion"]
    dot = td.to_dot()
    assert "k=1" in dot
