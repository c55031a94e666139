"""Tests for graph-decompositions, quotients, the Cayley model and the pipeline."""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from localdec.graphdec import (
    DecompositionError,
    GraphDecomposition,
    PipelineError,
    _match_models,
    cayley_model_decomposition,
    decompose,
    decompositions_agree,
    dual_decomposition,
    induce_separation_from_model,
    quotient_decomposition,
    trivial_decomposition,
    verify_canonicity,
    verify_graph_decomposition,
)
from localdec.grouppres import FiniteGroup
from localdec.localcover import Covering, VoltageAssignment, local_cover
from localdec.multigraph import (
    Isomorphism,
    Multigraph,
    UNDECIDED,
    automorphisms,
    isomorphic,
    spanning_tree,
)
from localdec.tangles import canonical_nested_set
from localdec.treedecomp import induce_tree_decomposition, node_map_under

from test_multigraph import complete_graph, cycle_graph, path_graph, random_connected_graph
from test_tangles import glued_cliques, two_k5s
from test_localcover import (
    bowtie,
    bowtie_z2_cover,
    edge_orientation_cases,
    half_reversed,
)


def necklace(n, clique=5):
    """n complete graphs glued at single cut vertices arranged in a cycle."""
    vs = []
    glues = [f"g{i}" for i in range(n)]
    for b in range(n):
        vs.append(glues[b])
        for j in range(clique - 2):
            vs.append(f"v{b}_{j}")
    edges = []
    for b in range(n):
        block = [glues[b]] + [f"v{b}_{j}" for j in range(clique - 2)] \
            + [glues[(b + 1) % n]]
        for u, v in combinations(block, 2):
            edges.append((f"e{b}_{u}_{v}", (u, v)))
    return Multigraph(vs, edges)


def paw_z2_cover():
    """Double cover of a triangle with a pendant vertex."""
    g = Multigraph(range(4), [("t0", (0, 1)), ("t1", (1, 2)), ("t2", (0, 2)),
                              ("p", (2, 3))])
    z2 = FiniteGroup.cyclic(2)
    tree = set(spanning_tree(g, 0))
    values = {e: 0 for e in g.edges}
    (chord,) = [e for e in g.edges if e not in tree]
    values[chord] = 1
    return Covering(g, z2, VoltageAssignment(z2, values), 0)


def bowtie_z3_cover():
    g = bowtie()
    z3 = FiniteGroup.cyclic(3)
    tree = set(spanning_tree(g, 0))
    values = {e: 0 for e in g.edges}
    chords = [e for e in g.edges if e not in tree]
    a_chord = next(e for e in chords if set(g.ends[e]) <= {0, 1, 2})
    values[a_chord] = 1
    return Covering(g, z3, VoltageAssignment(z3, values), 0)


def deck_canonical_td(cov, max_order=4):
    ns = canonical_nested_set(cov.cover, max_order, check_invariance=False)
    return induce_tree_decomposition(cov.cover, ns)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

def test_trivial_decomposition_passes():
    g = complete_graph(4)
    report = verify_graph_decomposition(g, trivial_decomposition(g))
    assert report.passed
    assert report.model_nodes == 1


def test_missing_edge_fails_coverage():
    g = complete_graph(3)
    model = Multigraph(["h0"], [])
    partial = g.subgraph(g.vertices, list(g.edges)[:-1])
    d = GraphDecomposition(g, model, {"h0": partial})
    report = verify_graph_decomposition(g, d)
    assert not report.parts_cover_graph
    assert not report.passed


def test_edge_support_can_fail_where_vertex_support_holds():
    # one edge held by the two end nodes of a path model whose middle node
    # holds only the endpoints: vertex supports stay connected, the edge
    # support does not
    g = Multigraph(["u", "v"], [("e", ("u", "v"))])
    model = Multigraph(["h0", "h1", "h2"],
                       [("m0", ("h0", "h1")), ("m1", ("h1", "h2"))])
    withedge = g
    bare = g.subgraph(["u", "v"], [])
    d = GraphDecomposition(g, model, {"h0": withedge, "h1": bare, "h2": withedge})
    report = verify_graph_decomposition(g, d)
    assert report.parts_cover_graph
    assert report.vertex_supports_connected
    assert not report.edge_supports_connected
    assert not report.passed


def test_vertex_support_can_fail_where_edge_supports_hold():
    # u is held by the two end nodes of a path model but not by its middle
    # node; the edge and v stay on connected supports
    g = Multigraph(["u", "v"], [("e", ("u", "v"))])
    model = Multigraph(["h0", "h1", "h2"],
                       [("m0", ("h0", "h1")), ("m1", ("h1", "h2"))])
    d = GraphDecomposition(g, model, {"h0": g, "h1": g.subgraph(["v"], []),
                                      "h2": g.subgraph(["u"], [])})
    report = verify_graph_decomposition(g, d)
    assert report.parts_cover_graph
    assert not report.vertex_supports_connected
    assert report.edge_supports_connected
    assert not report.passed


def test_empty_supports_are_not_connected():
    # v and the edge lie in no part: their supports are empty
    g = Multigraph(["u", "v"], [("e", ("u", "v"))])
    model = Multigraph(["h0"], [])
    d = GraphDecomposition(g, model, {"h0": g.subgraph(["u"], [])})
    report = verify_graph_decomposition(g, d)
    assert not report.parts_cover_graph
    assert not report.vertex_supports_connected
    assert not report.edge_supports_connected


def test_dishonest_decomposition_detected():
    g = path_graph(3)
    model = Multigraph(["h0", "h1"], [("m", ("h0", "h1"))])
    d = GraphDecomposition(g, model, {"h0": g.subgraph([0, 1], ["e0"]),
                                      "h1": g.subgraph([2], [])})
    report = verify_graph_decomposition(g, d)
    assert not report.adjacent_parts_intersect


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

def test_dual_of_trivial_decomposition():
    g = complete_graph(3)
    dual = dual_decomposition(trivial_decomposition(g))
    assert dual.base.n_vertices() == 1
    assert set(dual.parts) == set(g.vertices)
    for v in g.vertices:
        assert dual.parts[v].vertices == ("h0",)


def test_dual_of_two_k5_decomposition():
    g = two_k5s()
    ns = canonical_nested_set(g, 2)
    td = induce_tree_decomposition(g, ns)
    parts = {t: g.induced(td.parts[t]) for t in td.tree.vertices}
    d = GraphDecomposition(g, td.tree, parts)
    dual = dual_decomposition(d)
    cut = next(v for v in g.vertices if g.degree(v) == 8)
    for v in g.vertices:
        expect = 2 if v == cut else 1
        assert dual.parts[v].n_vertices() == expect


def test_double_dual_restores_induced_connected_decomposition():
    g = glued_cliques(3)
    ns = canonical_nested_set(g, 2)
    td = induce_tree_decomposition(g, ns)
    parts = {t: g.induced(td.parts[t]) for t in td.tree.vertices}
    d = GraphDecomposition(g, td.tree, parts)
    dd = dual_decomposition(dual_decomposition(d))
    assert dd.base == d.base
    assert set(dd.parts) == set(d.parts)
    for h in d.parts:
        assert dd.parts[h] == d.parts[h]


# ---------------------------------------------------------------------------
# separations induced from the model
# ---------------------------------------------------------------------------

def test_model_separation_trivial_case():
    g = complete_graph(3)
    d = trivial_decomposition(g)
    s = induce_separation_from_model(d, ["h0"], ["h0"])
    assert s.a_mask == s.b_mask == g.bits().vall


def test_model_separation_two_k5s():
    g = two_k5s()
    ns = canonical_nested_set(g, 2)
    td = induce_tree_decomposition(g, ns)
    parts = {t: g.induced(td.parts[t]) for t in td.tree.vertices}
    d = GraphDecomposition(g, td.tree, parts)
    h0, h1 = td.tree.vertices
    s = induce_separation_from_model(d, [h0], [h1])
    assert s.order == 1
    cut = next(v for v in g.vertices if g.degree(v) == 8)
    assert s.separator == g.vertex_mask([cut])


def test_model_separation_shared_node_dominates_separator():
    g = glued_cliques(2)
    ns = canonical_nested_set(g, 2)
    td = induce_tree_decomposition(g, ns)
    parts = {t: g.induced(td.parts[t]) for t in td.tree.vertices}
    d = GraphDecomposition(g, td.tree, parts)
    h0, h1 = td.tree.vertices
    s = induce_separation_from_model(d, [h0, h1], [h1])
    assert s.separator == g.vertex_mask(parts[h1].vertices)


def test_model_separation_formula_on_random_tree_decompositions():
    rng = random.Random(91)
    done = 0
    while done < 10:
        g = random_connected_graph(rng, rng.randrange(5, 9), rng.randrange(1, 6))
        ns = canonical_nested_set(g, 4)
        if len(ns) == 0:
            continue
        done += 1
        td = induce_tree_decomposition(g, ns)
        parts = {t: g.induced(td.parts[t]) for t in td.tree.vertices}
        d = GraphDecomposition(g, td.tree, parts)
        nodes = list(td.tree.vertices)
        for _ in range(5):
            cut = rng.randrange(1, len(nodes)) if len(nodes) > 1 else 0
            rng.shuffle(nodes)
            u, w = nodes[:cut], nodes[cut:]
            if not u or not w:
                continue
            # only genuine separations of the model vertex set qualify here:
            # both sides together must cover V(H), which they do by choice
            s = induce_separation_from_model(d, u, w)
            a = set()
            for h in u:
                a.update(parts[h].vertices)
            b = set()
            for h in w:
                b.update(parts[h].vertices)
            assert s.separator == g.vertex_mask(a & b)


# ---------------------------------------------------------------------------
# quotient decompositions
# ---------------------------------------------------------------------------

def test_identity_cover_quotient_is_tree_decomposition():
    cov = local_cover(two_k5s(), 9, coset_limit=2000)
    assert isinstance(cov, Covering) and cov.sheets() == 1
    td = deck_canonical_td(cov)
    dec = quotient_decomposition(cov, td)
    assert dec.model.n_vertices() == td.tree.n_vertices()
    assert dec.model.n_edges() == td.tree.n_edges()
    assert verify_graph_decomposition(cov.base, dec).passed


def test_bowtie_z2_quotient_matches_hand_computation():
    cov = bowtie_z2_cover()
    td = deck_canonical_td(cov)
    assert td.tree.n_vertices() == 3
    dec = quotient_decomposition(cov, td)
    # hand quotient: the hexagon node is fixed, the two triangle copies
    # form one orbit; the two tree edges fall together
    assert dec.model.n_vertices() == 2
    assert dec.model.n_edges() == 1
    sizes = sorted(p.n_vertices() for p in dec.parts.values())
    assert sizes == [3, 3]
    report = verify_graph_decomposition(cov.base, dec)
    assert report.passed


def test_paw_z2_quotient_four_vertex_example():
    cov = paw_z2_cover()
    td = deck_canonical_td(cov)
    dec = quotient_decomposition(cov, td)
    assert dec.model.n_vertices() == 2
    assert dec.model.n_edges() == 1
    sizes = sorted(p.n_vertices() for p in dec.parts.values())
    assert sizes == [2, 3]
    assert verify_graph_decomposition(cov.base, dec).passed


def test_bowtie_z3_quotient():
    cov = bowtie_z3_cover()
    td = deck_canonical_td(cov)
    assert td.tree.n_vertices() == 4
    dec = quotient_decomposition(cov, td)
    assert dec.model.n_vertices() == 2
    assert dec.model.n_edges() == 1
    assert verify_graph_decomposition(cov.base, dec).passed


def test_quotient_rejects_non_deck_invariant_tree():
    cov = bowtie_z2_cover()
    td = deck_canonical_td(cov)
    # restrict to a sub-decomposition that the deck swap does not fix:
    # drop one separation (keep the other) and rebuild
    from localdec.tangles import SeparationUniverse
    ns = canonical_nested_set(cov.cover, 4, check_invariance=False)
    assert len(ns) == 2
    lone = [ns.separations[0]]
    broken = induce_tree_decomposition(cov.cover, lone)
    with pytest.raises(DecompositionError):
        quotient_decomposition(cov, broken)


@pytest.mark.parametrize("make_cover", [bowtie_z2_cover, bowtie_z3_cover, paw_z2_cover])
def test_quotient_has_one_model_node_and_edge_per_deck_orbit(make_cover):
    # oracle: the orbits under every deck element, not only under the
    # voltages (bowtie/Z3 has voltages {0, 1} and deck elements {1, 2})
    cov = make_cover()
    td = deck_canonical_td(cov)
    tree = td.tree
    maps = [node_map_under(td, Isomorphism(cov.deck_vertex_map(h), cov.deck_edge_map(h)))
            for h in range(cov.deck.order)]
    node_orbits = {frozenset(m[t] for m in maps) for t in tree.vertices}
    edge_orbits = set()
    for e in tree.edges:
        a, b = tree.ends[e]
        edge_orbits.add(frozenset(f for m in maps for f in tree.edges_between(m[a], m[b])))
    assert sum(len(o) for o in node_orbits) == tree.n_vertices()
    assert sum(len(o) for o in edge_orbits) == tree.n_edges()
    dec = quotient_decomposition(cov, td)
    assert dec.model.n_vertices() == len(node_orbits)
    assert dec.model.n_edges() == len(edge_orbits)


def test_quotient_axioms_on_random_finite_covers():
    rng = random.Random(92)
    done = 0
    while done < 6:
        g = random_connected_graph(rng, rng.randrange(4, 7), rng.randrange(1, 4))
        cov = local_cover(g, 3, coset_limit=400)
        if not isinstance(cov, Covering) or cov.cover.n_vertices() > 40:
            continue
        done += 1
        td = deck_canonical_td(cov)
        dec = quotient_decomposition(cov, td)
        assert verify_graph_decomposition(g, dec).passed


# ---------------------------------------------------------------------------
# the Cayley model
# ---------------------------------------------------------------------------

def test_cayley_model_of_identity_cover():
    cov = local_cover(complete_graph(4), 3, coset_limit=400)
    gens, dec, cay = cayley_model_decomposition(cov)
    assert dec.model.n_vertices() == 1
    assert all(e == 0 for e in gens)
    assert dec.parts["0"].n_vertices() == 4


def test_cayley_model_of_double_cover():
    from test_localcover import c6_double_cover
    cov = c6_double_cover()
    gens, dec, cay = cayley_model_decomposition(cov)
    assert dec.model.n_vertices() == 2
    report = verify_graph_decomposition(cov.cover, dec)
    assert report.parts_cover_graph
    assert report.vertex_supports_connected
    assert report.adjacent_parts_intersect
    bound = cov.base.n_vertices()
    for p in dec.parts.values():
        assert p.is_connected()


def test_cayley_model_of_z3_cover():
    cov = bowtie_z3_cover()
    gens, dec, cay = cayley_model_decomposition(cov)
    assert dec.model.n_vertices() == 3
    report = verify_graph_decomposition(cov.cover, dec)
    assert report.parts_cover_graph
    assert report.vertex_supports_connected
    assert report.adjacent_parts_intersect


# ---------------------------------------------------------------------------
# canonicity
# ---------------------------------------------------------------------------

def test_trivial_decomposition_is_canonical():
    g = complete_graph(4)
    autos = automorphisms(g)
    assert verify_canonicity(g, trivial_decomposition(g), autos) is True


def test_two_k5_decomposition_canonical_under_swap():
    g = two_k5s()
    ns = canonical_nested_set(g, 2)
    td = induce_tree_decomposition(g, ns)
    parts = {t: g.induced(td.parts[t]) for t in td.tree.vertices}
    d = GraphDecomposition(g, td.tree, parts)
    autos = automorphisms(g)
    assert any(a.vertex_map[g.vertices[0]] != g.vertices[0] for a in autos)
    assert verify_canonicity(g, d, autos) is True


def test_asymmetric_parts_are_not_canonical():
    g = two_k5s()
    ns = canonical_nested_set(g, 2)
    td = induce_tree_decomposition(g, ns)
    t0, t1 = td.tree.vertices
    cut = next(v for v in g.vertices if g.degree(v) == 8)
    # grow one part by a foreign vertex: the swap automorphism now has no
    # matching model map
    other = next(v for v in td.parts[t1] if v != cut)
    bigger = tuple(td.parts[t0]) + (other,)
    parts = {t0: g.induced(bigger), t1: g.induced(td.parts[t1])}
    d = GraphDecomposition(g, td.tree, parts)
    autos = automorphisms(g)
    assert verify_canonicity(g, d, autos) is False


def test_model_maps_keep_loops():
    g = Multigraph("uv", [("e", ("u", "v"))])
    parts = {"a": g.subgraph(["u"], []), "b": g.subgraph(["v"], [])}
    d = GraphDecomposition(g, Multigraph("ab", [("f0", ("a", "b")), ("f1", ("a", "a"))]),
                           parts)
    autos = automorphisms(g)
    assert len(autos) == 2
    # the swap must send the node with the loop to the node without one
    assert verify_canonicity(g, d, autos) is False
    moved = GraphDecomposition(
        g, Multigraph("ab", [("f0", ("a", "b")), ("f1", ("b", "b"))]), parts)
    assert decompositions_agree(d, d)
    assert not decompositions_agree(d, moved)


def test_decompositions_agree_moves_loops_with_their_parts():
    # the second model names its nodes the other way round, so only the
    # parts tell which node is which; a doubled edge sits between them
    g = path_graph(3)
    left, right = g.subgraph([0, 1], ["e0"]), g.subgraph([1, 2], ["e1"])
    d = GraphDecomposition(
        g, Multigraph(["h0", "h1"], [("m0", ("h0", "h1")), ("m1", ("h0", "h1")),
                                     ("l", ("h0", "h0"))]),
        {"h0": left, "h1": right})

    def renamed(loop_at):
        model = Multigraph(["x", "y"], [("m0", ("x", "y")), ("m1", ("x", "y")),
                                        ("l", (loop_at, loop_at))])
        return GraphDecomposition(g, model, {"x": right, "y": left})

    assert decompositions_agree(d, renamed("y"))
    assert not decompositions_agree(d, renamed("x"))


def random_model(rng, letters):
    """A multigraph model on 1 to 6 nodes with loops and parallel edges, and
    a content per node drawn from `letters`, so that contents repeat."""
    n = rng.randrange(1, 7)
    nodes = [f"h{i}" for i in range(n)]
    edges = []
    for k in range(rng.randrange(0, 9)):
        u = rng.choice(nodes)
        v = u if rng.random() < 0.25 else rng.choice(nodes)
        edges.append((f"f{k}", (u, v)))
        if rng.random() < 0.3:
            edges.append((f"f{k}p", (u, v)))
    return Multigraph(nodes, edges), {h: rng.choice(letters) for h in nodes}


def model_maps_brute_force(m1, content1, m2, content2):
    """Every bijection of the nodes that keeps contents and the number of
    edges between every two nodes, loops included."""
    want = Counter(frozenset(m2.ends[f]) for f in m2.edges)
    out = []
    if len(m1.vertices) != len(m2.vertices):
        return out
    for perm in permutations(m2.vertices):
        psi = dict(zip(m1.vertices, perm))
        if (all(content2[psi[h]] == content1[h] for h in m1.vertices)
                and Counter(frozenset(psi[x] for x in m1.ends[f])
                            for f in m1.edges) == want):
            out.append(psi)
    return out


def test_model_maps_match_brute_force():
    rng = random.Random(89)
    found = missed = 0
    for case in range(240):
        letters = "ab" if case % 2 else "abc"
        m1, content1 = random_model(rng, letters)
        if rng.random() < 0.5:
            # a renamed, reordered copy, perhaps with one content or edge moved
            perm = list(m1.vertices)
            rng.shuffle(perm)
            rename = {h: "x" + p[1:] for h, p in zip(m1.vertices, perm)}
            edges = [(f, (rename[u], rename[v])) for f, (u, v) in m1.ends.items()]
            rng.shuffle(edges)
            if edges and rng.random() < 0.3:
                f, (u, _v) = edges[0]
                edges[0] = (f, (u, rename[rng.choice(m1.vertices)]))
            m2 = Multigraph(sorted(rename.values()), edges)
            content2 = {rename[h]: c for h, c in content1.items()}
            if rng.random() < 0.2:
                content2[rng.choice(m2.vertices)] = rng.choice(letters)
        else:
            m2, content2 = random_model(rng, letters)
        expected = model_maps_brute_force(m1, content1, m2, content2)
        psi = _match_models(m1, content1, m2, content2)
        if expected:
            assert psi in expected
            found += 1
        else:
            assert psi is None
            missed += 1
        # the same question through decompositions_agree: the contents
        # become parts, one base vertex per letter
        base = Multigraph(letters, [])
        d1 = GraphDecomposition(base, m1, {h: base.subgraph([c], []) for h, c in content1.items()})
        d2 = GraphDecomposition(base, m2, {h: base.subgraph([c], []) for h, c in content2.items()})
        assert decompositions_agree(d1, d2) is bool(expected)
    assert found >= 60 and missed >= 60


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def test_pipeline_k5_single_node():
    for r in (3, 4, 5):
        res = decompose(complete_graph(5), r, max_tangle_order=4, coset_limit=500)
        assert res.provenance["mode"] == "finite"
        assert res.decomposition.model.n_vertices() == 1
        assert res.report.passed
        assert res.canonicity is True


def test_pipeline_two_k5s_full_locality_matches_direct_tree():
    g = two_k5s()
    res = decompose(g, 9, max_tangle_order=4, coset_limit=2000)
    assert res.provenance["mode"] == "finite"
    H = res.decomposition.model
    assert H.n_vertices() == 2 and H.n_edges() == 1
    ns = canonical_nested_set(g, 4)
    td = induce_tree_decomposition(g, ns)
    direct = sorted(tuple(sorted(map(str, td.parts[t]))) for t in td.tree.vertices)
    ours = sorted(tuple(sorted(map(str, res.decomposition.parts[h].vertices)))
                  for h in H.vertices)
    assert direct == ours
    assert res.edge_labels and all(k == 1 for k in res.edge_labels.values())


def test_pipeline_necklace_four():
    g = necklace(4)
    res = decompose(g, 3, max_tangle_order=2, coset_limit=3000,
                    truncation_radius=10)
    H = res.decomposition.model
    assert res.provenance["mode"] == "truncated"
    assert H.n_vertices() == 4 and H.n_edges() == 4
    assert sorted(H.degree(v) for v in H.vertices) == [2, 2, 2, 2]
    assert H.is_connected()
    k5 = complete_graph(5)
    for h in H.vertices:
        assert isomorphic(res.decomposition.parts[h], k5) is not None
    assert res.report.passed
    assert res.canonicity is True
    assert res.provenance["details"]["heuristic"].startswith("stable")


def test_pipeline_necklace_six_decides_canonicity():
    # the group has 2 * 6 * 6**6 elements, more than the default budget of
    # search nodes; a generating set is found well within it
    res = decompose(necklace(6), 3, 2, 3000, 10)
    assert res.canonicity is True
    assert res.provenance["automorphisms"] == 559_872


def test_pipeline_necklace_caps_2_and_3_agree():
    g = necklace(4)
    r2 = decompose(g, 3, max_tangle_order=2, coset_limit=3000, truncation_radius=8)
    r3 = decompose(g, 3, max_tangle_order=3, coset_limit=3000, truncation_radius=8)
    assert decompositions_agree(r2.decomposition, r3.decomposition)


def test_pipeline_identity_covers_match_direct_construction():
    # whenever the cover is trivial the pipeline must reproduce, part for
    # part, the tree-decomposition induced by the canonical nested set of
    # the base graph itself
    rng = random.Random(93)
    done = 0
    while done < 15:
        g = random_connected_graph(rng, rng.randrange(4, 9), rng.randrange(1, 7))
        cov = local_cover(g, 3, coset_limit=400)
        if not isinstance(cov, Covering) or cov.sheets() != 1:
            continue
        done += 1
        res = decompose(g, 3, max_tangle_order=4, coset_limit=400)
        ns = canonical_nested_set(g, 4)
        td = induce_tree_decomposition(g, ns)
        direct = sorted(tuple(sorted(map(str, td.parts[t])))
                        for t in td.tree.vertices)
        ours = sorted(tuple(sorted(map(str, res.decomposition.parts[h].vertices)))
                      for h in res.decomposition.model.vertices)
        assert direct == ours
        assert res.decomposition.model.n_edges() == td.tree.n_edges()
        assert res.report.passed


def test_pipeline_relabelled_copy_gives_isomorphic_model():
    g = two_k5s()
    vmap = {v: "x%s" % v for v in g.vertices}
    g2 = g.relabel(vmap)
    res1 = decompose(g, 9, max_tangle_order=3, coset_limit=2000)
    res2 = decompose(g2, 9, max_tangle_order=3, coset_limit=2000)
    iso = isomorphic(res1.decomposition.model, res2.decomposition.model)
    assert iso is not None and iso is not UNDECIDED
    parts1 = {frozenset(vmap[v] for v in res1.decomposition.parts[h].vertices)
              for h in res1.decomposition.model.vertices}
    parts2 = {frozenset(p.vertices) for p in res2.decomposition.parts.values()}
    assert parts1 == parts2


def test_pipeline_readme_example_ignores_vertex_order():
    # the vertex order decides which end of a chord is lower, and so the
    # sign of its letter; the decomposition must not depend on it
    def summary(g):
        res = decompose(g, 3, max_tangle_order=2, coset_limit=3000,
                        truncation_radius=10)
        dec = res.decomposition
        parts = sorted(sorted(map(str, p.vertices)) for p in dec.parts.values())
        return parts, dec.model.n_vertices(), dec.model.n_edges(), res.canonicity

    g = necklace(4)
    expected = summary(g)
    rng = random.Random(11)
    for _ in range(20):
        order = list(g.vertices)
        rng.shuffle(order)
        shuffled = Multigraph(order, [(e, g.ends[e]) for e in g.edges])
        assert summary(shuffled) == expected


def _with_sorted_ends(obj):
    if isinstance(obj, dict):
        return {k: sorted(v, key=str) if k == "ends" else _with_sorted_ends(v)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_with_sorted_ends(v) for v in obj]
    return obj


def test_pipeline_ignores_which_way_edge_ends_are_listed():
    def outcome(g, r, k, limit, radius):
        try:
            res = decompose(g, r, max_tangle_order=k, coset_limit=limit,
                            truncation_radius=radius)
        except PipelineError as exc:
            return str(exc)
        return _with_sorted_ends(res.to_json_obj())

    modes = set()
    for i, (g, *args) in enumerate(edge_orientation_cases()):
        expected = outcome(g, *args)
        assert outcome(half_reversed(g, random.Random(i)), *args) == expected, i
        if isinstance(expected, dict):
            modes.add(expected["provenance"]["mode"])
    assert modes == {"finite", "truncated"}


def test_pipeline_unrolls_long_cycles_to_cycle_models():
    # below the girth the cover is a double ray whose edges are 2-blocks;
    # the quotient recovers the base cycle as the model with one edge per part
    for n, r, radius in ((5, 4, 12), (6, 4, 12), (7, 5, 13)):
        res = decompose(cycle_graph(n), r, max_tangle_order=2,
                        coset_limit=600, truncation_radius=radius)
        H = res.decomposition.model
        assert H.n_vertices() == n and H.n_edges() == n
        assert all(H.degree(v) == 2 for v in H.vertices)
        assert all(p.n_vertices() == 2 and p.n_edges() == 1
                   for p in res.decomposition.parts.values())
        assert res.report.passed and res.canonicity is True


def test_pipeline_refuses_thin_ladder_structure():
    # the unrolled prism is a ladder: branch-width 2, so no tangles of
    # order 3 exist and the ends that carry its global structure are not
    # finite-order tangles; the pipeline refuses rather than guess
    vs = []
    for i in range(5):
        vs += [f"a{i}", f"b{i}"]
    es = []
    for i in range(5):
        es.append((f"ea{i}", (f"a{i}", f"a{(i+1) % 5}")))
        es.append((f"eb{i}", (f"b{i}", f"b{(i+1) % 5}")))
        es.append((f"es{i}", (f"a{i}", f"b{i}")))
    prism = Multigraph(vs, es)
    with pytest.raises(PipelineError):
        decompose(prism, 4, max_tangle_order=3, coset_limit=3000,
                  truncation_radius=12)


def test_pipeline_rejects_uncertifiable_input():
    with pytest.raises(PipelineError):
        decompose(cycle_graph(5), 4, coset_limit=200, truncation_radius=2)


def test_pipeline_errors_on_disconnected():
    g = Multigraph([0, 1], [])
    with pytest.raises(PipelineError):
        decompose(g, 3)


def test_pipeline_degenerate_inputs():
    single = Multigraph(["v"], [])
    res = decompose(single, 1, max_tangle_order=3, coset_limit=50)
    assert res.decomposition.model.n_vertices() == 1
    assert res.report.passed

    loop = Multigraph(["v"], [("l", ("v", "v"))])
    res = decompose(loop, 1, max_tangle_order=3, coset_limit=50)
    assert res.provenance["mode"] == "finite"
    assert res.decomposition.model.n_vertices() == 1
    assert res.decomposition.parts["h0"].n_edges() == 1

    # parallel edges and a loop hanging off a clique chain
    g = Multigraph(
        ["a", "b", "c", "d"],
        [("e1", ("a", "b")), ("e2", ("a", "b")), ("l", ("a", "a")),
         ("f1", ("b", "c")), ("f2", ("c", "d")), ("f3", ("b", "d"))],
    )
    res = decompose(g, 3, max_tangle_order=3, coset_limit=200)
    assert res.provenance["mode"] == "finite"
    assert res.report.passed
    assert res.canonicity is True


def test_decompositions_agree_detects_difference():
    g = complete_graph(5)
    r1 = decompose(g, 3, max_tangle_order=4, coset_limit=500)
    assert decompositions_agree(r1.decomposition, r1.decomposition)
    other = trivial_decomposition(complete_graph(5))
    smaller = GraphDecomposition(
        g, Multigraph(["h0"], []), {"h0": g.subgraph(g.vertices, [])})
    assert not decompositions_agree(r1.decomposition, smaller)
