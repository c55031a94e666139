"""Tests for local covers: derived graphs, truncated balls, Cayley machinery."""

import random

import pytest

from localdec.grouppres import (
    FiniteGroup,
    FreeWord,
    Presentation,
    PresentationError,
    deck_group_presentation,
    todd_coxeter,
    table_to_group,
    walk_to_word,
    word_image,
)
from localdec.localcover import (
    Covering,
    CoverError,
    LabelledGraph,
    LiftOutOfBallError,
    TruncatedCover,
    VoltageAssignment,
    cayley_graph,
    cayley_graph_of_presentation,
    cover_from_cayley_quotient,
    covering_equivalence,
    lift_walk,
    local_cover,
    local_group_extension,
    verify_ball_preservation,
    verify_cover_cycle_space,
    verify_group_quotient,
    verify_idempotence,
)
from localdec.multigraph import (
    Multigraph,
    UNDECIDED,
    Walk,
    enumerate_short_cycles,
    isomorphic,
    reduce_walk,
    spanning_tree,
)

from test_multigraph import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_multigraph,
    random_walk,
)


def octahedron():
    verts = list(range(6))
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)
             if v != u + 3 or u >= 3]
    # opposite pairs are (0,3), (1,4), (2,5)
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)
             if (u, v) not in ((0, 3), (1, 4), (2, 5))]
    return Multigraph(verts, ((f"e{u}_{v}", (u, v)) for u, v in pairs))


def bowtie():
    """Two triangles sharing a cut vertex."""
    return Multigraph(
        range(5),
        [("a0", (0, 1)), ("a1", (1, 2)), ("a2", (0, 2)),
         ("b0", (2, 3)), ("b1", (3, 4)), ("b2", (2, 4))],
    )


def bowtie_z2_cover():
    """Derived cover of the bowtie with voltage 1 on one chord of triangle a."""
    g = bowtie()
    z2 = FiniteGroup.cyclic(2)
    tree = set(spanning_tree(g, 0))
    values = {e: 0 for e in g.edges}
    # chords are the non-tree edges; put the twist on the triangle-a chord
    chords = [e for e in g.edges if e not in tree]
    a_chord = next(e for e in chords if set(g.ends[e]) <= {0, 1, 2})
    values[a_chord] = 1
    return Covering(g, z2, VoltageAssignment(z2, values), 0)


def c6_double_cover():
    """The connected double cover of the 6-cycle: a 12-cycle."""
    g = cycle_graph(6)
    z2 = FiniteGroup.cyclic(2)
    values = {e: 0 for e in g.edges}
    values["e5"] = 1
    return Covering(g, z2, VoltageAssignment(z2, values), 0)


def listed_lower_first(g):
    """g with every edge's ends listed lower endpoint first in vertex order."""
    return Multigraph(g.vertices, [(e, tuple(sorted(g.ends[e], key=g.vpos)))
                                   for e in g.edges])


def half_reversed(g, rng):
    """g with the ends of a seeded half of its edges listed the other way round."""
    flip = set(rng.sample(list(g.edges), len(g.edges) // 2))
    return Multigraph(g.vertices, [(e, g.ends[e][::-1] if e in flip else g.ends[e])
                                   for e in g.edges])


def edge_orientation_cases():
    """Seeded connected multigraphs with loops and parallel edges, listed
    lower endpoint first, then the README necklace; each with its locality,
    tangle order, coset limit and truncation radius."""
    from test_graphdec import necklace
    rng = random.Random(3)
    cases = []
    for i in range(59):
        g = random_multigraph(rng, rng.randrange(3, 7), rng.randrange(2, 6), True)
        cases.append((listed_lower_first(g), 2 + i % 2, 3, 200, 6))
    cases.append((necklace(4), 3, 2, 3000, 10))
    return cases


def cube_graph(d, fold=False):
    """The d-cube on the d-bit words; with fold, the (d+1)-cube with
    antipodal vertices identified: word v also meets v ^ (2^d - 1)."""
    masks = [1 << i for i in range(d)] + ([(1 << d) - 1] if fold else [])
    return Multigraph(range(1 << d), [
        (f"e{v}_{v ^ m}", (v, v ^ m))
        for v in range(1 << d) for m in masks if v < v ^ m])


# ---------------------------------------------------------------------------
# finite local covers
# ---------------------------------------------------------------------------

def test_k4_r3_identity_cover():
    cov = local_cover(complete_graph(4), 3)
    assert isinstance(cov, Covering)
    assert cov.sheets() == 1
    assert isomorphic(cov.cover, complete_graph(4)) is not None


def test_five_cycle_r5_identity_cover():
    cov = local_cover(cycle_graph(5), 5)
    assert isinstance(cov, Covering)
    assert cov.sheets() == 1


def test_octahedron_r3_identity_cover():
    cov = local_cover(octahedron(), 3)
    assert isinstance(cov, Covering)
    assert cov.sheets() == 1
    assert isomorphic(cov.cover, octahedron()) is not None


def test_five_cycle_r4_truncated_double_ray_segment():
    cov = local_cover(cycle_graph(5), 4, coset_limit=400, truncation_radius=10)
    assert isinstance(cov, TruncatedCover)
    assert cov.ball.n_vertices() == 21
    assert cov.ball.n_edges() == 20
    degs = sorted(cov.ball.degree(v) for v in cov.ball.vertices)
    assert degs == [1, 1] + [2] * 19
    assert cov.certified
    assert cov.certificates["lift_separation"] is True
    assert cov.certificates["radius_stable"] is True


def test_enumeration_closing_between_the_limit_and_its_double():
    # the folded 5-cube (the Clebsch graph) has only 4-cycles that lift
    # closed to the 5-cube, which the 4-cycles of the 5-cube span: its
    # 4-local cover is the 5-cube over Z/2, and the enumeration defines 17
    # cosets in all, so it is open at limit 10 and closes by limit 20
    g = cube_graph(4, fold=True)
    tc = local_cover(g, 4, coset_limit=10)
    assert isinstance(tc, TruncatedCover)
    assert tc.certificates["radius_stable"] is False
    assert tc.certificates["completes_with_larger_budget"] is True
    assert not tc.certified
    cov = local_cover(g, 4, coset_limit=20)
    assert isinstance(cov, Covering) and cov.sheets() == 2
    assert isomorphic(cov.cover, cube_graph(5)) is not None


def test_coset_limit_below_one_is_refused():
    with pytest.raises(PresentationError):
        local_cover(cycle_graph(5), 4, coset_limit=0)


def test_rejects_bad_locality_and_disconnected():
    with pytest.raises(CoverError):
        local_cover(complete_graph(3), 0)
    with pytest.raises(CoverError):
        local_cover(Multigraph([0, 1], []), 1)


# ---------------------------------------------------------------------------
# derived cover structure
# ---------------------------------------------------------------------------

def test_bowtie_cover_shape():
    cov = bowtie_z2_cover()
    assert cov.cover.n_vertices() == 10
    assert cov.cover.n_edges() == 12
    assert cov.cover.is_connected()
    # triangle a unfolds to a hexagon, triangle b lifts twice
    triangles = enumerate_short_cycles(cov.cover, 3)
    assert len(triangles) == 2
    sixes = [c for c in enumerate_short_cycles(cov.cover, 6) if c.length == 6]
    assert len(sixes) == 1


def test_fibres_and_projection():
    cov = bowtie_z2_cover()
    for v in cov.base.vertices:
        fib = cov.fibre(v)
        assert len(fib) == 2
        assert all(cov.projection_vertices[x] == v for x in fib)
    assert cov.check_deck_action()


def test_c6_double_cover_is_12_cycle():
    cov = c6_double_cover()
    assert isomorphic(cov.cover, cycle_graph(12)) is not None


def test_loops_lift_to_loops_in_local_covers():
    # a loop is a cycle of length 1, so its letter is always a relator and
    # the loop lifts to loops in every local cover
    g = Multigraph([0, 1], [("l", (0, 0)), ("e", (0, 1)), ("f", (0, 1))])
    cov = local_cover(g, 1, coset_limit=100)
    assert isinstance(cov, TruncatedCover)  # the parallel pair survives at r=1
    for e in cov.ball.edges:
        if cov.projection_edges[e] == "l":
            u, v = cov.ball.ends[e]
            assert u == v
    cov2 = local_cover(g, 2, coset_limit=100)
    assert isinstance(cov2, Covering) and cov2.sheets() == 1


def test_cover_vertex_count_is_product():
    rng = random.Random(81)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(0, 4))
        cov = local_cover(g, 3, coset_limit=300)
        if isinstance(cov, Covering):
            assert cov.cover.n_vertices() == g.n_vertices() * cov.sheets()
            assert cov.cover.n_edges() == g.n_edges() * cov.sheets()


# ---------------------------------------------------------------------------
# walk lifting
# ---------------------------------------------------------------------------

def test_lift_of_untwisted_triangle_is_closed():
    cov = bowtie_z2_cover()
    g = cov.base
    tri_b = next(c for c in enumerate_short_cycles(g, 3)
                 if set(c.vertices) == {2, 3, 4})
    w = tri_b.walk_once_around()
    start = cov.fibre(w.start)[0]
    lifted = lift_walk(cov, w, start)
    assert lifted.is_closed()
    assert lifted.start == start


def test_lift_of_twisted_triangle_is_open():
    cov = bowtie_z2_cover()
    g = cov.base
    tri_a = next(c for c in enumerate_short_cycles(g, 3)
                 if set(c.vertices) == {0, 1, 2})
    w = tri_a.walk_once_around()
    start = cov.fibre(w.start)[0]
    lifted = lift_walk(cov, w, start)
    assert not lifted.is_closed()
    assert cov.projection_vertices[lifted.end] == w.start


def test_lift_in_double_ray_is_displaced_by_one_period():
    cov = local_cover(cycle_graph(5), 4, coset_limit=400, truncation_radius=10)
    g = cov.base
    once = Walk((0, 1, 2, 3, 4, 0), ("e0", "e1", "e2", "e3", "e4"))
    lifted = lift_walk(cov, once, cov.root)
    assert lifted.length == 5
    assert not lifted.is_closed()
    assert cov.projection_vertices[lifted.end] == 0
    assert cov.depths[lifted.end] == 5


def test_short_cycles_lift_closed_in_truncated_local_cover():
    # triangles are short at locality 3, so their lifts in the truncated
    # clique-necklace cover close up wherever they fit inside the ball
    from test_graphdec import necklace
    from localdec.multigraph import cycles_through_vertex
    g = necklace(4)
    cov = local_cover(g, 3, coset_limit=3000, truncation_radius=8)
    assert isinstance(cov, TruncatedCover) and cov.certified
    x0 = cov.projection_vertices[cov.root]
    lifted_any = 0
    for cyc in cycles_through_vertex(g, x0, 3):
        k = cyc.vertices.index(x0)
        w = cyc.walk_once_around()
        rotated = Walk(cyc.vertices[k:] + cyc.vertices[:k] + (x0,),
                       cyc.edges[k:] + cyc.edges[:k])
        lifted = lift_walk(cov, rotated, cov.root)
        assert lifted.is_closed()
        lifted_any += 1
    assert lifted_any >= 3


def test_short_cycles_lift_closed_however_edge_ends_are_listed():
    # a relator's letters and the ball's steps must read each chord the same
    # way round, or short cycles lift open when a chord is listed higher
    # endpoint first
    from localdec.multigraph import cycles_through_vertex
    lifted = 0
    for i, (g, r, _k, limit, radius) in enumerate(edge_orientation_cases()):
        g = half_reversed(g, random.Random(i))
        cov = local_cover(g, r, coset_limit=limit, truncation_radius=radius)
        if isinstance(cov, Covering):
            starts = cov.cover.vertices
        elif cov.table_covers_ball:
            starts = [x for x in cov.ball.vertices if cov.depths[x] <= radius - r]
        else:
            continue
        for x in starts:
            v = cov.projection_vertices[x]
            for cyc in cycles_through_vertex(g, v, r):
                k = cyc.vertices.index(v)
                w = Walk(cyc.vertices[k:] + cyc.vertices[:k] + (v,),
                         cyc.edges[k:] + cyc.edges[:k])
                assert lift_walk(cov, w, x).is_closed(), (i, x, cyc.edges)
                lifted += 1
    assert lifted > 500


def test_trivial_walk_lifts_trivially():
    cov = bowtie_z2_cover()
    w = Walk.trivial(0)
    start = cov.fibre(0)[0]
    assert lift_walk(cov, w, start) == Walk.trivial(start)


def test_lift_walk_refuses_a_start_outside_the_cover():
    g = cycle_graph(5)
    for r in (5, 4):  # a Covering, then a TruncatedCover
        cov = local_cover(g, r, coset_limit=400)
        with pytest.raises(CoverError, match="not in the cover"):
            lift_walk(cov, Walk((0, 1), ("e0",)), "nope")


def test_lift_walk_refuses_a_truncated_cover_read_back_from_json():
    from localdec.cli import _cover_from_json
    cov = local_cover(cycle_graph(5), 4, coset_limit=400, truncation_radius=10)
    back = _cover_from_json(cov.to_json_obj(), 4)
    assert isinstance(back, TruncatedCover)
    with pytest.raises(CoverError, match="no coset table"):
        lift_walk(back, Walk(("0", "1"), ("e0",)), back.root)


def test_shrink_truncated_reuses_table():
    from localdec.localcover import shrink_truncated
    big = local_cover(cycle_graph(5), 4, coset_limit=400, truncation_radius=10)
    small = shrink_truncated(big, 6)
    assert small.radius == 6
    assert small.ball.n_vertices() == 13
    assert small.certificates["radius_stable"] == big.certificates["radius_stable"]
    assert small.certified
    with pytest.raises(CoverError):
        shrink_truncated(small, 8)


def _star_is_visible(cov, graph, x):
    """Does the cover graph hold the whole star of x, each base edge end
    at its image once?"""
    def star(h, y, proj):
        ends = {}
        for e, w in h.incident(y):
            ends[proj(e)] = ends.get(proj(e), 0) + (2 if w == y else 1)
        return ends
    v = cov.projection_vertices[x]
    return (star(graph, x, cov.projection_edges.__getitem__)
            == star(cov.base, v, lambda e: e))


def test_ball_and_lift_walk_read_one_step_rule():
    # from every vertex with a visible star, the lift of each one-edge walk
    # is an edge of the cover graph over that base edge, and the reverse
    # walk lifts back along it; loops lift forward only
    from test_graphdec import necklace
    from localdec.localcover import shrink_truncated
    from localdec.multigraph import check_walk
    ball = local_cover(necklace(4), 3, coset_limit=3000)
    assert isinstance(ball, TruncatedCover) and ball.table_covers_ball
    shrunk = shrink_truncated(ball, ball.radius - 1)
    assert shrunk._chord_letter is ball._chord_letter
    covers = [bowtie_z2_cover(), ball, shrunk]
    for g, r, _k, limit, radius in edge_orientation_cases():
        if any(g.is_loop(e) for e in g.edges):
            covers.append(local_cover(g, r, coset_limit=limit,
                                      truncation_radius=radius))
    assert any(isinstance(c, TruncatedCover) and not c.table_covers_ball
               for c in covers)
    lifted = 0
    for cov in covers:
        graph = cov.cover if isinstance(cov, Covering) else cov.ball
        for x in graph.vertices:
            if not _star_is_visible(cov, graph, x):
                continue
            v = cov.projection_vertices[x]
            for e, w in cov.base.incident(v):
                walk = Walk((v, w), (e,))
                up = lift_walk(cov, walk, x)
                check_walk(graph, up)
                assert up.start == x
                assert [cov.projection_vertices[y] for y in up.vertices] == [v, w]
                assert [cov.projection_edges[f] for f in up.edges] == [e]
                if v != w:
                    assert lift_walk(cov, walk.reverse(), up.end) == up.reverse()
                lifted += 1
    assert lifted > 1000


def test_cayley_graph_of_presentation():
    p = Presentation(("a",), (FreeWord((1, 1, 1, 1)),))
    t = todd_coxeter(p, 100)
    cay = cayley_graph_of_presentation(p, t)
    assert isomorphic(cay.graph, cycle_graph(4)) is not None
    assert set(cay.labels.values()) == {"a"}


def test_lift_out_of_ball_raises():
    cov = local_cover(cycle_graph(5), 4, coset_limit=400, truncation_radius=3)
    once = Walk((0, 1, 2, 3, 4, 0), ("e0", "e1", "e2", "e3", "e4"))
    with pytest.raises(LiftOutOfBallError):
        lift_walk(cov, once, cov.root)


def test_closed_lift_iff_word_in_kernel():
    rng = random.Random(82)
    done = 0
    while done < 8:
        g = random_connected_graph(rng, rng.randrange(3, 6), rng.randrange(0, 4))
        cov = local_cover(g, 3, coset_limit=300)
        if not isinstance(cov, Covering):
            continue
        done += 1
        x0 = g.vertices[0]
        tree = spanning_tree(g, x0)
        pres = deck_group_presentation(g, 3, x0)
        table = todd_coxeter(pres, 300)
        for _ in range(10):
            w = random_walk(rng, g, x0, rng.randrange(0, 8))
            w = w.concat(w.reverse()) if not w.is_closed() else w
            word = walk_to_word(g, tree, x0, w)
            lifted = lift_walk(cov, w, cov.base_lift)
            assert lifted.is_closed() == (word_image(table, word) == 0)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def test_ball_preservation_identity_cover():
    cov = local_cover(complete_graph(4), 3)
    for rho in (1, 3, 7):
        assert verify_ball_preservation(cov, rho) is True


def test_ball_preservation_double_ray():
    cov = local_cover(cycle_graph(5), 4, coset_limit=400, truncation_radius=10)
    assert verify_ball_preservation(cov, 4) is True
    assert verify_ball_preservation(cov, 5) is False
    small = local_cover(cycle_graph(5), 4, coset_limit=400, truncation_radius=3)
    assert verify_ball_preservation(small, 4) is UNDECIDED


def test_ball_preservation_fails_for_non_local_cover():
    cov = c6_double_cover()
    assert verify_ball_preservation(cov, 6) is False
    assert verify_ball_preservation(cov, 5) is True


def test_cover_cycle_space():
    assert verify_cover_cycle_space(local_cover(complete_graph(4), 3), 3)
    path_ball = local_cover(cycle_graph(5), 4, coset_limit=400, truncation_radius=6)
    assert verify_cover_cycle_space(path_ball, 4)
    assert not verify_cover_cycle_space(c6_double_cover(), 6)


def test_idempotence():
    assert verify_idempotence(complete_graph(4), 3, 3, coset_limit=500) is True
    assert verify_idempotence(octahedron(), 3, 4, coset_limit=2000) is True
    assert verify_idempotence(cycle_graph(5), 4, 5, coset_limit=100) is UNDECIDED


# ---------------------------------------------------------------------------
# Cayley graphs
# ---------------------------------------------------------------------------

def test_cyclic_cayley_graph_is_cycle():
    cay = cayley_graph(FiniteGroup.cyclic(5), [("s", 1)])
    assert isomorphic(cay.graph, cycle_graph(5)) is not None
    assert cay.labels["0.s"] == "s"


def test_trivial_group_cayley_graph_is_loop():
    cay = cayley_graph(FiniteGroup.cyclic(1), [("s", 0)])
    assert cay.graph.n_vertices() == 1
    assert cay.graph.n_edges() == 1
    assert cay.graph.is_loop(cay.graph.edges[0])


def test_klein_cayley_graph_is_doubled_4_cycle():
    cay = cayley_graph(FiniteGroup.klein_four(), [("a", 1), ("b", 2)])
    g = cay.graph
    assert g.n_vertices() == 4
    assert g.n_edges() == 8
    for u in g.vertices:
        for v in g.vertices:
            if u != v:
                assert len(g.edges_between(u, v)) in (0, 2)


def test_labelled_graph_json_round_trip():
    cay = cayley_graph(FiniteGroup.cyclic(4), [("s", 1)])
    obj = cay.to_json_obj()
    back = LabelledGraph.from_json_obj(obj)
    assert back.graph == cay.graph
    assert back.labels == cay.labels
    assert back.identity_vertex == "0"


# ---------------------------------------------------------------------------
# local group extensions
# ---------------------------------------------------------------------------

def test_cycle_extension_below_girth_is_free():
    cay = cayley_graph(FiniteGroup.cyclic(5), [("s", 1)])
    p = local_group_extension(cay, 4)
    assert p.generators == ("s",)
    assert p.relators == ()
    assert not todd_coxeter(p, 40).complete


def test_cycle_extension_at_girth_is_cyclic():
    for n in (4, 5, 6):
        cay = cayley_graph(FiniteGroup.cyclic(n), [("s", 1)])
        p = local_group_extension(cay, n)
        assert p.generators == ("s",)
        assert len(p.relators) == 1
        assert p.relators[0].letters in ((1,) * n, (-1,) * n)
        t = todd_coxeter(p, 200)
        assert t.complete and t.n_cosets() == n
        assert verify_group_quotient(p, FiniteGroup.cyclic(n), [("s", 1)])


def test_klein_extension_recovers_group():
    cay = cayley_graph(FiniteGroup.klein_four(), [("a", 1), ("b", 2)])
    p = local_group_extension(cay, 4)
    t = todd_coxeter(p, 200)
    assert t.complete and t.n_cosets() == 4


def test_extension_refuses_small_ball():
    cay = cayley_graph(FiniteGroup.cyclic(5), [("s", 1)])
    with pytest.raises(CoverError):
        local_group_extension(cay, 5, ball_radius=3)


# ---------------------------------------------------------------------------
# covering equivalence
# ---------------------------------------------------------------------------

def test_cover_equivalent_to_itself():
    cov = bowtie_z2_cover()
    assert covering_equivalence(cov, cov) is True


def test_different_sheet_counts_not_equivalent():
    c1 = local_cover(cycle_graph(6), 6, coset_limit=500)
    assert isinstance(c1, Covering) and c1.sheets() == 1
    c2 = c6_double_cover()
    assert covering_equivalence(c1, c2) is False


def test_cayley_extension_cover_matches_derived_cover():
    # For the 5-cycle at locality 5 both constructions give the identity
    # cover; the Cayley graph of the extension group must be equivalent to
    # the derived cover over the same base.
    n = 5
    base_group = FiniteGroup.cyclic(n)
    base_cay = cayley_graph(base_group, [("s", 1)])
    p = local_group_extension(base_cay, n)
    t = todd_coxeter(p, 200)
    ext_group = table_to_group(t)
    ext_cay = cayley_graph(ext_group, [("s", ext_group.gen_images[0])])
    qcov = cover_from_cayley_quotient(ext_cay, ext_group, base_cay, base_group)

    dcov = local_cover(base_cay.graph, n, coset_limit=500)
    assert isinstance(dcov, Covering)
    assert covering_equivalence(qcov, dcov) is True
