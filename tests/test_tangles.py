"""Tests for separations, tangles, blocks and the canonical nested set."""

import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from localdec.multigraph import (
    GraphError,
    InvariantError,
    Isomorphism,
    Multigraph,
    automorphism_group,
)
from localdec.tangles import (
    NestedSet,
    Separation,
    SeparationUniverse,
    Tangle,
    _assert_triple_condition,
    _edge_end_masks,
    _maximal_small_sides,
    _no_tangles_at_all,
    _residual_fits_sets,
    assert_consistent,
    block_tangle,
    canonical_nested_set,
    crossing,
    distinguishers,
    enumerate_blocks,
    enumerate_separations,
    enumerate_tangles,
    is_tight,
    nested,
    oriented_le,
)

from test_multigraph import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
)


def glued_cliques(sizes, clique=5):
    """A path of complete graphs glued at single cut vertices."""
    verts = []
    edges = []
    prev_glue = None
    vid = 0
    for b in range(sizes):
        block = []
        if prev_glue is not None:
            block.append(prev_glue)
        while len(block) < clique:
            block.append(vid)
            verts.append(vid)
            vid += 1
        for u, v in combinations(block, 2):
            edges.append((f"b{b}_{u}_{v}", (u, v)))
        prev_glue = block[-1]
    return Multigraph(verts, edges)


def two_k5s():
    return glued_cliques(2)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def separations_brute_force(g, max_order, proper_only=True):
    """All separations of order < max_order by scanning pairs of subsets."""
    n = len(g.vertices)
    bits = g.bits()
    out = set()
    for amask in range(1 << n):
        comp = bits.vall & ~amask
        sub = amask
        while True:
            bmask = comp | sub
            ok = True
            for iu, iv in bits.epairs:
                ua = amask >> iu & 1
                ub = bmask >> iu & 1
                va = amask >> iv & 1
                vb = bmask >> iv & 1
                if (ua and not ub and vb and not va) or (va and not vb and ub and not ua):
                    ok = False
                    break
            if ok and (amask & bmask).bit_count() < max_order:
                if not proper_only or (amask != bits.vall and bmask != bits.vall):
                    out.add((min(amask, bmask), max(amask, bmask)))
            if sub == 0:
                break
            sub = (sub - 1) & amask
    return out


def maximal_small_sides(masks):
    out = []
    for v, e in masks:
        if any((v | av) == av and (e | ae) == ae for av, ae in out):
            continue
        out = [(av, ae) for av, ae in out if not ((av | v) == v and (ae | e) == e)]
        out.append((v, e))
    return out


def forced_small_sides(g, k):
    """Small sides of the improper separations (X, V) of order < k; their
    orientation away from V is forced, but they still join the triples."""
    n = len(g.vertices)
    out = []
    for size in range(0, k):
        for combo in combinations(range(n), size):
            x = 0
            for i in combo:
                x |= 1 << i
            out.append((x, g.edge_mask_within(x)))
    return out


def tangle_oracle(uni, k):
    """Straight-from-the-definition enumeration: try both orientations of
    every proper separation (the improper ones are forced), pruning a prefix
    as soon as three small sides, forced ones included and checked on the
    maximal ones recomputed from scratch, cover the graph."""
    bits = uni.graph.bits()
    count = uni.prefix_len(k)
    forced = forced_small_sides(uni.graph, k)
    results = []

    def covers(ms):
        for a, b, c in combinations_with_replacement(ms, 3):
            if (a[0] | b[0] | c[0]) == bits.vall and (a[1] | b[1] | c[1]) == bits.eall:
                return True
        return False

    def recurse(i, chosen):
        if i == count:
            results.append(bytes(chosen))
            return
        for side in (0, 1):
            ms = maximal_small_sides(
                forced
                + [uni.side_data[j][chosen[j]] for j in range(i)]
                + [uni.side_data[i][side]])
            if not covers(ms):
                recurse(i + 1, chosen + [side])

    if not covers(maximal_small_sides(forced)):
        recurse(0, [])
    return results


def tangle_oracle_literal(uni, k):
    """Fully literal check over all 2^|S_k| orientations (tiny instances only)."""
    bits = uni.graph.bits()
    count = uni.prefix_len(k)
    forced = forced_small_sides(uni.graph, k)
    results = []
    for sides in product((0, 1), repeat=count):
        smalls = forced + [uni.side_data[i][sides[i]] for i in range(count)]
        ok = True
        for a, b, c in combinations_with_replacement(smalls, 3):
            if (a[0] | b[0] | c[0]) == bits.vall and (a[1] | b[1] | c[1]) == bits.eall:
                ok = False
                break
        if ok:
            results.append(bytes(sides))
    return results


def blocks_brute_force(g, k):
    """Maximal sets of >= k vertices inside one side of every separation."""
    n = len(g.vertices)
    seps = enumerate_separations(g, k)
    good = []
    for mask in range(1, 1 << n):
        if mask.bit_count() < k:
            continue
        if all((mask | s.a_mask) == s.a_mask or (mask | s.b_mask) == s.b_mask
               for s in seps):
            good.append(mask)
    blocks = [m for m in good if not any(m != o and (m | o) == o for o in good)]
    return {m for m in blocks}


# ---------------------------------------------------------------------------
# separations
# ---------------------------------------------------------------------------

def test_k3_has_no_proper_separations_of_low_order():
    assert enumerate_separations(complete_graph(3), 2) == []


def test_path_three_separations_match_brute_force():
    g = path_graph(3)
    seps = enumerate_separations(g, 2)
    assert len(seps) == 1
    s = seps[0]
    assert set(s.sides(g)[0]) | set(s.sides(g)[1]) == {0, 1, 2}
    assert s.order == 1
    assert {(t.a_mask, t.b_mask) for t in seps} == separations_brute_force(g, 2)


def test_single_vertex_has_no_proper_separations():
    g = Multigraph([0], [])
    assert enumerate_separations(g, 3) == []


def test_separations_match_brute_force_on_random_graphs():
    rng = random.Random(61)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(0, 5))
        k = rng.randrange(1, 5)
        ours = {(s.a_mask, s.b_mask) for s in enumerate_separations(g, k)}
        assert ours == separations_brute_force(g, k)


def test_separations_sorted_with_prefix_property():
    g = two_k5s()
    seps4 = enumerate_separations(g, 4)
    seps2 = enumerate_separations(g, 2)
    assert seps4[: len(seps2)] == seps2
    assert all(seps4[i].order <= seps4[i + 1].order for i in range(len(seps4) - 1))


def test_improper_separations_on_flag():
    g = path_graph(3)
    seps = enumerate_separations(g, 2, include_improper=True)
    improper = [s for s in seps if not s.proper]
    assert len(improper) == 4  # empty set and each single vertex against V


def test_universe_side_data_matches_direct_computation():
    rng = random.Random(69)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(2, 8), rng.randrange(0, 6))
        full = g.bits().vall
        for k in range(1, 5):
            uni = SeparationUniverse(g, k)
            assert uni.seps == enumerate_separations(g, k)
            for s, ((a, ea), (b, eb)) in zip(uni.seps, uni.side_data):
                assert (a, b) == (s.a_mask, s.b_mask)
                assert ea == g.edge_mask_within(a)
                assert eb == g.edge_mask_within(b)
            for j in range(-1, k + 2):
                assert uni.prefix_len(j) == sum(1 for s in uni.seps if s.order < j)
            every = enumerate_separations(g, k, include_improper=True)
            keys = [(s.order, s.a_mask, s.b_mask) for s in every]
            assert keys == sorted(set(keys))
            assert [s for s in every if s.proper] == uni.seps
            improper = [s.a_mask for s in every if not s.proper]
            assert all(s.b_mask == full for s in every if not s.proper)
            assert improper == sorted(
                (x for x in range(full + 1) if x.bit_count() < k),
                key=lambda x: (x.bit_count(), x))


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------

def test_cut_vertex_separation_is_tight():
    g = two_k5s()
    (s,) = enumerate_separations(g, 2)
    assert is_tight(g, s)


def test_improper_all_vertices_separation_not_tight():
    g = path_graph(3)
    full = g.bits().vall
    s = Separation(full, full, full)
    assert not is_tight(g, s)


def test_wasteful_separator_is_not_tight():
    g = path_graph(5)
    seps = enumerate_separations(g, 3)
    # A separator containing vertices 1 and 3 with component {0} on one side
    # wastes vertex 3 on that side, so it cannot be tight.
    bad = [s for s in seps
           if s.separator == g.vertex_mask([1, 3])
           and min(s.a_mask.bit_count(), s.b_mask.bit_count()) == 3]
    assert bad
    assert all(not is_tight(g, s) for s in bad)


def test_tightness_matches_direct_definition_scan():
    rng = random.Random(62)
    for _ in range(15):
        g = random_connected_graph(rng, 6, 4)
        for s in enumerate_separations(g, 4):
            x = s.separator
            comps = []
            bits = g.bits()
            left = bits.vall & ~x
            from localdec.tangles import _components_masks
            comps = _components_masks(bits.adj, left)

            def has_witness(side):
                for comp in comps:
                    if comp & ~side:
                        continue
                    if all(bits.adj[i] & comp
                           for i in range(len(g.vertices)) if x >> i & 1):
                        return True
                return False

            assert is_tight(g, s) == (has_witness(s.a_mask) and has_witness(s.b_mask))


# ---------------------------------------------------------------------------
# tangles
# ---------------------------------------------------------------------------

def test_k5_has_exactly_one_4_tangle():
    ts = enumerate_tangles(complete_graph(5), 4)
    assert len(ts) == 1
    assert ts[0].choices == b""


def test_two_k5s_have_two_2_tangles():
    ts = enumerate_tangles(two_k5s(), 2)
    assert len(ts) == 2


def test_path_2_tangles_are_its_edges():
    # every edge of a path is a 2-block and induces its own 2-tangle
    g = path_graph(5)
    ts = enumerate_tangles(g, 2)
    assert len(ts) == 4
    uni = ts[0].universe
    homes = {t.home_mask() for t in ts}
    assert homes == {g.vertex_mask([i, i + 1]) for i in range(4)}


def test_tangles_match_oracle_on_random_graphs():
    rng = random.Random(63)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(0, 6))
        k = rng.randrange(1, 5)
        uni = SeparationUniverse(g, k)
        ours = {t.choices for t in enumerate_tangles(uni, k)}
        assert ours == set(tangle_oracle(uni, k))
        if uni.prefix_len(k) <= 10:
            assert ours == set(tangle_oracle_literal(uni, k))


def test_tangle_order_matches_oracle():
    # the JSON lists tangles in search order, so the order must match too
    rng = random.Random(63)
    cases = []
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(0, 6))
        cases.append((g, rng.randrange(1, 5)))
    cases.extend((two_k5s(), k) for k in (2, 3, 4))
    for g, k in cases:
        uni = SeparationUniverse(g, k)
        assert [t.choices for t in enumerate_tangles(uni, k)] == tangle_oracle(uni, k)


def random_loopy_multigraph(rng, extra):
    """Up to three cliques of 2 to 5 vertices, each glued to the earlier
    ones at one or two vertices, plus `extra` loops and parallel edges."""
    verts = []
    pairs = []
    for _ in range(rng.randrange(1, 4)):
        glue = rng.sample(verts, rng.randrange(1, 3)) if verts else []
        fresh = range(len(verts), len(verts) + rng.randrange(2, 6) - len(glue))
        verts.extend(fresh)
        pairs.extend(combinations(glue + list(fresh), 2))
    for _ in range(extra):
        if rng.random() < 0.5:
            u = rng.choice(verts)
            pairs.append((u, u))
        else:
            pairs.append(rng.choice(pairs))
    return Multigraph(verts, [(f"e{i}", p) for i, p in enumerate(pairs)])


def loopy_multigraph_cases():
    rng = random.Random(71)
    return [(random_loopy_multigraph(rng, rng.randrange(1, 6)), rng.randrange(1, 5))
            for _ in range(30)]


def components_by_search(g, pool):
    """Components of G[pool] as vertex masks, each grown from its least
    vertex until no neighbour in the pool is left."""
    adj = g.bits().adj
    comps = []
    while pool:
        comp = pool & -pool
        grown = True
        while grown:
            reach = comp
            for i in range(len(adj)):
                if comp >> i & 1:
                    reach |= adj[i] & pool
            grown = reach != comp
            comp = reach
        comps.append(comp)
        pool &= ~comp
    return comps


def test_oracle_tangles_pick_one_component_per_separator():
    # the haven form: in every k-tangle, the big sides with separator X
    # meet in X plus exactly one component of G - X
    rng = random.Random(63)
    cases = []
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(0, 6))
        cases.append((g, rng.randrange(1, 5)))
    cases.extend((two_k5s(), k) for k in (2, 3, 4))
    star = Multigraph(range(5), [(f"s{i}", (0, i)) for i in range(1, 5)])
    cases.append((star, 2))
    cases.extend(loopy_multigraph_cases())
    checked = 0
    for g, k in cases:
        uni = SeparationUniverse(g, k)
        vall = g.bits().vall
        separators = {s.separator for s in uni.seps}
        for choices in tangle_oracle(uni, k):
            for x in separators:
                big = vall
                for i, s in enumerate(uni.seps):
                    if s.separator == x:
                        big &= uni.side_data[i][1 - choices[i]][0]
                assert big & x == x
                assert big & ~x in components_by_search(g, vall & ~x)
                checked += 1
    assert checked > 100


def test_tangles_match_oracle_in_order_on_loopy_multigraphs():
    cases = loopy_multigraph_cases()
    assert any(g.is_loop(e) for g, _ in cases for e in g.edges)
    assert any(len(g.edges_between(*g.ends[e])) > 1
               for g, _ in cases for e in g.edges if not g.is_loop(e))
    for g, k in cases:
        uni = SeparationUniverse(g, k)
        assert [t.choices for t in enumerate_tangles(uni, k)] == tangle_oracle(uni, k)


def hub(clique, leaves):
    """K_clique (K_1 for a star) with `leaves` pendant vertices at vertex 0,
    a loop at the last leaf and a second edge to the first leaf: removing
    vertex 0 leaves up to leaves + 1 components."""
    verts = list(range(clique + leaves))
    pairs = list(combinations(range(clique), 2))
    pairs += [(0, clique + i) for i in range(leaves)]
    pairs += [(0, clique), (verts[-1], verts[-1])]
    return Multigraph(verts, [(f"h{i}", p) for i, p in enumerate(pairs)])


def hub_cases():
    cases = [(hub(5, 4), k) for k in (2, 3, 4)]
    cases += [(hub(5, 6), k) for k in (2, 3)]
    cases += [(hub(1, leaves), 2) for leaves in (5, 6, 7)]
    return cases


def test_many_component_separators_give_the_oracle_tangles_in_order():
    found = set()
    for g, k in hub_cases():
        uni = SeparationUniverse(g, k)
        assert max(len(comps) for _, comps in uni.separators) >= 5
        choices = [t.choices for t in enumerate_tangles(uni, k)]
        assert choices == tangle_oracle(uni, k)
        if choices:
            found.add(k)
    assert {3, 4} <= found


def test_many_component_separators_match_brute_force_separations():
    for g, k in hub_cases():
        for improper in (False, True):
            seps = enumerate_separations(g, k, include_improper=improper)
            keys = [(s.order, s.a_mask, s.b_mask) for s in seps]
            assert keys == sorted(set(keys))
            assert ({(s.a_mask, s.b_mask) for s in seps}
                    == separations_brute_force(g, k, proper_only=not improper))


def test_tangle_choices_do_not_depend_on_the_universe_order():
    # the choice string of a k-tangle gathers only the first prefix_len(k)
    # positions, which must not move when the universe holds higher orders
    for g, k in hub_cases():
        small = enumerate_tangles(SeparationUniverse(g, k), k)
        large = enumerate_tangles(SeparationUniverse(g, k + 1), k)
        assert [t.choices for t in small] == [t.choices for t in large]


def residual_fits_brute_force(g, cap, vu, eu, parts):
    """Do `parts` vertex sets X_i with |X_i| <= cap hold every vertex
    outside vu and, inside one X_i, both ends of every edge outside eu?
    Adding vertices to an X_i never hurts, so sets of exactly
    min(cap, |V|) vertices suffice."""
    n = len(g.vertices)
    size = min(cap, n)
    sets = [x for x in range(1 << n) if x.bit_count() == size]
    missing_v = g.bits().vall & ~vu
    missing_e = [g.vertex_mask(g.ends[e]) for i, e in enumerate(g.edges)
                 if not eu >> i & 1]
    for xs in combinations_with_replacement(sets, parts):
        union = 0
        for x in xs:
            union |= x
        if missing_v & ~union == 0 and all(
                any(m & ~x == 0 for x in xs) for m in missing_e):
            return True
    return False


def test_residual_fits_sets_matches_brute_force():
    rng = random.Random(72)
    graphs = []
    while len(graphs) < 12:
        g = random_loopy_multigraph(rng, rng.randrange(1, 6))
        if len(g.vertices) <= 6:
            graphs.append(g)
    assert any(g.is_loop(e) for g in graphs for e in g.edges)
    outcomes = set()
    for g in graphs:
        bits = g.bits()
        eends = _edge_end_masks(g)
        sides = [(0, 0)] + [(a, g.edge_mask_within(a))
                            for s in enumerate_separations(g, 4)
                            for a in (s.a_mask, s.b_mask)]
        samples = [rng.choice(sides) for _ in range(4)]
        for _ in range(4):
            (v1, e1), (v2, e2) = rng.choice(sides), rng.choice(sides)
            samples.append((v1 | v2, e1 | e2))
        for vu, eu in samples:
            for cap in range(4):
                for parts in (1, 2, 3):
                    got = _residual_fits_sets(bits, eends, cap, vu, eu, parts)
                    assert got == residual_fits_brute_force(g, cap, vu, eu, parts), \
                        (g.to_json_obj(), cap, vu, eu, parts)
                    outcomes.add((parts, got))
    # every part count is seen both fitting and not fitting
    assert outcomes == {(p, b) for p in (1, 2, 3) for b in (False, True)}


def test_each_side_tested_once_against_two_forced_sides(monkeypatch):
    import localdec.tangles as tangles_mod
    calls = []
    original = tangles_mod._residual_fits_sets

    def counting(bits, eends, cap, vu, eu, parts):
        calls.append(parts)
        return original(bits, eends, cap, vu, eu, parts)

    monkeypatch.setattr(tangles_mod, "_residual_fits_sets", counting)
    rng = random.Random(70)
    for g in [glued_cliques(3)] + [random_connected_graph(rng, 8, 6) for _ in range(5)]:
        uni = SeparationUniverse(g, 4)
        for k in (2, 3, 4):
            calls.clear()
            enumerate_tangles(uni, k)
            assert calls.count(2) <= 2 * uni.prefix_len(k)


def test_tangle_restriction_is_a_tangle():
    g = two_k5s()
    uni = SeparationUniverse(g, 4)
    for k in (2, 3, 4):
        smaller = {t.choices for t in enumerate_tangles(uni, k - 1)} if k > 1 else {b""}
        for t in enumerate_tangles(uni, k):
            assert t.restriction(k - 1).choices in smaller


def test_empty_separation_set_gives_single_tangle():
    ts = enumerate_tangles(complete_graph(4), 2)
    assert len(ts) == 1


def test_k4_has_no_4_tangle():
    # three triangles cover K4, and triangles are forced small sides at
    # order 4, so no orientation survives even though S_4 has no proper
    # separations at all
    assert enumerate_tangles(complete_graph(4), 4) == []
    assert len(enumerate_tangles(complete_graph(4), 3)) == 1


def test_single_vertex_tangle_orders():
    g = Multigraph([0], [])
    assert len(enumerate_tangles(g, 1)) == 1
    assert enumerate_tangles(g, 2) == []


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def test_k5_block():
    bs = enumerate_blocks(complete_graph(5), 5)
    assert bs == [tuple(range(5))]


def test_path_2_blocks_are_edges():
    g = path_graph(4)
    bs = enumerate_blocks(g, 2)
    assert sorted(bs) == [(0, 1), (1, 2), (2, 3)]


def test_two_k5s_3_blocks():
    g = two_k5s()
    bs = enumerate_blocks(g, 3)
    assert len(bs) == 2
    assert all(len(b) == 5 for b in bs)


def test_blocks_match_brute_force():
    rng = random.Random(64)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(3, 7), rng.randrange(0, 5))
        k = rng.randrange(1, 5)
        ours = {g.vertex_mask(b) for b in enumerate_blocks(g, k)}
        assert ours == blocks_brute_force(g, k)


# ---------------------------------------------------------------------------
# block tangles
# ---------------------------------------------------------------------------

def test_k5_block_tangle_matches_enumeration():
    g = complete_graph(5)
    uni = SeparationUniverse(g, 4)
    (block,) = enumerate_blocks(g, 4)
    t = block_tangle(uni, block, 4)
    assert [t] == enumerate_tangles(uni, 4)


def test_k3_block_tangle_order_1():
    g = complete_graph(3)
    t = block_tangle(g, (0, 1, 2), 1)
    assert t.choices == b""


def test_block_below_threshold_is_refused():
    g = complete_graph(3)
    with pytest.raises(GraphError):
        block_tangle(g, (0, 1, 2), 3)  # 2*3 <= 3*2


def test_big_blocks_always_give_tangles():
    rng = random.Random(65)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(4, 8), rng.randrange(2, 8))
        for k in (1, 2, 3):
            for b in enumerate_blocks(g, k):
                if 2 * len(b) > 3 * (k - 1):
                    t = block_tangle(g, b, k)
                    assert t.order == k


def test_block_tangle_refuses_a_too_small_universe():
    # S_4 of two glued K5s has 37 separations; a universe of order 2 holds
    # only the cut, so it cannot carry an orientation of S_4
    g = two_k5s()
    block = enumerate_blocks(g, 4)[0]
    assert SeparationUniverse(g, 4).prefix_len(4) == 37
    with pytest.raises(GraphError, match="universe only covers orders up to 2"):
        block_tangle(SeparationUniverse(g, 2), block, 4)
    with pytest.raises(GraphError, match="universe only covers orders up to 2"):
        canonical_nested_set(SeparationUniverse(g, 2), 3)
    assert block_tangle(SeparationUniverse(g, 4), block, 4).order == 4


# ---------------------------------------------------------------------------
# the checks on a finished tangle
# ---------------------------------------------------------------------------

def orientation(g, k, smalls):
    """The candidate k-tangle whose small sides are the vertex sets listed
    in `smalls`, one for each separation of order < k."""
    uni = SeparationUniverse(g, k)
    masks = {g.vertex_mask(side) for side in smalls}
    seps = uni.seps[: uni.prefix_len(k)]
    choices = bytes(0 if s.a_mask in masks else 1 for s in seps)
    assert {s.oriented(c)[0] for s, c in zip(seps, choices)} == masks
    return Tangle(uni, k, choices)


def test_checks_on_finished_tangles_name_the_cover():
    # every graph has a loop or a parallel edge, and in each case some
    # small sides cover all vertices but not all edges
    star = Multigraph(range(4), [("a", (0, 1)), ("a2", (0, 1)), ("b", (0, 2)),
                                 ("c", (0, 3)), ("loop", (2, 2))])
    # the three leaf edges: two of them plus the third leaf cover V but
    # not the third edge, so only the triple covers
    t = orientation(star, 2, [(0, 1), (0, 2), (0, 3)])
    assert_consistent(t)
    with pytest.raises(GraphError, match="^three small sides cover the graph$"):
        _assert_triple_condition(t)
    t = orientation(star, 2, [(0, 1), (0, 1, 2), (0, 1, 3)])
    with pytest.raises(GraphError, match="^tangle is inconsistent: two small sides"):
        assert_consistent(t)

    # the 4-cycle 0-1-3-2 with a triangle 0-1-4 on its edge 01: the two
    # maximal small sides cover V, and the doubled edge 13 they miss is a
    # forced side at order 3
    c4_triangle = Multigraph(range(5), [
        ("a", (0, 1)), ("b", (0, 2)), ("c", (1, 3)), ("c2", (1, 3)),
        ("d", (2, 3)), ("e", (0, 4)), ("f", (1, 4)), ("loop", (3, 3))])
    t = orientation(c4_triangle, 3, [(0, 2, 3), (0, 1, 2, 4), (0, 1, 4)])
    assert len(_maximal_small_sides(t)) == 2
    assert_consistent(t)
    with pytest.raises(GraphError, match="^two small sides plus a forced side"):
        _assert_triple_condition(t)

    # the 4-cycle 0-1-2-3 at order 3: the two small sides cover V but miss
    # the edge 23, and each one plus the two edges at its missing vertex
    # covers the graph
    c4 = Multigraph(range(4), [("a", (0, 1)), ("a2", (0, 1)), ("b", (1, 2)),
                               ("c", (2, 3)), ("d", (3, 0)), ("loop", (1, 1))])
    t = orientation(c4, 3, [(0, 1, 2), (0, 1, 3)])
    assert_consistent(t)
    with pytest.raises(GraphError, match="^a small side plus two forced sides"):
        _assert_triple_condition(t)

    # a path of two edges, one doubled, one end looped: its two edges are
    # forced sides at order 3 and cover it
    p3 = Multigraph(range(3), [("a", (0, 1)), ("a2", (0, 1)), ("b", (1, 2)),
                               ("loop", (2, 2))])
    t = orientation(p3, 3, [(0, 1)])
    with pytest.raises(GraphError, match="^three forced small sides cover the graph$"):
        _assert_triple_condition(t)


def test_maximal_small_sides_match_the_side_data_oracle():
    checked = 0
    for g, k in loopy_multigraph_cases():
        uni = SeparationUniverse(g, k)
        for t in enumerate_tangles(uni, k):
            smalls = [uni.side_data[i][c] for i, c in enumerate(t.choices)]
            assert set(_maximal_small_sides(t)) == set(maximal_small_sides(smalls))
            checked += 1
    assert checked > 10


# ---------------------------------------------------------------------------
# distinguishers
# ---------------------------------------------------------------------------

def test_two_k5_tangles_efficiently_distinguished_by_cut():
    g = two_k5s()
    uni = SeparationUniverse(g, 2)
    t1, t2 = enumerate_tangles(uni, 2)
    alldiff, eff = distinguishers(t1, t2)
    assert len(eff) == 1 and eff[0].order == 1
    assert set(eff) <= set(alldiff)


def test_self_distinguishers_empty():
    g = two_k5s()
    uni = SeparationUniverse(g, 2)
    t1, _ = enumerate_tangles(uni, 2)
    assert distinguishers(t1, t1) == ([], [])


def test_extension_pairs_indistinguishable():
    g = two_k5s()
    uni = SeparationUniverse(g, 4)
    for k in (3, 4):
        for t in enumerate_tangles(uni, k):
            r = t.restriction(2)
            assert distinguishers(t, r) == ([], [])


def test_distinguishers_match_brute_force():
    rng = random.Random(66)
    for _ in range(10):
        g = random_connected_graph(rng, 6, 4)
        uni = SeparationUniverse(g, 3)
        ts = []
        for k in (2, 3):
            ts.extend(enumerate_tangles(uni, k))
        for t1, t2 in combinations(ts, 2):
            alldiff, eff = distinguishers(t1, t2)
            common = min(len(t1.choices), len(t2.choices))
            expected = [uni.seps[i] for i in range(common)
                        if t1.choices[i] != t2.choices[i]]
            assert alldiff == expected
            if expected:
                m = min(s.order for s in expected)
                assert eff == [s for s in expected if s.order == m]


def test_distinguishers_across_mixed_orders_match_brute_force():
    checked = 0
    for g, _ in loopy_multigraph_cases():
        uni = SeparationUniverse(g, 4)
        ts = [t for k in range(1, 5) for t in enumerate_tangles(uni, k)]
        for t1, t2 in combinations(ts, 2):
            alldiff, eff = distinguishers(t1, t2)
            common = min(len(t1.choices), len(t2.choices))
            expected = [uni.seps[i] for i in range(common)
                        if t1.choices[i] != t2.choices[i]]
            assert alldiff == expected
            if expected:
                m = min(s.order for s in expected)
                assert eff == [s for s in expected if s.order == m]
            else:
                assert eff == []
            checked += t1.order != t2.order and bool(expected)
    assert checked >= 40


# ---------------------------------------------------------------------------
# canonical nested set
# ---------------------------------------------------------------------------

def test_k5_nested_set_is_empty():
    ns = canonical_nested_set(complete_graph(5), 4)
    assert len(ns) == 0
    assert ns.invariance_checked


def test_two_k5s_nested_set_is_the_cut():
    ns = canonical_nested_set(two_k5s(), 4)
    assert len(ns) == 1
    (s,) = ns.separations
    assert s.order == 1


def test_three_clique_path_nested_set():
    g = glued_cliques(3)
    ns = canonical_nested_set(g, 4)
    assert len(ns) == 2
    s, t = ns.separations
    assert s.order == t.order == 1
    assert nested(s, t)


def test_nested_set_tags_cover_pairs():
    ns = canonical_nested_set(two_k5s(), 3)
    assert ns.tags
    for i, pairs in ns.tags.items():
        assert pairs


def test_invariance_is_checked_above_400_vertices_when_the_group_is_given():
    # a 401-cycle with a pendant edge: refinement is left out above 400
    # vertices, but a group the caller passes needs none
    n = 401
    g = Multigraph(range(n + 1), [(f"c{i}", (i, (i + 1) % n)) for i in range(n)]
                   + [("p", (0, n))])
    assert canonical_nested_set(g, 2).invariance_checked is None
    group = automorphism_group(g)
    assert group[1] == 2
    ns = canonical_nested_set(g, 2, group=group)
    assert len(ns) == 1
    assert ns.invariance_checked is True
    # the check runs: a rotation of the cycle moves the pendant's separation
    rotation = Isomorphism({v: (v + 1) % n if v < n else v for v in g.vertices}, {})
    with pytest.raises(InvariantError, match="not automorphism-invariant"):
        canonical_nested_set(g, 2, group=([rotation], n))


def test_nested_set_invariant_and_nested_on_random_graphs():
    rng = random.Random(67)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(4, 9), rng.randrange(1, 7))
        ns = canonical_nested_set(g, 4)
        seps = ns.separations
        for a, b in combinations(seps, 2):
            assert nested(a, b)
        for s in seps:
            assert is_tight(g, s)


def test_nested_set_from_a_graph_matches_the_one_pass_universe():
    # given a graph, the universe grows one order at a time and stops at
    # the first order without a tangle; a k-tangle restricts to a
    # (k-1)-tangle, so the oracle finds none above that order either
    rng = random.Random(73)
    cases = [g for g in (random_loopy_multigraph(rng, rng.randrange(1, 6))
                         for _ in range(40)) if len(g.vertices) <= 8]
    assert len(cases) >= 15
    searched = 0
    for g in cases[:15]:
        for k in range(1, 6):
            uni = SeparationUniverse(g, k)
            grown = canonical_nested_set(g, k)
            full = canonical_nested_set(uni, k)
            assert grown.max_tangle_order == full.max_tangle_order == k
            assert grown.indices == full.indices
            assert grown.tags == full.tags
            assert ([(t.order, t.choices) for t in grown.tangles]
                    == [(t.order, t.choices) for t in full.tangles])
            assert grown.invariance_checked == full.invariance_checked
            count = len(grown.universe.seps)
            assert ([(s.a_mask, s.b_mask) for s in grown.universe.seps]
                    == [(s.a_mask, s.b_mask) for s in uni.seps[:count]])
        orders = {t.order for t in full.tangles}
        first_empty = min(set(range(1, 6)) - orders, default=6)
        for k in range(first_empty, 6):
            assert tangle_oracle(uni, k) == []
            # count the orders where no three forced sides cover the graph
            searched += not _no_tangles_at_all(g, k)
    assert searched >= 3


def test_nested_matches_the_four_orientation_definition():
    rng = random.Random(76)
    for _ in range(2000):
        a, b, c, d = (rng.randrange(64) for _ in range(4))
        s = Separation(a, b, 63)
        for t in (Separation(c, d, 63), s, Separation(b, a, 63)):
            want = any(oriented_le(*o1, *o2)
                       for o1 in (s.oriented(False), s.oriented(True))
                       for o2 in (t.oriented(False), t.oriented(True)))
            assert nested(s, t) == want
            assert crossing(s, t) == (not want)


def test_orientation_partial_order_antisymmetry():
    rng = random.Random(68)
    for _ in range(10):
        g = random_connected_graph(rng, 6, 4)
        seps = enumerate_separations(g, 4)
        for s, t in combinations(seps[:20], 2):
            for o1 in (s.oriented(False), s.oriented(True)):
                for o2 in (t.oriented(False), t.oriented(True)):
                    if oriented_le(*o1, *o2) and oriented_le(*o2, *o1):
                        assert o1 == o2
