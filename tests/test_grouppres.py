"""Tests for free words, presentations and coset enumeration."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from localdec.grouppres import (
    FiniteGroup,
    FreeWord,
    Presentation,
    PresentationError,
    _coset_tables,
    abelianized_free_rank,
    deck_group_presentation,
    relator_gf2_rowspace,
    scan_relators_everywhere,
    table_to_group,
    todd_coxeter,
    walk_to_word,
    word_image,
)
from localdec.multigraph import (
    GraphError,
    Multigraph,
    Walk,
    edge_vector,
    enumerate_short_cycles,
    fundamental_walks,
    homotopic,
    reduce_walk,
    spanning_tree,
)

from test_multigraph import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_walk,
    theta_graph,
)


# ---------------------------------------------------------------------------
# free words and presentations
# ---------------------------------------------------------------------------

def test_free_reduction():
    assert FreeWord((1, -1)).letters == ()
    assert FreeWord((1, 2, -2, -1, 3)).letters == (3,)
    w = FreeWord((1, 2))
    assert (w * w.inverse()).is_empty()


def test_presentation_validates_letters():
    with pytest.raises(PresentationError):
        Presentation(("a",), (FreeWord((2,)),))


def test_presentation_json_round_trip():
    p = Presentation(("a", "b"), (FreeWord((1, 1)), FreeWord((2, -1))))
    q = Presentation.from_json_obj(p.to_json_obj())
    assert q == p


def test_abelianized_free_rank():
    assert abelianized_free_rank(Presentation(("a",), ())) == 1
    assert abelianized_free_rank(Presentation(("a",), (FreeWord((1, 1, 1)),))) == 0
    assert abelianized_free_rank(
        Presentation(("a", "b"), (FreeWord((1, 2, -1, -2)),))) == 2


# ---------------------------------------------------------------------------
# walk_to_word
# ---------------------------------------------------------------------------

def test_tree_walk_maps_to_empty_word():
    g = path_graph(4)
    t = spanning_tree(g, 0)
    w = Walk((0, 1, 2, 1, 0), ("e0", "e1", "e1", "e0"))
    assert walk_to_word(g, t, 0, w).is_empty()


def test_fundamental_walk_maps_to_single_letter():
    g = cycle_graph(5)
    t = spanning_tree(g, 0)
    chords = [e for e in g.edges if e not in set(t)]
    for i, w in enumerate(fundamental_walks(g, t, 0)):
        word = walk_to_word(g, t, 0, w)
        assert word.letters == (i + 1,)
    assert len(chords) == 1


def test_walk_to_word_needs_closed_walk():
    g = path_graph(3)
    t = spanning_tree(g, 0)
    with pytest.raises(GraphError):
        walk_to_word(g, t, 0, Walk((0, 1), ("e0",)))


def test_walk_to_word_homomorphism_on_random_pairs():
    rng = random.Random(17)
    for _ in range(25):
        g = random_connected_graph(rng, 5, 4)
        t = spanning_tree(g, 0)
        w1 = random_walk(rng, g, 0, rng.randrange(0, 8))
        w2 = random_walk(rng, g, 0, rng.randrange(0, 8))
        # force both closed at 0 by walking back along the reverse
        w1 = w1.concat(w1.reverse())
        w2 = w2.concat(w2.reverse())
        both = walk_to_word(g, t, 0, w1.concat(w2))
        assert both == walk_to_word(g, t, 0, w1) * walk_to_word(g, t, 0, w2)


def test_walk_to_word_factors_through_homotopy():
    # loop-free graphs: walk reduction and the chord homomorphism agree
    rng = random.Random(18)
    for _ in range(25):
        g = random_connected_graph(rng, 5, 4, allow_multi=True)
        t = spanning_tree(g, 0)
        w = random_walk(rng, g, 0, 10)
        w = w.concat(w.reverse())
        r = reduce_walk(g, w)
        assert homotopic(g, w, r)
        assert walk_to_word(g, t, 0, w) == walk_to_word(g, t, 0, r)


# ---------------------------------------------------------------------------
# deck group presentations
# ---------------------------------------------------------------------------

def test_five_cycle_r5_presents_trivial_group():
    g = cycle_graph(5)
    p = deck_group_presentation(g, 5, 0)
    assert len(p.generators) == 1
    assert len(p.relators) == 1
    assert p.relators[0].letters in ((1,), (-1,))
    t = todd_coxeter(p, 100)
    assert t.complete and t.n_cosets() == 1


def test_five_cycle_r4_presents_infinite_cyclic():
    g = cycle_graph(5)
    p = deck_group_presentation(g, 4, 0)
    assert len(p.generators) == 1
    assert len(p.relators) == 0
    t = todd_coxeter(p, 50)
    assert not t.complete


def test_k4_r3_presents_trivial_group():
    g = complete_graph(4)
    p = deck_group_presentation(g, 3, 0)
    assert len(p.generators) == 3
    assert len(p.relators) == 4
    t = todd_coxeter(p, 1000)
    assert t.complete and t.n_cosets() == 1


def test_relator_rowspace_matches_short_cycle_chord_coordinates():
    rng = random.Random(23)
    for _ in range(15):
        g = random_connected_graph(rng, 6, 5, allow_multi=True)
        r = rng.choice((3, 4, 5))
        x0 = 0
        tree = spanning_tree(g, x0)
        chords = [e for e in g.edges if e not in set(tree)]
        cpos = {e: i for i, e in enumerate(chords)}
        p = deck_group_presentation(g, r, x0)
        ours = set(relator_gf2_rowspace(p))
        vecs = []
        for cyc in enumerate_short_cycles(g, r):
            vec = 0
            for e in cyc.edges:
                if e in cpos:
                    vec ^= 1 << cpos[e]
            vecs.append(vec)
        basis = {}
        for vec in vecs:
            for piv, row in basis.items():
                if vec & piv:
                    vec ^= row
            if vec:
                basis[vec & -vec] = vec
        assert ours == set(basis.values())


# ---------------------------------------------------------------------------
# coset enumeration
# ---------------------------------------------------------------------------

def test_cyclic_three():
    p = Presentation(("a",), (FreeWord((1, 1, 1)),))
    t = todd_coxeter(p, 100)
    assert t.complete
    assert t.n_cosets() == 3
    g = table_to_group(t)
    # oracle: the action of a is a 3-cycle, so the group is Z/3
    z3 = FiniteGroup.cyclic(3)
    images = {0: 0}
    a = t.step(0, 1)
    images[a] = 1
    images[t.step(a, 1)] = 2
    for x in range(3):
        for y in range(3):
            assert images[g.op(*(k for k, v in images.items() if v == x),
                               *(k for k, v in images.items() if v == y))] == z3.op(x, y)


def test_free_group_is_undecided():
    p = Presentation(("a",), ())
    t = todd_coxeter(p, 40)
    assert not t.complete


def test_empty_presentation_is_trivial():
    p = Presentation((), ())
    t = todd_coxeter(p, 10)
    assert t.complete and t.n_cosets() == 1


def test_klein_four_from_presentation():
    p = Presentation(("a", "b"),
                     (FreeWord((1, 1)), FreeWord((2, 2)), FreeWord((1, 2, 1, 2))))
    t = todd_coxeter(p, 100)
    assert t.complete and t.n_cosets() == 4
    g = table_to_group(t)
    # brute-force oracle over images of all short words
    for x in range(4):
        assert g.op(x, x) == 0
    assert g.op(g.gen_images[0], g.gen_images[1]) == g.op(g.gen_images[1], g.gen_images[0])


def test_symmetric_group_presentation():
    # <a, b | a^3, b^2, (ab)^2> is S3
    p = Presentation(("a", "b"),
                     (FreeWord((1, 1, 1)), FreeWord((2, 2)), FreeWord((1, 2, 1, 2))))
    t = todd_coxeter(p, 1000)
    assert t.complete and t.n_cosets() == 6


def test_cyclic_orders():
    for n in range(1, 9):
        p = Presentation(("a",), (FreeWord((1,) * n),))
        t = todd_coxeter(p, 500)
        assert t.complete and t.n_cosets() == n


def test_relators_close_everywhere_on_complete_tables():
    rng = random.Random(29)
    for _ in range(10):
        g = random_connected_graph(rng, 5, 3)
        p = deck_group_presentation(g, 3, 0)
        t = todd_coxeter(p, 400)
        if t.complete:
            assert scan_relators_everywhere(t, p)


def test_partial_tables_are_consistent_prefixes():
    # the partial table of the free group on one generator is a path
    p = Presentation(("a",), ())
    t = todd_coxeter(p, 25)
    assert not t.complete
    w = FreeWord((1,))
    seen = set()
    cur = 0
    while cur is not None and cur not in seen:
        seen.add(cur)
        cur = t.step(cur, 1)
    assert len(seen) > 5


def test_word_image():
    p = Presentation(("a",), (FreeWord((1, 1, 1)),))
    t = todd_coxeter(p, 100)
    assert word_image(t, FreeWord()) == 0
    assert word_image(t, FreeWord((1, 1, 1))) == 0
    assert word_image(t, FreeWord((1,))) != 0


def test_empty_presentation_table_gives_trivial_group():
    t = todd_coxeter(Presentation((), ()), 10)
    g = table_to_group(t)
    assert g.order == 1
    assert g.op(0, 0) == 0


def test_table_to_group_requires_complete():
    p = Presentation(("a",), ())
    t = todd_coxeter(p, 20)
    with pytest.raises(PresentationError):
        table_to_group(t)


def test_deterministic_tables():
    p = Presentation(("a", "b"),
                     (FreeWord((1, 1, 1)), FreeWord((2, 2)), FreeWord((1, 2, 1, 2))))
    t1 = todd_coxeter(p, 1000)
    t2 = todd_coxeter(p, 1000)
    assert t1.table == t2.table


def test_finite_group_axiom_checks():
    with pytest.raises(PresentationError):
        FiniteGroup([[0, 1], [1, 1]])
    g = FiniteGroup.cyclic(6)
    assert g.op(4, 5) == 3
    assert g.inverse(2) == 4


def test_trivial_group_with_killed_generator():
    p = Presentation(("s",), (FreeWord((1,)),))
    t = todd_coxeter(p, 10)
    assert t.complete and t.n_cosets() == 1


def test_locality_beyond_longest_cycle_presents_trivial_group():
    # with every cycle short, the deck group collapses completely
    rng = random.Random(37)
    for _ in range(12):
        g = random_connected_graph(rng, rng.randrange(3, 8), rng.randrange(1, 5),
                                   allow_multi=True)
        p = deck_group_presentation(g, len(g.edges), 0)
        t = todd_coxeter(p, 2000)
        assert t.complete and t.n_cosets() == 1


# ---------------------------------------------------------------------------
# snapshots of one enumeration at increasing limits
# ---------------------------------------------------------------------------

def _table_fields(t):
    return (t.table, t.complete, t.limit, t.defined_total)


@st.composite
def small_presentations(draw):
    ngens = draw(st.integers(1, 3))
    letter = st.integers(1, ngens).flatmap(lambda i: st.sampled_from((i, -i)))
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=6), max_size=3))
    return Presentation(["g%d" % i for i in range(ngens)],
                        [FreeWord(w) for w in relators])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_presentations(), st.integers(1, 60), st.integers(1, 120))
def test_snapshots_equal_one_limit_runs(p, low, gap):
    # limits up to 180 cover runs that close below the lower limit, runs
    # that close between the two and runs that stay open past both
    high = low + gap
    snap_low, snap_high = _coset_tables(p, (low, high))
    assert _table_fields(snap_low) == _table_fields(todd_coxeter(p, low))
    assert _table_fields(snap_high) == _table_fields(todd_coxeter(p, high))


def test_snapshots_of_the_empty_presentation_are_complete():
    p = Presentation((), ())
    tables = _coset_tables(p, (1, 2))
    assert [_table_fields(t) for t in tables] == [([[]], True, 1, 1), ([[]], True, 2, 1)]


def test_snapshots_taken_at_one_coset_keep_their_own_limits():
    # one coset's row definitions carry the count past both limits at once
    p = Presentation(("a", "b", "c"), ())
    low, high = _coset_tables(p, (1, 2))
    assert not low.complete and not high.complete
    assert (low.limit, high.limit) == (1, 2)
    assert low.table == high.table == todd_coxeter(p, 1).table
    assert low.defined_total == high.defined_total == todd_coxeter(p, 2).defined_total


def test_coset_limit_below_one_is_refused():
    p = Presentation(("a",), (FreeWord((1, 1)),))
    for limit in (0, -3):
        with pytest.raises(PresentationError):
            todd_coxeter(p, limit)
        with pytest.raises(PresentationError):
            _coset_tables(p, (limit, 2 * limit))
