"""Tests for free words, presentations and coset enumeration."""

import hashlib
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import localdec.localcover as localcover
from localdec.grouppres import (
    CosetTable,
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

from test_graphdec import necklace
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


def test_step_refuses_letters_outside_the_generators():
    # letter 0 used to read column -1, the last generator's inverse entry
    t = CosetTable(("a",), [[0, 0]], True, 1, 1)
    assert t.step(0, 1) == 0 and t.step(0, -1) == 0
    for letter in (0, 2, -2, 5):
        with pytest.raises(PresentationError):
            t.step(0, letter)
    with pytest.raises(PresentationError):
        t.trace(0, FreeWord((1, 2)))


def test_step_refuses_cosets_outside_the_table():
    # coset -1 used to read the last row, and coset n raised a bare IndexError
    ready = CosetTable(("a",), [[1, 1], [0, 0]], True, 2, 2)
    partial = todd_coxeter(Presentation(("a",), ()), 25)
    for t in (ready, partial):
        for coset in (-1, -5, t.n_cosets(), t.n_cosets() + 3):
            with pytest.raises(PresentationError):
                t.step(coset, 1)
            with pytest.raises(PresentationError):
                t.trace(coset, FreeWord((1,)))
    # refused before any full read, too
    for coset in (-1, 10**6):
        with pytest.raises(PresentationError):
            todd_coxeter(Presentation(("a",), ()), 25).step(coset, 1)


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


def test_empty_coset_limits_are_refused():
    p = Presentation(("a",), (FreeWord((1, 1)),))
    with pytest.raises(PresentationError):
        _coset_tables(p, ())


def test_decreasing_coset_limits_are_refused():
    # a later limit below an earlier one would be snapshot past its own
    # limit; equal limits give the same table twice
    p = deck_group_presentation(necklace(4), 3, "g0")
    with pytest.raises(PresentationError):
        _coset_tables(p, (200, 100))
    low, high = _coset_tables(p, (100, 100))
    assert _table_fields(low) == _table_fields(high) == _table_fields(todd_coxeter(p, 100))


def _entries_pair_up(t):
    return all(t.table[b][c ^ 1] == a
               for a, row in enumerate(t.table)
               for c, b in enumerate(row) if b >= 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_presentations(), st.integers(1, 60), st.integers(0, 120))
def test_snapshot_entries_pair_up(p, low, gap):
    assert all(_entries_pair_up(t) for t in _coset_tables(p, (low, low + gap)))


def test_necklace_snapshot_entries_pair_up():
    for n in (4, 6):
        p = deck_group_presentation(necklace(n), 3, "g0")
        assert all(_entries_pair_up(t) for t in _coset_tables(p, (3000, 6000)))


def _pinned_cases():
    """Necklace deck groups, deck groups of seeded random graphs and
    seeded random presentations, with the limits of their snapshots."""
    for n in (4, 6):
        p = deck_group_presentation(necklace(n), 3, "g0")
        for limits in ((3000, 6000), (20000, 40000)):
            yield "necklace%d-%d" % (n, limits[0]), p, limits
    rng = random.Random(1)
    for i in range(10):
        g = random_connected_graph(rng, rng.randrange(5, 12), rng.randrange(2, 6))
        yield "graph%d" % i, deck_group_presentation(g, 3 + i % 2, 0), (20, 200)
    rng = random.Random(2)
    for i in range(10):
        ngens = rng.randrange(2, 4)
        words = [[rng.choice((1, -1)) * rng.randrange(1, ngens + 1)
                  for _ in range(rng.randrange(2, 9))]
                 for _ in range(rng.randrange(2, 4))]
        p = Presentation(["g%d" % j for j in range(ngens)], [FreeWord(w) for w in words])
        yield "words%d" % i, p, (20, 200)


# sha256 of repr((table, complete, limit, defined_total)) of both snapshots
PINNED_TABLE_HASHES = {
    "necklace4-3000": ("017f6d12152b93e9ffccaae27c4d39136024ef0d74e6724136fbd24b47a891db",
                      "740a332d617fe0891f88a94a1ddcf6f0673275eb3c827bc335f05a3c4d7354a1"),
    "necklace4-20000": ("e268635ebf97905f654d51df41d3b2fe9b167a0b17b41c4c16bdd0761ad489d8",
                       "f8fe996f4212c39ce27761e5ac77a7b4701b56b840cd16e53f09614229a91bf8"),
    "necklace6-3000": ("1e30409ae5a3ba55e9449388b50b021b516ecb9568466bd86067bb3102af34b6",
                      "fe16129f8129c328f3e9571c4cd63c81e359f49d0bf4ce1b9a89184b9d485403"),
    "necklace6-20000": ("f495a08d7e346636db630002229f032ece54e97cf4d76aba66a81f7dafd8f972",
                       "5e3a4727a64dd71e4ef76bcb05afa7930acca788c5d421baa0feb62e37a0313a"),
    "graph0": ("8332e30195adef5675378ec0f411b20c399866ddc0d56dcc6605e96aa2251dbf",
              "e30cc730d174a0a1c22f73b64c22e6ac213f58ff96224d26f0ef3b3c9f8617de"),
    "graph1": ("ea006f0b66aa43d05416375ab98434768ad001a17c3a8fe3f902e1a136fcd651",
              "2968d524af36c9e9c44139566a3043085c411b5485df226a46997bcbeea1f96a"),
    "graph2": ("b5f0b8fedce9ac3e33133e2243b933d2f548591d16c95d6a62a33ca45626e748",
              "1f91fe72b930a2111c903b2573cea0063226011c5b7af7a078eb37047a6b900b"),
    "graph3": ("cc54609c68a36afaabb74b13397b22923932007595d9154fc2800b7d37f6df90",
              "397fedee9119d8eab0b2974bb2e1ac4b50a8917c42d033aeb49360e8ed7028da"),
    "graph4": ("b6de99acd210661db9e0127c5a76ba4b9c123becb530fcdb5bb7594d7423ca1f",
              "0e28babd7e65a72eee2fb116fc25a44832fd2ba04ce806221e007c67ba27ff68"),
    "graph5": ("ea006f0b66aa43d05416375ab98434768ad001a17c3a8fe3f902e1a136fcd651",
              "2968d524af36c9e9c44139566a3043085c411b5485df226a46997bcbeea1f96a"),
    "graph6": ("b5f0b8fedce9ac3e33133e2243b933d2f548591d16c95d6a62a33ca45626e748",
              "1f91fe72b930a2111c903b2573cea0063226011c5b7af7a078eb37047a6b900b"),
    "graph7": ("8a9b53da700720e91acda4d305160f960babdebf35c685887930707ab196f4d2",
              "eb1f316b5514bd6019c6149f059c19f4eb4bfc06d43da915f86b2262544e984e"),
    "graph8": ("ea006f0b66aa43d05416375ab98434768ad001a17c3a8fe3f902e1a136fcd651",
              "2968d524af36c9e9c44139566a3043085c411b5485df226a46997bcbeea1f96a"),
    "graph9": ("b5f0b8fedce9ac3e33133e2243b933d2f548591d16c95d6a62a33ca45626e748",
              "1f91fe72b930a2111c903b2573cea0063226011c5b7af7a078eb37047a6b900b"),
    "words0": ("66eb77cd85712c8c01b5e2a50c4b3b235eb554b52ff3e664b9a31833f0e52993",
              "f783e6ee425f9a894034e1176b234114395b0687d62e84af97fde9a66f04034c"),
    "words1": ("ed22cc1e7d07ce692c253f44a77fa8fd9a54eed3e0571415e742b6b86ac3fbb1",
              "e611a19dfb31e3de052f5aace1ffb52bf84e123768ec18e81116bb54c34a5573"),
    "words2": ("e000c84924066b28555be7d2e284f5f93e3f94c4c0be7a95221b6233fc120b37",
              "1213d8e87620a553bde33d7791ec609ef3128270b447103ac732b9eb2bd3e78a"),
    "words3": ("9fb25e5253063b9fc316d4de89b051a3ec92ea1adee1318a2b66c437e9ee85c4",
              "c84d3ec76dadd297471c09db029590235ce048c8cf8dff35dbb4ac767df8dcfd"),
    "words4": ("f1555e35e346282457d7dc635200f92ef82682a2df0014fd77a2c3a2a8c64819",
              "db70113cf9ad8500c9dbd0958cd9f88e20449cb2a359c7d45be0fab5efbee784"),
    "words5": ("f7c4ae8e831e6516b7fb9ef00bf2375af999f8eeef83a8e48b67a89052deac12",
              "8ec437e62bfc95047b2d096abd1bcf959d559adf7408ee8e3126fb379f6f2de1"),
    "words6": ("4de0a56f811fdfb3624a5306886720a40defbcd400e7214d91b59441150be7a9",
              "2e6b465811d9f1bc810eaa3382135f1f2e792c5ed374106076ca55e1b50f49b6"),
    "words7": ("6ffefd839273273ec16a881877e8164822fdf2adf82354034ef7570718af8afe",
              "fb3fc9d548713b29eded18a45f7ef23f1cc30c2329bc216ca489ccffec3699dd"),
    "words8": ("3f1111e202882a0f12656c0342a97ae1e9ec03302dc191c713f5dec9967fe345",
              "329fac2f77095a405cd25e8328775c3e58c9b4209151e27dadf837cb29a368d7"),
    "words9": ("5f4c584afe71c71956762f94a2504ab9724cc360c6df30e516964244878e265c",
              "332b38dae8ec901d28a878d7ff78d52ab4b0861b996f6e61b7d7c735037d3049"),
}


def test_pinned_coset_tables():
    # hashes recorded from an earlier implementation of the coincidence
    # step (lazy union-find reads), so that a rewrite of the enumeration is
    # refereed by something other than itself
    got = {}
    for name, p, limits in _pinned_cases():
        got[name] = tuple(
            hashlib.sha256(repr(_table_fields(t)).encode()).hexdigest()
            for t in _coset_tables(p, limits))
    assert got == PINNED_TABLE_HASHES


def _default_limit_cases():
    """The enumerations of the `cover` workload at the default coset limit
    and twice it, and two coincidence-heavy presentations: the Fibonacci
    group F(2,5), cyclic of order 11, and <a, b | aba^-1b^-2, bab^-1a^-2>,
    which is trivial."""
    for n in (4, 6):
        p = deck_group_presentation(necklace(n), 3, "g0")
        yield "necklace%d" % n, p, (100000, 200000)
    # x_i x_{i+1} = x_{i+2}, indices mod 5
    fibonacci = [FreeWord((i + 1, (i + 1) % 5 + 1, -((i + 2) % 5 + 1))) for i in range(5)]
    yield "fibonacci-2-5", Presentation("abcde", fibonacci), (20, 200)
    trivial = [FreeWord((1, 2, -1, -2, -2)), FreeWord((2, 1, -2, -1, -1))]
    yield "trivial-2", Presentation("ab", trivial), (20, 200)


# sha256 of repr((table, complete, limit, defined_total)) of both snapshots
PINNED_DEFAULT_LIMIT_HASHES = {
    "necklace4": ("dadf9886e7315cc40c838638537a3fd10a9a3f1a6c65d50b71d934c69eabae7a",
                  "4a9c53fa4bfdcd8a438940c1b443270c32d4683df7ca0897a0293c6487b694a8"),
    "necklace6": ("1f65a746ff52c4cd64bf2120fb0389936522375b6164aaf7128fec0486fbf89c",
                  "2dfcf65c1ea01d702fc07d7927b2e40a79c8984257aca1f4c767d912baf9dced"),
    "fibonacci-2-5": ("cdbe0bb3ab581127817bbea833bbf3d04eefe259d7215a12337a359d98f89de3",
                      "cab5c0ead2ee26f8ec90b97fbd7c619625ed1f1f55d8a06a76d4cc539ccede4e"),
    "trivial-2": ("59871726b4aff54b4d432e161770135e3d83d27a46d6ad9e323d0344347fa46c",
                  "f44adbf953a3997ae986fcd5dc831b4fff25f3829f1e2b22f77f87995e0d21a7"),
}


def test_pinned_default_limit_tables():
    # hashes recorded from the enumeration that called a function per
    # relator scan, per definition and per find, before it ran in one frame
    got = {}
    shapes = {}
    for name, p, limits in _default_limit_cases():
        tables = _coset_tables(p, limits)
        got[name] = tuple(hashlib.sha256(repr(_table_fields(t)).encode()).hexdigest()
                          for t in tables)
        shapes[name] = [(t.n_cosets(), t.complete, t.defined_total) for t in tables]
    assert shapes["fibonacci-2-5"][1] == (11, True, 165)
    assert shapes["trivial-2"] == [(1, True, 12), (1, True, 12)]
    assert got == PINNED_DEFAULT_LIMIT_HASHES


def test_rows_read_through_step_equal_the_full_table():
    # reads in scrambled order standardize only up to the highest row read;
    # reading the 2L snapshot to the end leaves the L snapshot intact
    for name, p, limits in _default_limit_cases():
        low, high = _coset_tables(p, limits)
        letters = [s * (i + 1) for i in range(len(p.generators)) for s in (1, -1)]
        read, refused = {}, []
        for t in (high, low):
            for coset in (6, 0, 3, 1, 5, 2, 4):
                try:
                    read[t, coset] = [t.step(coset, a) for a in letters]
                except PresentationError:
                    refused.append((t, coset))
            if name.startswith("necklace"):
                # rows 0-6 of thousands are standardized
                assert len(t._rows) == 7 and t._raw is not None
        assert len(high.table) == high.n_cosets()
        assert _table_fields(low) == _table_fields(todd_coxeter(p, limits[0]))
        for (t, coset), entries in read.items():
            assert [None if b < 0 else b for b in t.table[coset]] == entries, name
        assert all(coset >= t.n_cosets() for t, coset in refused), name


def test_local_cover_standardizes_only_the_rows_its_balls_read(monkeypatch):
    # the L and 2L snapshots of necklace(4) have 13,333 and 26,667 rows;
    # the balls step from cosets 0-6 of each
    taken = []

    def coset_tables(p, limits):
        taken.extend(_coset_tables(p, limits))
        return taken

    monkeypatch.setattr(localcover, "_coset_tables", coset_tables)
    g = necklace(4)
    tc = localcover.local_cover(g, 3)
    assert tc.certified
    read = [len(t._rows) for t in taken]
    tc2 = localcover._build_ball(g, taken[1], tc._chord_letter, g.vertices[0], tc.radius, 3)
    assert [len(t._rows) for t in taken] == read
    assert read == [1 + max(c for _, c in ball._coord.values()) for ball in (tc, tc2)]
    assert read == [7, 7]
    assert [t.n_cosets() for t in taken] == [13333, 26667]
