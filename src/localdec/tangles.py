"""Separations, tangles, k-blocks and the canonical nested separation set.

Vertex sets are bitmasks over the canonical vertex order of the host
graph.  A side of a separation is the subgraph induced on its vertex
mask, so the vertex mask is the only stored form of a side; its edge mask
(`Multigraph.edge_mask_within`) is computed only where a cover test reads
it.  The tangle condition (no three chosen small sides cover the graph)
is checked on unions of those masks.  Only the maximal chosen small sides
can matter for such unions, so the backtracking search keeps an
antichain of maximal small sides instead of the full choice list.
Covering pairs also witness every inconsistency, hence no separate
consistency check is needed during the search (it is asserted
afterwards).

In a k-tangle, two small sides with the same separator X have a small
union: otherwise the two sides and the other side of their union cover
the graph.  So the big sides with separator X meet in X plus exactly one
component beta(X) of G - X, and the tangle is the choice X -> beta(X),
the haven form of a tangle (Robertson and Seymour, Graph Minors X).  The
search picks one component per separator, and the small side
G[V - beta(X)] contains every other small side with separator X.  Every
such side is an induced subgraph.  When it lies inside a chosen maximal
small side, every other component's side covers the graph together with
that member, so beta(X) is the only branch.

The choice string of a tangle (one byte per sorted separation) is built
per separator: the separations with separator X form one block, oriented
by a byte pattern fixed by beta(X), and one gather through positions the
universe records once puts the joined patterns in sorted order.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Optional

from localdec.multigraph import GraphError, InvariantError, Multigraph, _components_masks


class BudgetError(GraphError):
    """Exhaustive enumeration would exceed the configured budget."""


@dataclass(frozen=True, slots=True)
class Separation:
    """Unordered pair {A, B} of vertex masks with A | B = V and no edge across."""

    a_mask: int
    b_mask: int
    full: int

    @property
    def separator(self) -> int:
        return self.a_mask & self.b_mask

    @property
    def order(self) -> int:
        return (self.a_mask & self.b_mask).bit_count()

    @property
    def proper(self) -> bool:
        return self.a_mask != self.full and self.b_mask != self.full

    def oriented(self, flipped: bool) -> tuple:
        return (self.b_mask, self.a_mask) if flipped else (self.a_mask, self.b_mask)

    def sides(self, g: Multigraph) -> tuple:
        return (g.vertices_of_mask(self.a_mask), g.vertices_of_mask(self.b_mask))

    def to_json_obj(self, g: Multigraph) -> list:
        a, b = self.sides(g)
        return [[str(v) for v in a], [str(v) for v in b]]


def oriented_le(first1: int, second1: int, first2: int, second2: int) -> bool:
    """(A,B) <= (C,D) iff A is contained in C and B contains D."""
    return (first1 | first2) == first2 and (second1 | second2) == second1


def _nested_masks(a: int, b: int, c: int, d: int) -> bool:
    """Are {A, B} and {C, D} nested: (A,B) <= (C,D) or (D,C), or (B,A) <= (C,D)
    or (D,C)?  The other four orientation pairs are these read backwards."""
    return (not (a & ~c or d & ~b) or not (a & ~d or c & ~b)
            or not (b & ~c or d & ~a) or not (b & ~d or c & ~a))


def _sorted_pair(a: int, b: int) -> tuple:
    """A separation's identity: its unordered pair of side masks, in order."""
    return (a, b) if a <= b else (b, a)


def nested(s: Separation, t: Separation) -> bool:
    """Two separations are nested when some orientations are comparable."""
    return _nested_masks(s.a_mask, s.b_mask, t.a_mask, t.b_mask)


def crossing(s: Separation, t: Separation) -> bool:
    return not nested(s, t)


def _check_budget(n: int, max_order: int, budget: int) -> None:
    """Refuse more separator candidates of order < max_order than `budget`."""
    total = sum(comb(n, size) for size in range(0, min(max_order, n + 1)))
    if total > budget:
        raise BudgetError(
            "enumerating %d separator candidates exceeds the budget of %d; "
            "lower the order or raise the budget" % (total, budget))


def _sorted_sides(g: Multigraph, max_order: int, include_improper: bool,
                  low: int = 0, base: int = 0):
    """Every separation of order in [low, max_order) (the improper ones
    only if requested) as (a, b, position) with side vertex masks a <= b,
    sorted by (order, a, b); the order boundaries: ends[o - low]
    separations have order < o; and every separator X of order in
    [low, max_order) that leaves at least two components, as
    (X, components of G - X), by |X|.

    A separation with separator X is a choice of a bipartition of the
    components c_0..c_{c-1} of G - X, each side being X plus its components:
    pick p < m = 2^(c-1) - 1 puts c_0 and each c_j with bit j - 1 of p set
    on side a.  X owns the next block of 2m positions, the first block
    starting at `base`; pick p sits at p if a <= b, else at m + p.
    Improper separations get position 0.
    """
    bits = g.bits()
    vall, adj = bits.vall, bits.adj
    n = len(g.vertices)
    out = []
    ends = [0]
    separators = []
    for size in range(low, min(max_order, n + 1)):
        bucket = []
        for combo in combinations(range(n), size):
            x = 0
            for i in combo:
                x |= 1 << i
            comps = _components_masks(adj, vall & ~x)
            if len(comps) >= 2:
                separators.append((x, tuple(comps)))
                m = (1 << (len(comps) - 1)) - 1
                sides = [comps[0] | x]
                for p in range(1, m):
                    # p without its lowest bit, plus that bit's component
                    sides.append(sides[p & (p - 1)] | comps[(p & -p).bit_length()])
                for p, a in enumerate(sides):
                    b = (vall & ~a) | x
                    bucket.append((a, b, base + p) if a <= b else (b, a, base + m + p))
                base += 2 * m
            if include_improper:
                bucket.append((x, vall, 0))
        bucket.sort()
        # copy the shorter list into the longer one, to keep the peak low
        if len(bucket) > len(out):
            bucket[:0] = out
            out = bucket
        else:
            out += bucket
        ends.append(len(out))
    return out, ends, separators


def enumerate_separations(g: Multigraph, max_order: int,
                          include_improper: bool = False,
                          budget: int = 5_000_000):
    """Every separation of order < max_order, each once, canonically sorted.

    A separation with separator X is a choice of a bipartition of the
    components of G - X; improper ones (a side equal to V) are skipped
    unless requested.  Sorted by (order, side masks), so the list for a
    smaller max_order is a prefix of the list for a larger one.
    """
    _check_budget(len(g.vertices), max_order, budget)
    full = g.bits().vall
    sides, _, _ = _sorted_sides(g, max_order, include_improper)
    return [Separation(a, b, full) for a, b, _ in sides]


def is_tight(g: Multigraph, s: Separation) -> bool:
    """Both sides carry a component whose neighbourhood is the whole separator."""
    bits = g.bits()
    x = s.separator
    comps = _components_masks(bits.adj, bits.vall & ~x)
    x_adj = [a for i, a in enumerate(bits.adj) if x >> i & 1]

    def witness(side_mask: int) -> bool:
        return any(all(a & comp for a in x_adj) for comp in comps if not comp & ~side_mask)

    return witness(s.a_mask) and witness(s.b_mask)


# ---------------------------------------------------------------------------
# the separation universe shared by tangle computations
# ---------------------------------------------------------------------------

class SeparationUniverse:
    """All proper separations of order < max_order, and their separators
    with the components each one leaves.  `_perm[i]` is the block position
    of separation i (see `_sorted_sides`); blocks are laid out by |X|, so
    the separations of order < k have their positions in a prefix."""

    __slots__ = ("graph", "max_order", "seps", "separators", "_ends", "_perm",
                 "_side_data")

    def __init__(self, g: Multigraph, max_order: int, budget: int = 5_000_000):
        _check_budget(len(g.vertices), max_order, budget)
        self.graph = g
        self.max_order = max_order
        seps, self._ends, self.separators = _sorted_sides(g, max_order, False)
        self._perm = array("I", map(itemgetter(2), seps))
        full = g.bits().vall
        # replace the records in place, so that the two lists never coexist
        for i, (a, b, _) in enumerate(seps):
            seps[i] = Separation(a, b, full)
        self.seps = seps
        self._side_data = None

    @property
    def side_data(self) -> list:
        """Per separation, ((a, edges in a), (b, edges in b)); built on the
        first read and kept.  Nothing in the library reads it."""
        if self._side_data is None:
            within = self.graph.edge_mask_within
            self._side_data = [((s.a_mask, within(s.a_mask)), (s.b_mask, within(s.b_mask)))
                               for s in self.seps]
        return self._side_data

    def _grow(self) -> None:
        """Add the separations of order max_order, as the next size bucket
        of `_sorted_sides` with its blocks after the ones already laid out,
        and one to max_order: the records of the one-pass build."""
        k = self.max_order
        base = sum((1 << len(comps)) - 2 for _, comps in self.separators)
        seps, ends, separators = _sorted_sides(self.graph, k + 1, False, k, base)
        self._perm.extend(map(itemgetter(2), seps))
        self._ends += [len(self.seps) + e for e in ends[1:]]
        full = self.graph.bits().vall
        self.seps += [Separation(a, b, full) for a, b, _ in seps]
        self.separators += separators
        self.max_order = k + 1
        self._side_data = None

    def prefix_len(self, k: int) -> int:
        """Number of separations of order < k (a prefix of the sorted list)."""
        return self._ends[min(max(k, 0), len(self._ends) - 1)]


@dataclass(frozen=True)
class Tangle:
    """Orientation of all separations of order < `order`, as a choice string.

    choices[i] = 0 means the small side of separation i is its A side
    (the tangle points towards B), 1 the other way round.
    """

    universe: SeparationUniverse
    order: int
    choices: bytes

    def __eq__(self, other):
        return (isinstance(other, Tangle)
                and self.universe is other.universe
                and self.order == other.order
                and self.choices == other.choices)

    def __hash__(self):
        return hash((id(self.universe), self.order, self.choices))

    def restriction(self, k: int) -> "Tangle":
        if k > self.order:
            raise GraphError("cannot restrict to a larger order")
        return Tangle(self.universe, k, self.choices[: self.universe.prefix_len(k)])

    def home_mask(self) -> int:
        """Intersection of all big sides (may be empty)."""
        m = self.universe.graph.bits().vall
        for s, c in zip(self.universe.seps, self.choices):
            m &= s.oriented(c)[1]
        return m

    def to_json_obj(self) -> dict:
        g = self.universe.graph
        orient = {}
        for i in range(len(self.choices)):
            sep = self.universe.seps[i]
            key = json.dumps(sep.to_json_obj(g))
            orient[key] = int(self.choices[i])
        return {"order": self.order, "orientation": orient}


def _edge_end_masks(g: Multigraph) -> list:
    """Per edge, the vertex mask of its ends."""
    return [(1 << iu) | (1 << iv) for iu, iv in g.bits().epairs]


def _residual_fits_sets(bits, eends, cap: int, vu: int, eu: int, parts: int) -> bool:
    """Can everything outside (vu, eu) be covered by `parts` many subgraphs
    G[X_i] with |X_i| <= cap each?  Each missing edge must land inside one
    part; missing vertices may go anywhere with spare capacity."""
    vm = bits.vall & ~vu
    if vm.bit_count() > parts * cap:
        return False
    em = bits.eall & ~eu
    edge_masks = []
    wall = vm
    while em:
        b = em & -em
        m = eends[b.bit_length() - 1]
        edge_masks.append(m)
        wall |= m
        if wall.bit_count() > parts * cap:
            return False
        em ^= b
    if parts == 1:
        return True  # the loop above has checked the one part
    groups = [0] * parts

    def rec(i: int) -> bool:
        if i == len(edge_masks):
            spare = sum(cap - gm.bit_count() for gm in groups)
            left = vm
            for gm in groups:
                left &= ~gm
            return left.bit_count() <= spare
        m = edge_masks[i]
        used_empty = False
        for j in range(parts):
            if groups[j] == 0:
                if used_empty:
                    break
                used_empty = True
            new = groups[j] | m
            if new.bit_count() > cap:
                continue
            old = groups[j]
            groups[j] = new
            if rec(i + 1):
                groups[j] = old
                return True
            groups[j] = old
        return False

    return rec(0)


def _no_tangles_at_all(g: Multigraph, k: int) -> bool:
    """Three forced small sides G[X], |X| < k, cover the graph on their own."""
    bits = g.bits()
    eends = _edge_end_masks(g)
    return _residual_fits_sets(bits, eends, k - 1, 0, 0, 3)


def _dominant_component(ant, comps, vall: int) -> int:
    """The index of the component c whose side G[V - c] lies in a member
    of the antichain, or -1.  Sides are induced subgraphs, so vertex
    containment decides."""
    for av, _ in ant:
        for j, c in enumerate(comps):
            if (av | c) == vall:
                return j
    return -1


@lru_cache(maxsize=16)
def _choice_patterns(c: int) -> tuple:
    """Per component j of c, the choice bytes of the block when beta is
    component j: per pick, 1 if j = 0, else bit j - 1; then complemented."""
    m = (1 << (c - 1)) - 1
    heads = [[1] * m] + [[p >> (j - 1) & 1 for p in range(m)] for j in range(1, c)]
    return tuple(bytes(head + [1 - b for b in head]) for head in heads)


def _tangles_over_prefix(uni: SeparationUniverse, k: int):
    """The choice strings of all k-tangles, sorted.

    The search picks a component beta(X) for each separator X of order < k,
    by increasing |X|, and keeps the antichain of maximal small sides
    G[V - beta(X)] picked so far.  The triple condition quantifies over all
    of S_k, including the improper separations (X, V) whose orientation is
    forced with small side X.  Three kinds of checks remain after fixing
    the forced part: no three picked small sides cover the graph (checked
    on the antichain), no two picked ones together with some G[X] cover it
    (the residual of their union must not fit in one X with |X| < k), and
    no picked one together with two G[X] covers it, which does not depend
    on the other picks.  Triples of forced sides alone are ruled out once,
    up front.  Separation i gets choice 0 exactly when beta of its
    separator lies in its B side.

    Each pick keeps its block's byte pattern; at a leaf the joined
    patterns gather through `_perm`, one step per separator, not per
    separation.
    """
    g = uni.graph
    if _no_tangles_at_all(g, k):
        return []
    bits = g.bits()
    vall, eall = bits.vall, bits.eall
    eends = _edge_end_masks(g)
    cap = k - 1
    separators = [s for s in uni.separators if s[0].bit_count() < k]
    end = len(separators)
    patterns = {c: _choice_patterns(c) for c in {len(cs) for _, cs in separators}}
    perm = uni._perm[: uni.prefix_len(k)]
    # itemgetter returns a bare item, not a tuple, for a single index
    gather = itemgetter(*perm) if len(perm) > 1 else lambda s: [s[i] for i in perm]
    # per separator, the edge mask of each side G[V - beta], or None when
    # that side plus two forced sides covers the graph; filled on first use
    side_edges = [None] * end
    picks = [b""] * end        # the pattern of the component picked at each depth
    nexts = [0] * end          # the next component to try there, 0 on entry
    ants = [[]] + [None] * end  # the maximal small sides (v, e) on entry
    results = []

    def admissible(ant, v: int, e: int) -> bool:
        opts = ant + [(v, e)]
        for j, (vj, ej) in enumerate(opts):
            v2 = v | vj
            e2 = e | ej
            # two picked small sides plus one forced one
            if _residual_fits_sets(bits, eends, cap, v2, e2, 1):
                return False
            for vl, el in opts[j:]:
                if (v2 | vl) == vall and (e2 | el) == eall:
                    return False
        return True

    depth = 0
    while depth >= 0:
        if depth == end:
            results.append(bytes(gather(b"".join(picks))))
            depth -= 1
            continue
        ant = ants[depth]
        comps = separators[depth][1]
        i = nexts[depth]
        if i == 0:
            dominant = _dominant_component(ant, comps, vall)
            if dominant >= 0:
                # its side lies in a member, so it is the only branch
                picks[depth] = patterns[len(comps)][dominant]
                nexts[depth] = len(comps)
                ants[depth + 1] = ant
                depth += 1
                continue
            if side_edges[depth] is None:
                edges = [g.edge_mask_within(vall & ~c) for c in comps]
                side_edges[depth] = [
                    None if _residual_fits_sets(bits, eends, cap, vall & ~c, e, 2) else e
                    for c, e in zip(comps, edges)]
        while i < len(comps):
            c, e = comps[i], side_edges[depth][i]
            i += 1
            v = vall & ~c
            if e is not None and admissible(ant, v, e):
                picks[depth] = patterns[len(comps)][i - 1]
                nexts[depth] = i
                ants[depth + 1] = [m for m in ant if (m[0] | v) != v] + [(v, e)]
                depth += 1
                break
        else:
            nexts[depth] = 0
            depth -= 1
    results.sort()
    return results


def _universe(g_or_universe, k: int) -> SeparationUniverse:
    """The given universe, refused unless it holds every separation of
    order < k, or a fresh universe of order k over the given graph."""
    if not isinstance(g_or_universe, SeparationUniverse):
        return SeparationUniverse(g_or_universe, k)
    if k > g_or_universe.max_order:
        raise GraphError("universe only covers orders up to %d" % g_or_universe.max_order)
    return g_or_universe


def enumerate_tangles(g_or_universe, k: int):
    """All k-tangles, sorted by their choice strings."""
    uni = _universe(g_or_universe, k)
    out = [Tangle(uni, k, ch) for ch in _tangles_over_prefix(uni, k)]
    for t in out:
        assert_consistent(t)
    return out


def _maximal_small_sides(t: Tangle) -> list:
    """The (vertex, edge) masks of the small sides of t that lie in no
    other small side.  Sides are induced subgraphs, so vertex containment
    decides, and only the maxima need their edge masks."""
    maxima = []
    for s, c in zip(t.universe.seps, t.choices):
        v = s.oriented(c)[0]
        if any((v | av) == av for av in maxima):
            continue
        maxima = [av for av in maxima if (av | v) != v]
        maxima.append(v)
    within = t.universe.graph.edge_mask_within
    return [(v, within(v)) for v in maxima]


def assert_consistent(t: Tangle) -> None:
    """Tangles are consistent; verify it on the maximal small sides."""
    maxima = _maximal_small_sides(t)
    bits = t.universe.graph.bits()
    for (v1, e1), (v2, e2) in combinations(maxima, 2):
        if (v1 | v2) == bits.vall and (e1 | e2) == bits.eall:
            raise GraphError("tangle is inconsistent: two small sides cover the graph")


# ---------------------------------------------------------------------------
# k-blocks
# ---------------------------------------------------------------------------

def enumerate_blocks(g: Multigraph, k: int, budget: int = 5_000_000):
    """All k-blocks: maximal sets of >= k vertices never split by S_k.

    Found by recursively splitting V along separations that cut the
    current candidate set, then keeping the maximal unsplit leaves.
    """
    uni = SeparationUniverse(g, k, budget=budget)
    seps = uni.seps[: uni.prefix_len(k)]
    bits = g.bits()
    leaves = set()
    seen = set()
    stack = [bits.vall]
    while stack:
        cand = stack.pop()
        if cand in seen:
            continue
        seen.add(cand)
        if len(seen) > budget:
            raise BudgetError("block search budget exceeded")
        split = None
        for s in seps:
            if cand & ~s.a_mask and cand & ~s.b_mask:
                split = s
                break
        if split is None:
            if cand.bit_count() >= k:
                leaves.add(cand)
        else:
            stack.append(cand & split.a_mask)
            stack.append(cand & split.b_mask)
    blocks = [m for m in leaves
              if not any(m != o and (m | o) == o for o in leaves)]
    blocks.sort()
    return [g.vertices_of_mask(m) for m in blocks]


def block_tangle(g_or_universe, block, k: int) -> Tangle:
    """The orientation towards a k-block, provided the block is big enough.

    Blocks of size at most 3(k-1)/2 are refused: only above that threshold
    is the orientation guaranteed to be a tangle.
    """
    uni = _universe(g_or_universe, k)
    g = uni.graph
    x = g.vertex_mask(block)
    if 2 * x.bit_count() <= 3 * (k - 1):
        raise GraphError("block of size %d is too small for order %d" %
                         (x.bit_count(), k))
    count = uni.prefix_len(k)
    choices = bytearray(count)
    for i in range(count):
        s = uni.seps[i]
        in_a = (x | s.a_mask) == s.a_mask
        in_b = (x | s.b_mask) == s.b_mask
        if in_a == in_b:
            raise GraphError("set is not a k-block: a separation splits it")
        # small side is the one not containing the block
        choices[i] = 0 if in_b else 1
    t = Tangle(uni, k, bytes(choices))
    _assert_triple_condition(t)
    assert_consistent(t)
    return t


def _assert_triple_condition(t: Tangle) -> None:
    g = t.universe.graph
    bits = g.bits()
    eends = _edge_end_masks(g)
    cap = t.order - 1
    if _no_tangles_at_all(g, t.order):
        raise GraphError("three forced small sides cover the graph")
    opts = _maximal_small_sides(t)
    for i1 in range(len(opts)):
        v1, e1 = opts[i1]
        if _residual_fits_sets(bits, eends, cap, v1, e1, 2):
            raise GraphError("a small side plus two forced sides covers the graph")
        for i2 in range(i1, len(opts)):
            v2 = v1 | opts[i2][0]
            e2 = e1 | opts[i2][1]
            if _residual_fits_sets(bits, eends, cap, v2, e2, 1):
                raise GraphError("two small sides plus a forced side cover the graph")
            for i3 in range(i2, len(opts)):
                v = v2 | opts[i3][0]
                e = e2 | opts[i3][1]
                if v == bits.vall and e == bits.eall:
                    raise GraphError("three small sides cover the graph")


# ---------------------------------------------------------------------------
# distinguishing separations
# ---------------------------------------------------------------------------

def distinguishers(t1: Tangle, t2: Tangle):
    """(all separations the two tangles orient differently, the efficient ones).

    Efficient means of minimum order among the distinguishers.  Tangles of
    different orders are compared on their common domain; an
    indistinguishable pair yields two empty lists.
    """
    if t1.universe is not t2.universe:
        raise GraphError("tangles live in different separation universes")
    uni = t1.universe
    common = min(len(t1.choices), len(t2.choices))
    alldiff = [i for i in range(common) if t1.choices[i] != t2.choices[i]]
    eff = _efficient_distinguisher_indices(uni, t1, t2)
    return ([uni.seps[i] for i in alldiff], [uni.seps[i] for i in eff])


def _efficient_distinguisher_indices(uni: SeparationUniverse, t1: Tangle, t2: Tangle):
    """Indices of the efficient distinguishers, scanning order classes lazily."""
    common = min(len(t1.choices), len(t2.choices))
    c1, c2 = t1.choices, t2.choices
    for i, j in zip(uni._ends, uni._ends[1:]):
        if i >= common:
            break
        j = min(j, common)
        if c1[i:j] != c2[i:j]:
            return [x for x in range(i, j) if c1[x] != c2[x]]
    return []


# ---------------------------------------------------------------------------
# the canonical nested set
# ---------------------------------------------------------------------------

@dataclass
class NestedSet:
    """Nested separations with tags recording which tangle pairs each one
    distinguishes efficiently."""

    universe: SeparationUniverse
    indices: tuple
    tags: dict
    tangles: tuple
    max_tangle_order: int
    invariance_checked: Optional[bool]

    @property
    def separations(self) -> tuple:
        return tuple(self.universe.seps[i] for i in self.indices)

    def __len__(self):
        return len(self.indices)

    def to_json_obj(self) -> dict:
        g = self.universe.graph
        return {
            "max_tangle_order": self.max_tangle_order,
            "tangle_count": len(self.tangles),
            "separations": [self.universe.seps[i].to_json_obj(g) for i in self.indices],
            "invariance_checked": self.invariance_checked,
            "core_filtered": False,  # a fixed key of the output format
        }


def canonical_nested_set(g_or_universe, max_tangle_order: int,
                         automorphism_budget: int = 200_000,
                         check_invariance: bool = True, group=None) -> NestedSet:
    """Union over distinguishable tangle pairs of their efficient
    distinguishers crossing the fewest members of the distinguisher pool.

    Tangles of orders 1..max_tangle_order are used.  A k-tangle restricts
    to a (k-1)-tangle: its small sides of order < k - 1 are some of its
    small sides, and the forced sides G[X] with |X| < k - 1 some of those
    with |X| < k, so no three of them cover G.  So the search stops at the
    first order without a tangle; given a graph, the universe grows one
    order at a time up to there (`ns.universe.max_order` may stay below
    max_tangle_order), and the budget is charged for max_tangle_order.

    Asserts on the result: pairwise nestedness, efficient distinguishing
    of every distinguishable pair, tightness of every member, and (budget
    permitting) invariance under the automorphism group.  A caller that
    already has that group passes it as `group`, in the form
    `multigraph.automorphism_group` returns, and the check uses it.
    """
    if isinstance(g_or_universe, SeparationUniverse):
        uni = _universe(g_or_universe, max_tangle_order)
    else:
        _check_budget(len(g_or_universe.vertices), max_tangle_order, 5_000_000)
        uni = SeparationUniverse(g_or_universe, 0)
    g = uni.graph

    tangles = []
    for k in range(1, max_tangle_order + 1):
        if uni.max_order < k:
            uni._grow()
        found = _tangles_over_prefix(uni, k)
        if not found:
            break
        tangles.extend(Tangle(uni, k, ch) for ch in found)

    pair_eff = {}
    pool = set()
    for a, b in combinations(range(len(tangles)), 2):
        eff = _efficient_distinguisher_indices(uni, tangles[a], tangles[b])
        if eff:
            pair_eff[(a, b)] = eff
            pool.update(eff)

    pool = sorted(pool)
    cross_count = dict.fromkeys(pool, 0)
    sides = [(i, uni.seps[i].a_mask, uni.seps[i].b_mask) for i in pool]
    for (i, a, b), (j, c, d) in combinations(sides, 2):
        if not _nested_masks(a, b, c, d):
            cross_count[i] += 1
            cross_count[j] += 1

    chosen = set()
    tags = {}
    for pair, eff in sorted(pair_eff.items()):
        best = min(cross_count[i] for i in eff)
        winners = [i for i in eff if cross_count[i] == best]
        for i in winners:
            chosen.add(i)
            tags.setdefault(i, []).append(pair)

    indices = tuple(sorted(chosen))

    seps = [uni.seps[i] for i in indices]
    for s, t in combinations(seps, 2):
        if crossing(s, t):
            raise InvariantError("canonical nested set contains a crossing pair")
    for s in seps:
        if not is_tight(g, s):
            raise InvariantError("canonical nested set contains a non-tight separation")
    for pair, eff in pair_eff.items():
        if not any(i in chosen for i in eff):
            raise InvariantError("a distinguishable pair lost all its distinguishers")

    invariance = None
    if check_invariance:
        invariance = _check_invariance(g, indices, uni, automorphism_budget, group)

    return NestedSet(uni, indices, tags, tuple(tangles), max_tangle_order, invariance)


def _apply_vertex_map_to_mask(g: Multigraph, auto, mask: int) -> int:
    out = 0
    while mask:
        b = mask & -mask
        v = g.vertices[b.bit_length() - 1]
        out |= 1 << g.vpos(auto.vertex_map[v])
        mask ^= b
    return out


def _check_invariance(g, indices, uni, budget, group) -> Optional[bool]:
    """Invariance under a generating set, which is invariance under the group."""
    from localdec.multigraph import UNDECIDED, automorphism_group

    if group is None:
        if g.n_vertices() > 400:
            # refinement alone is too costly there; leave invariance unchecked
            return None
        group = automorphism_group(g, budget=budget)
    if group is UNDECIDED:
        return None
    current = {(uni.seps[i].a_mask, uni.seps[i].b_mask) for i in indices}
    for a in group[0]:
        mapped = set()
        for am, bm in current:
            x = _apply_vertex_map_to_mask(g, a, am)
            y = _apply_vertex_map_to_mask(g, a, bm)
            mapped.add(_sorted_pair(x, y))
        if mapped != current:
            raise InvariantError("canonical nested set is not automorphism-invariant")
    return True
