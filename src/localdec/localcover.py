"""Local covers of finite multigraphs.

The r-local cover is realized as a derived graph: a voltage assignment
sends each spanning-tree edge to the identity of the deck group and each
chord to the image of its generator, and the cover has vertex set
V(G) x group with edges twisted by the voltages.  When coset enumeration
of the deck-group presentation does not finish, a certified ball of the
partially enumerated cover stands in for the infinite cover.

Each cover kind has one step: the fibre coordinate reached from a
coordinate across a base edge, forward from its stored tail or backward
from its head (the voltage for a `Covering`, the coset table on the chord
letter for a `TruncatedCover`).  Building a cover or a ball and lifting a
walk all read that step, and edge instance (e, i) has its tail in fibre i.

Cover ids are strings "v@i" and "e@i" (base id at fibre coordinate), but
all projections are carried explicitly and nothing parses ids back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from localdec.grouppres import (
    CosetTable,
    FiniteGroup,
    FreeWord,
    Presentation,
    _chord_letters,
    _coset_tables,
    _deck_presentation,
    _walk_letters,
    table_to_group,
)
from localdec.multigraph import (
    GraphError,
    Multigraph,
    UNDECIDED,
    Walk,
    check_walk,
    isomorphic,
    short_cycles_span,
    spanning_tree,
    cycles_through_vertex,
)


class CoverError(GraphError):
    pass


class LiftOutOfBallError(CoverError):
    """A walk lift left the truncated region of a cover."""


def _cover_id(x, i) -> str:
    """The id of the lift of base vertex or edge x to fibre i."""
    return "%s@%d" % (x, i)


def _cover_json(cov, graph: Multigraph) -> dict:
    """The base, graph and projection entries of a cover artifact."""
    return {
        "base": cov.base.to_json_obj(),
        "graph": graph.to_json_obj(),
        "projection": {
            "vertices": {str(k): str(v) for k, v in cov.projection_vertices.items()},
            "edges": {str(k): str(v) for k, v in cov.projection_edges.items()},
        },
    }


@dataclass
class VoltageAssignment:
    """Deck-group elements on the listed (tail, head) orientations; the
    reverse orientation carries the inverse.  Tree edges carry the identity,
    a chord its generator's image, inverted when the tail is the higher
    endpoint, so no cover depends on which way round ends are listed."""

    group: FiniteGroup
    values: dict  # edge id -> group element for the stored (tail, head) orientation

    def forward(self, e) -> int:
        return self.values[e]

    def backward(self, e) -> int:
        return self.group.inverse(self.values[e])


class Covering:
    """A finite derived cover with projection and free fibre-transitive deck action."""

    def __init__(self, base: Multigraph, deck: FiniteGroup,
                 voltage: VoltageAssignment, base_point):
        self.base = base
        self.deck = deck
        self.voltage = voltage
        self.base_point = base_point
        n = deck.order
        verts = []
        vid = {}
        for v in base.vertices:
            for i in range(n):
                name = _cover_id(v, i)
                vid[(v, i)] = name
                verts.append(name)
        edges = []
        proj_v = {}
        proj_e = {}
        self._eid = {}
        for (v, i), name in vid.items():
            proj_v[name] = v
        for e in base.edges:
            u, v = base.ends[e]
            for i in range(n):
                # edge instance (e, i) has its tail in fibre i
                name = _cover_id(e, i)
                edges.append((name, (vid[(u, i)], vid[(v, self._step(i, e, True))])))
                proj_e[name] = e
                self._eid[(e, i)] = name
        self.cover = Multigraph(verts, edges)
        self.projection_vertices = proj_v
        self.projection_edges = proj_e
        self._vid = vid
        self.base_lift = vid[(base_point, 0)]
        self._fibre_coord = {name: pair for pair, name in vid.items()}
        bad = covering_failure(self)
        if bad is not None:
            raise CoverError("star at %s does not project bijectively" % bad)
        if not self.cover.is_connected():
            raise CoverError("derived graph is disconnected: voltages do not "
                             "generate the deck group")

    def _step(self, c, e, forward: bool) -> int:
        """The fibre coordinate reached from c across base edge e, forward
        from its stored tail or backward from its head."""
        v = self.voltage
        return self.deck.op(c, v.forward(e) if forward else v.backward(e))

    # -- structure ----------------------------------------------------------

    def fibre(self, v):
        return tuple(self._vid[(v, i)] for i in range(self.deck.order))

    def coordinates(self, cover_vertex):
        return self._fibre_coord[cover_vertex]

    def sheets(self) -> int:
        return self.deck.order

    def deck_vertex_map(self, h: int) -> dict:
        """The deck transformation of group element h on cover vertices."""
        out = {}
        for (v, i), name in self._vid.items():
            out[name] = self._vid[(v, self.deck.op(h, i))]
        return out

    def deck_edge_map(self, h: int) -> dict:
        out = {}
        for (e, i), name in self._eid.items():
            out[name] = self._eid[(e, self.deck.op(h, i))]
        return out

    def check_deck_action(self) -> bool:
        """Deck maps are automorphisms over the base, free and fibre-transitive."""
        for h in range(self.deck.order):
            vm = self.deck_vertex_map(h)
            em = self.deck_edge_map(h)
            for ce in self.cover.edges:
                u, w = self.cover.ends[ce]
                if {vm[u], vm[w]} != set(self.cover.ends[em[ce]]):
                    return False
            for name in self.cover.vertices:
                if self.projection_vertices[vm[name]] != self.projection_vertices[name]:
                    return False
            if h != 0 and any(vm[name] == name for name in self.cover.vertices):
                return False
        for v in self.base.vertices:
            fib = set(self.fibre(v))
            reached = {self.deck_vertex_map(h)[self._vid[(v, 0)]]
                       for h in range(self.deck.order)}
            if reached != fib:
                return False
        return True

    def to_json_obj(self) -> dict:
        return {
            **_cover_json(self, self.cover),
            "deck": [list(row) for row in self.deck.mult],
            "truncated": False,
            "certificates": {},
        }


@dataclass
class TruncatedCover:
    """A rooted ball of a partially enumerated cover, with certificates.

    Identifications present in the ball all follow from relators, so the
    ball maps onto the true ball of the cover by further collapses; the
    certificates record falsifiable stability evidence, never a proof.
    """

    base: Multigraph
    ball: Multigraph
    root: str
    radius: int
    projection_vertices: dict
    projection_edges: dict
    table: CosetTable
    depths: dict
    locality: int
    certificates: dict = field(default_factory=dict)
    table_covers_ball: bool = True
    _chord_letter: dict = field(default_factory=dict)  # chord -> its letter
    _coord: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return (self.table_covers_ball
                and self.certificates.get("lift_separation") is True
                and self.certificates.get("radius_stable") is True)

    def _step(self, c, e, forward: bool) -> Optional[int]:
        return _table_step(self.table, self._chord_letter, c, e, forward)

    def lifts_of(self, v):
        return tuple(name for name in self.ball.vertices
                     if self.projection_vertices[name] == v)

    def coordinates(self, name):
        return self._coord[name]

    def to_json_obj(self) -> dict:
        certs = dict(self.certificates)
        certs["table_covers_ball"] = self.table_covers_ball
        return {
            **_cover_json(self, self.ball),
            "truncated": True,
            "root": self.root,
            "radius": self.radius,
            "certificates": certs,
        }


def _table_step(table: CosetTable, chord_letter: dict, c, e,
                forward: bool) -> Optional[int]:
    """The coset reached from c across base edge e, forward from its stored
    tail or backward from its head; None where the table has no entry."""
    letter = chord_letter.get(e)
    if letter is None:
        return c
    return table.step(c, letter if forward else -letter)


def _crossing(step, c, e, forward: bool):
    """Cross base edge e from fibre coordinate c with a cover's step: the
    fibre i of the edge instance (e, i) crossed and the coordinate reached,
    or (None, None) where a partial table has no entry.  Edge instance
    (e, i) has its tail in fibre i."""
    reached = step(c, e, forward)
    if reached is None:
        return None, None
    return (c if forward else reached), reached


def _build_ball(g: Multigraph, table: CosetTable, chord_letter: dict, x0,
                radius: int, locality: int):
    """Breadth-first ball of the partial derived graph around (x0, coset 0)."""
    step = partial(_table_step, table, chord_letter)
    root = (x0, 0)
    depths = {root: 0}
    order = [root]
    head = 0
    complete = True
    while head < len(order):
        (v, c) = order[head]
        head += 1
        d = depths[(v, c)]
        if d >= radius:
            continue
        for e, w in g.incident(v):
            # a loop also steps backwards to a possibly new vertex
            for forward in ((True, False) if v == w else (v == g.ends[e][0],)):
                c2 = step(c, e, forward)
                if c2 is None:
                    complete = False
                    break
                if (w, c2) not in depths:
                    depths[(w, c2)] = d + 1
                    order.append((w, c2))

    vid = {key: _cover_id(*key) for key in order}
    verts = [vid[key] for key in order]
    proj_v = {vid[(v, c)]: v for (v, c) in order}
    coord = {vid[key]: key for key in order}

    edges = []
    proj_e = {}
    seen_edges = set()
    for (v, c) in order:
        for e, w in g.incident(v):
            forward = v == g.ends[e][0]
            i, c2 = _crossing(step, c, e, forward)
            if i is None or (w, c2) not in depths:
                continue
            if depths[(v, c)] + 1 + depths[(w, c2)] > 2 * radius:
                continue
            name = _cover_id(e, i)
            if name in seen_edges:
                continue
            seen_edges.add(name)
            ends = (vid[(v, c)], vid[(w, c2)])
            edges.append((name, ends if forward else ends[::-1]))
            proj_e[name] = e

    edges.sort(key=lambda item: (g.epos(proj_e[item[0]]), item[0]))
    return TruncatedCover(g, Multigraph(verts, edges), vid[root], radius, proj_v,
                          proj_e, table, {vid[k]: d for k, d in depths.items()},
                          locality, table_covers_ball=complete,
                          _chord_letter=chord_letter, _coord=coord)


def _transport(c1, g1, c2, g2, x1, x2, partial: bool = False) -> Optional[dict]:
    """Grow the vertex map x1 -> x2 from graph g1 to graph g2 along base
    edges; None on a conflict.

    c1 and c2 carry the projections of g1 and g2.  At each mapped pair the
    lifts of one base edge are paired in canonical edge order; covers
    lift each base end once.  Strict mode fails when the two vertices see
    different base edges or different numbers of lifts of one; partial
    mode skips a base edge with fewer lifts at the image, where the image
    sits closer to the rim of a ball, and leaves the map partial there.
    The map is injective and projection-compatible.
    """
    pv1, pv2 = c1.projection_vertices, c2.projection_vertices
    if pv1[x1] != pv2[x2]:
        return None
    pair = {x1: x2}
    used = {x2}
    queue = [x1]
    while queue:
        x = queue.pop()
        inc_x = {}
        for e, w in g1.incident(x):
            inc_x.setdefault(c1.projection_edges[e], []).append((e, w))
        inc_y = {}
        for e, w in g2.incident(pair[x]):
            inc_y.setdefault(c2.projection_edges[e], []).append((e, w))
        if not partial and set(inc_x) != set(inc_y):
            return None
        for base_e, lx in inc_x.items():
            ly = inc_y.get(base_e, [])
            if len(lx) != len(ly):
                if not partial:
                    return None
                if len(lx) > len(ly):
                    continue
            lx = sorted(lx, key=lambda p: g1.epos(p[0]))
            ly = sorted(ly, key=lambda p: g2.epos(p[0]))
            for (_e1, w1), (_e2, w2) in zip(lx, ly):
                if w1 in pair:
                    if pair[w1] != w2:
                        return None
                elif w2 in used or pv1[w1] != pv2[w2]:
                    return None
                else:
                    pair[w1] = w2
                    used.add(w2)
                    queue.append(w1)
    return pair


def local_cover(g: Multigraph, r: int, coset_limit: int = 100_000,
                truncation_radius: int = 10):
    """The r-local cover: exact when the deck group proves finite, otherwise
    a certified truncated ball.

    The deck group is presented by the chords of the canonical spanning
    tree with one relator per cycle of length at most r.  If coset
    enumeration closes, the derived graph over the resulting finite group
    is the cover.  Otherwise the radius-`truncation_radius` ball of the
    partially collapsed cover is returned with two certificates: lifts of
    a common vertex stay at distance greater than r (checked on the part
    of the ball where that is decidable), and the ball is unchanged when
    the coset budget is doubled.  One enumeration gives the tables at
    `coset_limit` and at twice it, the same tables `todd_coxeter` returns
    at each limit; a run that closes below `coset_limit` stops there.
    The balls step only from the cosets they hold, so only those rows of
    either table are standardized (on necklace(4), rows 0-6 of 13,333
    and of 26,667).
    A chord's letter is positive when crossed from its lower endpoint in
    vertex order, and an edge's voltage is that of its listed orientation,
    so no result depends on which way round an edge's ends are listed.
    """
    if r < 1:
        raise CoverError("locality parameter must be >= 1")
    if not g.is_connected():
        raise CoverError("local covers need a connected base graph")
    x0 = g.vertices[0]
    chord_letter = _chord_letters(g, spanning_tree(g, x0))
    pres = _deck_presentation(g, r, chord_letter)
    table, table2 = _coset_tables(pres, (coset_limit, 2 * coset_limit))
    if table.complete:
        deck = table_to_group(table)
        values = dict.fromkeys(g.edges, 0)
        for e, letter in chord_letter.items():
            image = deck.gen_images[abs(letter) - 1]
            values[e] = image if letter > 0 else deck.inverse(image)
        voltage = VoltageAssignment(deck, values)
        return Covering(g, deck, voltage, x0)
    tc = _build_ball(g, table, chord_letter, x0, truncation_radius, r)
    sep = verify_ball_preservation(tc, r)
    tc.certificates["lift_separation"] = (sep if sep is not UNDECIDED else None)
    if table2.complete:
        # the doubled budget settles the group; report instability so the
        # caller retries with the larger limit
        tc.certificates["radius_stable"] = False
        tc.certificates["completes_with_larger_budget"] = True
        return tc
    tc2 = _build_ball(g, table2, chord_letter, x0, truncation_radius, r)
    pair = _transport(tc, tc.ball, tc2, tc2.ball, tc.root, tc2.root)
    tc.certificates["radius_stable"] = (
        pair is not None
        and len(pair) == tc.ball.n_vertices() == tc2.ball.n_vertices()
        and tc.ball.n_edges() == tc2.ball.n_edges()
        and all(tc.depths[x] == tc2.depths[y] for x, y in pair.items()))
    return tc


def shrink_truncated(tc: TruncatedCover, radius: int) -> TruncatedCover:
    """The same partially enumerated cover truncated at a smaller radius.

    Reuses the coset table.  The smaller ball is determined by the larger
    one, so the radius-stability certificate carries over; lift separation
    is re-checked at the smaller radius.
    """
    if radius > tc.radius:
        raise CoverError("can only shrink a truncated cover")
    out = _build_ball(tc.base, tc.table, tc._chord_letter,
                      tc.projection_vertices[tc.root], radius, tc.locality)
    sep = verify_ball_preservation(out, tc.locality)
    out.certificates["lift_separation"] = (sep if sep is not UNDECIDED else None)
    out.certificates["radius_stable"] = tc.certificates.get("radius_stable")
    return out


# ---------------------------------------------------------------------------
# walk lifting
# ---------------------------------------------------------------------------

def lift_walk(cov, w: Walk, start) -> Walk:
    """The unique lift of a base walk starting at the given cover vertex.

    Loops with non-trivial voltage are lifted in the forward direction of
    their stored orientation (a combinatorial walk does not determine the
    traversal direction of a loop).
    """
    if not isinstance(cov, (Covering, TruncatedCover)):
        raise CoverError("unknown cover object %r" % (cov,))
    g = cov.base
    check_walk(g, w)
    graph = _graph_of(cov)
    if not graph.has_vertex(start):
        raise CoverError("start vertex %r is not in the cover" % (start,))
    if isinstance(cov, TruncatedCover) and cov.table is None:
        raise CoverError("truncated cover has no coset table to lift along, "
                         "as when read back from JSON")
    v0, cur = cov.coordinates(start)
    if v0 != w.start:
        raise CoverError("start vertex does not project to the walk start")
    verts = [start]
    edges = []
    for k, e in enumerate(w.edges):
        i, cur = _crossing(cov._step, cur, e, w.vertices[k] == g.ends[e][0])
        if i is None:
            raise LiftOutOfBallError("lift leaves the enumerated region")
        name, x = _cover_id(e, i), _cover_id(w.vertices[k + 1], cur)
        if name not in graph.ends or not graph.has_vertex(x):
            raise LiftOutOfBallError("lift leaves the truncated ball")
        edges.append(name)
        verts.append(x)
    return Walk(tuple(verts), tuple(edges))


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def _graph_of(cov) -> Multigraph:
    return cov.ball if isinstance(cov, TruncatedCover) else cov.cover


def _visible_from(cov, margin: int):
    """The cover vertices whose radius-`margin` neighbourhood lies wholly in
    the cover graph: all of them, or on a truncated ball those at depth at
    most radius - margin."""
    if isinstance(cov, TruncatedCover):
        core = cov.radius - margin
        return [x for x in cov.ball.vertices if cov.depths[x] <= core]
    return cov.cover.vertices


def covering_failure(cov):
    """The first cover vertex whose star does not project bijectively onto
    the star of its image, or None when the covering condition holds.

    A truncated ball holds the whole star of a vertex only below its rim,
    so there the vertices at depth < radius are checked.
    """
    base_star = {}
    for v in cov.base.vertices:
        ends = {}
        for e, w in cov.base.incident(v):
            ends[e] = ends.get(e, 0) + (2 if w == v else 1)
        base_star[v] = ends
    graph = _graph_of(cov)
    for x in _visible_from(cov, 1):
        ends = {}
        for ce, w in graph.incident(x):
            e = cov.projection_edges[ce]
            ends[e] = ends.get(e, 0) + (2 if w == x else 1)
        if ends != base_star[cov.projection_vertices[x]]:
            return x
    return None


def verify_ball_preservation(cov, rho: int):
    """Are all distinct lifts of a common vertex at distance > rho?

    For truncated covers the check runs from the lifts at depth at most
    radius - rho, where a distance-rho neighbourhood is fully visible;
    with radius < rho + 1 the question is undecided.
    """
    if isinstance(cov, TruncatedCover) and cov.radius < rho + 1:
        return UNDECIDED
    graph = _graph_of(cov)
    proj = cov.projection_vertices
    for x in _visible_from(cov, rho):
        for y in graph.distances(x, cap=rho):
            if y != x and proj[y] == proj[x]:
                return False
    return True


def verify_cover_cycle_space(cov, r: int) -> bool:
    """Do the short cycles of the cover graph span its whole cycle space?"""
    return short_cycles_span(_graph_of(cov), r)


def verify_idempotence(g: Multigraph, r: int, r2: int,
                       coset_limit: int = 100_000, truncation_radius: int = 10):
    """Is the r-local cover of the r2-local cover isomorphic to the r-local
    cover of g itself?  Undecided when any of the covers fails to be finite."""
    if r2 < r:
        raise CoverError("need r2 >= r")
    c1 = local_cover(g, r, coset_limit, truncation_radius)
    if not isinstance(c1, Covering):
        return UNDECIDED
    c2 = local_cover(g, r2, coset_limit, truncation_radius)
    if not isinstance(c2, Covering):
        return UNDECIDED
    c3 = local_cover(c2.cover, r, coset_limit, truncation_radius)
    if not isinstance(c3, Covering):
        return UNDECIDED
    iso = isomorphic(c3.cover, c1.cover)
    if iso is UNDECIDED:
        return UNDECIDED
    return iso is not None


# ---------------------------------------------------------------------------
# Cayley graphs
# ---------------------------------------------------------------------------

@dataclass
class LabelledGraph:
    """A multigraph with generator labels on edges, oriented tail -> head."""

    graph: Multigraph
    labels: dict            # edge id -> generator name
    generators: tuple       # generator names in order
    identity_vertex: str
    element_of: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj = self.graph.to_json_obj()
        for entry in obj["edges"]:
            entry["label"] = self.labels[entry["id"]]
        obj["identity"] = str(self.identity_vertex)
        return obj

    @staticmethod
    def from_json_obj(obj: dict) -> "LabelledGraph":
        g = Multigraph.from_json_obj(obj)
        labels = {}
        for entry in obj["edges"]:
            if "label" not in entry:
                raise GraphError("labelled graph needs a label on every edge")
            labels[entry["id"]] = entry["label"]
        identity = obj.get("identity", g.vertices[0] if g.vertices else None)
        try:
            hash((tuple(labels.values()), identity))
        except TypeError as exc:
            raise GraphError("bad labelled graph JSON: %s" % exc) from exc
        gens = []
        for e in g.edges:
            if labels[e] not in gens:
                gens.append(labels[e])
        return LabelledGraph(g, labels, tuple(gens), identity)


def cayley_graph(group: FiniteGroup, gens) -> LabelledGraph:
    """The Cayley graph with one edge (g, s) per element and generator.

    `gens` lists (name, element) pairs; inverse pairs and identity
    elements are allowed and produce parallel edges and loops.
    """
    verts = [str(a) for a in range(group.order)]
    edges = []
    labels = {}
    element_of = {}
    for a in range(group.order):
        element_of[str(a)] = a
    for a in range(group.order):
        for name, s in gens:
            eid = "%d.%s" % (a, name)
            edges.append((eid, (str(a), str(group.op(a, s)))))
            labels[eid] = name
    g = Multigraph(verts, edges)
    return LabelledGraph(g, labels, tuple(name for name, _ in gens), "0", element_of)


def cayley_graph_of_presentation(p: Presentation, table: CosetTable) -> LabelledGraph:
    group = table_to_group(table)
    gens = [(name, group.gen_images[i]) for i, name in enumerate(p.generators)]
    return cayley_graph(group, gens)


def local_group_extension(cay: LabelledGraph, r: int,
                          ball_radius: Optional[int] = None) -> Presentation:
    """Presentation on the edge labels whose relators are the label words of
    the closed walks once around a cycle of length <= r at the identity.

    The input must show every short cycle through the identity; passing a
    ball of a Cayley graph with ball_radius < r is refused.
    """
    if ball_radius is not None and ball_radius < r:
        raise CoverError("ball of radius %d cannot show all cycles of length %d"
                         % (ball_radius, r))
    x0 = cay.identity_vertex
    if not cay.graph.has_vertex(x0):
        raise CoverError("identity vertex %r missing" % (x0,))
    index = {name: i + 1 for i, name in enumerate(cay.generators)}
    letter = {e: index[cay.labels[e]] for e in cay.graph.edges}
    words = set()
    for cyc in cycles_through_vertex(cay.graph, x0, r):
        k = cyc.vertices.index(x0)
        rotated_v = cyc.vertices[k:] + cyc.vertices[:k]
        rotated_e = cyc.edges[k:] + cyc.edges[:k]
        once = Walk(rotated_v + (x0,), rotated_e)
        # the walk the other way round reads the inverse word (a cycle of
        # length >= 2 holds no loop), and min() folds the two into one
        word = FreeWord(_walk_letters(cay.graph, letter, once))
        if word.is_empty():
            continue
        inv = word.inverse()
        words.add(min(word.letters, inv.letters))
    relators = tuple(FreeWord(lt) for lt in sorted(words))
    return Presentation(cay.generators, relators)


def verify_group_quotient(p: Presentation, group: FiniteGroup, gens) -> bool:
    """Do all relators of p evaluate to the identity under generator images?"""
    images = [s for _, s in gens]
    for w in p.relators:
        cur = 0
        for a in w.letters:
            s = images[abs(a) - 1]
            if a < 0:
                s = group.inverse(s)
            cur = group.op(cur, s)
        if cur != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# equivalence of coverings
# ---------------------------------------------------------------------------

@dataclass
class GeneralCover:
    """Just enough covering structure for equivalence testing."""

    base: Multigraph
    cover: Multigraph
    projection_vertices: dict
    projection_edges: dict
    base_lift: str

    def fibre(self, v):
        return tuple(x for x in self.cover.vertices
                     if self.projection_vertices[x] == v)


def cover_from_cayley_quotient(ext: LabelledGraph, ext_group: FiniteGroup,
                               base: LabelledGraph, base_group: FiniteGroup) -> GeneralCover:
    """The covering Cay(ext_group, S) -> Cay(base_group, S) induced by the
    quotient map on elements (same generator lists, same order)."""
    if ext.generators != base.generators:
        raise CoverError("generator lists differ")
    proj_elt = {}
    for a in range(ext_group.order):
        word = ext_group.element_words.get(a)
        if word is None:
            raise CoverError("extension group lacks element words")
        proj_elt[a] = base_group.evaluate(word)
    proj_v = {str(a): str(proj_elt[a]) for a in range(ext_group.order)}
    proj_e = {}
    for e in ext.graph.edges:
        tail, _head = ext.graph.ends[e]
        name = ext.labels[e]
        proj_e[e] = "%d.%s" % (proj_elt[int(tail)], name)
        if proj_e[e] not in base.graph.ends:
            raise CoverError("projected edge %r missing downstairs" % (proj_e[e],))
    return GeneralCover(base.graph, ext.graph, proj_v, proj_e, "0")


def covering_equivalence(c1, c2, budget: int = 1_000_000):
    """Is there a cover isomorphism commuting with both projections?

    Searched by walk transport from every candidate image of the base
    lift; a cover map is determined by one vertex image, so the search is
    linear per candidate.
    """
    if c1.base != c2.base:
        return False
    if c1.cover.n_vertices() != c2.cover.n_vertices():
        return False
    v0 = c1.projection_vertices[c1.base_lift]
    steps = 0
    for candidate in c2.fibre(v0):
        pair = _transport(c1, c1.cover, c2, c2.cover, c1.base_lift, candidate)
        steps += c1.cover.n_vertices()
        if steps > budget:
            return UNDECIDED
        if pair is not None and len(pair) == c1.cover.n_vertices():
            return True
    return False
