"""Splitting stars of nested separation sets and their tree-decompositions.

A finite nested set N of proper separations is a regular tree set: it
induces a tree whose nodes are the splitting stars of N and whose edges
join the two stars holding the two orientations of a member of N (Diestel,
"Tree sets", Order 35, 2018; the tree of a nested set as in Carmesin,
Diestel, Hundertmark and Stein, Combinatorica 2014).  The star at the node
an oriented member s = (A, B) points at is s with the maximal oriented
members of the other separations below (B, A).  Parts are intersections
of the big sides of a star.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Optional, Sequence

from localdec.multigraph import (UNDECIDED, GraphError, Multigraph, _components_masks,
                                 _json_array, automorphisms)
from localdec.tangles import (
    NestedSet,
    Separation,
    _apply_vertex_map_to_mask,
    _edge_end_masks,
    _sorted_pair,
    nested,
    oriented_le,
)


def _seps_of(n) -> tuple:
    if isinstance(n, NestedSet):
        return n.separations
    return tuple(n)


def _check_nested_proper(seps: Sequence[Separation]) -> None:
    for s in seps:
        if not s.proper:
            raise GraphError("nested set contains an improper separation")
    for s, t in combinations(seps, 2):
        if {s.a_mask, s.b_mask} == {t.a_mask, t.b_mask}:
            raise GraphError("nested set lists a separation twice")
        if not nested(s, t):
            raise GraphError("set of separations is not nested")


@dataclass(frozen=True)
class SplittingStar:
    """The oriented members at one node of the tree, one per incident edge,
    each as (separation index, flip flag) with the node on the second side."""

    members: tuple  # sorted tuple of (separation index, flip flag)

    def __len__(self):
        return len(self.members)


def splitting_stars(n) -> list:
    """The splitting stars of a finite nested set of proper separations,
    sorted by their members, by the rule in the module docstring.  A node
    arises once per incident tree edge, so a member already in a star
    starts none; the empty set has one node.
    """
    seps = _seps_of(n)
    _check_nested_proper(seps)
    # larger first side first, so a member comes after every member above it
    oriented = sorted((((i, flag),) + s.oriented(bool(flag))
                       for i, s in enumerate(seps) for flag in (0, 1)),
                      key=lambda t: (-t[1].bit_count(), t[2].bit_count()))
    stars = []
    placed = set()
    for member, a, b in oriented:
        if member in placed:
            continue
        star = [member]
        tops = []
        for m, c, d in oriented:
            # (c, d) <= (b, a), of another separation and below no top so far
            if (m[0] != member[0] and not (c & ~b or a & ~d)
                    and not any(not (c & ~c2 or d2 & ~d) for c2, d2 in tops)):
                tops.append((c, d))
                star.append(m)
        placed.update(star)
        stars.append(SplittingStar(tuple(sorted(star))))
    stars.sort(key=lambda star: star.members)
    return stars or [SplittingStar(())]


def consistent_orientations(n) -> list:
    """The consistent orientations of a finite nested set of proper
    separations, one per splitting star, in ascending order.

    An orientation is a tuple of flip flags aligned with the separations;
    flag 0 picks (A, B), flag 1 picks (B, A).  The orientation of a star
    points every member at its node: it picks the orientation of each
    member that lies below a member of the star.
    """
    seps = _seps_of(n)
    out = []
    for star in splitting_stars(seps):
        tops = [seps[i].oriented(bool(flag)) for i, flag in star.members]
        out.append(tuple(0 if any(oriented_le(s.a_mask, s.b_mask, c, d) for c, d in tops)
                         else 1 for s in seps))
    return sorted(out)


@dataclass
class TreeDecomposition:
    """Tree of splitting stars with parts; nodes are named t0, t1, ..."""

    graph: Multigraph
    tree: Multigraph
    parts: dict                 # node id -> tuple of vertices (canonical order)
    stars: dict                 # node id -> SplittingStar
    edge_separation: dict       # tree edge id -> Separation
    separations: tuple          # the inducing nested set, in input order

    def part_mask(self, node) -> int:
        return self.graph.vertex_mask(self.parts[node])

    def adhesion(self, edge) -> tuple:
        s = self.edge_separation[edge]
        return self.graph.vertices_of_mask(s.separator)

    def to_json_obj(self) -> dict:
        return {
            "nodes": [{"id": str(t), "part": [str(v) for v in self.parts[t]]}
                      for t in self.tree.vertices],
            "edges": [{"a": str(self.tree.ends[e][0]),
                       "b": str(self.tree.ends[e][1]),
                       "adhesion": [str(v) for v in self.adhesion(e)]}
                      for e in self.tree.edges],
        }

    @staticmethod
    def from_json_obj(g: Multigraph, obj: dict) -> "TreeDecomposition":
        """Read `to_json_obj` output back over the graph g, for the verifier.

        Tree edge i is named "s<i>" as in `induce_tree_decomposition`.  Its
        separation joins the vertices on either side of it in the tree
        along the stored adhesion, so a wrong adhesion fails
        `adhesion_identity`.  Splitting stars are not stored and stay empty.
        """
        parts = {n["id"]: tuple(_json_array(n, "part")) for n in _json_array(obj, "nodes")}
        tree = Multigraph(list(parts), (("s%d" % i, (d["a"], d["b"]))
                                        for i, d in enumerate(_json_array(obj, "edges"))))
        td = TreeDecomposition(g, tree, parts, {}, {}, ())
        sides = _tree_edge_sides(td, {t: td.part_mask(t) for t in parts}, tree.edges)
        full = g.bits().vall
        for e, d in zip(tree.edges, obj["edges"]):
            a, b = tree.ends[e]
            adhesion = g.vertex_mask(_json_array(d, "adhesion"))
            td.edge_separation[e] = Separation(
                (sides[e, a] & ~sides[e, b]) | adhesion,
                (sides[e, b] & ~sides[e, a]) | adhesion, full)
        td.separations = tuple(td.edge_separation.values())
        return td

    def to_dot(self) -> str:
        lines = ["graph tree_decomposition {"]
        for t in self.tree.vertices:
            label = ",".join(str(v) for v in self.parts[t])
            lines.append('  "%s" [label="%s"];' % (t, label))
        for e in self.tree.edges:
            a, b = self.tree.ends[e]
            lines.append('  "%s" -- "%s" [label="k=%d"];'
                         % (a, b, len(self.adhesion(e))))
        lines.append("}")
        return "\n".join(lines) + "\n"


def induce_tree_decomposition(g: Multigraph, n) -> TreeDecomposition:
    """The tree-decomposition whose tree edges realize exactly the given
    nested set of proper separations.

    Nodes are splitting stars, adjacent when they hold the two orientations
    of one member; the part at a star is the intersection of its big sides.
    Verifies on the way out: the node/edge structure is a tree, the
    decomposition axioms hold, the oriented tree edges are order-isomorphic
    to the orientations of the nested set, and the induced separations give
    back the set exactly.
    """
    seps = _seps_of(n)
    stars = splitting_stars(seps)
    bits = g.bits()

    node_ids = ["t%d" % i for i in range(len(stars))]
    star_of = dict(zip(node_ids, stars))
    node_of_member = {}
    for t, star in star_of.items():
        for member in star.members:
            if member in node_of_member:
                raise GraphError("an oriented separation lies in two stars")
            node_of_member[member] = t
    for i in range(len(seps)):
        for flag in (0, 1):
            if (i, flag) not in node_of_member:
                raise GraphError("an oriented separation lies in no star")

    edges = []
    edge_sep = {}
    for i, s in enumerate(seps):
        a = node_of_member[(i, 0)]
        b = node_of_member[(i, 1)]
        eid = "s%d" % i
        edges.append((eid, (a, b)))
        edge_sep[eid] = s
    tree = Multigraph(node_ids, edges)
    if not _is_tree(tree):
        raise GraphError("splitting stars do not form a tree")

    parts = {}
    masks = {}
    for t, star in star_of.items():
        mask = bits.vall
        for i, flag in star.members:
            mask &= seps[i].oriented(bool(flag))[1]
        if mask == 0:
            raise GraphError("splitting star has an empty part")
        parts[t] = g.vertices_of_mask(mask)
        masks[t] = mask

    td = TreeDecomposition(g, tree, parts, star_of, edge_sep, tuple(seps))
    sides = _tree_edge_sides(td, masks, tree.edges)
    report = _tree_report(g, td, masks, sides)
    if not report.passed:
        raise GraphError("induced tree-decomposition fails: %s" % (report.failures(),))
    _assert_round_trip(td, sides)
    _assert_alpha_order_isomorphism(td, sides)
    return td


def _is_tree(tree: Multigraph) -> bool:
    return tree.n_vertices() == tree.n_edges() + 1 and tree.is_connected()


def _tree_edge_sides(td: TreeDecomposition, masks: dict, edges) -> dict:
    """(tree edge, end) -> vertex mask of the union of the parts, with part
    masks `masks`, in the component of tree - edge that contains that end.
    One search per edge end, so a verified artifact whose "tree" has a
    cycle still gets sides."""
    out = {}
    for edge in edges:
        for end in td.tree.ends[edge]:
            seen = {end}
            stack = [end]
            while stack:
                t = stack.pop()
                for e, w in td.tree.incident(t):
                    if e == edge or w in seen:
                        continue
                    seen.add(w)
                    stack.append(w)
            mask = 0
            for t in seen:
                mask |= masks[t]
            out[edge, end] = mask
    return out


def induced_oriented_separation(td: TreeDecomposition, edge, towards) -> tuple:
    """(A, B) masks induced by the tree edge oriented towards `towards`."""
    a, b = td.tree.ends[edge]
    other = a if towards == b else b
    sides = _tree_edge_sides(td, {t: td.part_mask(t) for t in td.parts}, [edge])
    return sides[edge, other], sides[edge, towards]


def _assert_round_trip(td: TreeDecomposition, sides: dict) -> None:
    want = {_sorted_pair(s.a_mask, s.b_mask) for s in td.separations}
    got = set()
    for e in td.tree.edges:
        a, b = td.tree.ends[e]
        am, bm = sides[e, a], sides[e, b]
        got.add(_sorted_pair(am, bm))
        s = td.edge_separation[e]
        if {am, bm} != {s.a_mask, s.b_mask}:
            raise GraphError("tree edge does not induce its labelling separation")
    if got != want:
        raise GraphError("induced separations differ from the nested set")


def _assert_alpha_order_isomorphism(td: TreeDecomposition, sides: dict) -> None:
    # orienting consecutive edges of the tree the same way must respect <=
    for t in td.tree.vertices:
        for e1, w1 in td.tree.incident(t):
            for e2, w2 in td.tree.incident(t):
                if e1 == e2:
                    continue
                # e1 oriented (w1 -> t), e2 oriented (t -> w2)
                if not oriented_le(sides[e1, w1], sides[e1, t],
                                   sides[e2, t], sides[e2, w2]):
                    raise GraphError("tree orientations are not order-compatible")


class _AxiomReport:
    """A verifier's report: the boolean fields named in `_AXIOMS` are the
    axioms, and it passes when all of them hold."""

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list:
        return [name for name in self._AXIOMS if not getattr(self, name)]

    def to_json_obj(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass
class TreeDecompositionReport(_AxiomReport):
    is_tree: bool
    covers_vertices: bool
    covers_edges: bool
    subtrees_connected: bool
    adhesion_identity: bool
    regular: bool
    max_adhesion: int
    max_part_size: int

    _AXIOMS = ("is_tree", "covers_vertices", "covers_edges",
               "subtrees_connected", "adhesion_identity", "regular")


def verify_tree_decomposition(g: Multigraph, td: TreeDecomposition) -> TreeDecompositionReport:
    """Check the decomposition axioms and report, never raise."""
    masks = {t: td.part_mask(t) for t in td.tree.vertices}
    return _tree_report(g, td, masks, _tree_edge_sides(td, masks, td.tree.edges))


def _tree_report(g: Multigraph, td: TreeDecomposition, masks: dict,
                 sides: dict) -> TreeDecompositionReport:
    vall = g.bits().vall
    union = 0
    for m in masks.values():
        union |= m
    covers_edges = all(any(ends & ~m == 0 for m in masks.values())
                       for ends in _edge_end_masks(g))
    adj = td.tree.bits().adj

    def subtree_connected(bit) -> bool:
        holders = td.tree.vertex_mask(t for t, m in masks.items() if m & bit)
        return len(_components_masks(adj, holders)) == 1

    adhesion_identity = regular = True
    max_adhesion = 0
    for e in td.tree.edges:
        a, b = td.tree.ends[e]
        am, bm = sides[e, a], sides[e, b]
        sep = am & bm
        if masks[a] & masks[b] != sep or td.edge_separation[e].separator != sep:
            adhesion_identity = False
        if vall in (am, bm):
            regular = False
        max_adhesion = max(max_adhesion, sep.bit_count())

    return TreeDecompositionReport(
        _is_tree(td.tree), union == vall, covers_edges,
        all(subtree_connected(1 << i) for i in range(len(g.vertices))),
        adhesion_identity, regular,
        max_adhesion, max((len(p) for p in td.parts.values()), default=0))


# ---------------------------------------------------------------------------
# group actions on tree-decompositions
# ---------------------------------------------------------------------------

def node_map_under(td: TreeDecomposition, iso) -> Optional[dict]:
    """The node permutation induced by a graph automorphism, or None.

    The automorphism maps each star's oriented separations to oriented
    separations; when the image of every star is again a star of the
    decomposition this yields the unique tree action with
    image-part(t) = part(image(t)).
    """
    g = td.graph
    seps = td.separations
    sep_index = {_sorted_pair(s.a_mask, s.b_mask): i for i, s in enumerate(seps)}

    mapped_member = {}
    for i, s in enumerate(seps):
        am = _apply_vertex_map_to_mask(g, iso, s.a_mask)
        bm = _apply_vertex_map_to_mask(g, iso, s.b_mask)
        j = sep_index.get(_sorted_pair(am, bm))
        if j is None:
            return None
        # by the key, am and bm are each the A or the B side of seps[j]
        mapped_member[(i, 0)] = (j, 0 if am == seps[j].a_mask else 1)
        mapped_member[(i, 1)] = (j, 0 if bm == seps[j].a_mask else 1)

    members_to_node = {star.members: t for t, star in td.stars.items()}
    out = {}
    for t, star in td.stars.items():
        image = tuple(sorted(mapped_member[m] for m in star.members))
        t2 = members_to_node.get(image)
        if t2 is None:
            return None
        out[t] = t2
    return out


def tree_automorphisms_matching(td: TreeDecomposition, iso):
    """All tree automorphisms psi with iso(part(t)) = part(psi(t)), or
    UNDECIDED when the tree's automorphisms cannot all be listed (see
    `multigraph.automorphisms`).

    Used to confirm that the action of a graph automorphism on a regular
    tree-decomposition is unique.
    """
    tree = td.tree
    target_parts = {}
    for t in tree.vertices:
        target_parts[t] = frozenset(iso.vertex_map[v] for v in td.parts[t])
    out = []
    autos = automorphisms(tree)
    if autos is UNDECIDED:
        return UNDECIDED
    for a in autos:
        if all(frozenset(td.parts[a.vertex_map[t]]) == target_parts[t]
               for t in tree.vertices):
            out.append({t: a.vertex_map[t] for t in tree.vertices})
    return out
