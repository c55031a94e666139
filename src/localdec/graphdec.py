"""Graph-decompositions and the end-to-end locality pipeline.

A graph-decomposition is a model graph H together with one subgraph of the
base per node of H.  Decompositions arise here in two ways: by projecting
a deck-invariant tree-decomposition of a cover to the base (quotient by
the deck action), and by covering a cover with balls indexed by the deck
group itself (the Cayley model).  The pipeline computes the canonical
nested set on the r-local cover, turns it into a tree-decomposition and
projects; for infinite covers it works on a certified truncated ball,
quotients only its core, and accepts the run when two consecutive radii
produce the same decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from localdec.localcover import (
    Covering,
    TruncatedCover,
    _transport,
    cayley_graph,
    local_cover,
    shrink_truncated,
)
from localdec.multigraph import (
    GraphError,
    Isomorphism,
    Multigraph,
    UNDECIDED,
    _backtrack,
    _components_masks,
    automorphism_group,
    ball,
)
from localdec.tangles import BudgetError, Separation, canonical_nested_set
from localdec.treedecomp import (
    TreeDecomposition,
    _AxiomReport,
    induce_tree_decomposition,
    node_map_under,
)


class DecompositionError(GraphError):
    pass


class PipelineError(DecompositionError):
    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class GraphDecomposition:
    """A model graph and one (not necessarily induced) part per model node."""

    base: Multigraph
    model: Multigraph
    parts: dict  # model node -> Multigraph, a subgraph of base

    def part_vertex_set(self, h) -> frozenset:
        return frozenset(self.parts[h].vertices)

    def part_edge_set(self, h) -> frozenset:
        return frozenset(self.parts[h].edges)

    def vertex_support(self, v):
        """Model nodes whose part contains the base vertex v."""
        return [h for h in self.model.vertices if self.parts[h].has_vertex(v)]

    def edge_support(self, e):
        return [h for h in self.model.vertices if e in self.parts[h].ends]

    def to_json_obj(self) -> dict:
        return {
            "base": self.base.to_json_obj(),
            "H": self.model.to_json_obj(),
            "parts": {str(h): self.parts[h].to_json_obj()
                      for h in self.model.vertices},
        }


def trivial_decomposition(g: Multigraph) -> GraphDecomposition:
    model = Multigraph(["h0"], [])
    return GraphDecomposition(g, model, {"h0": g})


@dataclass
class DecompositionReport(_AxiomReport):
    parts_cover_graph: bool          # every vertex and edge in some part
    vertex_supports_connected: bool  # the model nodes holding a vertex induce a connected graph
    edge_supports_connected: bool    # same for edges
    adjacent_parts_intersect: bool   # honesty
    point_finite: bool
    max_vertex_multiplicity: int
    part_sizes: list
    model_nodes: int
    model_edges: int

    _AXIOMS = ("parts_cover_graph", "vertex_supports_connected",
               "edge_supports_connected", "adjacent_parts_intersect",
               "point_finite")


def verify_graph_decomposition(g: Multigraph, d: GraphDecomposition) -> DecompositionReport:
    """Evaluate the decomposition axioms, honesty and point-finiteness.

    Raises DecompositionError when d decomposes a graph other than g;
    otherwise failures are recorded in the report.
    """
    if d.base != g:
        raise DecompositionError("decomposition does not decompose this graph")
    union_v = set()
    union_e = set()
    for h in d.model.vertices:
        union_v.update(d.parts[h].vertices)
        union_e.update(d.parts[h].edges)
    covers = union_v == set(g.vertices) and union_e == set(g.edges)

    adj = d.model.bits().adj

    def support_connected(support) -> bool:
        return len(_components_masks(adj, d.model.vertex_mask(support))) == 1

    vertex_ok = all(support_connected(d.vertex_support(v)) for v in g.vertices)
    edge_ok = all(support_connected(d.edge_support(e)) for e in g.edges)

    honest = True
    for e in d.model.edges:
        a, b = d.model.ends[e]
        if not (d.part_vertex_set(a) & d.part_vertex_set(b)):
            honest = False
            break

    mults = [len(d.vertex_support(v)) for v in g.vertices]
    return DecompositionReport(
        parts_cover_graph=covers,
        vertex_supports_connected=vertex_ok,
        edge_supports_connected=edge_ok,
        adjacent_parts_intersect=honest,
        point_finite=True,
        max_vertex_multiplicity=max(mults, default=0),
        part_sizes=sorted(len(d.parts[h].vertices) for h in d.model.vertices),
        model_nodes=d.model.n_vertices(),
        model_edges=d.model.n_edges(),
    )


# ---------------------------------------------------------------------------
# duals and induced separations
# ---------------------------------------------------------------------------

def dual_decomposition(d: GraphDecomposition) -> GraphDecomposition:
    """The dual: the model decomposed over the base, with parts the vertex
    supports.  Needs an honest decomposition into connected parts."""
    report = verify_graph_decomposition(d.base, d)
    if not report.adjacent_parts_intersect or not report.parts_cover_graph:
        raise DecompositionError("dual needs an honest decomposition")
    for h in d.model.vertices:
        if not d.parts[h].is_connected() or not d.parts[h].vertices:
            raise DecompositionError("dual needs connected non-empty parts")
    parts = {}
    for v in d.base.vertices:
        parts[v] = d.model.induced(d.vertex_support(v))
    out = GraphDecomposition(d.model, d.base, parts)
    back = verify_graph_decomposition(d.model, out)
    if not (back.passed or (back.parts_cover_graph and back.vertex_supports_connected
                            and back.adjacent_parts_intersect)):
        raise DecompositionError("dual failed its own axioms: %s" % back.failures())
    return out


def induce_separation_from_model(d: GraphDecomposition, u_nodes, w_nodes) -> Separation:
    """The separation of the base induced by a separation {U, W} of the model
    vertex set, with the separator formula verified exactly."""
    u_set = set(u_nodes)
    w_set = set(w_nodes)
    if u_set | w_set != set(d.model.vertices):
        raise DecompositionError("U and W must cover the model vertex set")
    g = d.base
    a_mask = 0
    for h in u_set:
        a_mask |= g.vertex_mask(d.parts[h].vertices)
    b_mask = 0
    for h in w_set:
        b_mask |= g.vertex_mask(d.parts[h].vertices)
    bits = g.bits()
    if a_mask | b_mask != bits.vall:
        raise DecompositionError("induced sides do not cover the base")
    only_a = a_mask & ~b_mask
    only_b = b_mask & ~a_mask
    for iu, iv in bits.epairs:
        if (only_a >> iu & 1 and only_b >> iv & 1) or (only_a >> iv & 1 and only_b >> iu & 1):
            raise DecompositionError("induced sides are joined by an edge")

    # separator formula: shared nodes contribute whole parts, cross-edges
    # of the model contribute part intersections
    formula = 0
    for h in u_set & w_set:
        formula |= g.vertex_mask(d.parts[h].vertices)
    for e in d.model.edges:
        x, y = d.model.ends[e]
        pair = None
        if x in u_set - w_set and y in w_set - u_set:
            pair = (x, y)
        elif y in u_set - w_set and x in w_set - u_set:
            pair = (y, x)
        if pair:
            formula |= (g.vertex_mask(d.parts[pair[0]].vertices)
                        & g.vertex_mask(d.parts[pair[1]].vertices))
    if formula != (a_mask & b_mask):
        raise DecompositionError("separator formula mismatch")
    return Separation(min(a_mask, b_mask), max(a_mask, b_mask), bits.vall)


# ---------------------------------------------------------------------------
# quotients of tree-decompositions of covers
# ---------------------------------------------------------------------------

class _UnionFind:
    """Classes of 0..n-1; the root of a class is its least member."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)

    def classes(self) -> dict:
        """Root -> members, both in increasing order."""
        out = {}
        for i in range(len(self.parent)):
            out.setdefault(self.find(i), []).append(i)
        return out


def _project_part(cov, graph: Multigraph, vertices) -> Multigraph:
    """The base subgraph onto which the subgraph of `graph` (the cover or
    the ball of cov) induced by `vertices` projects."""
    within = graph.edge_mask_within(graph.vertex_mask(vertices))
    base_vs = {cov.projection_vertices[v] for v in vertices}
    base_es = {cov.projection_edges[e] for i, e in enumerate(graph.edges) if within >> i & 1}
    return cov.base.subgraph(base_vs, base_es)


def _orbit_quotient(cov, graph: Multigraph, td: TreeDecomposition, nodes,
                    edges, node_maps):
    """The decomposition of cov.base whose model is the graph of the orbits
    of the tree nodes `nodes` and tree edges `edges`, with the adhesion
    size of each model edge, and the node orbits (least member -> members,
    as indices into `nodes`).

    The orbits are those that `node_maps` generate: each map, a possibly
    partial dict from node to node, joins every mapped node with its image
    and every tree edge with both ends mapped with its image in `edges`.
    Orbits are named h<i> and f<i> in order of their least member; the
    part of a node orbit is the projection of any member, and all members
    must project to the same part.
    """
    index = {t: i for i, t in enumerate(nodes)}
    edge_index = {e: i for i, e in enumerate(edges)}
    node_orbits = _UnionFind(len(nodes))
    edge_orbits = _UnionFind(len(edges))
    for m in node_maps:
        for t, t2 in m.items():
            node_orbits.union(index[t], index[t2])
        for e in edges:
            a, b = td.tree.ends[e]
            if a in m and b in m:
                for e2 in td.tree.edges_between(m[a], m[b]):
                    if e2 in edge_index:
                        edge_orbits.union(edge_index[e], edge_index[e2])
    orbits = node_orbits.classes()
    name = {}
    parts = {}
    for root, members in orbits.items():
        name[root] = "h%d" % len(name)
        part = _project_part(cov, graph, td.parts[nodes[root]])
        for i in members[1:]:
            if _project_part(cov, graph, td.parts[nodes[i]]) != part:
                raise PipelineError("projected parts differ along an orbit")
        parts[name[root]] = part
    model_edges = []
    edge_labels = {}
    for root in edge_orbits.classes():
        a, b = td.tree.ends[edges[root]]
        f = "f%d" % len(model_edges)
        model_edges.append((f, (name[node_orbits.find(index[a])],
                                name[node_orbits.find(index[b])])))
        edge_labels[f] = len(td.adhesion(edges[root]))
    model = Multigraph(list(name.values()), model_edges)
    return GraphDecomposition(cov.base, model, parts), edge_labels, orbits


def quotient_decomposition(cov: Covering, td: TreeDecomposition) -> GraphDecomposition:
    """Construction of a decomposition of the base from a deck-invariant
    regular tree-decomposition of a finite cover: the model is the orbit
    graph of the decomposition tree under the deck group, the parts are the
    projections of the tree parts.

    Raises when the deck action does not stabilize the node set.  The
    result always passes the decomposition axioms, edge supports included,
    and honesty; a failure there is an internal error.
    """
    return _verified_quotient(cov, td)[0]


def _verified_quotient(cov: Covering, td: TreeDecomposition):
    """`quotient_decomposition` with its edge labels and axiom report."""
    if td.graph != cov.cover:
        raise DecompositionError("tree-decomposition does not decompose the cover")
    # the voltages generate the deck group (the derived graph is connected),
    # so their maps give the orbits, and the group stabilizes the
    # decomposition exactly when they do
    node_maps = []
    for h in sorted(set(cov.voltage.values.values()) - {0}):
        mapping = node_map_under(td, Isomorphism(cov.deck_vertex_map(h), {}))
        if mapping is None:
            raise DecompositionError(
                "deck transformation does not stabilize the tree-decomposition")
        node_maps.append(mapping)
    dec, edge_labels, _orbits = _orbit_quotient(
        cov, cov.cover, td, td.tree.vertices, td.tree.edges, node_maps)
    report = verify_graph_decomposition(cov.base, dec)
    if not report.passed:
        raise DecompositionError(
            "quotient decomposition violates its guaranteed axioms: %s"
            % report.failures())
    return dec, edge_labels, report


# ---------------------------------------------------------------------------
# the Cayley model of a finite cover
# ---------------------------------------------------------------------------

def cayley_model_decomposition(cov: Covering):
    """Cover the cover by the balls of radius |V(base)| around the deck
    translates of the base lift, modelled on a Cayley graph of the deck
    group.

    Returns (generators, decomposition, labelled Cayley graph).  The
    generator set collects, for one fixed lift per base vertex, the deck
    quotients of the part pairs containing it.
    """
    if not isinstance(cov, Covering):
        raise DecompositionError("the Cayley model needs a finite cover")
    deck = cov.deck
    nbase = cov.base.n_vertices()
    parts_by_elt = {}
    part_vsets = {}
    for h in range(deck.order):
        center = cov.deck_vertex_map(h)[cov.base_lift]
        bh = ball(cov.cover, [center], 2 * nbase)
        parts_by_elt[h] = bh
        part_vsets[h] = set(bh.vertices)

    gen_elts = set()
    for v in cov.base.vertices:
        v0 = cov.fibre(v)[0]
        holders = [h for h in range(deck.order) if v0 in part_vsets[h]]
        for a in holders:
            for b in holders:
                gen_elts.add(deck.op(deck.inverse(a), b))
    gens = [("s%d" % e, e) for e in sorted(gen_elts)]
    cay = cayley_graph(deck, gens)

    parts = {str(h): parts_by_elt[h] for h in range(deck.order)}
    dec = GraphDecomposition(cov.cover, cay.graph, parts)
    report = verify_graph_decomposition(cov.cover, dec)
    if not (report.parts_cover_graph and report.vertex_supports_connected
            and report.adjacent_parts_intersect):
        raise DecompositionError("Cayley model violates its guaranteed axioms: %s"
                                 % report.failures())
    for h in range(deck.order):
        if not parts_by_elt[h].is_connected():
            raise DecompositionError("a Cayley model part is disconnected")
    return [e for _, e in gens], dec, cay


# ---------------------------------------------------------------------------
# canonicity
# ---------------------------------------------------------------------------

def _match_models(m1: Multigraph, content1: dict, m2: Multigraph,
                  content2: dict) -> Optional[dict]:
    """A bijection psi from the nodes of m1 onto those of m2 with
    content2[psi(h)] == content1[h] that keeps the number of edges between
    every two nodes, loops included; None when there is none.  The
    contents are the colours, so no refinement runs."""
    return _backtrack(m1, m2, m1.vertices, [content1[h] for h in m1.vertices],
                      [content2[h] for h in m2.vertices], float("inf"))[0]


def _part_contents(d: GraphDecomposition) -> dict:
    return {h: (d.part_vertex_set(h), d.part_edge_set(h)) for h in d.model.vertices}


def _model_map_for(d: GraphDecomposition, iso: Isomorphism) -> Optional[dict]:
    """A model automorphism psi with iso(part(h)) = part(psi(h)), or None."""
    image = {h: (frozenset(iso.vertex_map[v] for v in d.parts[h].vertices),
                 frozenset(iso.edge_map[e] for e in d.parts[h].edges))
             for h in d.model.vertices}
    return _match_models(d.model, image, d.model, _part_contents(d))


def verify_canonicity(g: Multigraph, d: GraphDecomposition, autos) -> bool:
    """Does every automorphism of the base extend to the decomposition?

    True when each automorphism a has a model automorphism psi_a with
    a(part(h)) = part(psi_a(h)).  Such maps compose: psi_a o psi_b is one
    for a o b.  So the correspondence needs no check on pairs, and `autos`
    may be a generating set of the group rather than all of it.
    """
    if autos is UNDECIDED:
        raise DecompositionError("automorphism list is undecided")
    return all(_model_map_for(d, iso) is not None for iso in autos)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

@dataclass
class DecompositionResult:
    base: Multigraph
    r: int
    decomposition: GraphDecomposition
    edge_labels: dict
    report: DecompositionReport
    canonicity: Optional[bool]
    provenance: dict

    @property
    def exact(self) -> bool:
        return self.provenance.get("mode") == "finite"

    def to_json_obj(self) -> dict:
        obj = self.decomposition.to_json_obj()
        obj["edge_labels"] = {str(k): v for k, v in sorted(self.edge_labels.items())}
        obj["reports"] = {
            "decomposition": self.report.to_json_obj(),
            "canonicity": self.canonicity,
        }
        obj["provenance"] = self.provenance
        return obj

    def to_dot(self) -> str:
        lines = ["graph model {"]
        for h in self.decomposition.model.vertices:
            label = ",".join(str(v) for v in self.decomposition.parts[h].vertices)
            lines.append('  "%s" [tooltip="%s"];' % (h, label))
        for e in self.decomposition.model.edges:
            a, b = self.decomposition.model.ends[e]
            k = self.edge_labels.get(e)
            extra = ' [label="k=%d"]' % k if k is not None else ""
            lines.append('  "%s" -- "%s"%s;' % (a, b, extra))
        lines.append("}")
        return "\n".join(lines) + "\n"


def decompositions_agree(d1: GraphDecomposition, d2: GraphDecomposition) -> bool:
    """Same parts (as base subgraphs) arranged on isomorphic models."""
    if d1.base != d2.base:
        return False
    return _match_models(d1.model, _part_contents(d1),
                         d2.model, _part_contents(d2)) is not None


def _finite_pipeline(cov: Covering, max_tangle_order: int,
                     automorphism_budget: int, group):
    cover_group = None
    if cov.sheets() == 1 and group is not UNDECIDED:
        # the projection of a one-sheeted cover is an isomorphism, so the
        # base's group carried over saves a second search
        lift_v = {cov.projection_vertices[x]: x for x in cov.cover.vertices}
        lift_e = {cov.projection_edges[f]: f for f in cov.cover.edges}
        cover_group = ([Isomorphism({lift_v[u]: lift_v[w] for u, w in a.vertex_map.items()},
                                    {lift_e[e]: lift_e[f] for e, f in a.edge_map.items()})
                        for a in group[0]], group[1])
    ns = canonical_nested_set(cov.cover, max_tangle_order,
                              automorphism_budget=automorphism_budget,
                              group=cover_group)
    td = induce_tree_decomposition(cov.cover, ns)
    dec, edge_labels, report = _verified_quotient(cov, td)
    return dec, edge_labels, report, {
        "nested_set_size": len(ns),
        "tree_nodes": td.tree.n_vertices(),
        "cover_vertices": cov.cover.n_vertices(),
        "sheets": cov.sheets(),
    }


def _truncated_decomposition_once(r: int, cov: TruncatedCover,
                                  max_tangle_order: int):
    if not cov.certified:
        raise PipelineError("truncated cover is uncertified",
                            {"certificates": cov.certificates})
    core_depth = cov.radius - r
    if core_depth < 1:
        raise PipelineError("truncation radius leaves no core",
                            {"radius": cov.radius, "r": r})
    core_mask = cov.ball.vertex_mask(
        [v for v in cov.ball.vertices if cov.depths[v] <= core_depth])
    ns = canonical_nested_set(cov.ball, max_tangle_order, check_invariance=False)
    td = induce_tree_decomposition(cov.ball, ns)

    core_nodes = [t for t in td.tree.vertices
                  if (td.part_mask(t) | core_mask) == core_mask]
    if not core_nodes:
        raise PipelineError("no tree nodes lie inside the core")
    core_tree = td.tree.induced(core_nodes)
    if not core_tree.is_connected():
        raise PipelineError("core of the decomposition tree is disconnected")
    lookup = {}
    for t in core_nodes:
        lookup.setdefault(frozenset(td.parts[t]), []).append(t)

    def node_map(m):
        out = {}
        for t in core_nodes:
            cands = lookup.get(frozenset(m.get(v) for v in td.parts[t]), ())
            # an ambiguous image (two nodes with equal parts) must not merge
            # orbits silently; under-merging is caught by the witness checks
            if len(cands) == 1:
                out[t] = cands[0]
        return out

    # each partial deck map moves the root to another lift of its base
    # vertex; the orbits are what these maps identify inside the core
    transports = (_transport(cov, cov.ball, cov, cov.ball, cov.root, target, partial=True)
                  for target in cov.lifts_of(cov.projection_vertices[cov.root])
                  if target != cov.root)
    dec, edge_labels, orbits = _orbit_quotient(
        cov, cov.ball, td, core_nodes, core_tree.edges,
        (node_map(m) for m in transports if m is not None))
    if any(len(members) < 2 for members in orbits.values()):
        raise PipelineError("an orbit is witnessed only once inside the core",
                            {"orbits": {str(k): len(v) for k, v in orbits.items()}})
    info = {
        "radius": cov.radius,
        "core_depth": core_depth,
        "nested_set_size": len(ns),
        "core_nodes": len(core_nodes),
        "orbit_sizes": sorted(len(v) for v in orbits.values()),
        "certificates": dict(cov.certificates),
    }
    return dec, edge_labels, info


def decompose(g: Multigraph, r: int, max_tangle_order: int = 6,
              coset_limit: int = 100_000, truncation_radius: int = 10,
              automorphism_budget: int = 100_000) -> DecompositionResult:
    """The canonical decomposition of g displaying structure global at scale r.

    Finite covers go through the exact quotient construction; infinite
    ones through the certified-truncation surrogate, which is accepted
    only when the radius-R and radius-(R-1) runs produce identical
    decompositions.  The result embeds the axiom report and, budget
    permitting, the canonicity report.
    """
    if r < 1:
        raise PipelineError("locality parameter must be >= 1")
    if not g.is_connected():
        raise PipelineError("decompose needs a connected graph")
    cov = local_cover(g, r, coset_limit, truncation_radius)
    group = automorphism_group(g, budget=automorphism_budget)
    try:
        if isinstance(cov, Covering):
            dec, edge_labels, report, info = _finite_pipeline(
                cov, max_tangle_order, automorphism_budget, group)
            mode = "finite"
            info["heuristic"] = None
        else:
            if not cov.certified:
                raise PipelineError("cover enumeration undecided and truncation "
                                    "uncertified", {"certificates": cov.certificates})
            dec, edge_labels, info = _truncated_decomposition_once(
                r, cov, max_tangle_order)
            cov2 = shrink_truncated(cov, truncation_radius - 1)
            dec2, _labels2, info2 = _truncated_decomposition_once(
                r, cov2, max_tangle_order)
            if not decompositions_agree(dec, dec2):
                raise PipelineError(
                    "truncated decompositions disagree at consecutive radii",
                    {"radius": truncation_radius, "smaller": info2})
            mode = "truncated"
            info["heuristic"] = "stable at radius %d" % truncation_radius
            info["rim_filter"] = False  # a fixed key of the provenance format
            info["radii_compared"] = [truncation_radius, truncation_radius - 1]
            report = verify_graph_decomposition(g, dec)
    except BudgetError as exc:
        raise PipelineError(
            "separation enumeration exceeded its budget on the cover; "
            "lower max_tangle_order or the truncation radius",
            {"max_tangle_order": max_tangle_order, "cause": str(exc)}) from exc

    if group is UNDECIDED:
        canonicity = None
    else:
        canonicity = verify_canonicity(g, dec, group[0])
    provenance = {
        "r": r,
        "mode": mode,
        "max_tangle_order": max_tangle_order,
        "coset_limit": coset_limit,
        "truncation_radius": truncation_radius if mode == "truncated" else None,
        "details": info,
        "automorphisms": None if group is UNDECIDED else group[1],
    }
    return DecompositionResult(g, r, dec, edge_labels, report, canonicity,
                               provenance)
