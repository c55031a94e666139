"""Command line interface: batch commands over JSON graph files.

Exit codes: 0 exact success, 1 verification failure, 2 input error,
3 certified-heuristic success, 4 uncertified.  Outputs are deterministic;
running a command twice on the same input produces identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from localdec.graphdec import (
    GraphDecomposition,
    PipelineError,
    decompose,
    induce_separation_from_model,
    verify_graph_decomposition,
)
from localdec.grouppres import (
    abelianized_free_rank,
    todd_coxeter,
)
from localdec.localcover import (
    Covering,
    CoverError,
    LabelledGraph,
    local_cover,
    local_group_extension,
)
from localdec.multigraph import (
    GraphError,
    Multigraph,
    short_cycles_span,
)
from localdec.tangles import canonical_nested_set
from localdec.treedecomp import induce_tree_decomposition

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CERTIFIED = 3
EXIT_UNCERTIFIED = 4


@dataclass
class RunConfig:
    command: str
    input_path: str
    r: int = 0
    max_tangle_order: int = 6
    coset_limit: int = 100_000
    truncation_radius: int = 10
    out: str = ""
    dot: str = ""
    labelled: bool = False

    COMMANDS = ("cover", "deck-group", "tangles", "tree", "decompose",
                "verify", "gamma-r")

    def validate(self):
        if self.command not in self.COMMANDS:
            raise GraphError("unknown command %r" % self.command)
        for name in ("max_tangle_order", "coset_limit", "truncation_radius"):
            if getattr(self, name) < 1:
                raise GraphError("%s must be positive" % name)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(cfg: RunConfig, obj) -> None:
    text = _dump(obj)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_dot(cfg: RunConfig, text: str) -> None:
    if cfg.dot:
        with open(cfg.dot, "w") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_graph(cfg: RunConfig) -> Multigraph:
    obj = _load_json(cfg.input_path)
    return Multigraph.from_json_obj(obj)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_cover(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    if cfg.r < 1:
        raise GraphError("--r must be at least 1")
    if not g.is_connected():
        raise GraphError("input graph is disconnected")
    cov = local_cover(g, cfg.r, cfg.coset_limit, cfg.truncation_radius)
    obj = cov.to_json_obj()
    _emit(cfg, obj)
    if isinstance(cov, Covering):
        return EXIT_OK
    return EXIT_CERTIFIED if cov.certified else EXIT_UNCERTIFIED


def cmd_deck_group(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    if cfg.r < 1:
        raise GraphError("--r must be at least 1")
    if not g.is_connected():
        raise GraphError("input graph is disconnected")
    from localdec.grouppres import deck_group_presentation
    pres = deck_group_presentation(g, cfg.r, g.vertices[0])
    table = todd_coxeter(pres, cfg.coset_limit)
    obj = pres.to_json_obj()
    obj["enumeration"] = {
        "complete": table.complete,
        "cosets": table.n_cosets() if table.complete else None,
        "coset_limit": cfg.coset_limit,
        "abelianized_free_rank": abelianized_free_rank(pres),
    }
    _emit(cfg, obj)
    return EXIT_OK if table.complete else EXIT_CERTIFIED


def cmd_tangles(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    if not g.is_connected():
        raise GraphError("input graph is disconnected")
    ns = canonical_nested_set(g, cfg.max_tangle_order)
    obj = {
        "max_tangle_order": cfg.max_tangle_order,
        "tangles": [t.to_json_obj() for t in ns.tangles],
        "canonical_nested_set": ns.to_json_obj(),
    }
    _emit(cfg, obj)
    return EXIT_OK


def cmd_tree(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    if not g.is_connected():
        raise GraphError("input graph is disconnected")
    ns = canonical_nested_set(g, cfg.max_tangle_order)
    td = induce_tree_decomposition(g, ns)
    obj = td.to_json_obj()
    obj["base"] = g.to_json_obj()
    obj["max_tangle_order"] = cfg.max_tangle_order
    _emit(cfg, obj)
    _emit_dot(cfg, td.to_dot())
    return EXIT_OK


def cmd_decompose(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    if cfg.r < 1:
        raise GraphError("--r must be at least 1")
    if not g.is_connected():
        raise GraphError("input graph is disconnected")
    try:
        res = decompose(g, cfg.r, cfg.max_tangle_order, cfg.coset_limit,
                        cfg.truncation_radius)
    except PipelineError as exc:
        sys.stderr.write("decomposition failed: %s\n" % exc)
        if exc.diagnostics:
            sys.stderr.write(_dump({"diagnostics": _stringify(exc.diagnostics)}))
        return EXIT_UNCERTIFIED
    _emit(cfg, res.to_json_obj())
    _emit_dot(cfg, res.to_dot())
    if not res.report.passed or res.canonicity is False:
        return EXIT_VERIFY_FAILED
    return EXIT_OK if res.exact else EXIT_CERTIFIED


def _stringify(obj):
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def cmd_gamma_r(cfg: RunConfig) -> int:
    if not cfg.labelled:
        raise GraphError("gamma-r needs a labelled Cayley graph (--labelled)")
    if cfg.r < 1:
        raise GraphError("--r must be at least 1")
    obj = _load_json(cfg.input_path)
    cay = LabelledGraph.from_json_obj(obj)
    if not cay.graph.is_connected():
        raise GraphError("input graph is disconnected")
    pres = local_group_extension(cay, cfg.r)
    table = todd_coxeter(pres, cfg.coset_limit)
    out = pres.to_json_obj()
    out["enumeration"] = {
        "complete": table.complete,
        "order": table.n_cosets() if table.complete else None,
        "coset_limit": cfg.coset_limit,
        "abelianized_free_rank": abelianized_free_rank(pres),
    }
    _emit(cfg, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _decomposition_from_json(obj: dict) -> GraphDecomposition:
    base = Multigraph.from_json_obj(obj["base"])
    model = Multigraph.from_json_obj(obj["H"])
    parts = {}
    for h, sub in obj["parts"].items():
        parts[h] = base.subgraph([v for v in sub["vertices"]],
                                 [e["id"] for e in sub["edges"]])
    return GraphDecomposition(base, model, parts)


def _verify_decomposition_artifact(obj: dict) -> dict:
    d = _decomposition_from_json(obj)
    report = verify_graph_decomposition(d.base, d)
    out = report.to_json_obj()
    formula_ok = True
    try:
        nodes = list(d.model.vertices)
        for h in nodes:
            closed = [h] + sorted({w for _, w in d.model.incident(h)})
            others = [x for x in nodes if x != h] or [h]
            induce_separation_from_model(d, others, closed)
            induce_separation_from_model(d, nodes, [h])
    except GraphError as exc:
        formula_ok = False
        out["separator_formula_error"] = str(exc)
    out["separator_formula"] = formula_ok
    out["passed"] = bool(report.passed and formula_ok)
    return out


def _verify_cover_artifact(obj: dict, r: int) -> dict:
    base = Multigraph.from_json_obj(obj["base"])
    graph = Multigraph.from_json_obj(obj["graph"])
    proj_v = obj["projection"]["vertices"]
    proj_e = obj["projection"]["edges"]
    out = {}

    star_ok = True
    base_star = {}
    for v in base.vertices:
        ends = {}
        for e, w in base.incident(v):
            ends[str(e)] = ends.get(str(e), 0) + (2 if w == v else 1)
        base_star[str(v)] = ends
    for x in graph.vertices:
        ends = {}
        for e, w in graph.incident(x):
            be = proj_e[str(e)]
            ends[be] = ends.get(be, 0) + (2 if w == x else 1)
        if ends != base_star[proj_v[str(x)]]:
            star_ok = False
            break
    out["covering_condition"] = star_ok

    truncated = bool(obj.get("truncated"))
    out["truncated"] = truncated
    if r and not truncated:
        fibres = {}
        for x in graph.vertices:
            fibres.setdefault(proj_v[str(x)], []).append(x)
        sep_ok = True
        for v, lifts in fibres.items():
            for x in lifts:
                dist = graph.distances(x, cap=r)
                if any(y != x and y in dist for y in lifts):
                    sep_ok = False
                    break
            if not sep_ok:
                break
        out["lift_separation"] = sep_ok
        out["short_cycles_span_cover"] = short_cycles_span(graph, r)
        out["passed"] = star_ok and sep_ok and out["short_cycles_span_cover"]
    elif truncated:
        certs = obj.get("certificates", {})
        out["certificates"] = certs
        out["passed"] = star_ok and bool(certs.get("lift_separation")) \
            and bool(certs.get("radius_stable"))
    else:
        out["passed"] = star_ok
    return out


def _verify_tree_artifact(obj: dict) -> dict:
    base = Multigraph.from_json_obj(obj["base"])
    parts = {n["id"]: tuple(n["part"]) for n in obj["nodes"]}
    out = {}
    union = set()
    for p in parts.values():
        union.update(p)
    covers_vertices = union == set(base.vertices)
    covers_edges = all(
        any(set(map(str, base.ends[e])) <= set(p) for p in parts.values())
        for e in base.edges)
    nodes = list(parts)
    tree_edges = [(d["a"], d["b"]) for d in obj["edges"]]
    tree = Multigraph(nodes, (("te%d" % i, ab) for i, ab in enumerate(tree_edges)))
    is_tree = tree.is_connected() and len(tree.edges) == len(tree.vertices) - 1
    subtree_ok = True
    for v in base.vertices:
        holders = [n for n in nodes if str(v) in parts[n]]
        if not holders or not tree.induced(holders).is_connected():
            subtree_ok = False
            break
    adhesion_ok = all(
        set(d["adhesion"]) == set(parts[d["a"]]) & set(parts[d["b"]])
        for d in obj["edges"])
    out.update({
        "covers_vertices": covers_vertices,
        "covers_edges": covers_edges,
        "is_tree": is_tree,
        "subtrees_connected": subtree_ok,
        "adhesion_identity": adhesion_ok,
        "max_adhesion": max((len(d["adhesion"]) for d in obj["edges"]), default=0),
    })
    out["passed"] = all((covers_vertices, covers_edges, is_tree, subtree_ok,
                         adhesion_ok))
    return out


def cmd_verify(cfg: RunConfig) -> int:
    obj = _load_json(cfg.input_path)
    if "H" in obj and "parts" in obj:
        report = _verify_decomposition_artifact(obj)
        report["artifact"] = "decomposition"
    elif "projection" in obj:
        report = _verify_cover_artifact(obj, cfg.r)
        report["artifact"] = "cover"
    elif "nodes" in obj and "base" in obj:
        report = _verify_tree_artifact(obj)
        report["artifact"] = "tree-decomposition"
    else:
        raise GraphError("unrecognized artifact layout")
    _emit(cfg, report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localdec",
        description="local covers, tangles and canonical graph decompositions")
    parser.add_argument("command", choices=RunConfig.COMMANDS)
    parser.add_argument("--input", required=True, help="input JSON file")
    parser.add_argument("--r", type=int, default=0, help="locality parameter")
    parser.add_argument("--max-tangle-order", type=int, default=6)
    parser.add_argument("--coset-limit", type=int, default=100_000)
    parser.add_argument("--truncation-radius", type=int, default=10)
    parser.add_argument("--out", default="", help="output JSON path (default stdout)")
    parser.add_argument("--dot", default="", help="write a DOT rendering here")
    parser.add_argument("--labelled", action="store_true",
                        help="input edges carry Cayley generator labels")
    return parser


_DISPATCH = {
    "cover": cmd_cover,
    "deck-group": cmd_deck_group,
    "tangles": cmd_tangles,
    "tree": cmd_tree,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "gamma-r": cmd_gamma_r,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        input_path=args.input,
        r=args.r,
        max_tangle_order=args.max_tangle_order,
        coset_limit=args.coset_limit,
        truncation_radius=args.truncation_radius,
        out=args.out,
        dot=args.dot,
        labelled=args.labelled,
    )
    try:
        cfg.validate()
        return _DISPATCH[cfg.command](cfg)
    except (GraphError, CoverError, OSError, json.JSONDecodeError, KeyError,
            TypeError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
