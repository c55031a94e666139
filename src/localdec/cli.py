"""Command line interface: batch commands over JSON graph files.

Exit codes: 0 exact success, 1 verification failure or a failed internal
check, 2 input error, 3 certified-heuristic success, 4 uncertified.
Outputs are deterministic; running a command twice on the same input
produces identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from localdec.graphdec import (
    GraphDecomposition,
    PipelineError,
    decompose,
    induce_separation_from_model,
    verify_graph_decomposition,
)
from localdec.grouppres import (
    abelianized_free_rank,
    deck_group_presentation,
    todd_coxeter,
)
from localdec.localcover import (
    Covering,
    GeneralCover,
    LabelledGraph,
    TruncatedCover,
    covering_failure,
    local_cover,
    local_group_extension,
    verify_ball_preservation,
    verify_cover_cycle_space,
)
from localdec.multigraph import GraphError, InvariantError, Multigraph, UNDECIDED, _json_array
from localdec.tangles import canonical_nested_set
from localdec.treedecomp import (
    TreeDecomposition,
    induce_tree_decomposition,
    verify_tree_decomposition,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CERTIFIED = 3
EXIT_UNCERTIFIED = 4


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(cfg: argparse.Namespace, obj) -> None:
    text = _dump(obj)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_dot(cfg: argparse.Namespace, text: str) -> None:
    if cfg.dot:
        with open(cfg.dot, "w") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _require_r(cfg: argparse.Namespace) -> None:
    if cfg.r < 1:
        raise GraphError("--r must be at least 1")


def _require_connected(g: Multigraph) -> None:
    if not g.is_connected():
        raise GraphError("input graph is disconnected")


def _load_graph(cfg: argparse.Namespace, needs_r: bool = False) -> Multigraph:
    """The input graph; the --r check, where the command needs it, comes
    after the file is read and before the connectivity check."""
    g = Multigraph.from_json_obj(_load_json(cfg.input))
    if needs_r:
        _require_r(cfg)
    _require_connected(g)
    return g


def _emit_enumeration(cfg: argparse.Namespace, pres, size_key: str) -> bool:
    """Emit the presentation with its coset enumeration at --coset-limit,
    the group's size under `size_key`; True when the enumeration closed."""
    table = todd_coxeter(pres, cfg.coset_limit)
    obj = pres.to_json_obj()
    obj["enumeration"] = {
        "complete": table.complete,
        size_key: table.n_cosets() if table.complete else None,
        "coset_limit": cfg.coset_limit,
        "abelianized_free_rank": abelianized_free_rank(pres),
    }
    _emit(cfg, obj)
    return table.complete


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_cover(cfg: argparse.Namespace) -> int:
    g = _load_graph(cfg, needs_r=True)
    cov = local_cover(g, cfg.r, cfg.coset_limit, cfg.truncation_radius)
    _emit(cfg, cov.to_json_obj())
    if isinstance(cov, Covering):
        return EXIT_OK
    return EXIT_CERTIFIED if cov.certified else EXIT_UNCERTIFIED


def cmd_deck_group(cfg: argparse.Namespace) -> int:
    g = _load_graph(cfg, needs_r=True)
    pres = deck_group_presentation(g, cfg.r, g.vertices[0])
    return EXIT_OK if _emit_enumeration(cfg, pres, "cosets") else EXIT_CERTIFIED


def cmd_tangles(cfg: argparse.Namespace) -> int:
    g = _load_graph(cfg)
    ns = canonical_nested_set(g, cfg.max_tangle_order)
    _emit(cfg, {
        "max_tangle_order": cfg.max_tangle_order,
        "tangles": [t.to_json_obj() for t in ns.tangles],
        "canonical_nested_set": ns.to_json_obj(),
    })
    return EXIT_OK


def cmd_tree(cfg: argparse.Namespace) -> int:
    g = _load_graph(cfg)
    ns = canonical_nested_set(g, cfg.max_tangle_order)
    td = induce_tree_decomposition(g, ns)
    obj = td.to_json_obj()
    obj["base"] = g.to_json_obj()
    obj["max_tangle_order"] = cfg.max_tangle_order
    _emit(cfg, obj)
    _emit_dot(cfg, td.to_dot())
    return EXIT_OK


def cmd_decompose(cfg: argparse.Namespace) -> int:
    g = _load_graph(cfg, needs_r=True)
    try:
        res = decompose(g, cfg.r, cfg.max_tangle_order, cfg.coset_limit,
                        cfg.truncation_radius)
    except PipelineError as exc:
        sys.stderr.write("decomposition failed: %s\n" % exc)
        if exc.diagnostics:
            sys.stderr.write(_dump({"diagnostics": exc.diagnostics}))
        return EXIT_UNCERTIFIED
    _emit(cfg, res.to_json_obj())
    _emit_dot(cfg, res.to_dot())
    if not res.report.passed or res.canonicity is False:
        return EXIT_VERIFY_FAILED
    return EXIT_OK if res.exact else EXIT_CERTIFIED


def cmd_gamma_r(cfg: argparse.Namespace) -> int:
    if not cfg.labelled:
        raise GraphError("gamma-r needs a labelled Cayley graph (--labelled)")
    _require_r(cfg)
    cay = LabelledGraph.from_json_obj(_load_json(cfg.input))
    _require_connected(cay.graph)
    _emit_enumeration(cfg, local_group_extension(cay, cfg.r), "order")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _json_object(obj, key) -> dict:
    """obj[key], refused unless it is a JSON object."""
    if not isinstance(obj[key], dict):
        raise GraphError("bad graph JSON: %s must be an object" % key)
    return obj[key]


def _decomposition_from_json(obj: dict) -> GraphDecomposition:
    base = Multigraph.from_json_obj(obj["base"])
    model = Multigraph.from_json_obj(obj["H"])
    parts = {}
    for h in _json_object(obj, "parts"):
        sub = _json_object(obj["parts"], h)
        parts[h] = base.subgraph(_json_array(sub, "vertices"),
                                 [e["id"] for e in _json_array(sub, "edges")])
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


def _cover_from_json(obj: dict, r: int):
    base = Multigraph.from_json_obj(obj["base"])
    graph = Multigraph.from_json_obj(obj["graph"])
    proj_v = _json_object(_json_object(obj, "projection"), "vertices")
    proj_e = _json_object(obj["projection"], "edges")
    if not obj.get("truncated"):
        # the artifact records no base point
        return GeneralCover(base, graph, proj_v, proj_e, None)
    root = obj["root"]
    certs = dict(obj.get("certificates", {}))
    return TruncatedCover(base, graph, root, obj["radius"], proj_v, proj_e,
                          None, graph.distances(root), r, certs,
                          certs.get("table_covers_ball", True))


def _verify_cover_artifact(obj: dict, r: int) -> dict:
    cov = _cover_from_json(obj, r)
    holds = covering_failure(cov) is None
    truncated = isinstance(cov, TruncatedCover)
    out = {"covering_condition": holds, "truncated": truncated}
    if truncated:
        # radius stability needs the coset limit, which the artifact lacks
        out["certificates"] = obj.get("certificates", {})
        if r:
            sep = verify_ball_preservation(cov, r)
            out["lift_separation"] = None if sep is UNDECIDED else sep
            cov.certificates["lift_separation"] = out["lift_separation"]
        out["passed"] = holds and cov.certified
    elif r:
        out["lift_separation"] = verify_ball_preservation(cov, r)
        out["short_cycles_span_cover"] = verify_cover_cycle_space(cov, r)
        out["passed"] = (holds and out["lift_separation"]
                         and out["short_cycles_span_cover"])
    else:
        out["passed"] = holds
    return out


def _verify_tree_artifact(obj: dict) -> dict:
    base = Multigraph.from_json_obj(obj["base"])
    td = TreeDecomposition.from_json_obj(base, obj)
    return verify_tree_decomposition(base, td).to_json_obj()


def cmd_verify(cfg: argparse.Namespace) -> int:
    obj = _load_json(cfg.input)
    if not isinstance(obj, dict):
        raise GraphError("unrecognized artifact layout")
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
    parser.add_argument("command", choices=_DISPATCH)
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
    try:
        for name in ("max_tangle_order", "coset_limit", "truncation_radius"):
            if getattr(args, name) < 1:
                raise GraphError("%s must be positive" % name)
        return _DISPATCH[args.command](args)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INPUT_ERROR
    except InvariantError as exc:
        sys.stderr.write("error: internal check failed: %s\n" % exc)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
