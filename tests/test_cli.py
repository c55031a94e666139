"""End-to-end tests of the command line interface."""

import json
from itertools import combinations

import pytest

from localdec.cli import main
from localdec.localcover import cayley_graph
from localdec.grouppres import FiniteGroup
from localdec.multigraph import Isomorphism, Multigraph

from test_multigraph import complete_graph, cycle_graph
from test_graphdec import necklace


def write_graph(path, g):
    path.write_text(json.dumps(g.to_json_obj()))
    return str(path)


def run(*argv):
    return main(list(argv))


def test_cover_identity_exit_zero(tmp_path):
    inp = write_graph(tmp_path / "k4.json", complete_graph(4))
    out = tmp_path / "cover.json"
    code = run("cover", "--input", inp, "--r", "3", "--coset-limit", "500",
               "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["truncated"] is False
    assert len(obj["graph"]["vertices"]) == 4


def test_cover_truncated_exit_three(tmp_path):
    inp = write_graph(tmp_path / "c5.json", cycle_graph(5))
    out = tmp_path / "cover.json"
    code = run("cover", "--input", inp, "--r", "4", "--coset-limit", "400",
               "--truncation-radius", "10", "--out", str(out))
    assert code == 3
    obj = json.loads(out.read_text())
    assert obj["truncated"] is True
    assert len(obj["graph"]["vertices"]) == 21


def test_cover_disconnected_exit_two(tmp_path):
    g = Multigraph([0, 1], [])
    inp = write_graph(tmp_path / "dis.json", g)
    assert run("cover", "--input", inp, "--r", "3") == 2


def test_missing_file_exit_two(tmp_path):
    assert run("cover", "--input", str(tmp_path / "nope.json"), "--r", "3") == 2


def test_malformed_json_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("cover", "--input", str(bad), "--r", "3") == 2
    bad.write_text('{"vertices": ["a"], "edges": [{"id": "e"}]}')
    assert run("cover", "--input", str(bad), "--r", "3") == 2
    bad.write_text('{"vertices": ["a", "a"], "edges": []}')
    assert run("tangles", "--input", str(bad)) == 2


def test_deck_group_outputs_presentation(tmp_path):
    inp = write_graph(tmp_path / "k4.json", complete_graph(4))
    out = tmp_path / "pres.json"
    code = run("deck-group", "--input", inp, "--r", "3", "--coset-limit", "500",
               "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text())
    assert len(obj["generators"]) == 3
    assert len(obj["relators"]) == 4
    assert obj["enumeration"]["complete"] is True
    assert obj["enumeration"]["cosets"] == 1


def test_tangles_and_tree_commands(tmp_path):
    from test_tangles import two_k5s
    inp = write_graph(tmp_path / "g.json", two_k5s())
    out = tmp_path / "tangles.json"
    assert run("tangles", "--input", inp, "--max-tangle-order", "3",
               "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["canonical_nested_set"]["separations"]

    tout = tmp_path / "tree.json"
    dot = tmp_path / "tree.dot"
    assert run("tree", "--input", inp, "--max-tangle-order", "3",
               "--out", str(tout), "--dot", str(dot)) == 0
    tobj = json.loads(tout.read_text())
    assert len(tobj["nodes"]) == 2
    assert "k=1" in dot.read_text()


def test_failed_internal_check_exits_one(tmp_path, monkeypatch, capsys):
    # a nested set that fails its own post-check is a fault of the
    # library, not an input error (exit 2)
    import localdec.tangles as tangles_mod
    from test_tangles import glued_cliques
    monkeypatch.setattr(tangles_mod, "crossing", lambda s, t: True)
    inp = write_graph(tmp_path / "g.json", glued_cliques(3))
    code = run("tree", "--input", inp, "--max-tangle-order", "3",
               "--out", str(tmp_path / "tree.json"))
    assert code == 1
    assert "canonical nested set contains a crossing pair" in capsys.readouterr().err


def test_failed_invariance_check_exits_one(tmp_path, monkeypatch, capsys):
    # a "group" holding a map that moves the nested set makes the
    # invariance check fail: a fault of the library, not of the input
    import localdec.multigraph as multigraph_mod
    from test_tangles import glued_cliques
    g = glued_cliques(3)
    verts = [str(v) for v in g.vertices]   # the names the CLI reads back
    shift = Isomorphism({v: verts[(i + 1) % len(verts)]
                         for i, v in enumerate(verts)}, {})
    monkeypatch.setattr(multigraph_mod, "automorphism_group",
                        lambda graph, budget=None: ([shift], len(verts)))
    inp = write_graph(tmp_path / "g.json", g)
    code = run("tangles", "--input", inp, "--max-tangle-order", "3",
               "--out", str(tmp_path / "tangles.json"))
    assert code == 1
    assert capsys.readouterr().err == ("error: internal check failed: canonical"
                                       " nested set is not automorphism-invariant\n")


def test_decompose_necklace_and_verify_round_trip(tmp_path):
    inp = write_graph(tmp_path / "neck.json", necklace(4))
    out = tmp_path / "dec.json"
    dot = tmp_path / "dec.dot"
    code = run("decompose", "--input", inp, "--r", "3",
               "--max-tangle-order", "2", "--coset-limit", "3000",
               "--truncation-radius", "10", "--out", str(out), "--dot", str(dot))
    assert code == 3
    obj = json.loads(out.read_text())
    assert len(obj["H"]["vertices"]) == 4
    assert len(obj["H"]["edges"]) == 4
    assert obj["reports"]["decomposition"]["passed"] is True
    assert obj["provenance"]["mode"] == "truncated"
    assert dot.read_text().startswith("graph model")

    assert run("verify", "--input", str(out)) == 0

    # tamper with a part: verification must fail with exit 1
    tampered = json.loads(out.read_text())
    first = sorted(tampered["parts"])[0]
    tampered["parts"][first]["edges"] = tampered["parts"][first]["edges"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tampered))
    assert run("verify", "--input", str(bad)) == 1


def test_decompose_k5_exact(tmp_path):
    inp = write_graph(tmp_path / "k5.json", complete_graph(5))
    out = tmp_path / "dec.json"
    code = run("decompose", "--input", inp, "--r", "3",
               "--max-tangle-order", "4", "--coset-limit", "500",
               "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text())
    assert len(obj["H"]["vertices"]) == 1
    assert obj["provenance"]["mode"] == "finite"


def test_decompose_uncertified_exit_four(tmp_path):
    inp = write_graph(tmp_path / "c5.json", cycle_graph(5))
    code = run("decompose", "--input", inp, "--r", "4",
               "--coset-limit", "200", "--truncation-radius", "2")
    assert code == 4


def test_readme_example_at_the_default_order_exceeds_the_budget(tmp_path, capsys):
    # the budget is charged for the requested order, although the orders
    # above the first one without a tangle are never enumerated
    inp = write_graph(tmp_path / "neck.json", necklace(4))
    code = run("decompose", "--input", inp, "--r", "3", "--coset-limit", "3000",
               "--truncation-radius", "10")
    assert code == 4
    err = capsys.readouterr().err
    assert "27373978 separator candidates" in err
    assert "budget of 5000000" in err


def test_verify_cover_artifact_and_r_mismatch(tmp_path):
    inp = write_graph(tmp_path / "c6.json", cycle_graph(6))
    out = tmp_path / "cover.json"
    assert run("cover", "--input", inp, "--r", "6", "--coset-limit", "500",
               "--out", str(out)) == 0

    # valid cover of itself: verification passes with the right r
    assert run("verify", "--input", str(out), "--r", "6") == 0

    # hand-build the double cover (a 12-cycle) and claim it is 6-local
    from test_localcover import c6_double_cover
    cov = c6_double_cover()
    fake = cov.to_json_obj()
    fake_path = tmp_path / "fake.json"
    fake_path.write_text(json.dumps(fake))
    assert run("verify", "--input", str(fake_path), "--r", "6") == 1


def test_verify_accepts_certified_truncated_covers(tmp_path):
    # rim vertices (depth = radius) lack part of their star; only the
    # stars below the rim are checked
    cases = [(cycle_graph(5), "4", "400"), (necklace(4), "3", "3000")]
    for i, (g, r, limit) in enumerate(cases):
        inp = write_graph(tmp_path / ("g%d.json" % i), g)
        out = tmp_path / ("cover%d.json" % i)
        assert run("cover", "--input", inp, "--r", r, "--coset-limit", limit,
                   "--out", str(out)) == 3
        report = tmp_path / ("report%d.json" % i)
        assert run("verify", "--input", str(out), "--out", str(report)) == 0
        obj = json.loads(report.read_text())
        assert obj["covering_condition"] is True
        assert obj["truncated"] is True


def test_verify_recomputes_truncated_lift_separation(tmp_path):
    inp = write_graph(tmp_path / "c5.json", cycle_graph(5))
    out = tmp_path / "cover.json"
    assert run("cover", "--input", inp, "--r", "4", "--coset-limit", "400",
               "--out", str(out)) == 3
    report = tmp_path / "report.json"
    assert run("verify", "--input", str(out), "--r", "4",
               "--out", str(report)) == 0
    assert json.loads(report.read_text())["lift_separation"] is True
    # the cover of C5 is a path: lifts of a vertex lie at distance 5
    assert run("verify", "--input", str(out), "--r", "5",
               "--out", str(report)) == 1
    obj = json.loads(report.read_text())
    assert obj["lift_separation"] is False
    assert obj["certificates"]["lift_separation"] is True


def test_verify_tree_artifact(tmp_path):
    from test_tangles import two_k5s
    inp = write_graph(tmp_path / "g.json", two_k5s())
    out = tmp_path / "tree.json"
    assert run("tree", "--input", inp, "--max-tangle-order", "3",
               "--out", str(out)) == 0
    report = tmp_path / "report.json"
    assert run("verify", "--input", str(out), "--out", str(report)) == 0
    obj = json.loads(report.read_text())
    assert obj["artifact"] == "tree-decomposition"
    assert obj["is_tree"] and obj["regular"]
    assert obj["max_adhesion"] == 1
    assert obj["max_part_size"] == 5

    tree = json.loads(out.read_text())
    assert tree["edges"][0]["adhesion"]
    no_adhesion = json.loads(out.read_text())
    no_adhesion["edges"][0]["adhesion"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(no_adhesion))
    assert run("verify", "--input", str(bad), "--out", str(report)) == 1
    assert json.loads(report.read_text())["adhesion_identity"] is False

    for node in range(len(tree["nodes"])):
        for v in tree["nodes"][node]["part"]:
            dropped = json.loads(out.read_text())
            dropped["nodes"][node]["part"].remove(v)
            bad.write_text(json.dumps(dropped))
            assert run("verify", "--input", str(bad), "--out", str(report)) == 1


def test_gamma_r_command(tmp_path):
    cay = cayley_graph(FiniteGroup.cyclic(5), [("s", 1)])
    inp = tmp_path / "cay.json"
    inp.write_text(json.dumps(cay.to_json_obj()))
    out = tmp_path / "pres.json"

    code = run("gamma-r", "--input", str(inp), "--r", "5", "--labelled",
               "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["generators"] == ["s"]
    assert obj["relators"] in ([[1, 1, 1, 1, 1]], [[-1, -1, -1, -1, -1]])
    assert obj["enumeration"]["order"] == 5

    code = run("gamma-r", "--input", str(inp), "--r", "4", "--labelled",
               "--out", str(out))
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["relators"] == []
    assert obj["enumeration"]["complete"] is False
    assert obj["enumeration"]["abelianized_free_rank"] == 1


def test_gamma_r_requires_labelled_flag(tmp_path):
    inp = write_graph(tmp_path / "c5.json", cycle_graph(5))
    assert run("gamma-r", "--input", inp, "--r", "5") == 2
    # labelled flag but no labels in the file
    assert run("gamma-r", "--input", inp, "--r", "5", "--labelled") == 2


def test_byte_identical_reruns(tmp_path):
    inp = write_graph(tmp_path / "neck.json", necklace(4))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert run("decompose", "--input", inp, "--r", "3",
                   "--max-tangle-order", "2", "--coset-limit", "3000",
                   "--truncation-radius", "8", "--out", str(out)) == 3
    assert out1.read_bytes() == out2.read_bytes()

    t1 = tmp_path / "t1.json"
    t2 = tmp_path / "t2.json"
    for out in (t1, t2):
        assert run("cover", "--input", inp, "--r", "3", "--coset-limit", "2000",
                   "--truncation-radius", "6", "--out", str(out)) == 3
    assert t1.read_bytes() == t2.read_bytes()


def test_invalid_option_values(tmp_path):
    inp = write_graph(tmp_path / "k4.json", complete_graph(4))
    assert run("decompose", "--input", inp, "--r", "3",
               "--max-tangle-order", "0") == 2
    assert run("cover", "--input", inp, "--r", "0") == 2


def test_verify_reports_a_tree_artifact_with_a_cycle(tmp_path):
    # a tree edge listed twice closes a cycle; the verifier still reports
    # on the artifact, and each copy's sides then cover every vertex
    from test_tangles import two_k5s
    inp = write_graph(tmp_path / "g.json", two_k5s())
    out = tmp_path / "tree.json"
    assert run("tree", "--input", inp, "--max-tangle-order", "3",
               "--out", str(out)) == 0
    cyclic = json.loads(out.read_text())
    cyclic["edges"].append(dict(cyclic["edges"][0]))
    bad = tmp_path / "cyclic.json"
    bad.write_text(json.dumps(cyclic))
    report = tmp_path / "report.json"
    assert run("verify", "--input", str(bad), "--out", str(report)) == 1
    obj = json.loads(report.read_text())
    assert obj["artifact"] == "tree-decomposition"
    assert obj["is_tree"] is False
    assert obj["regular"] is False


_ERROR_INPUTS = {
    "text.json": "not json",
    "split.json": json.dumps({"vertices": ["a", "b"], "edges": []}),
    "edge.json": json.dumps({"vertices": ["a", "b"],
                             "edges": [{"id": "e", "ends": ["a", "b"]}]}),
    "lists.json": json.dumps({"vertices": [[1], [2]], "edges": []}),
    "five.json": "5",
    "label.json": json.dumps({"vertices": ["0", "1"],
                              "edges": [{"id": "e", "ends": ["0", "1"], "label": ["x"]}]}),
    "identity.json": json.dumps({"vertices": ["0", "1"], "identity": ["0"],
                                 "edges": [{"id": "e", "ends": ["0", "1"], "label": "x"}]}),
    "strings.json": json.dumps({"vertices": "abc",
                                "edges": [{"id": "e1", "ends": "ab"}, {"id": "e2", "ends": "bc"}]}),
    "string-ends.json": json.dumps({"vertices": ["a", "b"], "edges": [{"id": "e", "ends": "ab"}]}),
    "objects.json": json.dumps({"vertices": {"a": 0, "b": 1},
                                "edges": [{"id": "e", "ends": {"a": 0, "b": 1}}]}),
    "object-ends.json": json.dumps({"vertices": ["a", "b"],
                                    "edges": [{"id": "e", "ends": {"a": 0, "b": 1}}]}),
    "object-edges.json": json.dumps({"vertices": ["a", "b"], "edges": {"e": ["a", "b"]}}),
}
_PATH_ABC = {"vertices": ["a", "b", "c"], "edges": [{"id": "ab", "ends": ["a", "b"]},
                                                    {"id": "bc", "ends": ["b", "c"]}]}
_ARTIFACTS = {
    "string-part.json": {"base": _PATH_ABC, "nodes": [{"id": "t0", "part": ["a", "b"]},
                                                      {"id": "t1", "part": "bc"}],
                         "edges": [{"a": "t0", "b": "t1", "adhesion": ["b"]}]},
    "string-adhesion.json": {"base": _PATH_ABC, "nodes": [{"id": "t0", "part": ["a", "b"]},
                                                          {"id": "t1", "part": ["b", "c"]}],
                             "edges": [{"a": "t0", "b": "t1", "adhesion": "b"}]},
    "object-nodes.json": {"base": _PATH_ABC, "nodes": {"t0": ["a", "b", "c"]}, "edges": []},
    "object-tree-edges.json": {"base": _PATH_ABC, "nodes": [{"id": "t0", "part": ["a", "b", "c"]}],
                               "edges": {"s0": ["t0", "t0"]}},
    "string-base.json": {"base": {"vertices": "abc", "edges": []}, "nodes": [], "edges": []},
    "string-part-vertices.json": {
        "base": _PATH_ABC, "H": {"vertices": ["h0"], "edges": []},
        "parts": {"h0": {"vertices": "abc", "edges": _PATH_ABC["edges"]}}},
    "object-part-edges.json": {
        "base": _PATH_ABC, "H": {"vertices": ["h0"], "edges": []},
        "parts": {"h0": {"vertices": ["a", "b", "c"], "edges": {"id": "ab"}}}},
}
_ERROR_INPUTS.update((name, json.dumps(obj)) for name, obj in _ARTIFACTS.items())
_ARRAY_ERRORS = {
    "strings.json": "vertices", "string-ends.json": "ends", "objects.json": "vertices",
    "object-ends.json": "ends", "object-edges.json": "edges", "string-part.json": "part",
    "string-adhesion.json": "adhesion", "object-nodes.json": "nodes",
    "object-tree-edges.json": "edges", "string-base.json": "vertices",
    "string-part-vertices.json": "vertices", "object-part-edges.json": "edges",
}
_ONE_VERTEX = {"vertices": ["a"], "edges": []}
_OBJECT_ARTIFACTS = {
    "array-parts.json": ({"base": _ONE_VERTEX, "H": {"vertices": ["h0"], "edges": []},
                          "parts": []}, "parts"),
    "int-parts.json": ({"base": _ONE_VERTEX, "H": {"vertices": ["h0"], "edges": []},
                        "parts": 5}, "parts"),
    "int-part.json": ({"base": _ONE_VERTEX, "H": {"vertices": ["h0"], "edges": []},
                       "parts": {"h0": 5}}, "h0"),
    "array-projection.json": ({"base": _ONE_VERTEX, "graph": _ONE_VERTEX,
                               "projection": []}, "projection"),
    "array-projection-vertices.json": ({"base": _ONE_VERTEX, "graph": _ONE_VERTEX,
                                        "projection": {"vertices": ["a"], "edges": {}}},
                                       "vertices"),
    "array-projection-edges.json": ({"base": _ONE_VERTEX, "graph": _ONE_VERTEX,
                                     "projection": {"vertices": {"a": "a"}, "edges": []}},
                                    "edges"),
}
_ERROR_INPUTS.update((name, json.dumps(obj)) for name, (obj, _) in _OBJECT_ARTIFACTS.items())
_MISSING = "error: [Errno 2] No such file or directory: 'nope.json'"
_R_ERROR = "error: --r must be at least 1"


def _error_table():
    commands = {"cover": ["--r", "1"], "deck-group": ["--r", "1"],
                "tangles": [], "tree": [], "decompose": ["--r", "1"],
                "verify": [], "gamma-r": ["--r", "1", "--labelled"]}
    for cmd, extra in commands.items():
        yield [cmd, "--input", "nope.json"] + extra, _MISSING
        yield ([cmd, "--input", "text.json"] + extra,
               "error: Expecting value: line 1 column 1 (char 0)")
        for option in ("max_tangle_order", "coset_limit", "truncation_radius"):
            flag = "--" + option.replace("_", "-")
            yield ([cmd, "--input", "nope.json", flag, "0"] + extra,
                   "error: %s must be positive" % option)
        if cmd == "verify":
            yield ([cmd, "--input", "five.json"],
                   "error: unrecognized artifact layout")
            continue
        yield ([cmd, "--input", "split.json"] + extra,
               "error: input graph is disconnected")
        yield ([cmd, "--input", "lists.json"] + extra,
               "error: bad graph JSON: unhashable type: 'list'")
        # a graph field that must be a JSON array is refused otherwise
        for name in ("strings.json", "string-ends.json", "objects.json",
                     "object-ends.json", "object-edges.json"):
            yield ([cmd, "--input", name] + extra,
                   "error: bad graph JSON: %s must be an array" % _ARRAY_ERRORS[name])
        if "--r" in extra:
            flags = extra[2:]   # what follows "--r 1"
            yield [cmd, "--input", "edge.json", "--r", "0"] + flags, _R_ERROR
            # gamma-r checks --r before it reads the file, the others after
            yield ([cmd, "--input", "nope.json", "--r", "0"] + flags,
                   _R_ERROR if cmd == "gamma-r" else _MISSING)
    yield (["gamma-r", "--input", "edge.json", "--r", "1"],
           "error: gamma-r needs a labelled Cayley graph (--labelled)")
    # so is a tree or decomposition artifact's, and its base graph's, for verify
    for name in _ARTIFACTS:
        yield (["verify", "--input", name],
               "error: bad graph JSON: %s must be an array" % _ARRAY_ERRORS[name])
    # a decomposition's parts and a cover's projection must be JSON objects
    for name, (_, key) in _OBJECT_ARTIFACTS.items():
        yield (["verify", "--input", name],
               "error: bad graph JSON: %s must be an object" % key)
    # a label or an identity JSON cannot hash names the labelled graph
    for name in ("label.json", "identity.json"):
        yield (["gamma-r", "--input", name, "--r", "1", "--labelled"],
               "error: bad labelled graph JSON: unhashable type: 'list'")


@pytest.mark.parametrize("argv, stderr", [
    pytest.param(argv, stderr, id=" ".join(argv)) for argv, stderr in _error_table()])
def test_error_paths_exit_two_with_one_line(tmp_path, monkeypatch, capsys,
                                             argv, stderr):
    monkeypatch.chdir(tmp_path)
    for name, text in _ERROR_INPUTS.items():
        (tmp_path / name).write_text(text)
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err == stderr + "\n"
    assert captured.out == ""
