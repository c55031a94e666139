"""Self-test of the benchmark's checks: each check passes the program's
genuine output and rejects tampered copies of it.

    python3 perfbench/selftest.py

Exits 0 when every genuine output passes and every tampered one is
rejected, so that no check is vacuous.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import checks
import workloads
from run import load_modules

ROOT = Path(__file__).resolve().parent.parent


def _necklace_cases(mods, workdir):
    n = 4
    vertices, ends = workloads.necklace_graph(n)
    src = workdir / "selftest-necklace.json"
    out = workdir / "selftest-necklace.out.json"
    workloads.write_graph(src, vertices, ends)
    code = mods["cli"].main(["decompose", "--input", str(src), "--r", "3",
                             "--max-tangle-order", "2", "--coset-limit", "3000",
                             "--truncation-radius", "10", "--out", str(out)])
    assert code == 3, code
    good = json.loads(out.read_text())

    def check(obj):
        problems, undecided = checks.necklace_problems(obj, vertices, ends, n)
        return problems + (["canonicity undecided"] if undecided else [])

    def drop_part(obj):
        h = obj["H"]["vertices"].pop(0)
        obj["H"]["edges"] = [e for e in obj["H"]["edges"] if h not in e["ends"]]
        del obj["parts"][h]

    def wrong_count(obj):
        obj["provenance"]["automorphisms"] += 1

    def relabel_edge(obj):
        obj["edge_labels"][next(iter(obj["edge_labels"]))] = 2

    def shrink_part(obj):
        part = next(iter(obj["parts"].values()))
        v = part["vertices"].pop()
        part["edges"] = [e for e in part["edges"] if v not in e["ends"]]

    return "necklace", check, good, [
        ("dropped part", drop_part), ("wrong automorphism count", wrong_count),
        ("edge label 2", relabel_edge), ("part missing a vertex", shrink_part)]


def _cover_cases(mods, workdir):
    vertices, ends = workloads.necklace_graph(4)
    src = workdir / "selftest-cover.json"
    out = workdir / "selftest-cover.out.json"
    workloads.write_graph(src, vertices, ends)
    code = mods["cli"].main(["cover", "--input", str(src), "--r", "3",
                             "--coset-limit", "3000", "--out", str(out)])
    assert code == 3, code
    good = json.loads(out.read_text())

    def drop_edge(obj):
        obj["graph"]["edges"].pop()

    def certificate(obj):
        obj["certificates"]["radius_stable"] = False

    def reproject(obj):
        x = obj["graph"]["vertices"][1]
        obj["projection"]["vertices"][x] = vertices[-1]

    return "cover", lambda obj: checks.cover_problems(obj, vertices, ends, 3), good, [
        ("dropped ball edge", drop_edge), ("false certificate", certificate),
        ("vertex projected elsewhere", reproject)]


def _corpus_cases(mods):
    pairs, _ = workloads.corpus_pairs(mods, 2024)
    g, vertices, ends, r, limit = next(p for p in pairs if len(p[2]) > len(p[1]))
    res = mods["graphdec"].decompose(g, r, max_tangle_order=4, coset_limit=limit,
                                     truncation_radius=4)
    d = res.decomposition
    good = {
        "model_vertices": list(d.model.vertices),
        "model_ends": dict(d.model.ends),
        "parts": {h: (set(d.parts[h].vertices), set(d.parts[h].edges))
                  for h in d.model.vertices},
        "r": r,
        "canonicity": res.canonicity,
        "automorphisms": res.provenance["automorphisms"],
        "sheets": res.provenance["details"]["sheets"],
    }

    def check(o):
        problems, undecided = checks.corpus_problems(
            vertices, ends, o["model_vertices"], o["model_ends"], o["parts"], o["r"],
            o["canonicity"], o["automorphisms"], o["sheets"])
        return problems + (["canonicity undecided"] if undecided else [])

    def drop_part(o):
        h = o["model_vertices"].pop()
        del o["parts"][h]
        o["model_ends"] = {f: uv for f, uv in o["model_ends"].items() if h not in uv}

    def model_cycle(o):
        a, b = o["model_vertices"][0], o["model_vertices"][-1]
        o["model_ends"]["extra"] = (a, b)

    def not_canonical(o):
        o["canonicity"] = False

    def shorter_locality(o):
        o["r"] = 1     # no cycle has length 1 in a simple graph

    return "corpus", check, good, [
        ("dropped part", drop_part), ("H with an extra edge", model_cycle),
        ("canonicity false", not_canonical), ("short cycles do not span", shorter_locality)]


def _ball_cases(mods):
    radius, order = 4, 4
    vertices, ends, adj = workloads.ball_graph(radius)
    g = mods["multigraph"].Multigraph(vertices, ends.items())
    uni = mods["tangles"].SeparationUniverse(g, order)
    ns = mods["tangles"].canonical_nested_set(uni, order, check_invariance=False)
    good = {"members": [(uni.seps[i].a_mask, uni.seps[i].b_mask, i) for i in ns.indices],
            "tangles": [t.choices for t in ns.tangles]}
    full = (1 << len(vertices)) - 1

    def add_crossing(o):
        a, b, _ = o["members"][0]
        i = next(i for i, s in enumerate(uni.seps)
                 if not checks.nested(a, b, s.a_mask, s.b_mask))
        o["members"].append((uni.seps[i].a_mask, uni.seps[i].b_mask, i))

    def drop_cuts(o):
        o["members"] = [m for m in o["members"] if bin(m[0] & m[1]).count("1") != 1]

    def fake_cut(o):
        x = next(i for i in range(len(vertices)) if not checks.is_cut_vertex(adj, full, i))
        y = (adj[x] & -adj[x]).bit_length() - 1
        o["members"].append((full & ~(1 << y), 1 << x | 1 << y, 0))

    def check(o):
        return checks.nested_set_problems(adj, o["members"], o["tangles"], order)

    return "ball_tangles", check, good, [
        ("added crossing separation", add_crossing),
        ("dropped the order-1 members", drop_cuts),
        ("separator that is not a cut vertex", fake_cut)]


def main() -> int:
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    mods = load_modules(ROOT / "src")
    ok = True
    for name, check, good, tamperings in (
            _necklace_cases(mods, workdir), _cover_cases(mods, workdir),
            _corpus_cases(mods), _ball_cases(mods)):
        problems = check(good)
        ok &= not problems
        print("%-4s %s genuine output: %s" % ("ok" if not problems else "FAIL", name,
                                             "; ".join(problems) or "accepted"))
        for label, tamper in tamperings:
            bad = copy.deepcopy(good)
            tamper(bad)
            problems = check(bad)
            ok &= bool(problems)
            print("%-4s %s %s: %s" % ("ok" if problems else "FAIL", name, label,
                                      "; ".join(problems) or "ACCEPTED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
