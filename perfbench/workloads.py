"""The four workloads: their inputs, their operations and how each
operation's output is checked.

A workload's set-up returns its list of operations and a note on its
inputs; one round runs each operation once, in order.  Only `run` is
timed.  `check` returns (problems, failed): problems mean a wrong
answer, `failed` means the program gave up on the operation (a budget
ran out, or an exit code says so) without answering wrongly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import checks

R = 3                    # locality of the necklace and cover workloads
CORPUS_CALLS = 400       # finite-mode decompose calls per corpus round
CORPUS_LOCALITIES = (3, 4, 5)
CORPUS_DRAW = 2024
BALL_RADIUS = 6
BALL_ORDER = 4


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def necklace_graph(n: int, clique: int = 5):
    """n complete graphs glued at single cut vertices arranged in a cycle."""
    glues = ["g%d" % i for i in range(n)]
    vertices = []
    for b in range(n):
        vertices.append(glues[b])
        vertices += ["v%d_%d" % (b, j) for j in range(clique - 2)]
    ends = {}
    for b in range(n):
        block = [glues[b]] + ["v%d_%d" % (b, j) for j in range(clique - 2)] \
            + [glues[(b + 1) % n]]
        for u, v in combinations(block, 2):
            ends["e%d_%s_%s" % (b, u, v)] = (u, v)
    return vertices, ends


def write_graph(path, vertices, ends) -> None:
    path.write_text(json.dumps({
        "vertices": vertices,
        "edges": [{"id": e, "ends": list(uv)} for e, uv in ends.items()],
    }))


def _cli_op(mods, name, argv, out_path, expect_code, check_output) -> Op:
    def run():
        return mods["cli"].main(argv)

    def check(code):
        if code == 4:
            return [], True
        if code != expect_code:
            return ["exit code %r, expected %d" % (code, expect_code)], False
        obj = json.loads(out_path.read_text())
        out_path.unlink()
        return check_output(obj)

    return Op(name, run, check)


def necklace(mods, seed, workdir) -> tuple:
    """The README example through the CLI, in-process, on necklace(4) and
    necklace(6).  The inputs do not depend on the seed."""
    ops = []
    for n in (4, 6):
        vertices, ends = necklace_graph(n)
        src = workdir / ("necklace%d.json" % n)
        out = workdir / ("necklace%d.decomposition.json" % n)
        write_graph(src, vertices, ends)
        argv = ["decompose", "--input", str(src), "--r", str(R),
                "--max-tangle-order", "2", "--coset-limit", "3000",
                "--truncation-radius", "10", "--out", str(out),
                "--dot", str(workdir / ("necklace%d.dot" % n))]
        ops.append(_cli_op(
            mods, "decompose necklace(%d)" % n, argv, out, 3,
            lambda obj, v=vertices, e=ends, n=n: checks.necklace_problems(obj, v, e, n)))
    return ops, "necklace(4) and necklace(6), r=3"


def cover(mods, seed, workdir) -> tuple:
    """`localdec cover --r 3` with the default coset limit and radius on the
    necklace inputs.  The inputs do not depend on the seed."""
    ops = []
    for n in (4, 6):
        vertices, ends = necklace_graph(n)
        src = workdir / ("necklace%d.json" % n)
        out = workdir / ("necklace%d.cover.json" % n)
        write_graph(src, vertices, ends)
        argv = ["cover", "--input", str(src), "--r", str(R), "--out", str(out)]
        ops.append(_cli_op(
            mods, "cover necklace(%d)" % n, argv, out, 3,
            lambda obj, v=vertices, e=ends: (checks.cover_problems(obj, v, e, R), False)))
    return ops, "necklace(4) and necklace(6), r=3"


def random_connected_graph(rng, n: int, extra: int):
    """A random spanning tree on n vertices plus up to `extra` new edges."""
    ends = {}
    for i in range(1, n):
        ends["t%d" % i] = (rng.randrange(i), i)
    for k in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        while u == v:
            u, v = rng.randrange(n), rng.randrange(n)
        if {u, v} not in [set(p) for p in ends.values()]:
            ends["x%d" % k] = (min(u, v), max(u, v))
    return list(range(n)), ends


def corpus_pairs(mods, seed: int):
    """The (g, r) pairs, r in CORPUS_LOCALITIES, that run in finite mode,
    until there are CORPUS_CALLS of them.  Returns (pairs, number set
    aside).

    The graphs are the fixed draw of random connected graphs on 4-10
    vertices from CORPUS_DRAW; the seed relabels each graph's vertices
    and shuffles the calls.  A few graphs with large automorphism groups
    cost a hundred times the median call, so a fresh draw per seed would
    make the round time depend on whether the seed drew one."""
    Multigraph = mods["multigraph"].Multigraph
    grouppres = mods["grouppres"]
    draw = random.Random(CORPUS_DRAW)
    relabel = random.Random(seed)
    pairs = []
    aside = 0
    while len(pairs) < CORPUS_CALLS:
        n = draw.randrange(4, 11)
        mmax = min(18, n * (n - 1) // 2)
        extra = draw.randrange(0, max(1, mmax - (n - 1) + 1))
        _, ends = random_connected_graph(draw, n, extra)
        perm = list(range(n))
        relabel.shuffle(perm)
        ends = {e: (perm[u], perm[v]) for e, (u, v) in ends.items()}
        vertices = list(range(n))
        g = Multigraph(vertices, ends.items())
        limit = 5000 // n + 20
        for r in CORPUS_LOCALITIES:
            if len(pairs) == CORPUS_CALLS:
                break
            # the decision local_cover makes: finite mode iff the coset
            # enumeration of the deck group closes within the limit
            pres = grouppres.deck_group_presentation(g, r, g.vertices[0])
            if grouppres.todd_coxeter(pres, limit).complete:
                pairs.append((g, vertices, ends, r, limit))
            else:
                aside += 1
    relabel.shuffle(pairs)
    return pairs, aside


def corpus(mods, seed, workdir) -> tuple:
    """Library decompose calls at tangle order 4 on the finite-mode pairs."""
    pairs, aside = corpus_pairs(mods, seed)
    ops = []
    for i, (g, vertices, ends, r, limit) in enumerate(pairs):
        def run(g=g, r=r, limit=limit):
            return mods["graphdec"].decompose(g, r, max_tangle_order=4,
                                              coset_limit=limit, truncation_radius=4)

        def check(res, vertices=vertices, ends=ends, r=r):
            if res.provenance["mode"] != "finite":
                return ["mode %r, expected finite" % res.provenance["mode"]], False
            d = res.decomposition
            parts = {h: (set(d.parts[h].vertices), set(d.parts[h].edges))
                     for h in d.model.vertices}
            return checks.corpus_problems(
                vertices, ends, list(d.model.vertices), dict(d.model.ends), parts, r,
                res.canonicity, res.provenance["automorphisms"],
                res.provenance["details"]["sheets"])

        ops.append(Op("decompose corpus[%d] r=%d" % (i, r), run, check))
    return ops, ("%d finite-mode pairs; %d pairs set aside as truncated-mode"
                 % (len(pairs), aside))


def ball_graph(radius: int):
    """The chain ball as named vertices and edges, with neighbour masks."""
    cv, ce, _ = checks.chain_ball(radius)

    def vname(v):
        return "g%d" % v[1] if v[0] == "G" else "v%d_%d" % (v[1], v[2])

    vertices = [vname(v) for v in cv]
    pos = {v: i for i, v in enumerate(vertices)}
    ends = {}
    adj = [0] * len(vertices)
    for (b, u, v) in ce:
        a, c = vname(u), vname(v)
        ends["e%d_%s_%s" % (b, a, c)] = (a, c)
        adj[pos[a]] |= 1 << pos[c]
        adj[pos[c]] |= 1 << pos[a]
    return vertices, ends, adj


def ball_tangles(mods, seed, workdir) -> tuple:
    """SeparationUniverse plus canonical_nested_set at order 4 on the
    radius-6 ball of the unrolled clique chain, which is the truncated
    ball of necklace(6).  The input does not depend on the seed."""
    vertices, ends, adj = ball_graph(BALL_RADIUS)
    g = mods["multigraph"].Multigraph(vertices, ends.items())

    def run():
        tangles = mods["tangles"]
        uni = tangles.SeparationUniverse(g, BALL_ORDER)
        return uni, tangles.canonical_nested_set(uni, BALL_ORDER, check_invariance=False)

    def check(result):
        uni, ns = result
        members = [(uni.seps[i].a_mask, uni.seps[i].b_mask, i) for i in ns.indices]
        return checks.nested_set_problems(
            adj, members, [t.choices for t in ns.tangles], BALL_ORDER), False

    return ([Op("nested set of the radius-%d chain ball" % BALL_RADIUS, run, check)],
            "chain ball of radius %d: %d vertices, %d edges"
            % (BALL_RADIUS, len(vertices), len(ends)))


WORKLOADS = {
    "necklace": necklace,
    "cover": cover,
    "corpus": corpus,
    "ball_tangles": ball_tangles,
}
