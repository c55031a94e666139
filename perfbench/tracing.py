"""Spans around the calls into each module's public functions.

The modules bind each other's names at import (`graphdec` imports
`automorphisms` and `canonical_nested_set`, `localcover` imports
`todd_coxeter`, `cli` imports `decompose`), so a wrapper replaces the
name in every `localdec` module that holds it, and `uninstall` puts the
originals back.  Spans stay in memory; self time is a span's duration
minus the durations of its direct children (one thread, so children
never overlap).  Spans are timed with the clock the tracer is given,
which leaves out the calibrator's reference runs.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name).  "Class.__init__" wraps the constructor.
TARGETS = (
    ("multigraph", "automorphisms", "multigraph.automorphisms"),
    ("graphdec", "verify_canonicity", "graphdec.verify_canonicity"),
    ("graphdec", "decompose", "graphdec.decompose"),
    ("graphdec", "quotient_decomposition", "graphdec.quotient_decomposition"),
    ("graphdec", "verify_graph_decomposition", "graphdec.verify_graph_decomposition"),
    ("grouppres", "deck_group_presentation", "grouppres.deck_group_presentation"),
    ("grouppres", "todd_coxeter", "grouppres.todd_coxeter"),
    ("localcover", "local_cover", "localcover.local_cover"),
    ("tangles", "enumerate_separations", "tangles.enumerate_separations"),
    ("tangles", "SeparationUniverse.__init__", "tangles.separation_universe"),
    ("tangles", "canonical_nested_set", "tangles.canonical_nested_set"),
    ("treedecomp", "induce_tree_decomposition", "treedecomp.induce_tree_decomposition"),
    ("cli", "main", "cli.main"),
)
SPAN_NAMES = tuple(name for _, _, name in TARGETS)
COUNT_NAMES = (
    "multigraph.automorphisms_calls", "multigraph.automorphisms_listed",
    "multigraph.automorphisms_undecided", "graphdec.model_nodes",
    "grouppres.todd_coxeter_calls", "grouppres.cosets_defined",
    "localcover.ball_vertices", "tangles.separations", "tangles.tangles",
    "tangles.nested_set_size", "treedecomp.tree_nodes",
)


class Tracer:
    """Records spans [name, start, end, parent index] and exact counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.modules = None
        self.spans = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    def _count(self, span_name, args, result) -> None:
        c = self.counts
        if span_name == "multigraph.automorphisms":
            c["multigraph.automorphisms_calls"] += 1
            if result is self.modules["multigraph"].UNDECIDED:
                c["multigraph.automorphisms_undecided"] += 1
            else:
                c["multigraph.automorphisms_listed"] += len(result)
        elif span_name == "graphdec.decompose":
            c["graphdec.model_nodes"] += result.decomposition.model.n_vertices()
        elif span_name == "grouppres.todd_coxeter":
            c["grouppres.todd_coxeter_calls"] += 1
            c["grouppres.cosets_defined"] += result.defined_total
        elif span_name == "localcover.local_cover":
            if not isinstance(result, self.modules["localcover"].Covering):
                c["localcover.ball_vertices"] += result.ball.n_vertices()
        elif span_name == "tangles.separation_universe":
            c["tangles.separations"] += len(args[0].seps)
        elif span_name == "tangles.canonical_nested_set":
            c["tangles.tangles"] += len(result.tangles)
            c["tangles.nested_set_size"] += len(result)
        elif span_name == "treedecomp.induce_tree_decomposition":
            c["treedecomp.tree_nodes"] += result.tree.n_vertices()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._count(name, args, result)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap the TARGETS of `modules`, the loaded localdec modules."""
        self.modules = modules
        loaded = [m for n, m in sys.modules.items()
                  if n == "localdec" or n.startswith("localdec.")]
        for module, attr, name in TARGETS:
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(self.modules[module], cls_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(self.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def self_times(self, first: int = 0) -> dict:
        """Total self time per span name, in seconds, of the spans from
        index `first` on; a span's parent never precedes `first` when
        nothing was open at the time `first` was read."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for i in range(first, len(self.spans)):
            name, start, end, _ = self.spans[i]
            out[name] += end - start - child[i]
        return out
