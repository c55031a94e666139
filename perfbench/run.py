"""Benchmark of localdec: one workload per run, timed end to end, or
traced per module.

    python3 perfbench/run.py --workload necklace --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's `src/` and nowhere else.
Each round starts with a fresh set-up: localdec imported afresh, the
inputs built, and for `corpus` the finite-mode selection.  Then each of
the workload's operations runs once and its output is checked.  Rounds
go on while the next one is expected to end within `--seconds`, so set-up
samples spread over the run like the rounds do.  The last line printed
is one JSON object.

Times are calibrated (see `calibrate.py`): program time, with the
calibrator's reference runs left out, scaled to a machine that runs the
reference in a fixed time, so that the host's slow and fast spells drop
out.  With `--trace 0` the metrics are the end-to-end ones:
`calibrated_s`, the median calibrated time of a round's operations;
`setup_s`, the median calibrated set-up time; `peak_rss_mib`, the
process's peak resident memory.  With `--trace 1` rounds alternate
untraced and traced, starting untraced; the metrics are the per-module
calibrated self times and counts per traced round, and
`trace.overhead_pct`, the traced rounds' median time over the untraced
rounds' median.  Scratch files, results and traces go to `.perfbench/`
in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from calibrate import Calibrator
from tracing import COUNT_NAMES, SPAN_NAMES, Tracer

MODULES = ("multigraph", "grouppres", "localcover", "tangles", "treedecomp",
           "graphdec", "cli")


def load_modules(src: Path) -> dict:
    """Import localdec afresh from `src`, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "localdec" or n.startswith("localdec.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("localdec")
    if Path(pkg.__file__).resolve().parent != (src / "localdec").resolve():
        raise ImportError("localdec was imported from %s, not from %s" % (pkg.__file__, src))
    return {m: importlib.import_module("localdec." + m) for m in MODULES}


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    src = root / "src"
    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)
    cal = Calibrator()
    tracer = Tracer(cal.clock) if trace else None
    setup_times = []                    # calibrated set-up times
    rounds = {False: [], True: []}      # traced? -> calibrated round times
    walls = []                          # uncalibrated round times
    layer_times = dict.fromkeys(SPAN_NAMES, 0.0)
    op_times = []
    attempted = failed = 0
    problems = []
    cal.start()
    try:
        began = time.perf_counter()
        # whole rounds only, and none that would end past `seconds`; a
        # traced run needs one untraced and one traced round at least
        while not setup_times or (
                time.perf_counter() - began + last <= seconds
                or (trace and not rounds[True])):
            round_began = time.perf_counter()
            first = cal.mark()
            start = cal.clock()
            mods = load_modules(src)
            ops, note = workloads.WORKLOADS[workload](mods, seed, workdir)
            setup_times.append((cal.clock() - start) * cal.factor(first))
            traced = trace and len(rounds[False]) > len(rounds[True])
            if traced:
                tracer.install(mods)
                first_span = len(tracer.spans)
            first = cal.mark()
            times = []
            for op in ops:
                start = cal.clock()
                result = op.run()
                times.append(cal.clock() - start)
                bad, gave_up = op.check(result)
                attempted += 1
                failed += bool(gave_up)
                problems += ["%s: %s" % (op.name, p) for p in bad]
                del result
            factor = cal.factor(first)
            if traced:
                tracer.uninstall()
                for name, t in tracer.self_times(first_span).items():
                    layer_times[name] += t * factor
            rounds[traced].append(sum(times) * factor)
            walls.append(sum(times))
            op_times += [t * factor for t in times]
            n_ops = len(ops)
            # the round's garbage, reference cycles through the dropped
            # modules among it, goes before the next round, so that no
            # round runs with another's heap
            del ops, mods
            gc.collect()
            last = time.perf_counter() - round_began
    finally:
        cal.stop()

    print("workload %s, seed %d: %s" % (workload, seed, note))
    print("%d rounds of %d operations; round median %.4f s calibrated, %.4f s "
          "uncalibrated; %d reference runs; failed %d of %d"
          % (len(walls), n_ops, statistics.median(rounds[False]),
             statistics.median(walls), len(cal.samples), failed, attempted))
    if len(op_times) >= 200:
        q = statistics.quantiles(op_times, n=20)
        print("per operation over %d calls, calibrated: p50 %.6f s, p95 %.6f s"
              % (len(op_times), statistics.median(op_times), q[18]))
    for line in sorted(set(problems))[:20]:
        print("WRONG " + line)

    if trace:
        n = len(rounds[True])
        metrics = {name + "_s": {"value": t / n, "unit": "s"}
                   for name, t in layer_times.items()}
        for name in COUNT_NAMES:
            value = tracer.counts[name] / n
            metrics[name] = {"value": int(value) if value == int(value) else value,
                             "unit": "count"}
        overhead = statistics.median(rounds[True]) / statistics.median(rounds[False]) - 1
        metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
    else:
        metrics = {
            "calibrated_s": {"value": statistics.median(rounds[False]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out_dir = workdir / "results"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=workload, seed=seed, rounds=rounds, walls=walls,
                  setup_times=setup_times, reference_times=cal.samples,
                  problems=problems)
    if trace:
        record["spans"] = tracer.spans
    (out_dir / ("%s-seed%d-trace%d.json" % (workload, seed, int(trace)))).write_text(
        json.dumps(record))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "localdec" / "__init__.py").is_file():
        print("error: no localdec sources under %s" % (root / "src"), file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
