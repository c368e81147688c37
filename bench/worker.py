"""Run one workload in a fresh process and print its measurements as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

The process imports berglab, builds the seeded inputs, runs the warm-up op
and prints ``READY``; the parent times set-up up to that line.  Then, by
``--mode``:

* ``setup``: exit.
* ``run``: whole passes over the ops within ``--seconds``; the first
  pass's results are judged, each after its op's timer stops, and later
  passes' results are compared with them.
* ``trace``: the same, untraced for half the time and traced for the other
  half; per-layer metrics and the workload fingerprint come from the spans,
  which are written to ``.bench_out/spans-<workload>-<seed>.json``.
* ``fingerprint``: one traced pass, for comparing fingerprints between
  processes.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from calibrate import Calibration, loop_kernel, spawn_kernel  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
import workloads  # noqa: E402
from workloads import Raised, build  # noqa: E402

SCRATCH = ROOT / ".bench_out"

# span name -> whether its call count is a metric too (self time always is)
LAYER_SPANS = {
    "linalg.rref": True,
    "linalg.null_space": False,
    "linalg.solve": False,
    "linalg.solve_least_squares": False,
    "linalg.hermitian_gram": True,
    "ideals.jet_ideal": True,
    "ideals.annihilator": True,
    "ideals.contains": True,
    "jets.jet_multiply": True,
    "bergman.minimal_l2": True,
    "bergman.b_circle": True,
    "bergman.triangular_basis": False,
    "bergman.density_sequence": False,
    "scipy.linalg.eigh": True,
    "domains.moment_matrix": True,
    "scipy.integrate.quad": True,
    "sop.effectiveness_report": True,
    "sop.xi_cse_limit": False,
    "sop.membership_threshold": False,
    "suites.run_suite": True,
}
CLI_COMMANDS = ("equiv", "ladder", "exhaust", "kernel", "basis", "sop", "cse", "density", "suite")
FINGERPRINT_KEYS = ("indices", "span", "annihilator", "rref_cells", "quad_calls")


@dataclass
class Passes:
    times: list  # per pass, the wall time of each op
    scaled: list  # the same, rescaled to the reference host speed
    judged: list  # the first pass's verdicts, one list per op
    reference: list  # the first pass's result digests
    host_factor: float = 1.0  # the rescaling ratio over the whole run
    differing: int = 0  # later results whose digest differs from the reference
    raised: set = field(default_factory=set)  # ops that raised in some pass


def run_passes(wl, seconds, tracer=None, reference=None):
    """Whole passes over the ops within ``seconds``: a pass starts only if
    one as long as the last fits before the deadline, and there is at least
    one.  The first pass is judged, unless ``reference`` digests from an
    earlier run are given to compare against.

    Each result is judged right after its op's timer stops and then
    dropped, so results held for judging do not grow the heap that later
    ops' garbage collections walk."""
    spans_dir = SCRATCH / "spans"
    if tracer is not None and wl.name == "cli":
        spans_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + seconds
    run = Passes([], [], [], reference)
    cal = Calibration(spawn_kernel if wl.name == "cli" else loop_kernel)
    bounds = []  # per pass, each op's (start, end)
    while not run.times or time.perf_counter() + sum(run.times[-1]) < deadline:
        p, times, digests = len(run.times), [], []
        bounds.append([])
        for i, op in enumerate(wl.ops):
            cal.maybe_take()
            child = None
            if tracer is not None:
                tracer.begin_op(f"{p}:{i}")
                if wl.name == "cli":
                    child = spans_dir / f"{p}-{i}.json"
                    os.environ["BENCH_SPANS_OUT"] = str(child)
            t0 = time.perf_counter()
            try:
                res = op.run()
            except Exception as exc:  # the op's failure is a verdict, not a crash
                res = Raised(exc)
                run.raised.add(i)
            t1 = time.perf_counter()
            times.append(t1 - t0)
            bounds[-1].append((t0, t1))
            if child is not None:
                del os.environ["BENCH_SPANS_OUT"]
                if child.exists():
                    tracer.adopt(json.loads(child.read_text()))
                    child.unlink()
            if tracer is not None:
                tracer.end_op()
            digests.append(op.digest(res))
            if reference is None:
                run.judged.append(op.check(res))
        if run.reference is None:
            run.reference = digests
        else:
            run.differing += sum(a != b for a, b in zip(digests, run.reference))
        run.times.append(times)
    cal.take()
    run.host_factor = cal.run_factor()
    run.scaled = [[(e - s) * cal.factor(s, e) for s, e in ps] for ps in bounds]
    return run


def verdicts(wl, judged):
    """Verdict counts, one note per op and failure kind, and whether every
    op gave the number of verdicts it owes."""
    counts, notes, complete = Counter(), [], True
    for op, got in zip(wl.ops, judged):
        complete = complete and len(got) == op.verdicts
        kinds = Counter(kind for kind, _ in got)
        counts.update(kinds)
        for kind, n in kinds.items():
            if kind != "ok":
                note = next(note for k, note in got if k == kind)
                notes.append(f"{op.label}: {n} {kind}, first: {note}")
    return counts, notes, complete


def op_stats(passes):
    """Every op run in every pass is one sample.  Throughput is samples over
    the sum of their times; the percentiles run over the samples."""
    samples = [t for ts in passes for t in ts]
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) >= 2 else samples[0]
    return {
        "ops": len(samples),
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_ms": 1e3 * statistics.median(samples),
        "op_p90_ms": 1e3 * p90,
    }


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def span_summary(rows, n_ops):
    """Per traced pass: self time and calls per span name, the counters and
    the per-op fingerprint."""
    selfs = self_times(rows)
    children = defaultdict(list)
    for i, row in enumerate(rows):
        if row[3] is not None:
            children[row[3]].append(i)
    per_pass = defaultdict(lambda: {
        "self": Counter(), "calls": Counter(), "cells": 0, "terms": 0,
        "jet_rows": 0, "jet_span": 0, "instances": 0,
        "ops": [dict.fromkeys(FINGERPRINT_KEYS, 0) for _ in range(n_ops)],
    })
    for i, (name, _s, _e, _parent, op, attrs) in enumerate(rows):
        if op is None or name == "op":
            continue
        p, k = (int(x) for x in op.split(":"))
        agg = per_pass[p]
        fp = agg["ops"][k]
        # suites.run_suite's self time is the suites module's own: run_suite
        # dispatches to a suite function, which builds the instances and
        # feeds the pool, so it includes the self time of those spans
        agg["self"]["suites.run_suite" if name.startswith("suites.") else name] += selfs[i]
        agg["calls"][name] += 1
        attrs = attrs or {}
        if name == "linalg.rref":
            agg["cells"] += attrs.get("cells", 0)
            fp["rref_cells"] += attrs.get("cells", 0)
        elif name == "linalg.hermitian_gram":
            agg["terms"] += attrs.get("terms", 0)
        elif name == "ideals.jet_ideal" and attrs:
            agg["jet_span"] += attrs["span"]
            agg["jet_rows"] += sum(
                (rows[c][5] or {}).get("rows", 0) for c in children[i] if rows[c][0] == "linalg.rref"
            )
            fp["indices"] += attrs["indices"]
            fp["span"] += attrs["span"]
        elif name == "ideals.annihilator" and attrs:
            fp["annihilator"] += attrs["dim"]
        elif name == "scipy.integrate.quad":
            fp["quad_calls"] += 1
        elif name == "suites.run_suite" and attrs:
            agg["instances"] += attrs["instances"]
    return [per_pass[p] for p in sorted(per_pass)]


def fingerprints(summary, raised):
    """Per pass, the per-op counts.  An op that raised did no defined amount
    of work (a pool cancels the instances it has not started), so it is
    marked instead of counted."""
    return [
        ["raised" if k in raised else counts for k, counts in enumerate(s["ops"])]
        for s in summary
    ]


def layer_metrics(summary):
    first = summary[0]
    out = {}
    for name, with_calls in LAYER_SPANS.items():
        out[f"{name}.self_ms"] = 1e3 * statistics.median(s["self"][name] for s in summary)
        if with_calls:
            out[f"{name}.calls"] = first["calls"][name]
    out["linalg.rref.cells"] = first["cells"]
    out["linalg.hermitian_gram.terms"] = first["terms"]
    out["ideals.jet_ideal.useful_row_ratio"] = (
        first["jet_span"] / first["jet_rows"] if first["jet_rows"] else 0.0
    )
    out["suites.run_suite.instances"] = first["instances"]
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "fingerprint"), default="run")
    args = ap.parse_args()

    wl = build(args.workload, args.seed, ROOT, SCRATCH)
    wl.ops[wl.warmup].run()
    # the warm-up's garbage is not charged to the first timed op
    gc.collect()
    print("READY", flush=True)
    if args.mode == "setup":
        return

    from berglab.suites import worker_count

    tracer = Tracer()
    cli = wl.name == "cli"
    if args.mode == "fingerprint":
        tracer.install(callers=(workloads,))
        run = run_passes(wl, 0, tracer)
        summary = span_summary(tracer.dump(), len(wl.ops))
        print(json.dumps({"fingerprint": fingerprints(summary, run.raised)[0]}))
        return

    seconds = args.seconds / 2 if args.mode == "trace" else args.seconds
    run = run_passes(wl, seconds)
    out = {"stats": op_stats(run.scaled), "wall_stats": op_stats(run.times),
           "pass_s": [sum(ts) for ts in run.times], "host_factor": run.host_factor}
    if args.mode == "trace":
        tracer.install(callers=(workloads,))
        traced = run_passes(wl, seconds, tracer, run.reference)
        tracer.uninstall()
        run.differing += traced.differing
        rows = tracer.dump()
        SCRATCH.mkdir(exist_ok=True)
        (SCRATCH / f"spans-{wl.name}-{args.seed}.json").write_text(json.dumps(rows))
        summary = span_summary(rows, len(wl.ops))
        fps = fingerprints(summary, run.raised | traced.raised)
        layers = layer_metrics(summary)
        rate = op_stats(traced.scaled)["ops_per_s"]
        layers["trace.overhead_share"] = 1 - rate / out["stats"]["ops_per_s"]
        by_label = defaultdict(list)
        for ts in run.scaled:
            for op, t in zip(wl.ops, ts):
                by_label[op.label].append(t)
        for cmd in CLI_COMMANDS:
            ts = by_label.get(f"cli {cmd}")
            layers[f"cli.{cmd}_ms"] = 1e3 * statistics.median(ts) if ts else 0.0
        out.update(layers=layers, fingerprint=fps[0], fingerprint_repeats=all(f == fps[0] for f in fps),
                   traced_pass_s=[sum(ts) for ts in traced.times])
    counts, notes, complete = verdicts(wl, run.judged)
    out.update(
        labels=[op.label for op in wl.ops],
        verdicts=dict(counts),
        notes=notes,
        complete=complete,
        differing=run.differing,
        peak_rss_mb=peak_rss_mb(cli),
        worker_threads=worker_count(),
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
