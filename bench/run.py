"""berglab benchmark: end-to-end and per-layer metrics of four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N            # every workload, both modes

Run it from the repository root.  Each workload runs in fresh processes of
``bench/worker.py``.  With ``--trace 0`` the last line of output is a JSON
object with the end-to-end metrics; set-up is timed in several processes
and its median reported.  With ``--trace 1`` it holds the per-layer metrics
of a separate traced run, the import-time probe, and a check that a second
process does the same work (the workload fingerprint).

An op is one user-visible call: one CLI process, one instance solved, or
one ``run_suite`` call.  A run repeats whole passes over the workload's ops
for ``--seconds``; every op run is one sample.  Op and set-up times are
wall times rescaled to a reference host speed by a kernel timed between
the ops (see ``calibrate.py``); the wall-clock figures are printed too.
``ops_per_s`` is the number of samples over the sum of their times;
``op_p50_ms`` and ``op_p90_ms`` are percentiles over the samples (over 100
of them, except on ``cli``, where a run holds 27-36); ``peak_rss_mb`` is
the worker's peak RSS (its CLI children's, for ``cli``).
Per-layer times are wall times per pass (median over the traced passes);
per-layer counts are those of one pass, which repeat exactly.  Layers a
workload does not exercise report 0.

``correct`` is false when an op's output could not be judged, when a
repeated op gave a different result, or when the fingerprint differs
between passes or processes.  ``failed`` counts the verdicts that judged
the program wrong; known defects of the program show there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out"
WORKLOADS = ("cli", "exact-ladder", "float-moment", "suites")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
MAX_NOTES = 15
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
IMPORTS = ("numpy", "scipy.linalg", "scipy.integrate", "jsonschema", "click", "berglab")
# real equiv runs: the README's disc example, where b_circle pulls in
# scipy.linalg lazily, and a radial moment domain, whose quadrature pulls in
# scipy.integrate
_JET_Z = {"n": 1, "terms": [{"alpha": [1], "re": "1", "im": "0"}]}
_IDEAL_Z2 = {"generators": [{"n": 1, "terms": [{"alpha": [2], "re": "1", "im": "0"}]}], "level": 2}
PROBE_SPECS = {
    "disc": {"domain": {"kind": "polydisc", "radii": [1]}, "F": _JET_Z, "ideal": _IDEAL_Z2},
    "radial": {"domain": {"kind": "radial", "base": 1.0, "harmonics": [[2, 0.05, 0.0]], "degree": 3},
               "F": _JET_Z, "ideal": _IDEAL_Z2},
}


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BERGLAB_THREADS", None)
    return env


def spawn(workload, seed, seconds, mode):
    """Run one worker process; returns (set-up seconds, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    setup = time.perf_counter() - t0
    try:
        rest = proc.communicate(timeout=WORKER_TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {workload} {mode} ran over {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"worker {workload} {mode} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def _importtime(args):
    """Cumulative import time in ms of each module in IMPORTS, from
    ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"import probe {args} exited with code {proc.returncode}")
    out = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line.split("|")
            name = name.strip()
            if name in IMPORTS and name not in out:
                out[name] = int(cumulative) / 1e3
    return out


def import_probe():
    """Median over IMPORT_SAMPLES of the import times seen by
    ``import berglab.cli`` and by real ``equiv`` runs; each module is timed
    in the first process that imports it."""
    probes = [["-c", "import berglab.cli"]]
    for name, spec in PROBE_SPECS.items():
        path = SCRATCH / "probe" / name / "spec.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spec))
        probes.append(["-m", "berglab.cli", "equiv", "--spec", str(path), "--out", str(path.parent)])
    samples = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_SAMPLES):
        seen = {}
        for args in probes:
            for name, ms in _importtime(args).items():
                seen.setdefault(name, ms)
        for name in IMPORTS:
            samples[name].append(seen.get(name, 0.0))
    return {f"import.{name.replace('.', '_')}_ms": statistics.median(v) for name, v in samples.items()}


def provenance(seed, worker_threads):
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "seed": seed,
        "suites_worker_count": worker_threads,
        "BERGLAB_THREADS_set": "BERGLAB_THREADS" in os.environ,
    }


def _verdict_fields(res):
    v = res["verdicts"]
    attempted = sum(v.values())
    failed = attempted - v.get("ok", 0)
    return attempted, failed


def run_workload(workload, seed, seconds, trace):
    """Returns (result JSON object, human-readable lines)."""
    lines = []
    if trace:
        _, res = spawn(workload, seed, seconds, "trace")
        _, other = spawn(workload, seed, seconds, "fingerprint")
        metrics = dict(res["layers"])
        metrics.update(import_probe())
        metrics["suites.worker_threads"] = res["worker_threads"]
        for kind in ("mismatch", "error", "bad_exit"):
            metrics[f"verdict.{kind}"] = res["verdicts"].get(kind, 0)
        same = other["fingerprint"] == res["fingerprint"]
        correct = res["complete"] and not res["differing"] and res["fingerprint_repeats"] and same
        lines.append(f"traced run: untraced passes {_secs(res['pass_s'])}, "
                     f"traced passes {_secs(res['traced_pass_s'])}")
        lines.append(f"fingerprint repeats between passes: {res['fingerprint_repeats']}, "
                     f"between processes: {same}")
        for label, fp in zip(res["labels"], res["fingerprint"]):
            counts = fp if isinstance(fp, str) else " ".join(f"{k}={v}" for k, v in fp.items())
            lines.append(f"fingerprint {label}: {counts}")
        units = {}
    else:
        setups = [spawn(workload, seed, seconds, "setup")[0] for _ in range(SETUP_SAMPLES - 1)]
        setup, res = spawn(workload, seed, seconds, "run")
        setups.append(setup)
        stats, wall, factor = res["stats"], res["wall_stats"], res["host_factor"]
        metrics = {
            "setup_s": factor * statistics.median(setups),
            "ops_per_s": stats["ops_per_s"],
            "op_p50_ms": stats["op_p50_ms"],
            "op_p90_ms": stats["op_p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        correct = res["complete"] and not res["differing"]
        units = END_TO_END
        lines.append(f"timed run: {stats['ops']} ops, wall passes {_secs(res['pass_s'])}")
        lines.append(
            f"wall clock, not rescaled (host factor {factor:.4f}): "
            f"setup_s {statistics.median(setups):.4g} s, "
            + ", ".join(f"{k} {wall[k]:.4g}" for k in ("ops_per_s", "op_p50_ms", "op_p90_ms"))
        )
    attempted, failed = _verdict_fields(res)
    lines.insert(0, f"provenance: {json.dumps(provenance(seed, res['worker_threads']))}")
    lines.append(f"verdicts: {attempted} attempted, {failed} failed")
    lines.append(f"{workload} failed_share = {failed / attempted:.6g} ratio")
    lines.extend(f"failed: {note}" for note in res["notes"][:MAX_NOTES])
    if len(res["notes"]) > MAX_NOTES:
        lines.append(f"failed: ... and {len(res['notes']) - MAX_NOTES} more ops with failures")
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k) or _layer_unit(k)} for k, v in metrics.items()},
    }
    for name, m in result["metrics"].items():
        lines.append(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    return result, lines


def _secs(values):
    return " ".join(f"{v:.3f}s" for v in values)


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "berglab" / "__init__.py").is_file():
        print(f"error: no berglab sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    try:
        if args.workload:
            result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            lines = []
            for workload in WORKLOADS:
                for trace in (0, 1):
                    res, more = run_workload(workload, args.seed, args.seconds, trace)
                    lines.extend(more)
                    result["correct"] = result["correct"] and res["correct"]
                    if not trace:
                        result["attempted"] += res["attempted"]
                        result["failed"] += res["failed"]
                    for name, m in res["metrics"].items():
                        result["metrics"][f"{workload}/{name}"] = m
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
