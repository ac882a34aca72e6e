"""fractalheat benchmark.

    python3 perfbench/run.py --workload solve-l3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from `src`).
Workloads are defined in workloads.py; the metrics and their units are read
from BENCHMARK.json.

Set-up is measured SETUP_PROBES + 1 times (child processes that only set up,
plus the measuring child) and reported as the median.  The measuring child
then runs operations back to back for --seconds (one client, closed loop, at
least two operations).  With --trace 1 no set-up is measured: one child runs
the first two operations untraced, a second runs them again with every layer
wrapped (tracing.py), and the per-layer metrics of the warm traced operation
are reported instead of the end-to-end ones.

The last line of stdout is the JSON result; the lines before it give each
operation, the environment and the metrics in readable form.  Exit code 2
means the benchmark could not run (no source tree, a child that crashed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 10
# a run ends within --seconds plus this: the set-up probes, the operation
# that runs past --seconds, and the traced children
OVERHEAD_S = 120
TRACED_OPS = 2
COUNTS_DIR = os.path.join(ROOT, ".perfbench-counts")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    _SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# per-layer metrics that must repeat exactly between runs with the same seed
EXACT = [name for name, unit in PER_LAYER.items() if unit != "s"]


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: shrunken inputs for the self-test")
    ap.add_argument("--reference", default=None,
                    help="fingerprint file (default: reference.json)")
    return ap.parse_args(argv)


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    # threadpoolctl is not available, so BLAS threads are pinned here,
    # before the child imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("FRACTALHEAT_OUT", None)
    return env


def run_child(args, workdir: str, env: dict, deadline: float, *extra) -> dict:
    """Start child.py, wait for it, and return its record with setup_s.
    The child is killed if it runs past the monotonic deadline."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size,
           "--workdir", workdir, *extra]
    if args.reference:
        cmd += ["--reference", os.path.abspath(args.reference)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - start, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - start
    return record


def source_digest() -> str:
    """sha256 over the package and benchmark sources (the checkout may not be
    a git repository)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "fractalheat"), HERE):
        for name in sorted(os.listdir(top)):
            if name.endswith((".py", ".json")):
                h.update(name.encode())
                with open(os.path.join(top, name), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD when the checkout root is itself a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, text=True, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], ROOT):
        return None
    return lines[1]


def check_counts(args, digest: str, counts: dict) -> list:
    """Compare the exact counts with those of an earlier run of the same
    source, workload, size and seed; store them on the first run."""
    os.makedirs(COUNTS_DIR, exist_ok=True)
    path = os.path.join(COUNTS_DIR, f"{digest[:16]}-{args.workload}-{args.size}-{args.seed}.json")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(counts, f)
        return []
    with open(path, encoding="utf-8") as f:
        before = json.load(f)
    return [f"{k}: {counts[k]!r} now, {before.get(k)!r} in an earlier run"
            for k in counts if counts[k] != before.get(k)]


def layer_metrics(traced_op: dict, untraced_op: dict) -> dict:
    layers = traced_op["layers"]
    out = {name: layers.get(name, 0.0) for name in PER_LAYER}
    for name, unit in PER_LAYER.items():
        if unit == "count":
            out[name] = int(out[name])
    sweeps = out["solver.sweeps"]
    out["solver.sweep_s"] = out["solver.picard_s"] / sweeps if sweeps else 0.0
    out["trace.overhead_s"] = traced_op["wall_s"] - untraced_op["wall_s"]
    out["trace.uncovered_s"] = layers["op_s"]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fractalheat", "__init__.py")):
        print(f"error: no fractalheat sources under {ROOT}/src", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    deadline = time.monotonic() + args.seconds + OVERHEAD_S
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setups, traced = [], None
        if args.trace:
            # the untraced operation 1 is only the baseline of trace.overhead_s
            main_run = run_child(args, workdir, env, deadline, "--max-ops", str(TRACED_OPS))
            traced = run_child(args, workdir, env, deadline, "--trace",
                               "--max-ops", str(TRACED_OPS))
        else:
            setups = [run_child(args, workdir, env, deadline, "--setup-only")["setup_s"]
                      for _ in range(SETUP_PROBES)]
            main_run = run_child(args, workdir, env, deadline)
        setups.append(main_run["setup_s"])
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = main_run["ops"] + (traced["ops"] if traced else [])
    failed = sum(not op["ok"] for op in ops)
    for op in ops:
        status = "ok" if op["ok"] else "FAILED: " + "; ".join(op["problems"])
        kind = "traced" if "layers" in op else "op"
        print(f"{kind} {op['i']} seed {op['seed']}: {op['wall_s']:.3f} s, "
              f"{json.dumps(op['fingerprint'])} {status}")

    digest = source_digest()
    warm = [op["wall_s"] for op in main_run["ops"][1:]]
    problems = []
    if traced:
        values = layer_metrics(traced["ops"][1], main_run["ops"][1])
        units = PER_LAYER
        problems = check_counts(args, digest, {k: values[k] for k in EXACT})
    else:
        values = {
            "setup_s": statistics.median(setups),
            "first_op_s": main_run["ops"][0]["wall_s"],
            "op_p50_s": statistics.median(warm),
            "peak_rss_mb": main_run["first_op_rss_mb"],
        }
        units = END_TO_END
    if values.keys() != units.keys():
        print(f"error: computed metrics {sorted(values)} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    for p in problems:
        print(f"count mismatch: {p}")

    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "commit": git_commit(), "source_sha256": digest, **main_run["env"]}
    print("environment " + json.dumps(record))
    print(f"warm operations: {len(warm)}; setup samples: "
          f"{', '.join(f'{s:.3f}' for s in setups)} s; "
          f"failed_frac {failed / len(ops):.4g} ({failed} of {len(ops)}); "
          f"ru_maxrss at the end of the loop {main_run['peak_rss_mb']:.1f} MiB")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
