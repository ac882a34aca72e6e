"""One benchmark process: set up a workload, then run its operations back to
back (one client, closed loop) and print a JSON record as the last line.

Started by run.py with the BLAS thread count pinned in the environment and
`src` on PYTHONPATH; everything from interpreter start until the first
operation may begin is set-up time.  With --setup-only the process exits at
that point.  With --trace the layer wrappers of tracing.py are installed
after set-up and every operation is traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

MIN_OPS = 2   # the cold operation and one warm one, however short --seconds is


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--reference", default=None)
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    import fractalheat
    src = os.path.join(root, "src")
    if os.path.commonpath([src, os.path.abspath(fractalheat.__file__)]) != src:
        print(f"fractalheat imported from {fractalheat.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import REFERENCE, WORKLOADS, load_reference
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    reference = load_reference(args.reference or REFERENCE)
    workload = WORKLOADS[args.workload](args.seed, args.size, args.workdir, reference)
    ready = time.monotonic()
    record = {"ready": ready}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = []
    while True:
        i = len(ops)
        if tracer is not None:
            tracer.op = i
            sid = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            result = workload.run(i)
        except Exception:   # an operation that raises is a failed operation
            result = None
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(sid)
        if i == 0:
            record["first_op_rss_mb"] = max_rss_mib()
        if result is None:
            fingerprint, problems = {}, [error]
        else:
            fingerprint, problems = workload.check(i, result)
        op = {"i": i, "seed": workload.seed_of(i), "wall_s": wall,
              "ok": not problems, "problems": problems, "fingerprint": fingerprint}
        out = result.get("out") if isinstance(result, dict) else None
        if tracer is not None:
            op["layers"] = tracer.op_layers(i)
            op["layers"]["cli.artifact_mb"] = artifact_mib(out)
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        ops.append(op)
        done = len(ops)
        if args.max_ops is not None and done >= args.max_ops:
            break
        if done >= MIN_OPS and time.monotonic() - ready >= args.seconds:
            break

    record.update({
        "env": environment(),
        "ops": ops,
        "peak_rss_mb": max_rss_mib(),
    })
    print(json.dumps(record))
    return 0


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def artifact_mib(out: str | None) -> float:
    """Bytes of the files an operation wrote, in MiB."""
    if out is None or not os.path.isdir(out):
        return 0.0
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)) / 2.0 ** 20


if __name__ == "__main__":
    sys.exit(main())
