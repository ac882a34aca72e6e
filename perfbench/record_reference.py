"""Record the answer fingerprints of every pool seed into reference.json.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only at a commit whose answers are trusted: the benchmark fails every
operation whose fingerprint moves from these values by more than
workloads.FINGERPRINT_TOL.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

RECORDED = ("solve-l3", "eta-l4")


def record(size: str, path: str, workdir: str) -> dict:
    """Run each pool seed once per workload and write its fingerprints."""
    from workloads import POOL, WORKLOADS
    reference = {}
    for name in RECORDED:
        wl = WORKLOADS[name](0, size, workdir, None)
        section = reference.setdefault(wl.key(), {})
        for i in range(POOL):
            result = wl.run(i)
            problems = []
            got = wl.fingerprint(result["out"], problems) if result["rc"] == 0 else {}
            if result["rc"] != 0 or problems:
                raise RuntimeError(f"{name} seed {wl.seed_of(i)}: exit {result['rc']}, "
                                   f"{problems}")
            section[str(wl.seed_of(i))] = got
            shutil.rmtree(result["out"])
            print(f"{name} seed {wl.seed_of(i)}: {got}", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return reference


def main() -> int:
    workdir = tempfile.mkdtemp(prefix=".perfbench-record-", dir=os.path.dirname(HERE))
    try:
        record("full", os.path.join(HERE, "reference.json"), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
