"""Self-test of the benchmark on shrunken inputs (Vicsek level 2-3).

    python3 perfbench/selftest.py

Records a small-size reference, then runs every workload once untraced and
twice traced through run.py, and checks that:
  * every metric named in BENCHMARK.json is reported with its unit;
  * every operation of a workload listed in BENCHMARK.json passes its
    correctness check; kernel-diag, which is not listed there, may fail only
    on the Vicsek Hoelder check, whose estimate depends on the sampling seed;
  * the exact counts repeat between two traced runs with the same seed;
  * a corrupted reference fingerprint is counted as a failed operation
    instead of crashing the run;
  * in a directory holding only BENCHMARK.json and the benchmark's files, the
    benchmark exits non-zero without printing a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(root: str, workload: str, trace: int, reference: str) -> tuple[int, dict | None, list]:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--size", "small", "--reference", reference],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 and root == ROOT:
        print(proc.stderr, file=sys.stderr)
    return proc.returncode, result, lines


def declared(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from record_reference import record
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    tmp = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        reference = os.path.join(tmp, "reference.json")
        record("small", reference, tmp)
        gated = {wl["name"] for wl in spec["workloads"]}
        for name in WORKLOADS:
            rc, res, lines = bench(ROOT, name, 0, reference)
            check(rc == 0 and res is not None, f"{name}: untraced run exits 0 with a result")
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared(spec, "end_to_end"), f"{name}: end-to-end metrics and units")
            traced = [bench(ROOT, name, 1, reference) for _ in range(2)]
            check(all(rc == 0 and r is not None for rc, r, _ in traced),
                  f"{name}: traced runs exit 0 with a result")
            if any(r is None for _, r, _ in traced):
                continue
            runs = [(rc, res, lines)] + traced
            results = [r for _, r, _ in runs]
            failures = [line for _, _, out in runs for line in out if " FAILED: " in line]
            if name in gated:
                check(all(r["correct"] and r["failed"] == 0 for r in results)
                      and res["attempted"] >= 2, f"{name}: every operation correct")
            else:
                check(sum(r["failed"] for r in results) == len(failures)
                      and all("Hoelder exponent" in f and ";" not in f for f in failures)
                      and not any(line.startswith("count mismatch")
                                  for _, _, out in runs for line in out),
                      f"{name}: {len(failures)} failed operations, all on the Hoelder check")
            got = {k: v["unit"] for k, v in traced[0][1]["metrics"].items()}
            check(got == declared(spec, "per_layer"), f"{name}: per-layer metrics and units")
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] != "s"} for _, r, _ in traced]
            check(counts[0] == counts[1], f"{name}: exact counts repeat with the same seed")

        with open(reference, encoding="utf-8") as f:
            ref = json.load(f)
        for section in ref.values():
            for fp in section.values():
                for key in fp:
                    fp[key] += 1.0
        corrupted = os.path.join(tmp, "corrupted.json")
        with open(corrupted, "w", encoding="utf-8") as f:
            json.dump(ref, f)
        for name in ("solve-l3", "eta-l4"):
            rc, res, _ = bench(ROOT, name, 0, corrupted)
            check(rc == 0 and res is not None and not res["correct"]
                  and res["failed"] == res["attempted"] >= 1,
                  f"{name}: corrupted fingerprints counted as failed operations")

        bare = os.path.join(tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, res, _ = bench(bare, spec["workloads"][0]["name"], 0, reference)
        check(rc != 0 and res is None, "without sources: non-zero exit and no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
