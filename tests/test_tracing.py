"""The benchmark's traced run still reaches every layer it wraps, and its
answer checks still read the CLI's artifacts.

perfbench/tracing.py patches module attributes and methods by name; a rename
in the package breaks it.  This runs its install() in a child process over
one tiny solve and one tiny eta, without changing anything under perfbench.
perfbench/workloads.py reads columns of solution.csv, diagnostics.csv and
eta.csv; a change of their layout fails every benchmark operation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, os, sys
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(sys.argv[1], "perfbench"))
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
import fractalheat.cli as cli
runs = {}
for op, argv in enumerate([["solve", "--level", "1", "--depth", "2", "--steps", "8"],
                           ["eta", "--level", "2", "--times", "0.25:1:lin4"]]):
    tracer.op = op
    rc = cli.main([*argv, "--out", os.path.join(sys.argv[2], argv[0])])
    runs[argv[0]] = {"rc": rc, "layers": tracer.op_layers(op)}
print(json.dumps(runs))
"""

SHARED = ["geometry.vertex_set", "kernel.build_generator", "kernel.factorize",
          "measure.realize", "paramint.eval_eta", "paramint.snap_ids", "cli.write"]
LAYERS = {
    "solve": SHARED + ["solver.prepare", "solver.gate", "solver.picard", "kernel.apply"],
    "eta": SHARED,
}
# A3 calls f once over its 8 times; A4 twice per time, with one-element vectors
GATE_F_CALLS = 1 + 2 * 8


def test_traced_solve_and_eta(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.strip().splitlines()[-1])
    for command, layers in LAYERS.items():
        got = runs[command]
        assert got["rc"] == 0, command
        for layer in layers:
            assert got["layers"].get(f"{layer}_calls", 0) >= 1, (command, layer)
        assert got["layers"]["kernel.generator_mb"] > 0
        assert got["layers"]["kernel.factor_mb"] > 0
    solve, eta = runs["solve"]["layers"], runs["eta"]["layers"]
    assert eta["paramint.sigma_calls"] == 1
    assert solve["solver.f_calls"] == solve["solver.sweeps"] + GATE_F_CALLS


READERS = """
import json, os, sys
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(sys.argv[1], "perfbench"))
import workloads
runs = {}
for cls in (workloads.SolveL3, workloads.EtaL4):
    work = cls(1, "small", sys.argv[2], None)
    result = work.run(0)
    problems = []
    got = work.fingerprint(result["out"], problems)
    runs[cls.name] = {"rc": result["rc"], "problems": problems, "keys": sorted(got)}
print(json.dumps(runs))
"""


def test_workload_fingerprints_read_cli_outputs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", READERS, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.strip().splitlines()[-1])
    assert runs == {
        "solve-l3": {"rc": 0, "problems": [], "keys": ["sup_u", "sup_u_T"]},
        "eta-l4": {"rc": 0, "problems": [], "keys": ["eta_T_x"]},
    }


NONCONVERGED = """
import json, os, sys
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(sys.argv[1], "perfbench"))
import workloads
import fractalheat.cli as cli
out = os.path.join(sys.argv[2], "solve")
rc = cli.main(["solve", "--level", "2", "--depth", "3", "--f", "sin:24", "--out", out])
problems = []
workloads.SolveL3(1, "small", sys.argv[2], None).fingerprint(out, problems)
print(json.dumps({"rc": rc, "problems": problems}))
"""


def test_solve_fingerprint_flags_nonconverged_windows(tmp_path):
    # the CLI writes diagnostics.csv for a solve whose windows did not
    # converge; the benchmark's answer check must still refuse it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", NONCONVERGED, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["rc"] != 0
    assert len(got["problems"]) == 1 and got["problems"][0].startswith("not converged")
