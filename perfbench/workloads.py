"""The benchmark's workloads: inputs from the seed, the timed operation, and
the correctness check of its answer.

Each workload draws the noise (or sampling) seed of operation i from a pool of
POOL seeds, in an order fixed by the workload seed, so two runs with the same
seed do identical work.  `reference.json` holds the answer fingerprints of
every pool seed for the workloads checked against recorded values; it is
written by `record_reference.py`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

import fractalheat.cli as cli
import fractalheat.geometry as geometry
import fractalheat.kernel as kernel
from fractalheat.solver import ProblemSpec
from fractalheat.verify import DS_TOL, HOLDER_MIN

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

POOL = 16

# Fingerprints are compared with this absolute tolerance.  Today's time
# quadrature is about 3.1e-6 away from its converged value; a more accurate
# quadrature moves the answers by that much and must not count as a failure,
# so the tolerance sits well above it.  Answers are O(1), so a real error in
# the pipeline still shows.
FINGERPRINT_TOL = 1e-4

STOP_TOL = {f.name: f.default for f in dataclasses.fields(ProblemSpec)}["stop_tol"]


def op_seeds(seed: int) -> np.ndarray:
    """Pool seeds in the order the operations of a run use them."""
    return np.random.default_rng(seed).permutation(POOL)


def load_reference(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _read_csv(path: str) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _compare(problems: list, got: dict, want: dict | None) -> None:
    if want is None:
        problems.append("no reference fingerprint for this input")
        return
    for key, ref in want.items():
        if not abs(got[key] - ref) <= FINGERPRINT_TOL:
            problems.append(f"{key} = {got[key]!r}, reference {ref!r}")


class Workload:
    """Parameters by size ("full", or "small" for the self-test), the pool
    seed of each operation and the reference fingerprints."""

    name = ""
    sizes: dict = {}

    def __init__(self, seed: int, size: str, workdir: str, reference: dict | None):
        self.p = self.sizes[size]
        self.seeds = op_seeds(seed)
        self.workdir = workdir
        self.reference = (reference or {}).get(self.key(), {})

    def key(self) -> str:
        """Reference section of this workload at this size."""
        return f"{self.name}:" + ",".join(f"{k}={v}" for k, v in sorted(self.p.items()))

    def seed_of(self, i: int) -> int:
        return int(self.seeds[i % POOL])


class CliWorkload(Workload):
    """One `fractalheat` CLI command per operation, run in process."""

    def argv(self, i: int, out: str) -> list:
        raise NotImplementedError

    def run(self, i: int) -> dict:
        out = os.path.join(self.workdir, f"op{i}")
        return {"rc": cli.main(self.argv(i, out)), "out": out}

    def check(self, i: int, result: dict) -> tuple[dict, list]:
        """Fingerprint of the answer and the list of problems found in it."""
        if result["rc"] != 0:
            return {}, [f"exit code {result['rc']}"]
        problems = []
        got = self.fingerprint(result["out"], problems)
        if not problems:
            _compare(problems, got, self.reference.get(str(self.seed_of(i))))
        return got, problems


class SolveL3(CliWorkload):
    """`fractalheat solve` at the default problem, fresh noise per operation."""

    name = "solve-l3"
    sizes = {
        "full": {"level": 3, "depth": 5, "steps": 64},
        "small": {"level": 2, "depth": 3, "steps": 16},
    }

    def argv(self, i: int, out: str) -> list:
        p = self.p
        return ["solve", "--model", "vicsek", "--level", str(p["level"]),
                "--depth", str(p["depth"]), "--T", "1.0", "--steps", str(p["steps"]),
                "--f", "sin:0.5", "--sigma", "preset:smooth", "--u0", "bump",
                "--base", "gaussian", "--seed", str(self.seed_of(i)), "--out", out]

    def fingerprint(self, out: str, problems: list) -> dict:
        # the CLI exits 0 on a run that did not converge, so read the sweeps
        diag = _read_csv(os.path.join(out, "diagnostics.csv"))   # n, t, g_n, bound
        last = diag[diag[:, 0] == diag[:, 0].max()]
        sup_g = float(np.max(last[:, 2]))
        if not sup_g < STOP_TOL:
            problems.append(f"not converged: last sweep sup g_n = {sup_g!r}")
        sol = _read_csv(os.path.join(out, "solution.csv"))      # t, x_id, u
        if not np.all(np.isfinite(sol)):
            problems.append("non-finite values in solution.csv")
        u = np.abs(sol[:, 2])
        final = sol[:, 0] == sol[:, 0].max()
        return {"sup_u": float(u.max()), "sup_u_T": float(u[final].max())}


class EtaL4(CliWorkload):
    """`fractalheat eta` at Vicsek level 4 on every vertex and the uniform
    32-step grid, fresh noise per operation."""

    name = "eta-l4"
    sizes = {
        "full": {"level": 4, "depth": 7, "times": "0.03125:1:lin32", "x_id": 938},
        "small": {"level": 2, "depth": 4, "times": "0.25:1:lin4", "x_id": 38},
    }

    def argv(self, i: int, out: str) -> list:
        p = self.p
        return ["eta", "--model", "vicsek", "--level", str(p["level"]),
                "--depth", str(p["depth"]), "--times", p["times"], "--T", "1.0",
                "--sigma", "preset:smooth", "--base", "gaussian",
                "--seed", str(self.seed_of(i)), "--out", out]

    def fingerprint(self, out: str, problems: list) -> dict:
        eta = _read_csv(os.path.join(out, "eta.csv"))            # t, x_id, level, S
        if not np.all(np.isfinite(eta)):
            problems.append("non-finite values in eta.csv")
        at = ((eta[:, 0] == eta[:, 0].max()) & (eta[:, 1] == self.p["x_id"])
              & (eta[:, 2] == self.p["depth"]))
        if at.sum() != 1:
            problems.append(f"eta.csv has {int(at.sum())} rows for the fixed (t, x)")
            return {}
        return {"eta_T_x": float(eta[at, 3][0])}


class KernelDiag(Workload):
    """Kernel diagnostics of both presets plus the chain check: reads kernel
    diagonals and rows instead of applying the kernel."""

    name = "kernel-diag"
    sizes = {
        "full": {"cases": [("vicsek", 4, 0), ("gasket", 6, 2)], "chain_level": 3},
        "small": {"cases": [("vicsek", 3, 0), ("gasket", 5, 2)], "chain_level": 2},
    }

    def run(self, i: int) -> dict:
        s = self.seed_of(i)
        fits = {}
        for name, level, blowup in self.p["cases"]:
            model = geometry.build_preset(name)
            vs = geometry.vertex_set(model, level, blowup)
            kern = kernel.HeatKernel(kernel.build_generator(vs))
            lo, _ = kernel.scaling_window(model, level, blowup)
            times = kernel.log_time_grid(lo, 0.5, 20)
            table = kernel.HeatKernelTable(kern, times, kern.diag_density(times), None)
            ds = kernel.estimate_spectral_dimension(table)
            holder = kernel.verify_holder(table, model, seed=s)
            fit = kernel.fit_subgaussian(table, model, holder=holder, seed=s)
            fits[name] = (model, ds, holder, fit)
        vicsek = fits["vicsek"][0]
        chain = geometry.check_assumption1(vicsek, self.p["chain_level"], seed=s)
        return {"fits": fits, "chain": chain}

    def check(self, i: int, result: dict) -> tuple[dict, list]:
        got, problems = {"chain": result["chain"]}, []
        for name, (model, ds, holder, fit) in result["fits"].items():
            got[f"{name}_d_s"] = ds.d_s
            got[f"{name}_holder"] = holder.exponent
            if not abs(ds.d_s - model.d_s) <= DS_TOL:
                problems.append(f"{name} d_s = {ds.d_s!r}, model {model.d_s!r}")
            if not fit.converged:
                problems.append(f"{name} sub-Gaussian fit did not converge")
            if not all(math.isfinite(v) for v in (fit.c2, fit.c3, fit.d_J)):
                problems.append(f"{name} sub-Gaussian fit is not finite")
        vicsek = result["fits"]["vicsek"]
        if not vicsek[2].exponent >= HOLDER_MIN:
            problems.append(f"vicsek Hoelder exponent {vicsek[2].exponent!r} < {HOLDER_MIN}")
        if not result["chain"] <= vicsek[0].assumption1_k:
            problems.append(f"vicsek chain length {result['chain']} > "
                            f"{vicsek[0].assumption1_k}")
        return got, problems


WORKLOADS = {w.name: w for w in (SolveL3, EtaL4, KernelDiag)}
