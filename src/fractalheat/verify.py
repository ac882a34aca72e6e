"""Named verification checks, shared by `fractalheat verify` and the test suite.

The full suite runs the ten headline checks at their stated tolerances; the
quick suite runs sub-minute variants at lower levels and fewer seeds.  Every
check is independent, returns a CheckResult, and a crash inside one check is
captured as a failure without aborting the rest.
"""

from __future__ import annotations

import math
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

__all__ = ["CheckResult", "VerifyReport", "run_verify", "CHECKS", "SUITES"]

DS_TOL = 0.06
HOLDER_MIN = 0.9
H_HOLDER_MIN = 0.85
KERNEL_TOL = 1e-8
BALANCE_TOL = 1e-10
ADDITIVITY_TOL = 1e-12
VARIANCE_RTOL = 0.05
UNIQUENESS_TOL = 1e-7
# the residual of the last iterate is one more Picard increment, below twice
# the stopping tolerance; mild_residual applies the same Duhamel rule as the
# solve, so the rule's own error (< 1e-9 under p-refinement) is not seen here
RESIDUAL_TOL = 4e-8
FACTORIAL_SLACK = 1.1
G1_SLACK = 1e-6


@dataclass
class CheckResult:
    passed: bool
    measured: str
    target: str
    tolerance: str
    detail: str = ""
    name: str = field(init=False, default="")        # the registry key, set by run_verify
    seconds: float = field(init=False, default=0.0)  # wall time, set by run_verify


@dataclass
class VerifyReport:
    suite: str
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> str:
        lines = [f"verification suite: {self.suite} ({len(self.results)} checks)"]
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"[{mark}] {r.name}: {r.measured} (target {r.target}, "
                         f"tol {r.tolerance}) {r.seconds:.1f}s")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_text(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.summary() + "\n")
            for r in self.results:
                if r.detail:
                    f.write(f"\n--- {r.name}\n{r.detail}\n")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,passed,measured,target,tolerance,seconds\n")
            for r in self.results:
                f.write(f"{r.name},{int(r.passed)},\"{r.measured}\","
                        f"\"{r.target}\",\"{r.tolerance}\",{r.seconds:.2f}\n")


# shared builders (cached so the level-4 eigendecomposition happens once)

@lru_cache(maxsize=None)
def _model(name: str):
    from .geometry import build_preset
    return build_preset(name)


@lru_cache(maxsize=None)
def _vertex_set(name: str, level: int, blowup: int = 0):
    from .geometry import vertex_set
    return vertex_set(_model(name), level, blowup)


@lru_cache(maxsize=None)
def _generator(name: str, level: int, blowup: int = 0, boundary: str = "reflecting"):
    from .kernel import build_generator
    return build_generator(_vertex_set(name, level, blowup), boundary=boundary)


@lru_cache(maxsize=None)
def _kernel_op(name: str, level: int, blowup: int = 0, boundary: str = "reflecting"):
    from .kernel import HeatKernel
    return HeatKernel(_generator(name, level, blowup, boundary))


@lru_cache(maxsize=None)
def _table(name: str, level: int, blowup: int = 0):
    from .kernel import HeatKernelTable, log_time_grid, scaling_window
    kern = _kernel_op(name, level, blowup)
    lo, _ = scaling_window(_model(name), level, blowup)
    times = log_time_grid(lo, 0.5, 20)
    return HeatKernelTable(kern, times, kern.diag_density(times), None)


@lru_cache(maxsize=None)
def _hfunction(name: str, level: int):
    from .paramint import HFunction, sigma_preset
    return HFunction(_kernel_op(name, level), sigma_preset("smooth", _model(name)))


# ---- spectral dimension ----------------------------------------------------

def check_spectral_dimension(cases=(("vicsek", 4, 0), ("gasket", 6, 2))) -> CheckResult:
    from .kernel import estimate_spectral_dimension
    lines, errs, ok = [], [], True
    for name, level, blowup in cases:
        t0 = time.time()
        got = estimate_spectral_dimension(_table(name, level, blowup)).d_s
        want, dt = _model(name).d_s, time.time() - t0
        ok &= abs(got - want) <= DS_TOL and dt < 120
        errs.append(f"{got - want:+.4f}")
        lines.append(f"{name} level {level} blowup {blowup}: d_s={got:.5f} "
                     f"target={want:.5f} err={got - want:+.5f} ({dt:.1f}s)")
    return CheckResult(bool(ok), "errors " + " / ".join(errs),
                       " and ".join(f"{_model(name).d_s:.5f}" for name, *_ in cases),
                       f"+-{DS_TOL}, <120s each", "\n".join(lines))


def check_kernel_holder() -> CheckResult:
    from .kernel import verify_holder
    model = _model("vicsek")
    fit = verify_holder(_table("vicsek", 4, 0), model)
    target = model.d_w - model.d_f
    ok = fit.exponent >= HOLDER_MIN
    c1s = [c for *_, c in fit.per_time]
    stable = max(c1s) <= 2 * min(c1s)
    detail = (f"exponent {fit.exponent:.4f} (exact target {target:.1f}), "
              f"c1={fit.c1:.3f}, c1 range {min(c1s):.3f}..{max(c1s):.3f} "
              f"(x2-stable: {stable}), {fit.n_pairs} pairs")
    return CheckResult(bool(ok), f"exponent {fit.exponent:.4f}", f">= {HOLDER_MIN} (target 1.0)",
                       "fit over cell-sharing pairs", detail)


def check_kernel_structure(levels=(2, 3, 4)) -> CheckResult:
    lines, worst = [], {"sym": 0.0, "ck": 0.0, "mass": 0.0, "bal": 0.0}
    for lvl in levels:
        kern = _kernel_op("vicsek", lvl)
        g = kern.invariant_gaps(0.01 * (4 - lvl) + 0.02)
        sym, mass, bal = (g["density_symmetry_gap"], g["row_sum_gap"],
                          g["detailed_balance_gap"])
        ck = kern.chapman_kolmogorov_gap(0.1, 0.2, 0.3)
        worst = {k: max(worst[k], v) for k, v in
                 zip(worst, (sym, ck, mass, bal))}
        lines.append(f"level {lvl}: sym={sym:.2e} ck={ck:.2e} mass={mass:.2e} "
                     f"balance={bal:.2e}")
    ok = (worst["sym"] <= KERNEL_TOL and worst["ck"] <= KERNEL_TOL
          and worst["mass"] <= KERNEL_TOL and worst["bal"] <= BALANCE_TOL)
    return CheckResult(bool(ok),
                       f"sym {worst['sym']:.1e}, ck {worst['ck']:.1e}, "
                       f"mass {worst['mass']:.1e}, balance {worst['bal']:.1e}",
                       "all semigroup identities",
                       f"{KERNEL_TOL:.0e} (balance {BALANCE_TOL:.0e})",
                       "\n".join(lines))


def check_measure_consistency(n_seeds: int = 10000, n_lemma_seeds: int = 100) -> CheckResult:
    from .geometry import CellAddress
    from .measure import BaseSM, LevelIndicatorFamily, lemma22_diagnostic, realize
    model = _model("vicsek")
    gask = _model("gasket")
    # additivity over >= 10000 parent nodes across several deep realizations
    gap, nodes = 0.0, 0
    for seed in range(3):
        real = realize(BaseSM("gaussian_white", seed=seed), model, n_max=6)
        gap = max(gap, real.additivity_gap())
        nodes += sum(model.N ** n for n in range(6))
    # gaussian cell-mass variance at depth 3 over seeds
    vals = np.array([realize(BaseSM("gaussian_white", seed=s), model, n_max=3)
                     .mass(CellAddress((1, 2, 3))) for s in range(n_seeds)])
    var, target_var = float(vals.var()), model.N ** -3.0
    var_ok = abs(var - target_var) <= VARIANCE_RTOL * target_var
    # Lemma 2.2 partial-sum plateau, L = 12 level terms on the gasket
    plats = 0
    for s in range(n_lemma_seeds):
        real = realize(BaseSM("gaussian_white", seed=s), gask, n_max=12)
        _, plateau = lemma22_diagnostic(LevelIndicatorFamily(0.75), real, L=12, n=12)
        plats += int(plateau)
    ok = (gap <= ADDITIVITY_TOL and var_ok and plats >= 0.95 * n_lemma_seeds
          and nodes >= 10000)
    detail = (f"additivity gap {gap:.2e} over {nodes} nodes; depth-3 variance "
              f"{var:.6f} vs {target_var:.6f} ({abs(var / target_var - 1) * 100:.2f}%); "
              f"lemma-2.2 plateau {plats}/{n_lemma_seeds} seeds (beta=0.75, gasket)")
    return CheckResult(bool(ok),
                       f"gap {gap:.1e}, var off {abs(var / target_var - 1) * 100:.2f}%, "
                       f"plateau {plats}/{n_lemma_seeds}",
                       "exact additivity, N^-n variance, plateau",
                       f"{ADDITIVITY_TOL:.0e}, {VARIANCE_RTOL * 100:.0f}%, >=95%",
                       detail)


def check_eta_convergence(n_seeds: int = 50, level: int = 3, depth: int = 6,
                          holder_level: int = 4) -> CheckResult:
    from .measure import BaseSM, realize
    from .paramint import estimate_h_holder, eval_eta
    model = _model("vicsek")
    hf = _hfunction("vicsek", level)
    times = np.geomspace(0.02, 0.5, 4)
    good = 0
    ratios = []
    for s in range(n_seeds):
        real = realize(BaseSM("gaussian_white", seed=s), model, n_max=depth)
        ev = eval_eta(hf, real, times, n_max=depth)
        r = ev.median_ratio(3)
        ratios.append(r)
        good += int(r < 1.0)
    hf4 = _hfunction("vicsek", holder_level)
    regs = [estimate_h_holder(hf4, t, x) for t, x in ((0.05, 40), (0.2, 200))]
    expo = float(np.median([r.exponent for r in regs]))
    thresh = model.d_f / 2
    need = math.ceil(0.9 * n_seeds)
    ok = good >= need and expo > thresh and expo >= H_HOLDER_MIN
    detail = (f"decreasing increments {good}/{n_seeds} seeds (median ratio "
              f"{np.median(ratios):.3f}); h-Hoelder exponent {expo:.4f} "
              f"(> d_f/2 = {thresh:.4f}, >= {H_HOLDER_MIN}, target 1.0)")
    return CheckResult(bool(ok),
                       f"{good}/{n_seeds} decreasing, exponent {expo:.3f}",
                       f">= {need}/{n_seeds} and exponent >= 0.85, > 0.7325",
                       "median ratio < 1 over last 3 levels", detail)


def _picard_problem(level: int, depth: int, seed: int):
    from .measure import BaseSM
    from .solver import ProblemSpec, prepare
    return prepare(ProblemSpec(_model("vicsek"), level=level, depth=depth,
                               base=BaseSM("gaussian_white", seed=seed)))


def check_picard_contraction(level: int = 3, depth: int = 5) -> CheckResult:
    from .solver import picard_solve
    t0 = time.time()
    prob = _picard_problem(level, depth, seed=42)
    sol = picard_solve(prob)
    cf = prob.spec.f.c_bound
    tau = sol.tau
    # every window restarts the map at its t_a from its linear part: the seed
    # g_0 <= C_f tau, then the printed factorial bound in tau and the
    # one-index-lower chain, at every time of every window
    g0_ok, fact_ok, derived_ok, worst = True, True, True, 0.0
    for rows, history in zip(sol.windows, sol.g_history):
        g0_ok &= bool(np.all(history[0] <= cf * tau[rows] + G1_SLACK))
        for n in range(1, len(history)):
            g = history[n]
            big = g > 1e-10
            bound = sol.bound_factorial(n)[rows][big] * FACTORIAL_SLACK
            worst = max(worst, float(np.max(g[big] / bound, initial=0.0)))
            fact_ok &= bool(np.all(g[big] <= bound))
            derived_ok &= bool(np.all(g[big] <= sol.bound_factorial(n - 1)[rows][big]))
    per_window = max(map(len, sol.g_history))
    iters_ok = sol.converged and per_window <= 10
    dt = time.time() - t0
    ok = g0_ok and fact_ok and derived_ok and iters_ok and dt < 300
    detail = (f"level {level} depth {depth} seed 42: {len(sol.windows)} windows, "
              f"{sol.iterations} sweeps, at most {per_window} per window (converged "
              f"{sol.converged}); g0 linear bound {g0_ok}; factorial bound worst "
              f"ratio {worst:.3f}; derived chain {derived_ok}; runtime {dt:.1f}s")
    return CheckResult(bool(ok), f"{per_window} sweeps per window, worst factorial ratio "
                       f"{worst:.3f}",
                       "g0 <= C_f tau + 1e-6; g_n <= printed bound in tau x1.1 at every "
                       "time; <= 10 sweeps per window",
                       f"slack {FACTORIAL_SLACK}, < 300 s", detail)


def check_uniqueness() -> CheckResult:
    from .solver import uniqueness_check
    worst = 0.0
    for s in range(10):
        prob = _picard_problem(2, 4, seed=s)
        worst = max(worst, uniqueness_check(prob))
    ok = worst <= UNIQUENESS_TOL
    return CheckResult(bool(ok), f"sup diff {worst:.2e}",
                       "same fixed point from two starts",
                       f"<= {UNIQUENESS_TOL:.0e}, 10 seeds",
                       f"worst sup-norm difference over 10 seeds: {worst:.3e}")


def check_assumption_gate() -> CheckResult:
    from .solver import assumption_gate
    ok_v = assumption_gate(_picard_problem(2, 3, seed=0)).passed
    # end-to-end CLI refusal on the gasket
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "fractalheat.cli", "solve", "--model", "gasket",
             "--level", "2", "--depth", "3", "--steps", "8", "--out", tmp],
            capture_output=True, text=True, timeout=600)
        refused = proc.returncode == 2 and "spectral dimension" in proc.stderr
    ok = ok_v and refused
    detail = (f"vicsek gate pass: {ok_v}; gasket CLI exit {proc.returncode} "
              f"(want 2) with message: {proc.stderr.strip().splitlines()[0] if proc.stderr else ''}")
    return CheckResult(bool(ok),
                       f"vicsek {'pass' if ok_v else 'fail'}, gasket exit {proc.returncode}",
                       "vicsek passes, gasket refused (d_s = log9/log5 > 4/3)",
                       "CLI exit code 2 + diagnostic", detail)


def check_mild_residual() -> CheckResult:
    from .solver import mild_residual, picard_solve
    worst = 0.0
    for s in range(5):
        prob = _picard_problem(2, 4, seed=s)
        sol = picard_solve(prob)
        worst = max(worst, mild_residual(prob, sol))
    ok = worst <= RESIDUAL_TOL
    return CheckResult(bool(ok), f"max residual {worst:.2e}",
                       "fixed point reproduces itself",
                       f"<= {RESIDUAL_TOL:.0e} (2 x combined tolerances)",
                       f"worst grid-point residual over 5 seeds: {worst:.3e}")


def check_reproducibility() -> CheckResult:
    import hashlib
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in ("a", "b"):
            out = f"{tmp}/{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "fractalheat.cli", "solve", "--model", "vicsek",
                 "--level", "2", "--depth", "4", "--steps", "16", "--seed", "7",
                 "--out", out],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                return CheckResult(False, f"solve exit {proc.returncode}", "exit 0", "",
                                   proc.stderr[-400:])
            # one digest over the three files in sequence
            h = hashlib.sha256()
            for name in ("solution.csv", "diagnostics.csv", "realization.txt"):
                with open(f"{out}/{name}", "rb") as fh:
                    hashlib.file_digest(fh, lambda: h)
            digests.append(h.hexdigest())
    ok = digests[0] == digests[1]
    return CheckResult(bool(ok), f"digests {'match' if ok else 'differ'}",
                       "byte-identical artifacts", "sha256 equality",
                       f"sha256: {digests[0][:16]}... vs {digests[1][:16]}...")


# quick-suite variants

def quick_geometry() -> CheckResult:
    from .geometry import CellAddress, apply_word, check_assumption1
    model = _model("vicsek")
    counts = [_vertex_set("vicsek", n).n_vertices for n in range(4)]
    ok = counts == [4, 16, 76, 376]
    ok &= check_assumption1(model, 1, samples=50) == 4
    ok &= abs(_vertex_set("vicsek", 2).weights.sum() - 1) < 1e-12
    ok &= bool(np.allclose(apply_word(model, CellAddress((1,)), [1.0, 1.0]),
                           [1 / 3, 1 / 3]))
    return CheckResult(bool(ok), f"counts {counts}, k=4",
                       "recurrence 5V-4, Assumption-1 k", "exact")


CHECKS = {
    "spectral_dimension": check_spectral_dimension,
    "kernel_holder_exponent": check_kernel_holder,
    "kernel_structure": check_kernel_structure,
    "measure_consistency": check_measure_consistency,
    "eta_convergence": check_eta_convergence,
    "picard_contraction": check_picard_contraction,
    "uniqueness": check_uniqueness,
    "assumption_gate": check_assumption_gate,
    "mild_residual": check_mild_residual,
    "reproducibility": check_reproducibility,
    "quick_geometry": quick_geometry,
    "quick_kernel": partial(check_kernel_structure, levels=(2, 3)),
    "quick_spectral": partial(check_spectral_dimension, cases=(("vicsek", 3, 0),)),
    "quick_measure": partial(check_measure_consistency, n_seeds=1000, n_lemma_seeds=20),
    "quick_eta": partial(check_eta_convergence, n_seeds=8, level=2, depth=5,
                         holder_level=3),
    "quick_picard": partial(check_picard_contraction, level=2, depth=4),
    "quick_gate": check_assumption_gate,
}

SUITES = {
    "full": ["spectral_dimension", "kernel_holder_exponent", "kernel_structure",
             "measure_consistency", "eta_convergence", "picard_contraction",
             "uniqueness", "assumption_gate", "mild_residual", "reproducibility"],
    "quick": ["quick_geometry", "quick_kernel", "quick_spectral", "quick_measure",
              "quick_eta", "quick_picard", "quick_gate"],
}


def check_names(suite: str) -> list[str]:
    """The checks of a named suite or a comma list of check names (possibly
    empty); ValueError on an unknown name."""
    if suite in SUITES:
        return SUITES[suite]
    names = [tok for tok in suite.split(",") if tok]
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; known: {sorted(CHECKS)}")
    return names


def run_verify(suite: str = "quick") -> VerifyReport:
    """Run a suite (see check_names); each result carries its registry name
    and its wall time."""
    results = []
    for name in check_names(suite):
        t0 = time.time()
        try:
            res = CHECKS[name]()
        except Exception as exc:   # a crash is a failure, never an abort
            res = CheckResult(False, f"crashed: {exc}", "", "")
        res.name, res.seconds = name, time.time() - t0
        results.append(res)
    return VerifyReport(suite, results)
