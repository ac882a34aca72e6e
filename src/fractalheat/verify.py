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
from dataclasses import dataclass
from functools import lru_cache

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
    name: str
    passed: bool
    measured: str
    target: str
    tolerance: str
    seconds: float
    detail: str = ""


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
def _hfunction(name: str, level: int, sigma_name: str = "smooth", T: float = 1.0):
    from .paramint import HFunction, sigma_preset
    model = _model(name)
    return HFunction(_kernel_op(name, level), sigma_preset(sigma_name, model, T), T=T)


# ---- spectral dimension ----------------------------------------------------

def _ds_case(name: str, level: int, blowup: int):
    from .kernel import estimate_spectral_dimension
    est = estimate_spectral_dimension(_table(name, level, blowup))
    return est.d_s, _model(name).d_s


def check_spectral_dimension(level_vicsek: int = 4, gasket_cfg=(6, 2)) -> CheckResult:
    t0 = time.time()
    lines, ok = [], True
    t_v = time.time()
    got, want = _ds_case("vicsek", level_vicsek, 0)
    dt_v = time.time() - t_v
    ok &= abs(got - want) <= DS_TOL and dt_v < 120
    lines.append(f"vicsek level {level_vicsek}: d_s={got:.5f} target={want:.5f} "
                 f"err={got - want:+.5f} ({dt_v:.1f}s)")
    t_g = time.time()
    got_g, want_g = _ds_case("gasket", *gasket_cfg)
    dt_g = time.time() - t_g
    ok &= abs(got_g - want_g) <= DS_TOL and dt_g < 120
    lines.append(f"gasket level {gasket_cfg[0]} blowup {gasket_cfg[1]}: "
                 f"d_s={got_g:.5f} target={want_g:.5f} err={got_g - want_g:+.5f} "
                 f"({dt_g:.1f}s)")
    return CheckResult("spectral_dimension", bool(ok),
                       f"errors {got - want:+.4f} / {got_g - want_g:+.4f}",
                       "log25/log15 and log9/log5", f"+-{DS_TOL}, <120s each",
                       time.time() - t0, "\n".join(lines))


def check_kernel_holder(level: int = 4) -> CheckResult:
    from .kernel import verify_holder
    t0 = time.time()
    model = _model("vicsek")
    fit = verify_holder(_table("vicsek", level, 0), model)
    target = model.d_w - model.d_f
    ok = fit.exponent >= HOLDER_MIN
    c1s = [c for *_, c in fit.per_time]
    stable = max(c1s) <= 2 * min(c1s)
    detail = (f"exponent {fit.exponent:.4f} (exact target {target:.1f}), "
              f"c1={fit.c1:.3f}, c1 range {min(c1s):.3f}..{max(c1s):.3f} "
              f"(x2-stable: {stable}), {fit.n_pairs} pairs")
    return CheckResult("kernel_holder_exponent", bool(ok),
                       f"exponent {fit.exponent:.4f}", f">= {HOLDER_MIN} (target 1.0)",
                       "fit over cell-sharing pairs", time.time() - t0, detail)


def check_kernel_structure(levels=(2, 3, 4)) -> CheckResult:
    t0 = time.time()
    lines, worst = [], {"sym": 0.0, "ck": 0.0, "mass": 0.0, "bal": 0.0}
    for lvl in levels:
        kern = _kernel_op("vicsek", lvl)
        m = kern.weights
        tmid = 0.01 * (4 - lvl) + 0.02
        P = kern.transition(tmid, clip=False)
        p = P / m[None, :]
        sym = float(np.max(np.abs(p - p.T)) / p.max())
        mass = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
        bal = float(np.max(np.abs(m[:, None] * P - (m[:, None] * P).T)))
        Ps, Pt, Pst = (kern.transition(x) for x in (0.1, 0.2, 0.3))
        ck = float(np.max(np.abs(Ps @ Pt - Pst)))
        worst = {k: max(worst[k], v) for k, v in
                 zip(worst, (sym, ck, mass, bal))}
        lines.append(f"level {lvl}: sym={sym:.2e} ck={ck:.2e} mass={mass:.2e} "
                     f"balance={bal:.2e}")
    ok = (worst["sym"] <= KERNEL_TOL and worst["ck"] <= KERNEL_TOL
          and worst["mass"] <= KERNEL_TOL and worst["bal"] <= BALANCE_TOL)
    return CheckResult("kernel_structure", bool(ok),
                       f"sym {worst['sym']:.1e}, ck {worst['ck']:.1e}, "
                       f"mass {worst['mass']:.1e}, balance {worst['bal']:.1e}",
                       "all semigroup identities",
                       f"{KERNEL_TOL:.0e} (balance {BALANCE_TOL:.0e})",
                       time.time() - t0, "\n".join(lines))


def check_measure_consistency(n_seeds: int = 10000, n_lemma_seeds: int = 100) -> CheckResult:
    from .geometry import CellAddress
    from .measure import BaseSM, LevelIndicatorFamily, lemma22_diagnostic, realize
    t0 = time.time()
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
    return CheckResult("measure_consistency", bool(ok),
                       f"gap {gap:.1e}, var off {abs(var / target_var - 1) * 100:.2f}%, "
                       f"plateau {plats}/{n_lemma_seeds}",
                       "exact additivity, N^-n variance, plateau",
                       f"{ADDITIVITY_TOL:.0e}, {VARIANCE_RTOL * 100:.0f}%, >=95%",
                       time.time() - t0, detail)


def check_eta_convergence(n_seeds: int = 50, level: int = 3, depth: int = 6,
                          holder_level: int = 4) -> CheckResult:
    from .measure import BaseSM, realize
    from .paramint import estimate_h_holder, eval_eta
    t0 = time.time()
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
    return CheckResult("eta_convergence", bool(ok),
                       f"{good}/{n_seeds} decreasing, exponent {expo:.3f}",
                       f">= {need}/{n_seeds} and exponent >= 0.85, > 0.7325",
                       "median ratio < 1 over last 3 levels",
                       time.time() - t0, detail)


def _picard_problem(level: int, depth: int, seed: int, n_steps: int = 64):
    from .measure import BaseSM
    from .solver import ProblemSpec, prepare
    return prepare(ProblemSpec(_model("vicsek"), level=level, depth=depth,
                               n_steps=n_steps,
                               base=BaseSM("gaussian_white", seed=seed)))


def check_picard_contraction(level: int = 3, depth: int = 5) -> CheckResult:
    from .solver import picard_solve
    t0 = time.time()
    prob = _picard_problem(level, depth, seed=42)
    sol = picard_solve(prob)
    cf = prob.spec.f.c_bound
    g1 = sol.g_history[1]
    g1_ok = bool(np.all(g1 <= 2 * cf * sol.times + G1_SLACK))
    fact_ok, worst = True, 0.0
    for n in range(1, len(sol.g_history)):
        gT = float(sol.g_history[n][-1])
        if gT <= 1e-10:
            continue
        bound = sol.bound_factorial(n)[-1] * FACTORIAL_SLACK
        worst = max(worst, gT / bound)
        fact_ok &= gT <= bound
    # the derivable one-index-lower chain must hold as well (it does for every
    # seed; the printed form is checked at the configured seed 42)
    derived_ok = all(
        float(sol.g_history[n][-1]) <= sol.bound_factorial_derived(n)[-1]
        for n in range(1, len(sol.g_history))
        if float(sol.g_history[n][-1]) > 1e-10)
    iters_ok = sol.converged and sol.iterations <= 10
    dt = time.time() - t0
    ok = g1_ok and fact_ok and derived_ok and iters_ok and dt < 300
    detail = (f"level {level} depth {depth} seed 42: iterations {sol.iterations} "
              f"(converged {sol.converged}); g1 linear bound {g1_ok}; factorial "
              f"bound worst ratio {worst:.3f}; derived chain {derived_ok}; "
              f"runtime {dt:.1f}s")
    return CheckResult("picard_contraction", bool(ok),
                       f"{sol.iterations} iters, worst factorial ratio {worst:.3f}",
                       "g1 <= 2 C_f t + 1e-6; g_n(T) <= printed bound x1.1; <= 10 iters",
                       f"slack {FACTORIAL_SLACK}, < 300 s", dt, detail)


def check_uniqueness(n_seeds: int = 10, level: int = 2, depth: int = 4) -> CheckResult:
    from .solver import uniqueness_check
    t0 = time.time()
    worst = 0.0
    for s in range(n_seeds):
        prob = _picard_problem(level, depth, seed=s)
        worst = max(worst, uniqueness_check(prob))
    ok = worst <= UNIQUENESS_TOL
    return CheckResult("uniqueness", bool(ok), f"sup diff {worst:.2e}",
                       "same fixed point from two starts",
                       f"<= {UNIQUENESS_TOL:.0e}, {n_seeds} seeds",
                       time.time() - t0,
                       f"worst sup-norm difference over {n_seeds} seeds: {worst:.3e}")


def check_assumption_gate() -> CheckResult:
    from .solver import assumption_gate
    t0 = time.time()
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
    return CheckResult("assumption_gate", bool(ok),
                       f"vicsek {'pass' if ok_v else 'fail'}, gasket exit {proc.returncode}",
                       "vicsek passes, gasket refused (d_s = log9/log5 > 4/3)",
                       "CLI exit code 2 + diagnostic", time.time() - t0, detail)


def check_mild_residual(n_seeds: int = 5, level: int = 2, depth: int = 4) -> CheckResult:
    from .solver import mild_residual, picard_solve
    t0 = time.time()
    worst = 0.0
    for s in range(n_seeds):
        prob = _picard_problem(level, depth, seed=s)
        sol = picard_solve(prob)
        worst = max(worst, mild_residual(prob, sol))
    ok = worst <= RESIDUAL_TOL
    return CheckResult("mild_residual", bool(ok), f"max residual {worst:.2e}",
                       "fixed point reproduces itself",
                       f"<= {RESIDUAL_TOL:.0e} (2 x combined tolerances)",
                       time.time() - t0,
                       f"worst grid-point residual over {n_seeds} seeds: {worst:.3e}")


def check_reproducibility() -> CheckResult:
    import hashlib
    t0 = time.time()
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
                return CheckResult("reproducibility", False,
                                   f"solve exit {proc.returncode}", "exit 0", "",
                                   time.time() - t0, proc.stderr[-400:])
            # one digest over the three files in sequence
            h = hashlib.sha256()
            for name in ("solution.csv", "diagnostics.csv", "realization.txt"):
                with open(f"{out}/{name}", "rb") as fh:
                    hashlib.file_digest(fh, lambda: h)
            digests.append(h.hexdigest())
    ok = digests[0] == digests[1]
    return CheckResult("reproducibility", bool(ok),
                       f"digests {'match' if ok else 'differ'}",
                       "byte-identical artifacts", "sha256 equality",
                       time.time() - t0, f"sha256: {digests[0][:16]}... vs {digests[1][:16]}...")


# quick-suite variants

def quick_geometry() -> CheckResult:
    from .geometry import CellAddress, apply_word, check_assumption1, measure_weights
    t0 = time.time()
    model = _model("vicsek")
    counts = [_vertex_set("vicsek", n).n_vertices for n in range(4)]
    ok = counts == [4, 16, 76, 376]
    ok &= check_assumption1(model, 1, samples=50) == 4
    w = measure_weights(_vertex_set("vicsek", 2))
    ok &= abs(w.total - 1) < 1e-12
    ok &= bool(np.allclose(apply_word(model, CellAddress((1,)), [1.0, 1.0]),
                           [1 / 3, 1 / 3]))
    return CheckResult("quick_geometry", bool(ok), f"counts {counts}, k=4",
                       "recurrence 5V-4, Assumption-1 k", "exact",
                       time.time() - t0)


def quick_kernel() -> CheckResult:
    return _rename(check_kernel_structure(levels=(2, 3)), "quick_kernel")


def quick_spectral() -> CheckResult:
    from .kernel import estimate_spectral_dimension
    t0 = time.time()
    est = estimate_spectral_dimension(_table("vicsek", 3, 0))
    err = est.d_s - _model("vicsek").d_s
    return CheckResult("quick_spectral", bool(abs(err) <= DS_TOL),
                       f"d_s err {err:+.4f}", "log25/log15", f"+-{DS_TOL}",
                       time.time() - t0)


def quick_measure() -> CheckResult:
    return _rename(check_measure_consistency(n_seeds=1000, n_lemma_seeds=20),
                   "quick_measure")


def quick_eta() -> CheckResult:
    return _rename(check_eta_convergence(n_seeds=8, level=2, depth=5,
                                         holder_level=3), "quick_eta")


def quick_picard() -> CheckResult:
    return _rename(check_picard_contraction(level=2, depth=4), "quick_picard")


def quick_gate() -> CheckResult:
    return _rename(check_assumption_gate(), "quick_gate")


def _rename(res: CheckResult, name: str) -> CheckResult:
    res.name = name
    return res


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
    "quick_kernel": quick_kernel,
    "quick_spectral": quick_spectral,
    "quick_measure": quick_measure,
    "quick_eta": quick_eta,
    "quick_picard": quick_picard,
    "quick_gate": quick_gate,
}

SUITES = {
    "full": ["spectral_dimension", "kernel_holder_exponent", "kernel_structure",
             "measure_consistency", "eta_convergence", "picard_contraction",
             "uniqueness", "assumption_gate", "mild_residual", "reproducibility"],
    "quick": ["quick_geometry", "quick_kernel", "quick_spectral", "quick_measure",
              "quick_eta", "quick_picard", "quick_gate"],
}


def run_verify(suite: str = "quick") -> VerifyReport:
    """Run a named suite or a comma list of check names (possibly empty)."""
    if suite in SUITES:
        names = SUITES[suite]
    else:
        names = [tok for tok in (suite or "").split(",") if tok]
        unknown = [n for n in names if n not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}; known: {sorted(CHECKS)}")
    results = []
    for name in names:
        t0 = time.time()
        try:
            results.append(CHECKS[name]())
        except Exception as exc:   # a crash is a failure, never an abort
            results.append(CheckResult(name, False, f"crashed: {exc}", "", "",
                                       time.time() - t0))
    return VerifyReport(suite, results)
