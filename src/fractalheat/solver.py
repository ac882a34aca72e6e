"""Mild-form heat equation with additive measure noise, solved by Picard iteration.

The fixed-point map is

    u(t, x) = sum_y p(t, x, y) u0(y) m(y)
            + int_0^t sum_y p(t - s, x, y) f(s, y, u(s, y)) m(y) ds
            + eta(t, x),

where eta is the frozen stochastic parameter integral (it does not depend on u,
so it is computed once per run).  The time integral of the nonlinear term runs
through the kernel's Duhamel rule: u is linear in time between grid rows, f is
sampled at the Gauss nodes of each grid step, and exp(lam (t - s)) is
integrated exactly in every eigenvalue.  Iteration starts from u = 0; successive
differences g_n(t) = sup_x |u^(n+1) - u^(n)|(t) contract factorially in K_f t
and the run stops on their sup or after max_iter sweeps.

A gate checks the standing assumptions before solving: bounded initial data,
bounded Lipschitz nonlinearity, bounded Hoelder forcing with exponent above
d_f / 2, spectral dimension below 4/3, and an atomless driving measure.  The
gate can be overridden (prominently warned) to run counterexample geometries
such as the Sierpinski gasket, whose d_s = log 9 / log 5 exceeds 4/3.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import _text
from .geometry import FractalModel, vertex_set
from .kernel import HeatKernel, build_generator
from .measure import BaseSM, realize
from .paramint import HFunction, SigmaFunction, eval_eta, sigma_preset

__all__ = [
    "Nonlinearity",
    "InitialCondition",
    "ProblemSpec",
    "PreparedProblem",
    "SolutionField",
    "GateReport",
    "AssumptionGateError",
    "f_preset",
    "u0_preset",
    "prepare",
    "predicted_iterations",
    "assumption_gate",
    "deterministic_term",
    "nonlinear_term",
    "stochastic_term",
    "picard_solve",
    "uniqueness_check",
    "mild_residual",
]

logger = logging.getLogger("fractalheat.solver")

SPECTRAL_DIM_LIMIT = 4.0 / 3.0


class SolverError(RuntimeError):
    pass


class AssumptionGateError(SolverError):
    pass


@dataclass(frozen=True)
class Nonlinearity:
    """f(s, y, r): bounded by c_bound, Lipschitz in (y, r) with constant lipschitz."""

    fn: object               # (s, (K,d) pts, (K,) r) -> (K,)
    c_bound: float
    lipschitz: float
    name: str = "custom"

    def __call__(self, s, pts, r):
        out = np.asarray(self.fn(s, pts, r), dtype=float)
        if out.shape != (len(pts),):
            raise SolverError("f must map (K, d) points to (K,) values")
        return out


@dataclass(frozen=True)
class InitialCondition:
    fn: object               # ((K,d) pts) -> (K,)
    c_bound: float
    name: str = "custom"

    def __call__(self, pts):
        return np.asarray(self.fn(pts), dtype=float)


def f_preset(name: str, c: float = 0.5, T: float = 1.0) -> Nonlinearity:
    """sin:<c> (c sin(r), C_f = K_f = c), zero, const:<c>, time_linear (= s)."""
    if name == "sin":
        return Nonlinearity(lambda s, pts, r: c * np.sin(r), c, c, f"sin:{c}")
    if name == "zero":
        return Nonlinearity(lambda s, pts, r: np.zeros(len(pts)), 0.0, 0.0, "zero")
    if name == "const":
        return Nonlinearity(lambda s, pts, r: np.full(len(pts), c), abs(c), 0.0, f"const:{c}")
    if name == "time_linear":
        return Nonlinearity(lambda s, pts, r: np.full(len(pts), float(s)), T, 0.0, "time_linear")
    raise SolverError(f"unknown nonlinearity preset {name!r}")


def u0_preset(name: str, center=None, width: float = 0.18,
              height: float = 1.0) -> InitialCondition:
    """bump (Gaussian of the given width; decays below 1e-3 at the domain
    corners for the shipped width), one, zero."""
    if name == "zero":
        return InitialCondition(lambda pts: np.zeros(len(pts)), 0.0, "zero")
    if name == "one":
        return InitialCondition(lambda pts: np.ones(len(pts)), 1.0, "one")
    if name == "bump":
        c = np.asarray([0.5, 0.5] if center is None else center, dtype=float)

        def fn(pts, _c=c, _w=width, _h=height):
            return _h * np.exp(-np.sum((pts - _c) ** 2, axis=1) / (2 * _w * _w))
        return InitialCondition(fn, height, f"bump:{width}")
    raise SolverError(f"unknown initial condition preset {name!r}")


@dataclass
class ProblemSpec:
    """Full problem description; `prepare` turns it into computable pieces."""

    model: FractalModel
    level: int = 3
    blowup: int = 0
    boundary: str = "reflecting"
    T: float = 1.0
    n_steps: int = 64
    u0: InitialCondition = None
    f: Nonlinearity = None
    sigma: SigmaFunction = None
    base: BaseSM = None
    depth: int = 5
    component_weights: object = None
    anchor_rule: int = 0
    stop_tol: float = 1e-8
    max_iter: int = 25
    override_gate: bool = False

    def __post_init__(self):
        if self.u0 is None:
            self.u0 = u0_preset("bump", center=self.model.fixed_points.mean(axis=0)
                                * self.model.alpha ** self.blowup)
        if self.f is None:
            self.f = f_preset("sin", 0.5)
        if self.sigma is None:
            self.sigma = sigma_preset("smooth", self.model, self.T)
        if self.base is None:
            self.base = BaseSM("gaussian_white", seed=0)
        if self.T <= 0 or self.n_steps < 2:
            raise SolverError("need T > 0 and at least 2 time steps")
        if self.depth < self.blowup:
            raise SolverError("measure depth must be >= blowup")


@dataclass
class GateReport:
    entries: list                      # (name, passed, detail)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(ok for _, ok, _ in self.entries)

    def failures(self):
        return [name for name, ok, _ in self.entries if not ok]

    def __str__(self):
        lines = [f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
                 for name, ok, detail in self.entries]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class PreparedProblem:
    """Spec plus the built geometry/kernel/measure artifacts."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.vs = vertex_set(spec.model, spec.level, spec.blowup)
        self.gen = build_generator(self.vs, boundary=spec.boundary)
        self.kernel = HeatKernel(self.gen)
        self.points = self.gen.points
        self.m = self.gen.weights
        self.gate = assumption_gate(self)
        # the gate already reports the smoothness condition; constructing the
        # h-function non-strictly keeps prepare() report-only on bad input
        self.hfunction = HFunction(self.kernel, spec.sigma, T=spec.T, strict=False)
        self.realization = realize(spec.base, spec.model, spec.blowup, spec.depth,
                                   spec.component_weights)
        self.times = np.linspace(0.0, spec.T, spec.n_steps + 1)
        self.u0_values = spec.u0(self.points)


def prepare(spec: ProblemSpec) -> PreparedProblem:
    return PreparedProblem(spec)


def assumption_gate(prob: PreparedProblem | ProblemSpec) -> GateReport:
    """Numeric spot checks of the standing assumptions; report only."""
    if isinstance(prob, ProblemSpec):
        spec = prob
        pts = vertex_set(spec.model, min(spec.level, 3), spec.blowup).points
    else:
        spec = prob.spec
        pts = prob.points
    model = spec.model
    rng = np.random.default_rng(12345)
    entries = []
    sample = pts[rng.integers(0, len(pts), size=min(400, len(pts)))]
    u0v = spec.u0(sample)
    ok = bool(np.max(np.abs(u0v)) <= spec.u0.c_bound * (1 + 1e-9))
    entries.append(("A2 bounded initial data",
                    ok, f"max |u0| = {np.max(np.abs(u0v)):.4g} <= {spec.u0.c_bound}"))
    svals = rng.uniform(0, spec.T, size=64)
    rvals = rng.uniform(-3, 3, size=len(sample))
    fmax = max(float(np.max(np.abs(spec.f(s, sample, rvals)))) for s in svals[:8])
    entries.append(("A3 bounded nonlinearity",
                    fmax <= spec.f.c_bound * (1 + 1e-9),
                    f"max |f| = {fmax:.4g} <= C_f = {spec.f.c_bound}"))
    lip_ok, lip_ratio = True, 0.0
    for s in svals[:8]:
        i = rng.integers(0, len(sample), size=200)
        j = rng.integers(0, len(sample), size=200)
        r1 = rng.uniform(-3, 3, size=200)
        r2 = rng.uniform(-3, 3, size=200)
        den = np.linalg.norm(sample[i] - sample[j], axis=1) + np.abs(r1 - r2)
        num = np.abs(spec.f(s, sample[i], r1) - spec.f(s, sample[j], r2))
        nz = den > 1e-12
        if nz.any():
            lip_ratio = max(lip_ratio, float(np.max(num[nz] / den[nz])))
    lip_ok = lip_ratio <= spec.f.lipschitz * (1 + 1e-6) + 1e-12
    entries.append(("A4 Lipschitz nonlinearity", lip_ok,
                    f"ratio = {lip_ratio:.4g} <= K_f = {spec.f.lipschitz}"))
    smax = max(float(np.max(np.abs(spec.sigma(s, sample)))) for s in svals[:8])
    entries.append(("A5 bounded forcing", smax <= spec.sigma.c_bound * (1 + 1e-9),
                    f"max |sigma| = {smax:.4g} <= C_sigma = {spec.sigma.c_bound}"))
    hold_ratio = 0.0
    for s in svals[:8]:
        i = rng.integers(0, len(sample), size=200)
        j = rng.integers(0, len(sample), size=200)
        den = np.linalg.norm(sample[i] - sample[j], axis=1) ** spec.sigma.holder_exp
        num = np.abs(spec.sigma(s, sample[i]) - spec.sigma(s, sample[j]))
        nz = den > 1e-12
        if nz.any():
            hold_ratio = max(hold_ratio, float(np.max(num[nz] / den[nz])))
    exp_ok = spec.sigma.holder_exp > model.d_f / 2
    const_ok = hold_ratio <= spec.sigma.holder_const * (1 + 1e-6) + 1e-12
    entries.append(("A6 Hoelder forcing above d_f/2", bool(exp_ok and const_ok),
                    f"exponent {spec.sigma.holder_exp} vs d_f/2 = {model.d_f / 2:.4f}, "
                    f"ratio {hold_ratio:.4g} <= K_sigma = {spec.sigma.holder_const}"))
    ok7 = model.d_s < SPECTRAL_DIM_LIMIT
    entries.append(("A7 spectral dimension below 4/3", bool(ok7),
                    f"d_s = {model.d_s:.5f} {'<' if ok7 else '>='} 4/3 = {SPECTRAL_DIM_LIMIT:.5f}"))
    entries.append(("A8 atomless driving measure", spec.base.atomless,
                    f"base kind = {spec.base.kind}"))
    return GateReport(entries)


def _det_field(prob: PreparedProblem) -> np.ndarray:
    """Deterministic term on the full grid; row 0 is u0 itself."""
    out = np.empty((len(prob.times), len(prob.points)))
    out[0] = prob.u0_values
    for i, t in enumerate(prob.times[1:], start=1):
        out[i] = prob.kernel.apply(float(t), prob.u0_values)
    return out


def _stoch_field(prob: PreparedProblem) -> np.ndarray:
    """Frozen stochastic term eta(t, x) on the grid (zero at t = 0)."""
    out = np.zeros((len(prob.times), len(prob.points)))
    ev = eval_eta(prob.hfunction, prob.realization, prob.times[1:],
                  n_max=prob.spec.depth, anchor_rule=prob.spec.anchor_rule)
    out[1:] = ev.eta
    return out


def _interp_rows(times: np.ndarray, field: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Linear-in-time interpolation of a (K, V) field at query times s."""
    idx = np.clip(np.searchsorted(times, s, side="right") - 1, 0, len(times) - 2)
    w = (s - times[idx]) / (times[idx + 1] - times[idx])
    return (1 - w[:, None]) * field[idx] + w[:, None] * field[idx + 1]


def _nl_field(prob: PreparedProblem, u: np.ndarray, times=None, ids=None) -> np.ndarray:
    """Nonlinear term int_0^t P(t - s) f(s, ., u(s, .)) ds for the iterate u
    (rows on the solve grid), at the given grid times (default the solve
    grid) and vertex rows ids (default all)."""
    f, pts = prob.spec.f, prob.points

    def source(nodes):
        u_s = _interp_rows(prob.times, u, nodes)
        return np.stack([f(s, pts, u_s[q]) for q, s in enumerate(nodes)])

    return prob.kernel.duhamel(prob.times if times is None else times, source, ids)


def deterministic_term(prob: PreparedProblem, t: float, x_id: int) -> float:
    return float(prob.kernel.apply(float(t), prob.u0_values)[x_id]) if t > 0 \
        else float(prob.u0_values[x_id])


def nonlinear_term(prob: PreparedProblem, u_field: np.ndarray, t: float,
                   x_id: int) -> float:
    if t == 0:
        return 0.0
    grid = np.append(prob.times[prob.times < t], t)
    return float(_nl_field(prob, u_field, grid, [x_id])[-1, 0])


def stochastic_term(prob: PreparedProblem, t: float, x_id: int) -> float:
    if t == 0:
        return 0.0
    ev = eval_eta(prob.hfunction, prob.realization, [float(t)],
                  n_max=prob.spec.depth, x_ids=np.array([x_id]),
                  anchor_rule=prob.spec.anchor_rule)
    return float(ev.eta[0, 0])


def predicted_iterations(spec: ProblemSpec) -> int:
    """Iteration count predicted by the a-priori factorial bound; the actual
    stopping rule is the a-posteriori sup difference."""
    cf, kf, T = spec.f.c_bound, spec.f.lipschitz, spec.T
    for n in range(1, spec.max_iter + 1):
        if 2.0 * cf * kf ** n * T ** (n + 1) / math.factorial(n + 1) < spec.stop_tol:
            return n
    return spec.max_iter


@dataclass
class SolutionField:
    times: np.ndarray
    u: np.ndarray                     # (K, V)
    iterations: int
    converged: bool
    g_history: list                   # g_history[n] = sup_x |u^(n+1) - u^(n)| per time
    deterministic: np.ndarray
    stochastic: np.ndarray
    prob: PreparedProblem
    predicted_iterations: int = 0

    def bound_factorial(self, n: int) -> np.ndarray:
        """Printed a-priori bound 2 C_f K_f^n t^(n+1) / (n+1)!."""
        spec = self.prob.spec
        cf, kf = spec.f.c_bound, spec.f.lipschitz
        return 2.0 * cf * kf ** n * self.times ** (n + 1) / math.factorial(n + 1)

    def bound_factorial_derived(self, n: int) -> np.ndarray:
        """One index lower: 2 C_f K_f^(n-1) t^n / n!, the chain the seed
        g_1 <= 2 C_f t and g_n <= K_f int g_{n-1} actually produces.  Holds for
        every seed; the printed form can be grazed by large-noise runs."""
        spec = self.prob.spec
        cf, kf = spec.f.c_bound, spec.f.lipschitz
        return 2.0 * cf * kf ** (n - 1) * self.times ** n / math.factorial(n)

    def to_csv(self, path) -> None:
        """Rows t,x_id,u: time, then vertex."""
        x_txt = _text.ints(range(self.u.shape[1]))
        with _text.open_table(path, "t,x_id,u\n") as f:
            for head, block in zip(_text.floats(self.times), self.u):
                _text.write_block(f, head, x_txt, block)

    def diagnostics_csv(self, path) -> None:
        """Rows n,t,g_n,bound_factorial: sweep, then time."""
        t_txt = _text.floats(self.times)
        with _text.open_table(path, "n,t,g_n,bound_factorial\n") as f:
            for n, g in enumerate(self.g_history):
                _text.write_block(f, f"{n},", t_txt,
                                   np.column_stack([g, self.bound_factorial(n)]))


def picard_solve(prob: PreparedProblem, start_offset: float | None = None,
                 det_field: np.ndarray | None = None,
                 stoch_field: np.ndarray | None = None) -> SolutionField:
    """Iterate the mild-form map from u = 0 (or det + offset when testing
    uniqueness) until the sup difference drops below stop_tol."""
    spec = prob.spec
    if not prob.gate.passed:
        if not spec.override_gate:
            raise AssumptionGateError(
                "assumption gate failed: " + ", ".join(prob.gate.failures())
                + " (set override_gate=True to run anyway)")
        logger.warning("OVERRIDE: solving despite failed assumptions: %s",
                       ", ".join(prob.gate.failures()))
    det = _det_field(prob) if det_field is None else det_field
    sto = _stoch_field(prob) if stoch_field is None else stoch_field
    frozen = det + sto
    u = np.zeros_like(det) if start_offset is None else det + start_offset
    g_history = []
    converged = False
    iterations = 0
    for n in range(spec.max_iter):
        nl = _nl_field(prob, u)
        u_next = frozen + nl
        g = np.max(np.abs(u_next - u), axis=1)
        g_history.append(g)
        u = u_next
        iterations = n + 1
        if g.max() < spec.stop_tol:
            converged = True
            break
    if not converged:
        logger.warning("no convergence in %d iterations; sup g = %.3e "
                       "(K_f T likely too large for the discretization)",
                       iterations, float(g_history[-1].max()))
    return SolutionField(prob.times, u, iterations, converged, g_history,
                         det, sto, prob, predicted_iterations(spec))


def uniqueness_check(prob: PreparedProblem, offset: float = 1.0) -> float:
    """Solve twice (zero start and det + offset start) with the same frozen
    randomness; returns the sup difference of the fixed points."""
    det = _det_field(prob)
    sto = _stoch_field(prob)
    a = picard_solve(prob, det_field=det, stoch_field=sto)
    b = picard_solve(prob, start_offset=offset, det_field=det, stoch_field=sto)
    if not (a.converged and b.converged):
        raise SolverError("one of the uniqueness runs did not converge")
    return float(np.max(np.abs(a.u - b.u)))


def mild_residual(prob: PreparedProblem, sol: SolutionField) -> float:
    """Plug the returned field into the right side of the mild equation and
    measure the worst grid-point discrepancy."""
    rhs = sol.deterministic + sol.stochastic + _nl_field(prob, sol.u)
    return float(np.max(np.abs(rhs - sol.u)))
