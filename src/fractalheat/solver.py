"""Mild-form heat equation with additive measure noise, solved by Picard iteration.

The fixed-point map is

    u(t, x) = sum_y p(t, x, y) u0(y) m(y)
            + int_0^t sum_y p(t - s, x, y) f(s, y, u(s, y)) m(y) ds
            + eta(t, x),

where eta is the frozen stochastic parameter integral (it does not depend on u,
so it is computed once per run).  The three terms are fields at every time of
the solve grid and every vertex, each one kernel call: P_t u0 is one apply on
the grid's time vector, and the nonlinear term and eta are one Duhamel sweep
each.  In the nonlinear sweep u is linear in time between grid rows, f is
called once with the Gauss nodes of every grid step, and exp(lam (t - s)) is
integrated exactly in every eigenvalue.  picard_solve starts from u = 0;
successive differences g_n(t) = sup_x |u^(n+1) - u^(n)|(t) contract factorially
in K_f t and the run stops on their sup or after max_iter sweeps.
uniqueness_check runs the same sweeps from a second start, det + offset, with
the frozen fields computed once for both.

A gate checks the standing assumptions before solving: bounded initial data,
bounded Lipschitz nonlinearity, bounded Hoelder forcing with exponent above
d_f / 2, spectral dimension below 4/3 (a d_s within rounding of 4/3, the
critical value, fails too), and an atomless driving measure.  The
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
    "bump_center",
    "prepare",
    "predicted_iterations",
    "assumption_gate",
    "picard_solve",
    "uniqueness_check",
    "mild_residual",
]

logger = logging.getLogger("fractalheat.solver")

SPECTRAL_DIM_LIMIT = 4.0 / 3.0
# relative band around 4/3 in which gate A7 calls d_s critical and refuses it,
# on either side: 3D Vicsek has d_s = 4/3 exactly, held as log 81 / log 27 =
# 1.3333333333333335 or 4/3 = 1.3333333333333333, and which side of the limit
# a rounded d_s falls on is luck.  A log ratio is off by a few ulps, a d_s
# derived from resistance scaling by up to ~4e-14
SPECTRAL_DIM_BAND = 1e-12


class SolverError(RuntimeError):
    pass


class AssumptionGateError(SolverError):
    pass


@dataclass(frozen=True)
class Nonlinearity:
    """f(s, y, r): bounded by c_bound, Lipschitz in (y, r) with constant lipschitz.
    fn returns a fresh array on every call: the Duhamel rule overwrites it.
    r may be a column-major (S, K) view (the sweep's node values are held
    vertex-major); a ufunc of r then returns column-major values, which the
    Duhamel rule moves into modes without a copy."""

    fn: object               # ((S,) s, (K,d) pts, (S,K) r[i, k] = u(s_i, y_k)) -> (S,K)
    c_bound: float
    lipschitz: float
    name: str = "custom"

    def __call__(self, s, pts, r):
        out = np.asarray(self.fn(s, pts, r), dtype=float)
        if np.ndim(s) != 1 or out.shape != (np.size(s), len(pts)) or np.shape(r) != out.shape:
            raise SolverError("f must map S times and an (S, K) block r to (S, K) values")
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
    if not math.isfinite(c):
        raise SolverError(f"nonlinearity constant c = {c} is not finite")
    if name == "sin":
        return Nonlinearity(lambda s, pts, r: c * np.sin(r), c, c, f"sin:{c}")
    if name == "zero":
        return Nonlinearity(lambda s, pts, r: np.zeros(np.shape(r)), 0.0, 0.0, "zero")
    if name == "const":
        return Nonlinearity(lambda s, pts, r: np.full(np.shape(r), c), abs(c), 0.0, f"const:{c}")
    if name == "time_linear":
        return Nonlinearity(lambda s, pts, r: np.outer(s, np.ones(len(pts))), T, 0.0,
                            "time_linear")
    raise SolverError(f"unknown nonlinearity preset {name!r}")


def u0_preset(name: str, center=None, width: float = 0.18) -> InitialCondition:
    """bump (unit-height Gaussian of the given width; decays below 1e-3 at the
    domain corners for the shipped width), one, zero."""
    if name == "zero":
        return InitialCondition(lambda pts: np.zeros(len(pts)), 0.0, "zero")
    if name == "one":
        return InitialCondition(lambda pts: np.ones(len(pts)), 1.0, "one")
    if name == "bump":
        if not (math.isfinite(width) and width > 0):
            raise SolverError(f"bump width {width} is not positive and finite")
        c = np.asarray([0.5, 0.5] if center is None else center, dtype=float)

        def fn(pts, _c=c, _w=width):
            return np.exp(-np.sum((pts - _c) ** 2, axis=1) / (2 * _w * _w))
        return InitialCondition(fn, 1.0, f"bump:{width}")
    raise SolverError(f"unknown initial condition preset {name!r}")


def bump_center(model: FractalModel, blowup: int) -> np.ndarray:
    """Centre of the default bump u0: the mean fixed point, scaled to the
    blow-up domain alpha^blowup E."""
    return model.fixed_points.mean(axis=0) * model.alpha ** blowup


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
    stop_tol: float = 1e-8
    max_iter: int = 25
    override_gate: bool = False

    def __post_init__(self):
        if self.u0 is None:
            self.u0 = u0_preset("bump", center=bump_center(self.model, self.blowup))
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
        self.gate = assumption_gate(self)
        # the gate already reports the smoothness condition; constructing the
        # h-function non-strictly keeps prepare() report-only on bad input
        self.hfunction = HFunction(self.kernel, spec.sigma, T=spec.T, strict=False)
        self.realization = realize(spec.base, spec.model, spec.blowup, spec.depth)
        self.times = np.linspace(0.0, spec.T, spec.n_steps + 1)
        self.u0_values = spec.u0(self.points)


def prepare(spec: ProblemSpec) -> PreparedProblem:
    return PreparedProblem(spec)


def assumption_gate(prob: PreparedProblem) -> GateReport:
    """Numeric spot checks of the standing assumptions on the problem's
    vertices; report only."""
    spec, pts = prob.spec, prob.points
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
    fmax = float(np.max(np.abs(spec.f(svals[:8], sample, np.tile(rvals, (8, 1))))))
    entries.append(("A3 bounded nonlinearity",
                    fmax <= spec.f.c_bound * (1 + 1e-9),
                    f"max |f| = {fmax:.4g} <= C_f = {spec.f.c_bound}"))
    lip_ratio = 0.0
    for s in svals[:8, None]:              # one-element time vectors
        i = rng.integers(0, len(sample), size=200)
        j = rng.integers(0, len(sample), size=200)
        r1 = rng.uniform(-3, 3, size=200)
        r2 = rng.uniform(-3, 3, size=200)
        den = np.linalg.norm(sample[i] - sample[j], axis=1) + np.abs(r1 - r2)
        num = np.abs(spec.f(s, sample[i], r1[None]) - spec.f(s, sample[j], r2[None]))[0]
        nz = den > 1e-12
        lip_ratio = max(lip_ratio, float(np.max(num[nz] / den[nz], initial=0.0)))
    lip_ok = lip_ratio <= spec.f.lipschitz * (1 + 1e-6) + 1e-12
    entries.append(("A4 Lipschitz nonlinearity", lip_ok,
                    f"ratio = {lip_ratio:.4g} <= K_f = {spec.f.lipschitz}"))
    smax = float(np.max(np.abs(spec.sigma(svals[:8], sample))))
    entries.append(("A5 bounded forcing", smax <= spec.sigma.c_bound * (1 + 1e-9),
                    f"max |sigma| = {smax:.4g} <= C_sigma = {spec.sigma.c_bound}"))
    hold_ratio = 0.0
    for s in svals[:8, None]:
        i = rng.integers(0, len(sample), size=200)
        j = rng.integers(0, len(sample), size=200)
        den = np.linalg.norm(sample[i] - sample[j], axis=1) ** spec.sigma.holder_exp
        num = np.abs(spec.sigma(s, sample[i]) - spec.sigma(s, sample[j]))[0]
        nz = den > 1e-12
        hold_ratio = max(hold_ratio, float(np.max(num[nz] / den[nz], initial=0.0)))
    exp_ok = spec.sigma.smooth_on(model)
    const_ok = hold_ratio <= spec.sigma.holder_const * (1 + 1e-6) + 1e-12
    entries.append(("A6 Hoelder forcing above d_f/2", bool(exp_ok and const_ok),
                    f"exponent {spec.sigma.holder_exp} vs d_f/2 = {model.d_f / 2:.4f}, "
                    f"ratio {hold_ratio:.4g} <= K_sigma = {spec.sigma.holder_const}"))
    critical = math.isclose(model.d_s, SPECTRAL_DIM_LIMIT, rel_tol=SPECTRAL_DIM_BAND)
    ok7 = model.d_s < SPECTRAL_DIM_LIMIT and not critical
    detail = (f"d_s = {model.d_s!r} is critical: 4/3 to a relative {SPECTRAL_DIM_BAND:g}"
              if critical else
              f"d_s = {model.d_s:.5f} {'<' if ok7 else '>='} 4/3 = {SPECTRAL_DIM_LIMIT:.5f}")
    entries.append(("A7 spectral dimension below 4/3", bool(ok7), detail))
    entries.append(("A8 atomless driving measure", spec.base.atomless,
                    f"base kind = {spec.base.kind}"))
    return GateReport(entries)


def _det_field(prob: PreparedProblem) -> np.ndarray:
    """Deterministic term on the full grid; row 0 is u0 itself."""
    return np.vstack([prob.u0_values, prob.kernel.apply(prob.times[1:], prob.u0_values)])


def _stoch_field(prob: PreparedProblem) -> np.ndarray:
    """Frozen stochastic term eta(t, x) on the grid (zero at t = 0)."""
    out = np.zeros((len(prob.times), len(prob.points)))
    ev = eval_eta(prob.hfunction, prob.realization, prob.times[1:], n_max=prob.spec.depth)
    out[1:] = ev.eta
    return out


def _nl_field(prob: PreparedProblem, u: np.ndarray) -> np.ndarray:
    """Nonlinear term int_0^t P(t - s) f(s, ., u(s, .)) ds for the iterate u,
    at every solve-grid time and vertex.  f is called once per sweep, with
    every Gauss node of the grid and u interpolated there, linearly in time
    between grid rows.  The node values are built as a C-order (V, S, P)
    array, the layout the Duhamel rule moves into modes, and f gets its
    (S P, V) transposed view."""
    f, pts, grid = prob.spec.f, prob.points, prob.times
    rows = np.ascontiguousarray(u.T)                    # (V, K)
    lo, hi = rows[:, :-1], rows[:, 1:]                  # (V, S)

    def source(nodes):
        s = nodes.reshape(len(grid) - 1, -1)            # (S, P)
        w = (s - grid[:-1, None]) / np.diff(grid)[:, None]
        # (1 - w) lo + w hi as (V, S P), with every inner loop S P long
        r = np.repeat(lo, s.shape[1], axis=1)
        b = np.repeat(hi, s.shape[1], axis=1)
        r *= (1 - w).ravel()
        b *= w.ravel()
        r += b
        return f(nodes, pts, r.T)

    return prob.kernel.duhamel(grid, source)


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
        """Printed a-priori bound 2 C_f K_f^n t^(n+1) / (n+1)!.  One index
        lower, bound_factorial(n - 1) is the chain the seed g_1 <= 2 C_f t and
        g_n <= K_f int g_{n-1} actually produces for g_n: it holds for every
        seed, while the printed form can be grazed by large-noise runs."""
        spec = self.prob.spec
        cf, kf = spec.f.c_bound, spec.f.lipschitz
        return 2.0 * cf * kf ** n * self.times ** (n + 1) / math.factorial(n + 1)

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


def _require_gate(prob: PreparedProblem) -> None:
    """Refuse a problem whose gate failed, unless the spec overrides it; the
    error names the failed entries and carries the full gate report."""
    if prob.gate.passed:
        return
    if not prob.spec.override_gate:
        raise AssumptionGateError(
            "assumption gate failed: " + "; ".join(prob.gate.failures())
            + "\n" + str(prob.gate))
    logger.warning("OVERRIDE: solving despite failed assumptions: %s",
                   ", ".join(prob.gate.failures()))


def _sweep(prob: PreparedProblem, frozen: np.ndarray, u: np.ndarray):
    """Picard sweeps u <- frozen + nonlinear term of u, from the start u, until
    the sup difference drops below stop_tol or max_iter sweeps ran; returns
    the last iterate, the g_n history and the converged flag."""
    spec = prob.spec
    g_history = []
    for _ in range(spec.max_iter):
        u_next = frozen + _nl_field(prob, u)
        g = np.max(np.abs(u_next - u), axis=1)
        g_history.append(g)
        u = u_next
        if g.max() < spec.stop_tol:
            return u, g_history, True
    logger.warning("no convergence in %d iterations; sup g = %.3e "
                   "(K_f T likely too large for the discretization)",
                   len(g_history), float(g_history[-1].max()))
    return u, g_history, False


def picard_solve(prob: PreparedProblem) -> SolutionField:
    """Iterate the mild-form map from u = 0 until the sup difference drops
    below stop_tol."""
    _require_gate(prob)
    det, sto = _det_field(prob), _stoch_field(prob)
    u, g_history, converged = _sweep(prob, det + sto, np.zeros_like(det))
    return SolutionField(prob.times, u, len(g_history), converged, g_history,
                         det, sto, prob, predicted_iterations(prob.spec))


def uniqueness_check(prob: PreparedProblem, offset: float = 1.0) -> float:
    """Solve twice (zero start and det + offset start) with the same frozen
    randomness; returns the sup difference of the fixed points."""
    _require_gate(prob)
    det, sto = _det_field(prob), _stoch_field(prob)
    frozen = det + sto
    a, _, a_ok = _sweep(prob, frozen, np.zeros_like(det))
    b, _, b_ok = _sweep(prob, frozen, det + offset)
    if not (a_ok and b_ok):
        raise SolverError("one of the uniqueness runs did not converge")
    return float(np.max(np.abs(a - b)))


def mild_residual(prob: PreparedProblem, sol: SolutionField) -> float:
    """Plug the returned field into the right side of the mild equation and
    measure the worst grid-point discrepancy."""
    rhs = sol.deterministic + sol.stochastic + _nl_field(prob, sol.u)
    return float(np.max(np.abs(rhs - sol.u)))
