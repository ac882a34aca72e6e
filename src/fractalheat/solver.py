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
integrated exactly in every eigenvalue.

picard_solve sweeps the grid window by window, PICARD_WINDOW steps at a time
(waveform relaxation on windows).  On a window [t_a, t_b] the nonlinear term
splits as N(t) = P_{t - t_a} N(t_a) + int_{t_a}^t P(t - s) f(s, u(s)) ds: the
carry, one kernel apply of the converged N(t_a), plus the window's own
Duhamel sweep.  The sweeps start from the linear part, frozen fields plus
carry, so the successive differences g_n(t) = sup_x |u^(n+1) - u^(n)|(t)
contract factorially in K_f (t - t_a), and each window stops on their sup or
after max_iter sweeps before the next one starts.  uniqueness_check runs the
same sweeps from a second start, linear part + offset, with the frozen fields
computed once for both.

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
# grid steps per Picard window.  A window restarts the map at its start, so
# its sweeps contract in K_f (t - t_a): on the default problem (sin:0.5,
# depth 5, 64 steps) each 16-step window converges in 6 sweeps, 24 in all,
# where one 64-step window takes 9.  Median sweep time there, 2 cores, for
# windows of 64 (the global map), 16 and 8 steps: Vicsek L3 39.6 / 24.1 /
# 21.2 ms, L4 225 / 150 / 143 ms, L5 2.42 / 2.07 / 2.32 s.  16 is nearly as
# fast as 8 at L3-L4 and still wins at L5, where shorter windows make more
# into-modes transforms with fewer columns each
PICARD_WINDOW = 16


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
        if not (math.isfinite(self.T) and self.T > 0) or self.n_steps < 2:
            raise SolverError("need a finite T > 0 and at least 2 time steps")
        if not (math.isfinite(self.stop_tol) and self.stop_tol > 0):
            raise SolverError(f"stop_tol = {self.stop_tol} is not finite and > 0")
        if self.max_iter < 1:
            raise SolverError(f"max_iter = {self.max_iter} allows no Picard sweep")
        if self.depth < self.blowup:
            raise SolverError("measure depth must be >= blowup")
        if self.u0 is None:
            self.u0 = u0_preset("bump", center=bump_center(self.model, self.blowup))
        if self.f is None:
            self.f = f_preset("sin", 0.5)
        if self.sigma is None:
            self.sigma = sigma_preset("smooth", self.model, self.T)
        if self.base is None:
            self.base = BaseSM("gaussian_white", seed=0)


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


def _nl_field(prob: PreparedProblem, u: np.ndarray, times=None) -> np.ndarray:
    """Nonlinear term int_{t_0}^t P(t - s) f(s, ., u(s, .)) ds for the iterate
    u on a grid (default the solve grid; a Picard window passes its own), at
    every time of that grid and every vertex.  f is called once per sweep,
    with every Gauss node of the grid and u interpolated there, linearly in
    time between grid rows.  The node values are built as a C-order (V, S, P)
    array, the layout the Duhamel rule moves into modes, and f gets its
    (S P, V) transposed view."""
    f, pts = prob.spec.f, prob.points
    grid = prob.times if times is None else times
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


def _window_bounds(n_steps: int):
    """(a, b) grid-row bounds of the Picard windows: PICARD_WINDOW steps each,
    the last one shorter if the steps do not divide."""
    return [(a, min(a + PICARD_WINDOW, n_steps)) for a in range(0, n_steps, PICARD_WINDOW)]


def predicted_iterations(spec: ProblemSpec) -> int:
    """Sweep count predicted by the a-priori factorial bound, restarted on
    every window with tau = t - t_a and summed over the windows: for each,
    the first n whose bound at the window's length falls below stop_tol.  The
    actual stopping rule is the a-posteriori sup difference."""
    cf, kf, h = spec.f.c_bound, spec.f.lipschitz, spec.T / spec.n_steps
    total = 0
    for a, b in _window_bounds(spec.n_steps):
        tau = (b - a) * h
        total += next((n for n in range(1, spec.max_iter + 1)
                       if 2.0 * cf * kf ** n * tau ** (n + 1) / math.factorial(n + 1)
                       < spec.stop_tol), spec.max_iter)
    return total


@dataclass
class SolutionField:
    """The Picard solution on the solve grid, with its sweep history held per
    window.  Window w owns the grid rows windows[w]: (t_a, t_b], and the first
    window t_0 too, so every grid time belongs to one window."""

    times: np.ndarray
    u: np.ndarray                     # (K, V)
    iterations: int                   # sweeps over all windows (one f call each)
    converged: bool                   # every window converged
    windows: list                     # windows[w] = slice of the grid rows window w owns
    g_history: list                   # g_history[w][n] = sup_x |u^(n+1) - u^(n)| on windows[w]
    deterministic: np.ndarray
    stochastic: np.ndarray
    prob: PreparedProblem
    predicted_iterations: int = 0

    @property
    def tau(self) -> np.ndarray:
        """t - t_a at every grid time, t_a the start of the window owning t."""
        tau = np.empty_like(self.times)
        for rows in self.windows:
            tau[rows] = self.times[rows] - self.times[max(rows.start - 1, 0)]
        return tau

    def bound_factorial(self, n: int) -> np.ndarray:
        """Printed a-priori bound 2 C_f K_f^n tau^(n+1) / (n+1)!, restarted at
        every window's t_a (tau = t - t_a).  A window starts from its linear
        part, so g_0 <= C_f tau, and g_n <= K_f int g_{n-1} makes g_n at most
        half of it.  One index lower, bound_factorial(n - 1) is the chain the
        global map from u = 0 produces, seeded by g_1 <= 2 C_f t; the windowed
        differences sit far below it."""
        spec = self.prob.spec
        cf, kf = spec.f.c_bound, spec.f.lipschitz
        return 2.0 * cf * kf ** n * self.tau ** (n + 1) / math.factorial(n + 1)

    def to_csv(self, path) -> None:
        """Rows t,x_id,u: time, then vertex."""
        x_txt = _text.ints(range(self.u.shape[1]))
        with _text.open_table(path, "t,x_id,u\n") as f:
            for head, block in zip(_text.floats(self.times), self.u):
                _text.write_block(f, head, x_txt, block)

    def diagnostics_csv(self, path) -> None:
        """Rows n,t,g_n,bound_factorial: window, then its sweep n (from 0 in
        every window), then the window's own times."""
        t_txt = _text.floats(self.times)
        with _text.open_table(path, "n,t,g_n,bound_factorial\n") as f:
            for rows, history in zip(self.windows, self.g_history):
                for n, g in enumerate(history):
                    _text.write_block(f, f"{n},", t_txt[rows],
                                       np.column_stack([g, self.bound_factorial(n)[rows]]))


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


def _sweep(prob: PreparedProblem, frozen: np.ndarray, offset: float = 0.0):
    """Picard sweeps u <- frozen + nonlinear term of u, window by window.  On
    window [t_a, t_b] the nonlinear term is the carry P_{t - t_a} N(t_a), with
    N(t_a) = u(t_a) - frozen(t_a) from the converged window before, plus the
    window's own Duhamel sweep; u(t_a) stays fixed.  The sweeps start from the
    linear part, frozen + carry, plus offset after t_a, and run until the
    window's sup difference drops below stop_tol or max_iter sweeps ran; a
    window that does not converge hands its last iterate on.  Returns u, the
    rows each window owns, the per-window g_n histories and whether every
    window converged."""
    spec, grid = prob.spec, prob.times
    u = frozen.copy()                 # row 0 is u0; the windows fill the rest
    windows, g_history, converged = [], [], True
    for a, b in _window_bounds(len(grid) - 1):
        times = grid[a:b + 1]
        lin = frozen[a:b + 1].copy()
        lin[0] = u[a]
        if a:
            lin[1:] += prob.kernel.apply(times[1:] - times[0], u[a] - frozen[a])
        w = lin.copy()
        w[1:] += offset
        own = 1 if a else 0           # row t_a belongs to the window before
        history = []
        for _ in range(spec.max_iter):
            # the Duhamel term is exactly 0 at t_a, so row t_a keeps u(t_a)
            nxt = lin + _nl_field(prob, w, times)
            g = np.max(np.abs(nxt - w), axis=1)
            history.append(g[own:])
            w = nxt
            if g.max() < spec.stop_tol:
                break
        else:
            converged = False
            logger.warning("window [%g, %g]: no convergence in %d sweeps; sup g = %.3e "
                           "(K_f T likely too large for the discretization)",
                           times[0], times[-1], len(history), float(g.max()))
        u[a + 1:b + 1] = w[1:]
        windows.append(slice(a + own, b + 1))
        g_history.append(history)
    return u, windows, g_history, converged


def picard_solve(prob: PreparedProblem) -> SolutionField:
    """Iterate the mild-form map window by window, each from its linear
    part, until the sup difference drops below stop_tol."""
    _require_gate(prob)
    det, sto = _det_field(prob), _stoch_field(prob)
    u, windows, g_history, converged = _sweep(prob, det + sto)
    return SolutionField(prob.times, u, sum(map(len, g_history)), converged, windows,
                         g_history, det, sto, prob, predicted_iterations(prob.spec))


def uniqueness_check(prob: PreparedProblem, offset: float = 1.0) -> float:
    """Solve twice (every window from its linear part, and from linear part
    + offset) with the same frozen randomness; returns the sup difference of
    the fixed points."""
    _require_gate(prob)
    det, sto = _det_field(prob), _stoch_field(prob)
    frozen = det + sto
    a, *_, a_ok = _sweep(prob, frozen)
    b, *_, b_ok = _sweep(prob, frozen, offset)
    if not (a_ok and b_ok):
        raise SolverError("one of the uniqueness runs did not converge")
    return float(np.max(np.abs(a - b)))


def mild_residual(prob: PreparedProblem, sol: SolutionField) -> float:
    """Plug the returned field into the right side of the mild equation and
    measure the worst grid-point discrepancy."""
    rhs = sol.deterministic + sol.stochastic + _nl_field(prob, sol.u)
    return float(np.max(np.abs(rhs - sol.u)))
