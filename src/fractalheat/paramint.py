"""Stochastic parameter integrals eta(z) = int h(z, y) dmu(y) by multiscale cell sums.

The integrand is h((t, x), y) = int_0^t p(t - s, x, y) sigma(s, y) ds.  h_matrix,
h_row and eval_eta all make one call of the kernel's Duhamel rule
(HeatKernel.duhamel, through _duhamel_h): on each step of a grid from 0,
refined so no step exceeds ETA_MAX_STEP * T, sigma is interpolated at Gauss
nodes and the semigroup factor exp(lam (t - s)) is integrated exactly in
every eigenvalue.  sigma is called once with every Gauss node and enters the
rule's separable form against fixed fields, diag(1/m) for h and agg_n / m for
eta: it reaches the eigenbasis once per factor of the samples (one for every
shipped preset), not once per node.

eval_h keeps the older, independent rule as an oracle: Gauss-Legendre panels
graded dyadically toward s = t, whose dropped head below t * 2^-50
is bounded by its length times the density ceiling 1/min(m).

eta is approximated by S^(n)(z) = sum_cells h(z, anchor) mass(cell); anchors
deeper than the kernel level are snapped to the nearest vertex, a corner of
their level-L cell (at ties, the corner of lower essential index), and a cell
whose anchor snaps to a vertex removed by a Dirichlet boundary adds nothing.
EtaEvaluation records all depths 0..n_max, so the per-level sup increments
diagnose the convergence rate; its eta.csv holds the final depth alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _text
from .geometry import DEDUP_DECIMALS, FractalModel, GeometryError, cell_anchors
from .kernel import ROUNDING_FLOOR, HeatKernel
from .measure import MeasureRealization

__all__ = [
    "SigmaFunction",
    "sigma_preset",
    "HFunction",
    "EtaEvaluation",
    "quad_nodes",
    "eval_h",
    "h_matrix",
    "h_row",
    "eval_eta",
    "estimate_h_holder",
    "HolderRegression",
]


# longest step of the Duhamel grid, as a fraction of the horizon T
ETA_MAX_STEP = 1.0 / 64


class ParamIntegralError(RuntimeError):
    pass


@dataclass(frozen=True)
class SigmaFunction:
    """Forcing amplitude sigma(s, y): bounded by c_bound, Hoelder in y with
    constant holder_const and exponent holder_exp.  fn returns a fresh array
    on every call: the Duhamel rule overwrites it."""

    fn: object                 # ((S,) times, (K, d) points) -> (S, K) values
    c_bound: float
    holder_const: float
    holder_exp: float
    name: str = "custom"

    def __call__(self, s, pts: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(s, pts), dtype=float)
        if np.ndim(s) != 1 or out.shape != (np.size(s), len(pts)):
            raise ParamIntegralError("sigma must map S times and K points to (S, K) values")
        return out

    def smooth_on(self, model: FractalModel) -> bool:
        """The smoothness condition of the stochastic integral on the model:
        Hoelder exponent above d_f / 2."""
        return self.holder_exp > model.d_f / 2


def sigma_preset(name: str, model: FractalModel | None = None, T: float = 1.0,
                 center=None) -> SigmaFunction:
    """Shipped sigma choices.

    smooth      cosine in s times a radial Gaussian in y; Lipschitz in y
                (exponent 1, constant 0.73), bounded by 1.
    constant    sigma == 1.
    time_linear sigma(s, y) = s (used by the t^2/2 quadrature identity).
    rough_half  Hoelder exponent 0.5 in y (violates the smoothness gate on the
                Vicsek preset; for gate tests).
    """
    if name == "constant":
        return SigmaFunction(lambda s, pts: np.ones((len(s), len(pts))), 1.0, 0.0, 1.0, name)
    if name == "time_linear":
        return SigmaFunction(lambda s, pts: np.outer(s, np.ones(len(pts))), T, 0.0, 1.0, name)
    if name == "smooth":
        if center is None:
            center = (np.array([0.5, 0.5]) if model is None
                      else model.fixed_points.mean(axis=0))
        c = np.asarray(center, dtype=float)

        def fn(s, pts, _c=c, _T=T):
            rad2 = np.sum((pts - _c) ** 2, axis=1)
            return np.outer(0.6 + 0.4 * np.cos(np.pi * s / _T), 0.4 + 0.6 * np.exp(-2.0 * rad2))
        # |d/dy 0.6 exp(-2 r^2)| <= 2.4 r exp(-2 r^2) <= 2.4 /(2 sqrt(e)) = 0.728
        return SigmaFunction(fn, 1.0, 0.73, 1.0, name)
    if name == "rough_half":
        if center is None:
            center = (np.array([0.5, 0.5]) if model is None
                      else model.fixed_points.mean(axis=0))
        c = np.asarray(center, dtype=float)

        def fn(s, pts, _c=c):
            r = np.linalg.norm(pts - _c, axis=1)
            return np.outer(np.ones(len(s)), 0.5 + 0.5 * np.sqrt(r))
        return SigmaFunction(fn, 1.5, 0.5, 0.5, name)
    raise ParamIntegralError(f"unknown sigma preset {name!r}")


def quad_nodes(t: float, gl_order: int = 8):
    """Oracle rule of eval_h: Gauss-Legendre nodes/weights in tau = t - s on
    the 50 dyadic panels [t 2^-(k+1), t 2^-k]; the dropped head [0, t 2^-50]
    is bounded by length * density ceiling, far below the 1e-8 budget for
    shipped levels."""
    if t <= 0:
        raise ParamIntegralError("quadrature needs t > 0")
    gx, gw = np.polynomial.legendre.leggauss(gl_order)
    edges = t * 2.0 ** -np.arange(51)   # t, t/2, ..., t 2^-50
    los, his = edges[1:], edges[:-1]
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    taus = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return taus, wts


class HFunction:
    """h(z, y) = int_0^t p(t-s, x, y) sigma(s, y) ds over a fixed kernel level.

    Construction checks the smoothness gate holder_exp > d_f / 2 unless
    strict=False; evaluation refuses t beyond the horizon T (no extrapolation
    past the configured coverage).
    """

    def __init__(self, kernel: HeatKernel, sigma: SigmaFunction, T: float = 1.0,
                 strict: bool = True):
        self.kernel = kernel
        self.sigma = sigma
        self.T = float(T)
        model = kernel.model
        if strict and not sigma.smooth_on(model):
            raise ParamIntegralError(
                f"sigma exponent {sigma.holder_exp} fails the d_f/2 = "
                f"{model.d_f / 2:.4f} smoothness gate")

    @property
    def model(self) -> FractalModel:
        return self.kernel.model

    @property
    def points(self) -> np.ndarray:
        return self.kernel.gen.points

    def _check_time(self, t: float) -> None:
        if not 0 < t <= self.T * (1 + 1e-12):
            raise ParamIntegralError(f"t={t} outside kernel coverage (0, {self.T}]")

    def snap_ids(self, depth: int, anchor_rule: int = 0) -> np.ndarray:
        """Kernel-vertex id nearest to each depth-n cell anchor, by word rank.

        The anchor of cell w is psi_w(p), p the essential fixed point of the
        rule, whose map psi_j fixes it.  At depth n <= L, the kernel level, it
        is a vertex: the corner of the rule of the level-L cell w j^(L - n).
        Deeper, w = u v with u of length L, and the maps are similitudes, so
        the nearest vertex is the corner of u nearest to psi_v(p) among the
        essential fixed points: one table over the words v serves every u.
        At exact ties (the edge midpoints of the gasket) the corner of lower
        essential index wins.  The tie rule matters: against another choice
        of the tied corner, gasket eta at depths beyond the level moves by up
        to 25% of its maximum (L3-L5, blow-ups 0-1, seed 1), so it is fixed
        here rather than left to a nearest-point search.

        Anchors snap against the full vertex set; one whose nearest vertex
        was removed by a Dirichlet boundary gets id -1, since the killed
        kernel is zero there."""
        model, vs = self.model, self.kernel.gen.vs
        if not 0 <= anchor_rule < len(model.essential_indices):
            raise GeometryError(
                f"anchor rule {anchor_rule} outside the essential fixed point set")
        N, L = model.N, vs.level
        if depth <= L:
            j, k = model.essential_indices[anchor_rule], L - depth
            tail = j * (N ** k - 1) // (N - 1)          # rank of the word j^k
            ids = vs.cell_vertex_ids[np.arange(N ** depth) * N ** k + tail, anchor_rule]
        else:
            pts = cell_anchors(model, depth - L, 0, anchor_rule)
            d2 = ((pts[:, None] - model.essential_fixed_points[None]) ** 2).sum(axis=-1)
            # rounded as vertex_set rounds, so a tie goes to the first corner
            corner = np.argmin(np.round(d2, DEDUP_DECIMALS), axis=1)
            ids = vs.cell_vertex_ids[:, corner].ravel()
        return self.kernel.gen.positions()[ids]


def eval_h(hf: HFunction, t: float, x_id: int, y_id: int,
           check_tol: float | None = None) -> float:
    """Single-pair evaluation by the graded rule of quad_nodes; with check_tol
    set, the rule is rerun at twice the Gauss order per panel and the
    refinement difference must stay below the tolerance."""
    hf._check_time(t)
    kern = hf.kernel

    def run(rule):
        taus, wts = rule
        pv = kern.pair_density(taus, x_id, y_id)
        sv = hf.sigma(t - taus, hf.points[y_id:y_id + 1])[:, 0]
        return float(np.dot(wts, pv * sv))

    val = run(quad_nodes(t))
    if check_tol is not None:
        ref = run(quad_nodes(t, gl_order=16))   # twice the default order
        if abs(val - ref) > check_tol:
            raise ParamIntegralError(
                f"quadrature refinement moved by {abs(val - ref):.2e} > {check_tol:.2e}")
    return val


def _duhamel_grid(hf: HFunction, times) -> tuple[np.ndarray, np.ndarray]:
    """Grid from 0 through the distinct times, each gap split into equal steps
    of at most ETA_MAX_STEP * T, and the grid index of every time."""
    times = np.asarray(times, dtype=float)
    for t in times:
        hf._check_time(float(t))
    knots, inverse = np.unique(times, return_inverse=True)
    knots = np.concatenate([[0.0], knots])
    # a gap equal to the step limit up to rounding stays a single step
    n = np.maximum(np.ceil(np.diff(knots) / (ETA_MAX_STEP * hf.T) - 1e-9), 1).astype(int)
    pieces = [np.linspace(a, b, k + 1)[1:] for a, b, k in zip(knots[:-1], knots[1:], n)]
    return np.concatenate([[0.0]] + pieces), np.cumsum(n)[inverse]


def h_matrix(hf: HFunction, t: float) -> np.ndarray:
    """All-pairs matrix H[x, y] = h((t, x), y): the separable Duhamel form with
    fields diag(1/m), so column y carries sigma(s, y) at vertex y alone."""
    return _duhamel_h(hf, [t], np.diag(1.0 / hf.kernel.weights))[0]


def h_row(hf: HFunction, t: float, x_id: int) -> np.ndarray:
    """Row h((t, x_id), y) over all kernel vertices y: row x_id of h_matrix's
    call, which computes every row."""
    return h_matrix(hf, t)[x_id]


def _duhamel_h(hf: HFunction, times, fields) -> np.ndarray:
    """int_0^t P(t - s) [sigma(s, .) fields] ds at the times, at every vertex:
    the kernel's separable Duhamel form on the grid of _duhamel_grid, with
    sigma called once at every Gauss node; (K, V, C)."""
    grid, at = _duhamel_grid(hf, times)
    return hf.kernel.duhamel(grid, lambda nodes: hf.sigma(nodes, hf.points),
                             fields=fields, at=at)


@dataclass
class EtaEvaluation:
    """Cell sums S^(n)(z) for n = 0..n_max on the z grid, at every kernel
    vertex, their sup increments per level, and the final values
    eta = S^(n_max).  Every level is kept here; to_csv writes the final one."""

    times: np.ndarray            # (K,)
    partial: np.ndarray          # (n_max + 1, K, V)

    @property
    def n_max(self) -> int:
        return self.partial.shape[0] - 1

    @property
    def eta(self) -> np.ndarray:
        return self.partial[-1]

    @property
    def sup_increments(self) -> np.ndarray:
        """sup_z |S^(n+1)(z) - S^(n)(z)| for n = 0..n_max-1."""
        diffs = np.abs(np.diff(self.partial, axis=0))
        return diffs.reshape(self.n_max, -1).max(axis=1)

    def increment_ratios(self) -> np.ndarray:
        inc = self.sup_increments
        return inc[1:] / np.maximum(inc[:-1], 1e-300)

    def median_ratio(self, last: int = 3) -> float:
        r = self.increment_ratios()
        return float(np.median(r[-last:])) if len(r) else math.nan

    def to_csv(self, path) -> None:
        """Rows t,x_id,level,partial_sum of the final level n_max: time, then
        vertex id 0..V-1 (the coarser levels are summed up by diagnostics_csv)."""
        keys = [f"{x}{self.n_max}," for x in _text.ints(range(self.partial.shape[2]))]
        with _text.open_table(path, "t,x_id,level,partial_sum\n") as f:
            for head, block in zip(_text.floats(self.times), self.eta):
                _text.write_block(f, head, keys, block)

    def diagnostics_csv(self, path) -> None:
        inc = self.sup_increments
        with _text.open_table(path, "level,sup_increment\n") as f:
            _text.write_block(f, "", _text.ints(range(len(inc))), inc)


def eval_eta(hf: HFunction, real: MeasureRealization, z_times, n_max: int,
             anchor_rule: int = 0) -> EtaEvaluation:
    """Evaluate the cell-sum scheme at z_times and every kernel vertex.

    For each level the cell masses are aggregated onto their (snapped) anchor
    vertices; one _duhamel_h call, with fields agg_n / m, then carries the
    sources sigma(s, .) agg_n of all levels at once, so no V x V matrix is
    formed.  The result matches integrate() with g = h(z, .) up to summation
    order.
    """
    if real.n_max < n_max:
        raise ParamIntegralError("measure realization shallower than n_max")
    if real.blowup != hf.kernel.gen.vs.blowup:
        raise ParamIntegralError("realization and kernel live on different blow-ups")
    times = np.atleast_1d(np.asarray(z_times, dtype=float))
    kern = hf.kernel
    V = kern.n_vertices
    agg = np.zeros((n_max + 1, V))
    for n in range(n_max + 1):
        ids = hf.snap_ids(n, anchor_rule)
        kept = ids >= 0               # anchors on killed vertices add nothing
        np.add.at(agg[n], ids[kept], real.level_masses(n)[kept])
    # the operator integrates against the vertex weights, eta against mu
    vals = _duhamel_h(hf, times, (agg / kern.weights).T)     # (K, V, levels)
    return EtaEvaluation(times, vals.transpose(2, 0, 1))


@dataclass
class HolderRegression:
    exponent: float
    log_constant: float
    n_pairs: int


def estimate_h_holder(hf: HFunction, t: float, x_id: int) -> HolderRegression:
    """log-log regression of |h(z,y1) - h(z,y2)| on |y1 - y2| over cell-sharing
    vertex pairs, 80 per depth (target exponent min{d_w - d_f, sigma exponent})."""
    from .kernel import _holder_pairs

    if hf.kernel.level < 3:
        raise ParamIntegralError("need kernel level >= 3 for enough pair scales")
    pairs, dist = _holder_pairs(hf.kernel.gen, np.random.default_rng(0), 80)
    row = h_row(hf, t, x_id)
    dh = np.abs(row[pairs[:, 0]] - row[pairs[:, 1]])
    ok = dh > ROUNDING_FLOOR * max(np.abs(row).max(), 1e-300)
    if ok.sum() < 10:
        raise ParamIntegralError("degenerate regression: too few usable pairs")
    slope, intercept = np.polyfit(np.log(dist[ok]), np.log(dh[ok]), 1)
    return HolderRegression(float(slope), float(intercept), int(ok.sum()))
