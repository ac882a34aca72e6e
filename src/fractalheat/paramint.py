"""Stochastic parameter integrals eta(z) = int h(z, y) dmu(y) by multiscale cell sums.

The integrand is h((t, x), y) = int_0^t p(t - s, x, y) sigma(s, y) ds.  The s
integral runs through the kernel's Duhamel rule (HeatKernel.duhamel): on each
step of a grid from 0, refined so no step exceeds ETA_MAX_STEP * T, sigma is
interpolated at Gauss nodes and the semigroup factor exp(lam (t - s)) is
integrated exactly in every eigenvalue.  eval_h keeps the older, independent
rule as an oracle: Gauss-Legendre panels graded dyadically toward s = t, whose
dropped head below t * 2^-panel_depth is bounded by its length times the
density ceiling 1/min(m).

eta is approximated by S^(n)(z) = sum_cells h(z, anchor) mass(cell); anchors
deeper than the kernel level are snapped to the nearest vertex, and a cell
whose anchor snaps to a vertex removed by a Dirichlet boundary adds nothing.
All depths 0..n_max are recorded so the per-level sup increments diagnose
the convergence rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _text
from .geometry import FractalModel, cell_anchors
from .kernel import HeatKernel
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
    "path_regularity_report",
    "HolderRegression",
]


# longest step of the Duhamel grid, as a fraction of the horizon T
ETA_MAX_STEP = 1.0 / 64


class ParamIntegralError(RuntimeError):
    pass


@dataclass(frozen=True)
class SigmaFunction:
    """Forcing amplitude sigma(s, y): bounded by c_bound, Hoelder in y with
    constant holder_const and exponent holder_exp."""

    fn: object                 # (s, (K, d) points) -> (K,) values
    c_bound: float
    holder_const: float
    holder_exp: float
    name: str = "custom"

    def __call__(self, s: float, pts: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(s, pts), dtype=float)
        if out.shape != (len(pts),):
            raise ParamIntegralError("sigma must map (K, d) points to (K,) values")
        return out


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
        return SigmaFunction(lambda s, pts: np.ones(len(pts)), 1.0, 0.0, 1.0, name)
    if name == "time_linear":
        return SigmaFunction(lambda s, pts: np.full(len(pts), float(s)), T, 0.0, 1.0, name)
    if name == "smooth":
        if center is None:
            center = (np.array([0.5, 0.5]) if model is None
                      else model.fixed_points.mean(axis=0))
        c = np.asarray(center, dtype=float)

        def fn(s, pts, _c=c, _T=T):
            rad2 = np.sum((pts - _c) ** 2, axis=1)
            return (0.6 + 0.4 * math.cos(math.pi * s / _T)) * (0.4 + 0.6 * np.exp(-2.0 * rad2))
        # |d/dy 0.6 exp(-2 r^2)| <= 2.4 r exp(-2 r^2) <= 2.4 /(2 sqrt(e)) = 0.728
        return SigmaFunction(fn, 1.0, 0.73, 1.0, name)
    if name == "rough_half":
        if center is None:
            center = (np.array([0.5, 0.5]) if model is None
                      else model.fixed_points.mean(axis=0))
        c = np.asarray(center, dtype=float)

        def fn(s, pts, _c=c):
            r = np.linalg.norm(pts - _c, axis=1)
            return 0.5 + 0.5 * np.sqrt(r)
        return SigmaFunction(fn, 1.5, 0.5, 0.5, name)
    raise ParamIntegralError(f"unknown sigma preset {name!r}")


def quad_nodes(t: float, panel_depth: int = 50, gl_order: int = 8):
    """Oracle rule of eval_h: Gauss-Legendre nodes/weights in tau = t - s on
    dyadic panels [t 2^-(k+1), t 2^-k]; the dropped head [0, t 2^-panel_depth]
    is bounded by length * density ceiling, far below the 1e-8 budget for
    shipped levels."""
    if t <= 0:
        raise ParamIntegralError("quadrature needs t > 0")
    gx, gw = np.polynomial.legendre.leggauss(gl_order)
    edges = t * 2.0 ** -np.arange(panel_depth + 1)   # t, t/2, ..., t 2^-depth
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
                 strict: bool = True, panel_depth: int = 50, gl_order: int = 8):
        self.kernel = kernel
        self.sigma = sigma
        self.T = float(T)
        self.panel_depth = panel_depth
        self.gl_order = gl_order
        model = kernel.model
        if strict and not sigma.holder_exp > model.d_f / 2:
            raise ParamIntegralError(
                f"sigma exponent {sigma.holder_exp} fails the d_f/2 = "
                f"{model.d_f / 2:.4f} smoothness gate")
        self._snap_tree = None
        self._anchor_cache: dict = {}

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
        """Kernel-vertex ids nearest to each depth-n cell anchor (exact when
        depth <= kernel level: the anchor is itself a vertex).

        Anchors snap against the full vertex set; one whose nearest vertex
        was removed by a Dirichlet boundary gets id -1, since the killed
        kernel is zero there."""
        key = (depth, anchor_rule)
        if key not in self._anchor_cache:
            from scipy.spatial import cKDTree
            gen = self.kernel.gen
            if self._snap_tree is None:
                self._snap_tree = cKDTree(gen.vs.points)
            anchors = cell_anchors(self.model, depth, gen.vs.blowup, anchor_rule)
            _, full_ids = self._snap_tree.query(anchors)
            self._anchor_cache[key] = gen.positions()[full_ids]
        return self._anchor_cache[key]


def eval_h(hf: HFunction, t: float, x_id: int, y_id: int,
           check_tol: float | None = None) -> float:
    """Single-pair evaluation; with check_tol set, the panels are halved once
    and the refinement difference must stay below the tolerance."""
    hf._check_time(t)
    kern = hf.kernel

    def run(depth, order):
        taus, wts = quad_nodes(t, depth, order)
        pv = kern.pair_density(taus, x_id, y_id)
        sv = np.array([hf.sigma(t - tau, hf.points[y_id:y_id + 1])[0] for tau in taus])
        return float(np.dot(wts, pv * sv))

    val = run(hf.panel_depth, hf.gl_order)
    if check_tol is not None:
        ref = run(hf.panel_depth, 2 * hf.gl_order)
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
    """All-pairs matrix H[x, y] = h((t, x), y); one V^3 product per time."""
    return _h_pairs(hf, t, None)


def h_row(hf: HFunction, t: float, x_id: int) -> np.ndarray:
    """Row h((t, x_id), y) over all kernel vertices y at V^2 cost per
    quadrature node."""
    return _h_pairs(hf, t, x_id)


def _h_pairs(hf: HFunction, t: float, ids) -> np.ndarray:
    """Rows ids of h((t, .), .) by the pair form of the kernel's Duhamel rule."""
    grid, _ = _duhamel_grid(hf, [t])
    pts = hf.points
    return hf.kernel.duhamel_pairs(
        grid, lambda nodes: np.stack([hf.sigma(s, pts) for s in nodes]), ids)


@dataclass
class EtaEvaluation:
    """Cell sums S^(n)(z) for n = 0..n_max on the z grid, their sup increments
    per level, and the final values eta = S^(n_max)."""

    times: np.ndarray            # (K,)
    x_ids: np.ndarray            # (X,) kernel vertex ids
    points: np.ndarray           # (X, d) their coordinates
    partial: np.ndarray          # (n_max + 1, K, X)
    anchor_rule: int

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
        """Rows t,x_id,level,partial_sum: level, then time, then vertex."""
        heads, x_txt = _text.floats(self.times), _text.ints(self.x_ids)
        with _text.open_table(path, "t,x_id,level,partial_sum\n") as f:
            for n, level in enumerate(self.partial):
                keys = [f"{x}{n}," for x in x_txt]
                for head, block in zip(heads, level):
                    _text.write_block(f, head, keys, block)

    def diagnostics_csv(self, path) -> None:
        inc = self.sup_increments
        with _text.open_table(path, "level,sup_increment\n") as f:
            _text.write_block(f, "", _text.ints(range(len(inc))), inc)


def eval_eta(hf: HFunction, real: MeasureRealization, z_times, n_max: int,
             x_ids=None, anchor_rule: int = 0) -> EtaEvaluation:
    """Evaluate the cell-sum scheme on (z_times x x_ids).

    For each level the cell masses are aggregated onto their (snapped) anchor
    vertices; one Duhamel sweep over the grid then carries the sources
    sigma(s, .) * agg_n of all levels at once, so no V x V matrix is formed.
    The result matches integrate() with g = h(z, .) up to summation order.
    """
    if real.n_max < n_max:
        raise ParamIntegralError("measure realization shallower than n_max")
    if real.blowup != hf.kernel.gen.vs.blowup:
        raise ParamIntegralError("realization and kernel live on different blow-ups")
    times = np.atleast_1d(np.asarray(z_times, dtype=float))
    kern = hf.kernel
    if x_ids is None:
        x_ids = np.arange(kern.n_vertices)
    x_ids = np.asarray(x_ids, dtype=np.int64)
    V = kern.n_vertices
    agg = np.zeros((n_max + 1, V))
    for n in range(n_max + 1):
        ids = hf.snap_ids(n, anchor_rule)
        kept = ids >= 0               # anchors on killed vertices add nothing
        np.add.at(agg[n], ids[kept], real.level_masses(n)[kept])
    # the operator integrates against the vertex weights, eta against mu
    per_weight = (agg / kern.weights).T                            # (V, levels)
    pts = hf.points

    def source(nodes):
        return np.stack([hf.sigma(s, pts)[:, None] * per_weight for s in nodes])

    grid, at = _duhamel_grid(hf, times)
    vals = kern.duhamel(grid, source, ids=x_ids)                   # (G, X, levels)
    partial = vals[at].transpose(2, 0, 1)
    return EtaEvaluation(times, x_ids, kern.gen.points[x_ids], partial, anchor_rule)


@dataclass
class HolderRegression:
    exponent: float
    log_constant: float
    n_pairs: int


def estimate_h_holder(hf: HFunction, t: float, x_id: int, pairs_per_scale: int = 80,
                      seed: int = 0) -> HolderRegression:
    """log-log regression of |h(z,y1) - h(z,y2)| on |y1 - y2| over cell-sharing
    vertex pairs at every depth (target exponent min{d_w - d_f, sigma exponent})."""
    from .kernel import _kept_pairs, _multiscale_pairs

    vs = hf.kernel.gen.vs
    if vs.level < 3:
        raise ParamIntegralError("need kernel level >= 3 for enough pair scales")
    rng = np.random.default_rng(seed)
    pairs = _kept_pairs(hf.kernel.gen, _multiscale_pairs(vs, rng, pairs_per_scale))
    row = h_row(hf, t, x_id)
    pts = hf.points
    dist = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    dh = np.abs(row[pairs[:, 0]] - row[pairs[:, 1]])
    ok = (dist > 0) & (dh > 1e-14 * max(np.abs(row).max(), 1e-300))
    if ok.sum() < 10:
        raise ParamIntegralError("degenerate regression: too few usable pairs")
    slope, intercept = np.polyfit(np.log(dist[ok]), np.log(dh[ok]), 1)
    return HolderRegression(float(slope), float(intercept), int(ok.sum()))


def path_regularity_report(ev: EtaEvaluation, n_bins: int = 6,
                           max_pairs: int = 4000, seed: int = 0):
    """Empirical modulus of continuity of eta over the z grid.

    Distances use |t1 - t2| + |x1 - x2|; rows are (bin_lo, bin_hi, count,
    max |eta(z1) - eta(z2)|).  The decreasing flag compares the finest and the
    coarsest populated bins.
    """
    K, X = ev.eta.shape
    if K < 2 or X < 10:
        raise ParamIntegralError("z grid too small for a modulus report")
    rng = np.random.default_rng(seed)
    flat_t = np.repeat(ev.times, X)
    flat_p = np.tile(ev.points, (K, 1))
    flat_e = ev.eta.ravel()
    n = len(flat_e)
    i = rng.integers(0, n, size=max_pairs)
    j = rng.integers(0, n, size=max_pairs)
    keep = i != j
    i, j = i[keep], j[keep]
    dz = np.abs(flat_t[i] - flat_t[j]) + np.linalg.norm(flat_p[i] - flat_p[j], axis=1)
    de = np.abs(flat_e[i] - flat_e[j])
    pos = dz > 0
    dz, de = dz[pos], de[pos]
    if not np.all(np.isfinite(de)):
        raise ParamIntegralError("eta contains non-finite values")
    edges = np.geomspace(dz.min(), dz.max() * (1 + 1e-12), n_bins + 1)
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (dz >= lo) & (dz < hi)
        if sel.sum():
            rows.append((float(lo), float(hi), int(sel.sum()), float(de[sel].max())))
    decreasing = bool(rows and rows[0][3] < rows[-1][3])
    return rows, decreasing
