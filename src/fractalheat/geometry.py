"""Nested-fractal geometry: iterated function systems, vertex graphs, measure weights.

A model is a family of N similitudes psi_i(x) = a_i + O_i (x - a_i) / alpha with a
common contraction reciprocal alpha > 1.  The attractor E = union_i psi_i(E) is
addressed by finite words over {1..N}; the working domain is the blow-up
alpha^M * E, whose depth-n cells are alpha^M psi_{i1} o ... o psi_{in} (E).

Two presets ship with validated parameters:

* vicsek  -- unit square corners plus the center, alpha = 3, N = 5,
             d_f = log5/log3, d_s = log25/log15, d_w = log15/log3.
* gasket  -- equilateral triangle, alpha = 2, N = 3,
             d_f = log3/log2, d_s = log9/log5, d_w = log5/log2.

User-supplied models must provide d_s explicitly (deriving it from resistance
scaling is out of scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _text

__all__ = [
    "FractalModel",
    "CellAddress",
    "VertexSet",
    "MeasureWeights",
    "build_preset",
    "model_from_ifs",
    "apply_word",
    "essential_fixed_points",
    "vertex_set",
    "check_assumption1",
    "measure_weights",
    "cell_words",
    "cell_corners",
    "cell_anchors",
    "load_ifs_file",
]

PRESET_NAMES = ("vicsek", "gasket")

# Vertex coordinates are quantized to this many decimals for dedup; preset
# coordinates are spaced >= alpha^-n apart, so only float jitter is absorbed.
DEDUP_DECIMALS = 9


class GeometryError(ValueError):
    """Raised for invalid model data, addresses, or graph construction failures."""


@dataclass(frozen=True)
class FractalModel:
    """An equal-ratio IFS with its derived walk/spectral/fractal dimensions.

    Immutable after construction; safe to share across threads.
    """

    name: str
    alpha: float
    fixed_points: np.ndarray          # (N, d)
    d_s: float
    orthogonal: np.ndarray | None = None   # (N, d, d); None means identity maps
    assumption1_k: int | str = "unverified"
    essential_indices: tuple[int, ...] = ()

    def __post_init__(self):
        pts = np.asarray(self.fixed_points, dtype=float)
        if pts.ndim != 2 or len(pts) < 1:
            raise GeometryError("fixed_points must be a (N, d) array")
        object.__setattr__(self, "fixed_points", pts)
        if self.alpha <= 1:
            raise GeometryError("contraction reciprocal alpha must exceed 1")
        if self.orthogonal is not None:
            orth = np.asarray(self.orthogonal, dtype=float)
            if orth.shape != (self.N, self.d, self.d):
                raise GeometryError("orthogonal must have shape (N, d, d)")
            eye = np.eye(self.d)
            for q in orth:
                if not np.allclose(q.T @ q, eye, atol=1e-12):
                    raise GeometryError("orthogonal parts must be orthogonal matrices")
            object.__setattr__(self, "orthogonal", orth)

    @property
    def N(self) -> int:
        return len(self.fixed_points)

    @property
    def d(self) -> int:
        return self.fixed_points.shape[1]

    @property
    def d_f(self) -> float:
        return math.log(self.N) / math.log(self.alpha)

    @property
    def d_w(self) -> float:
        return 2.0 * self.d_f / self.d_s

    @property
    def time_scale(self) -> float:
        """Walk time-scaling factor alpha^d_w (15 for vicsek, 5 for gasket)."""
        return self.alpha ** self.d_w

    @property
    def essential_fixed_points(self) -> np.ndarray:
        return self.fixed_points[list(self.essential_indices)]

    def map_points(self, i: int, pts: np.ndarray) -> np.ndarray:
        """Apply psi_i to an (..., d) array of points. Symbols are 1-based."""
        if not 1 <= i <= self.N:
            raise GeometryError(f"map symbol {i} outside 1..{self.N}")
        a = self.fixed_points[i - 1]
        delta = (np.asarray(pts, dtype=float) - a) / self.alpha
        if self.orthogonal is not None:
            delta = delta @ self.orthogonal[i - 1].T
        return a + delta

    def validate(self, rng=None, n_pairs: int = 1000, rtol: float = 1e-12) -> None:
        """Cheap numeric self-checks: contraction ratio on random pairs and the
        dimension identities d_f = logN/log(alpha), d_w = 2 d_f / d_s."""
        rng = np.random.default_rng(0) if rng is None else rng
        x = rng.uniform(-1, 2, size=(n_pairs, self.d))
        y = rng.uniform(-1, 2, size=(n_pairs, self.d))
        base = np.linalg.norm(x - y, axis=1)
        for i in range(1, self.N + 1):
            ratio = np.linalg.norm(self.map_points(i, x) - self.map_points(i, y), axis=1) / base
            if not np.allclose(ratio, 1.0 / self.alpha, rtol=rtol):
                raise GeometryError(f"map {i} is not a similitude with ratio 1/alpha")
        if abs(self.d_f - math.log(self.N) / math.log(self.alpha)) > rtol:
            raise GeometryError("d_f inconsistent")
        if abs(self.d_w * self.d_s - 2 * self.d_f) > rtol * max(1.0, 2 * self.d_f):
            raise GeometryError("d_w, d_s, d_f inconsistent")
        fset = {tuple(np.round(p, DEDUP_DECIMALS)) for p in self.fixed_points}
        for p in self.essential_fixed_points:
            if tuple(np.round(p, DEDUP_DECIMALS)) not in fset:
                raise GeometryError("essential fixed point is not a fixed point")


@dataclass(frozen=True)
class CellAddress:
    """A cell alpha^M psi_{i1} o ... o psi_{in} (E) of the blow-up domain.

    The empty word addresses the whole domain.  Cell diameter is
    alpha^(M - n) * diam(E), and diam(E) = 1 for the shipped presets.
    """

    word: tuple[int, ...] = ()
    blowup: int = 0

    def __post_init__(self):
        if self.blowup < 0:
            raise GeometryError("blowup must be >= 0")
        object.__setattr__(self, "word", tuple(int(i) for i in self.word))

    @property
    def depth(self) -> int:
        return len(self.word)

    def child(self, i: int) -> "CellAddress":
        return CellAddress(self.word + (i,), self.blowup)

    def children(self, model: FractalModel) -> list["CellAddress"]:
        return [self.child(i) for i in range(1, model.N + 1)]

    def diameter(self, model: FractalModel, diam_e: float = 1.0) -> float:
        return model.alpha ** (self.blowup - self.depth) * diam_e


def build_preset(name: str) -> FractalModel:
    """Construct a validated preset model ('vicsek' or 'gasket')."""
    if name == "vicsek":
        pts = np.array([
            [0.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            [1.0, 0.0],
            [0.5, 0.5],
        ])
        alpha, d_s, assumption1_k = 3.0, math.log(25) / math.log(15), 4
    elif name == "gasket":
        pts = np.array([
            [0.0, 0.0],
            [1.0, 0.0],
            [0.5, math.sqrt(3) / 2],
        ])
        alpha, d_s, assumption1_k = 2.0, math.log(9) / math.log(5), "unverified"
    else:
        raise GeometryError(f"unknown preset {name!r}; known: {PRESET_NAMES}")
    return model_from_ifs(name, alpha, pts, d_s, assumption1_k=assumption1_k)


def model_from_ifs(name: str, alpha: float, fixed_points, d_s: float,
                   orthogonal=None, assumption1_k: int | str = "unverified") -> FractalModel:
    """Build and validate a user-supplied model. d_s must be supplied
    (its derivation from resistance scaling is out of scope)."""
    model = FractalModel(name, float(alpha), np.asarray(fixed_points, float),
                         float(d_s), orthogonal, assumption1_k)
    ess = essential_fixed_points(model, indices=True)
    model = FractalModel(model.name, model.alpha, model.fixed_points, model.d_s,
                         model.orthogonal, model.assumption1_k, tuple(ess))
    model.validate()
    return model


def essential_fixed_points(model: FractalModel, indices: bool = False):
    """Fixed points x admitting psi_j(x) = psi_k(y) for some fixed point y and j != k.

    Brute force over all (x, j, y, k) quadruples; the definition is finitary,
    so enumeration is the specification.
    """
    F = model.fixed_points
    found = []
    for xi in range(model.N):
        hit = False
        for j in range(1, model.N + 1):
            px = model.map_points(j, F[xi])
            for k in range(1, model.N + 1):
                if k == j:
                    continue
                img = model.map_points(k, F)
                if np.any(np.linalg.norm(img - px, axis=1) < 1e-12):
                    hit = True
                    break
            if hit:
                break
        if hit:
            found.append(xi)
    if indices:
        return found
    return F[found]


def apply_word(model: FractalModel, addr: CellAddress, x) -> np.ndarray:
    """Evaluate alpha^M psi_{i1} o ... o psi_{in} at x (composition outermost-first)."""
    pts = np.asarray(x, dtype=float)
    for sym in reversed(addr.word):
        pts = model.map_points(sym, pts)
    return model.alpha ** addr.blowup * pts


def cell_words(model: FractalModel, depth: int) -> np.ndarray:
    """All words of the given depth as an (N^depth, depth) int array, in
    lexicographic order (first symbol most significant)."""
    if depth == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*[np.arange(1, model.N + 1)] * depth, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def cell_corners(model: FractalModel, depth: int, blowup: int = 0) -> np.ndarray:
    """Corner images of every depth-n cell: (N^depth, |F0|, d) array ordered by word.

    Iterates the IFS on the essential fixed points, prepending symbols so the
    row index equals the base-N rank of the word.
    """
    base = model.essential_fixed_points
    if len(base) == 0:
        raise GeometryError("model has no essential fixed points")
    cells = base[None, :, :]
    for _ in range(depth):
        layers = [model.map_points(i, cells) for i in range(1, model.N + 1)]
        cells = np.concatenate(layers, axis=0)
    return model.alpha ** blowup * cells


def cell_anchors(model: FractalModel, depth: int, blowup: int = 0, rule: int = 0) -> np.ndarray:
    """Anchor point of each depth-n cell: the cell image of one essential fixed
    point (rule = index into the essential set). Deterministic by construction."""
    if not 0 <= rule < len(model.essential_indices):
        raise GeometryError(f"anchor rule {rule} outside the essential fixed point set")
    return cell_corners(model, depth, blowup)[:, rule]


@dataclass
class VertexSet:
    """Deduplicated vertices of the depth-n cell decomposition of alpha^M * E,
    with cell membership and the cell-sharing adjacency graph."""

    model: FractalModel
    level: int
    blowup: int
    points: np.ndarray            # (V, d)
    cell_vertex_ids: np.ndarray   # (N^level, |F0|) int
    edges: np.ndarray             # (E, 2) int, each pair shares a cell
    vertex_cell_count: np.ndarray  # (V,) number of cells containing each vertex

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    @property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=np.int64)
        np.add.at(deg, self.edges[:, 0], 1)
        np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def vertex_cells(self, vid: int) -> np.ndarray:
        """Cell row indices (word ranks) containing the vertex."""
        return np.nonzero(np.any(self.cell_vertex_ids == vid, axis=1))[0]

    def boundary_ids(self) -> np.ndarray:
        """Vertices at the blow-up images of the essential fixed points
        (the designated outer boundary)."""
        targets = self.model.alpha ** self.blowup * self.model.essential_fixed_points
        ids = []
        for t in targets:
            d2 = np.sum((self.points - t) ** 2, axis=1)
            j = int(np.argmin(d2))
            if d2[j] < 1e-16:
                ids.append(j)
        return np.array(sorted(set(ids)), dtype=np.int64)

    def _adjacency(self):
        """Cell-sharing graph as a sparse (V, V) matrix, one entry per edge."""
        from scipy.sparse import csr_matrix
        a, b = self.edges.T
        return csr_matrix((np.ones(len(a)), (a, b)), shape=(self.n_vertices,) * 2)

    def is_connected(self) -> bool:
        if self.n_vertices == 0:
            return False
        from scipy.sparse.csgraph import connected_components
        return connected_components(self._adjacency(), directed=False)[0] == 1

    def to_csv(self, path, weights: "MeasureWeights | None" = None) -> None:
        """Rows vertex_id,x0,..,weight in vertex order."""
        w = weights.weights if weights is not None else measure_weights(self).weights
        cols = ",".join(f"x{i}" for i in range(self.points.shape[1]))
        with _text.open_table(path, f"vertex_id,{cols},weight\n") as f:
            _text.write_block(f, "", _text.ints(range(self.n_vertices)),
                               np.column_stack([self.points, w]))


def vertex_set(model: FractalModel, n: int, M: int = 0,
               max_cells: int = 2_000_000) -> VertexSet:
    """Build F^(n) inside alpha^M * E: points, cell membership, adjacency.

    Points matching after rounding to 1e-9 are identified (preset coordinates
    are triadic/dyadic rationals, so only float jitter is absorbed).
    """
    if n < 0 or M < 0:
        raise GeometryError("level and blowup must be >= 0")
    n_cells = model.N ** n
    if n_cells > max_cells:
        raise GeometryError(f"level {n} needs {n_cells} cells > budget {max_cells}")
    corners = cell_corners(model, n, M)          # (C, F0, d)
    C, F0, d = corners.shape
    flat = corners.reshape(-1, d)
    keys = np.round(flat, DEDUP_DECIMALS)
    # representative coordinates: first occurrence of each key (return_index
    # sorts stably)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    points = flat[first]
    cell_vertex_ids = inverse.reshape(C, F0).astype(np.int64)
    # edges: all within-cell pairs, deduplicated
    iu, ju = np.triu_indices(F0, k=1)
    pairs = np.stack([cell_vertex_ids[:, iu].ravel(), cell_vertex_ids[:, ju].ravel()], axis=1)
    pairs = np.sort(pairs, axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    edges = np.unique(pairs, axis=0)
    counts = np.zeros(len(points), dtype=np.int64)
    np.add.at(counts, cell_vertex_ids, 1)
    vs = VertexSet(model, n, M, points, cell_vertex_ids, edges, counts)
    if not vs.is_connected():
        raise GeometryError("cell-sharing graph is disconnected; nesting violated")
    return vs


@dataclass
class MeasureWeights:
    """Per-vertex discretization of the d_f-dimensional Hausdorff measure.

    Every depth-n cell carries mass N^(-n) * alpha^(M * d_f), split equally
    among its |F0| corner images; shared vertices accumulate each share.
    """

    weights: np.ndarray
    level: int
    blowup: int
    total: float

    def __len__(self):
        return len(self.weights)


def measure_weights(vs: VertexSet) -> MeasureWeights:
    model = vs.model
    cell_mass = model.alpha ** (vs.blowup * model.d_f) / model.N ** vs.level
    share = cell_mass / vs.cell_vertex_ids.shape[1]
    w = np.zeros(vs.n_vertices)
    np.add.at(w, vs.cell_vertex_ids, share)
    return MeasureWeights(w, vs.level, vs.blowup, float(w.sum()))


def check_assumption1(model: FractalModel, m: int, samples: int = 200,
                      seed: int = 0) -> int:
    """Max chain length l over pairs with |x - y| <= alpha^-m, where the chain
    steps through F^(m) and consecutive points share a depth-m cell.

    Vertex pairs of F^(m) are checked exhaustively; `samples` additional random
    interior points (depth-12 word images) probe non-vertex pairs.  Raises if
    any admissible pair has no chain.  Hop counts come from one all-pairs
    (V, V) matrix of F^(m).
    """
    from scipy.sparse.csgraph import shortest_path
    from scipy.spatial import cKDTree

    vs = vertex_set(model, m, 0)
    r = model.alpha ** (-m) * (1 + 1e-9)
    # hop counts between all vertex pairs (inf when unreachable)
    hops = shortest_path(vs._adjacency(), directed=False, unweighted=True)
    max_l = 1
    # exhaustive over vertex pairs
    close = cKDTree(vs.points).query_pairs(r, output_type="ndarray")
    if len(close):
        d = hops[close[:, 0], close[:, 1]]
        if not np.all(np.isfinite(d)):
            raise GeometryError("no chain between admissible vertices")
        max_l = max(max_l, int(d.max()) + 1)
    # sampled interior pairs: x, y generic points of E with their depth-m cells
    if samples > 0:
        rng = np.random.default_rng(seed)
        deep = 12
        words = rng.integers(1, model.N + 1, size=(samples, deep))
        anchor = model.essential_fixed_points[0]
        sample_pts = np.empty((samples, model.d))
        sample_cell = np.empty(samples, dtype=np.int64)
        powers = model.N ** np.arange(m - 1, -1, -1) if m > 0 else None
        for i, wd in enumerate(words):
            sample_pts[i] = apply_word(model, CellAddress(tuple(wd)), anchor)
            sample_cell[i] = 0 if m == 0 else int(np.dot(wd[:m] - 1, powers))
        tree = cKDTree(sample_pts)
        for i, j in tree.query_pairs(r):
            ci, cj = sample_cell[i], sample_cell[j]
            if ci == cj:
                max_l = max(max_l, 2)
                continue
            best = hops[np.ix_(vs.cell_vertex_ids[ci], vs.cell_vertex_ids[cj])].min()
            if not np.isfinite(best):
                raise GeometryError("no chain between sampled interior points")
            # path: x, (dv+1) vertices of F^(m), y
            max_l = max(max_l, int(best) + 3)
    return max_l


def load_ifs_file(path) -> FractalModel:
    """Read a user IFS description (INI-style structured text).

    Expected sections::

        [model]
        name = mymodel
        alpha = 3.0
        d_s = 1.2          ; required, not derivable here
        [maps]
        p1 = 0.0, 0.0
        p2 = 1.0, 0.0
        ...
    """
    import configparser

    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise GeometryError(f"cannot read IFS file {path}")
    if "model" not in cp or "maps" not in cp:
        raise GeometryError("IFS file needs [model] and [maps] sections")
    sec = cp["model"]
    if "d_s" not in sec:
        raise GeometryError("IFS file must supply d_s for non-preset models")
    pts = []
    for key in sorted(cp["maps"], key=lambda k: (len(k), k)):
        pts.append([float(tok) for tok in cp["maps"][key].replace(",", " ").split()])
    return model_from_ifs(sec.get("name", "custom"), float(sec["alpha"]),
                          np.array(pts, dtype=float), float(sec["d_s"]))
