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

Every model (preset, IFS file or direct) is built by FractalModel, which checks
that each map is a similitude of ratio 1/alpha and that 0 < d_s <= d_f, that is
d_w >= 2 (Barlow, "Diffusions on fractals", LNM 1690).  d_s is given, not derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _text

__all__ = [
    "FractalModel",
    "CellAddress",
    "VertexSet",
    "build_preset",
    "apply_word",
    "vertex_set",
    "check_assumption1",
    "cell_corners",
    "cell_anchors",
    "load_ifs_file",
]

PRESET_NAMES = ("vicsek", "gasket")

# Vertex coordinates are quantized to this many decimals for dedup; preset
# coordinates are spaced >= alpha^-n apart, so only float jitter is absorbed.
DEDUP_DECIMALS = 9
# cell budget of vertex_set and of a measure realization's deepest level
MAX_CELLS = 2_000_000


class GeometryError(ValueError):
    """Raised for invalid model data, addresses, or graph construction failures."""


@dataclass(frozen=True, eq=False)
class FractalModel:
    """An equal-ratio IFS with its derived walk/spectral/fractal dimensions.

    Construction checks it and derives essential_indices (Lindstrom, Mem. AMS
    420, 1990).  Immutable after construction; safe to share across threads.
    Models compare and hash by identity, so a model can key a dict.
    """

    name: str
    alpha: float
    fixed_points: np.ndarray          # (N, d)
    d_s: float
    orthogonal: np.ndarray | None = None   # (N, d, d); None means identity maps
    assumption1_k: int | str = "unverified"
    essential_indices: tuple[int, ...] = field(init=False)

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
            if not np.allclose(orth.transpose(0, 2, 1) @ orth, np.eye(self.d), atol=1e-12):
                raise GeometryError("orthogonal parts must be orthogonal matrices")
            object.__setattr__(self, "orthogonal", orth)
        # contraction ratio on 1000 random pairs
        x, y = np.random.default_rng(0).uniform(-1, 2, size=(2, 1000, self.d))
        base = np.linalg.norm(x - y, axis=1)
        for i in range(1, self.N + 1):
            ratio = np.linalg.norm(self.map_points(i, x) - self.map_points(i, y), axis=1) / base
            if not np.allclose(ratio, 1.0 / self.alpha, rtol=1e-12):
                raise GeometryError(f"map {i} is not a similitude with ratio 1/alpha")
        if not 0 < self.d_s <= self.d_f:          # also refuses nan and inf
            raise GeometryError(f"d_s = {self.d_s} outside (0, d_f = {self.d_f:.5f}]")
        object.__setattr__(self, "essential_indices", self._essential_indices())

    def _essential_indices(self) -> tuple[int, ...]:
        """Fixed points x admitting psi_j(x) = psi_k(y) for some fixed point y
        and j != k.  The definition is finitary, so enumerating every
        (x, j, y, k) quadruple is the specification."""
        images = np.stack([self.map_points(k, self.fixed_points)
                           for k in range(1, self.N + 1)])           # (k, y, d)
        hit = np.zeros(self.N, dtype=bool)
        for j, px in enumerate(images):                              # psi_j(x): (x, d)
            near = np.linalg.norm(px[:, None, None] - images, axis=-1) < 1e-12
            near[:, j] = False                                       # (x, k, y), k != j
            hit |= near.any(axis=(1, 2))
        return tuple(int(i) for i in np.flatnonzero(hit))

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


@dataclass(frozen=True)
class CellAddress:
    """A cell alpha^M psi_{i1} o ... o psi_{in} (E) of the blow-up domain.

    The empty word addresses the whole domain.  Cell diameter is
    alpha^(M - n) * diam(E): diam(E) is 1 on the gasket and sqrt(2) on Vicsek,
    whose attractor contains the square's diagonals.
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


def build_preset(name: str) -> FractalModel:
    """Construct a preset model ('vicsek' or 'gasket')."""
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
    return FractalModel(name, alpha, pts, d_s, assumption1_k=assumption1_k)


def apply_word(model: FractalModel, addr: CellAddress, x) -> np.ndarray:
    """Evaluate alpha^M psi_{i1} o ... o psi_{in} at x (composition outermost-first)."""
    pts = np.asarray(x, dtype=float)
    for sym in reversed(addr.word):
        pts = model.map_points(sym, pts)
    return model.alpha ** addr.blowup * pts


def cell_corners(model: FractalModel, depth: int, blowup: int = 0) -> np.ndarray:
    """Corner images of every depth-n cell: (N^depth, |F0|, d) array ordered by word.

    Iterates the IFS on the essential fixed points, prepending symbols so the
    row index equals the base-N rank of the word.
    """
    base = model.essential_fixed_points
    if len(base) == 0:
        raise GeometryError("model has no essential fixed points")
    return _cell_images(model, base, depth, blowup)


def _cell_images(model: FractalModel, base: np.ndarray, depth: int, blowup: int) -> np.ndarray:
    """Images of the (F, d) points base in every depth-n cell, (N^depth, F, d)."""
    cells = base[None, :, :]
    for _ in range(depth):
        layers = [model.map_points(i, cells) for i in range(1, model.N + 1)]
        cells = np.concatenate(layers, axis=0)
    return model.alpha ** blowup * cells


def cell_anchors(model: FractalModel, depth: int, blowup: int = 0, rule: int = 0) -> np.ndarray:
    """Anchor point of each depth-n cell: the cell image of one essential fixed
    point (rule = index into the essential set). Deterministic by construction;
    only that one point is mapped."""
    if not 0 <= rule < len(model.essential_indices):
        raise GeometryError(f"anchor rule {rule} outside the essential fixed point set")
    return _cell_images(model, model.essential_fixed_points[rule:rule + 1], depth, blowup)[:, 0]


@dataclass
class VertexSet:
    """Deduplicated vertices of the depth-n cell decomposition of alpha^M * E,
    with cell membership, the cell-sharing graph and the vertex measure."""

    model: FractalModel
    level: int
    blowup: int
    points: np.ndarray            # (V, d)
    cell_vertex_ids: np.ndarray   # (N^level, |F0|) int
    edges: np.ndarray             # (E, 2) int, each pair shares a cell
    weights: np.ndarray           # (V,) discretized Hausdorff measure

    @property
    def n_vertices(self) -> int:
        return len(self.points)

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

    def to_csv(self, path) -> None:
        """Rows vertex_id,x0,..,weight in vertex order."""
        cols = ",".join(f"x{i}" for i in range(self.points.shape[1]))
        with _text.open_table(path, f"vertex_id,{cols},weight\n") as f:
            _text.write_block(f, "", _text.ints(range(self.n_vertices)),
                               np.column_stack([self.points, self.weights]))


def vertex_set(model: FractalModel, n: int, M: int = 0) -> VertexSet:
    """Build F^(n) inside alpha^M * E: points, cell membership, adjacency, and
    the d_f-dimensional Hausdorff measure: each depth-n cell's mass N^(-n) *
    alpha^(M * d_f) split equally among its |F0| corner images, summed at
    shared vertices.

    Points matching after rounding to 1e-9 are identified (preset coordinates
    are triadic/dyadic rationals, so only float jitter is absorbed)."""
    if n < 0 or M < 0:
        raise GeometryError("level and blowup must be >= 0")
    n_cells = model.N ** n
    if n_cells > MAX_CELLS:
        raise GeometryError(f"level {n} needs {n_cells} cells > budget {MAX_CELLS}")
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
    share = model.alpha ** (M * model.d_f) / model.N ** n / F0
    weights = np.zeros(len(points))
    np.add.at(weights, cell_vertex_ids, share)
    vs = VertexSet(model, n, M, points, cell_vertex_ids, edges, weights)
    if not vs.is_connected():
        raise GeometryError("cell-sharing graph is disconnected; nesting violated")
    return vs


def check_assumption1(model: FractalModel, m: int, samples: int = 200,
                      seed: int = 0) -> int:
    """Max chain length l over pairs with |x - y| <= alpha^-m, where the chain
    steps through F^(m) and consecutive points share a depth-m cell.

    Vertex pairs of F^(m) are checked exhaustively; `samples` additional random
    interior points (depth-12 word images) probe non-vertex pairs.  Raises if
    any admissible pair has no chain.  Hop counts come from one BFS per
    vertex they are read from: the first vertex of each close pair and the
    corners of the sampled cells.
    """
    from scipy.sparse.csgraph import shortest_path
    from scipy.spatial import cKDTree

    vs = vertex_set(model, m, 0)
    r = model.alpha ** (-m) * (1 + 1e-9)
    close = cKDTree(vs.points).query_pairs(r, output_type="ndarray")
    cells = np.empty((0, 2), dtype=np.int64)
    max_l = 1
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
        cells = sample_cell[cKDTree(sample_pts).query_pairs(r, output_type="ndarray")]
        if np.any(cells[:, 0] == cells[:, 1]):
            max_l = 2
        cells = cells[cells[:, 0] != cells[:, 1]]
    corners = vs.cell_vertex_ids[cells]                  # (pairs, 2, corners)
    sources = np.unique(np.concatenate([close[:, 0], corners[:, 0].ravel()]))
    if len(sources) == 0:
        return max_l
    # hop counts from each source (inf when unreachable), row by source rank
    hops = shortest_path(vs._adjacency(), directed=False, unweighted=True,
                         indices=sources)
    if len(close):
        d = hops[np.searchsorted(sources, close[:, 0]), close[:, 1]]
        if not np.all(np.isfinite(d)):
            raise GeometryError("no chain between admissible vertices")
        max_l = max(max_l, int(d.max()) + 1)
    if len(corners):
        rows = np.searchsorted(sources, corners[:, 0])
        best = hops[rows[:, :, None], corners[:, 1, None, :]].min(axis=(1, 2))
        if not np.all(np.isfinite(best)):
            raise GeometryError("no chain between sampled interior points")
        # path: x, (dv+1) vertices of F^(m), y
        max_l = max(max_l, int(best.max()) + 3)
    return max_l


def load_ifs_file(path) -> FractalModel:
    """Read a user IFS description (INI-style structured text) into a
    FractalModel, checked like any other; the maps carry no rotation.

    Expected sections::

        [model]
        name = mymodel
        alpha = 3.0
        d_s = 1.2          ; required, not derivable here; 0 < d_s <= d_f
        [maps]
        p1 = 0.0, 0.0
        p2 = 1.0, 0.0
        ...
    """
    import configparser

    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise GeometryError(f"malformed IFS file {path}: {exc}") from None
    if not read:
        raise GeometryError(f"cannot read IFS file {path}")
    if "model" not in cp or "maps" not in cp:
        raise GeometryError("IFS file needs [model] and [maps] sections")
    sec = cp["model"]
    for key in ("alpha", "d_s"):
        if key not in sec:
            raise GeometryError(f"IFS file must supply {key} for non-preset models")
    pts = []
    for key in sorted(cp["maps"], key=lambda k: (len(k), k)):
        pts.append([float(tok) for tok in cp["maps"][key].replace(",", " ").split()])
    return FractalModel(sec.get("name", "custom"), float(sec["alpha"]),
                        np.array(pts, dtype=float), float(sec["d_s"]))
