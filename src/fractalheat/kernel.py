"""Heat kernel of the continuous-time walk on fractal vertex graphs.

The generator at level n is L = r (P - I) with P the uniform jump matrix on
the cell-sharing graph and holding rate r = time_scale^(n - blowup), the -d_w
power of the cell diameter, so walks at every resolution ride the same
diffusion clock.  Densities p(t, x, y) = P(t)[x, y] / m(y) are symmetric and
obey detailed balance with respect to the vertex measure weights.

The kernel is held in spectral form, its only backend: with
S = M^{1/2} L M^{-1/2} = U diag(lam) U^T and B = M^{-1/2} U, the density matrix
is p(t) = B exp(t lam) B^T (symmetric by construction) and P(t) = p(t) * m[col].
Every evaluation below (densities, rows, diagonals, P(t) v and the Duhamel
integrals) goes through two transforms, into modes (B^T M x) and out of modes
(B a); no other module reads the spectral form.

S is factored block by block.  A nested fractal is mapped to itself by the
reflection in the hyperplane bisecting any two essential fixed points
(Lindstrom, Mem. AMS 420, 1990); the reflections that verifiably keep the
generator and the weights, reduced to a maximal commuting set, form a group
G = Z2^k (Z2 x Z2 on Vicsek, Z2 on the gasket).  In its symmetry-adapted
basis (Fassler & Stiefel, Group Theoretical Methods and Their Applications,
1992), the signed orbit sums held as the columns of one sparse O_c per
character c, S splits into the blocks O_c^T S O_c.  One more verified
reflection D that normalizes G (a diagonal one on Vicsek, where G and D
generate D4 in 2D; none on the gasket) maps the span of each block onto a
block span.  Onto another one: that block is the first one's U in the basis
P_D O_c, factored once.  Onto itself: the block splits into the +1 and -1
halves of D.  The eigensolve costs the sum of block^3 over the factored
blocks: about V^3 / 43 on Vicsek and V^3 / 4 on the gasket.  A generator with
no verified symmetry is one block, the plain eigh of S.  The kernel holds O
sparse and the distinct blocks U dense (about V^2 / 8 entries on Vicsek,
V^2 / 2 on the gasket), and never B itself, so each transform is one sparse
product and one GEMM per block.  HeatKernel refuses groups whose blocks
exceed BLOCK_ENTRY_LIMIT with KernelSizeError before it forms any block.

Diagnostics estimate the on-diagonal decay exponent (spectral dimension), the
spatial Hoelder exponent of the kernel, and a sub-Gaussian upper envelope
c2 t^{-d_s/2} exp(-c3 (|x-y|^{d_w}/t)^{1/(d_J - 1)}).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
# Every dense factorization and product runs on numpy's BLAS, so a run keeps
# one OpenBLAS thread pool (a second pool, scipy's, left spinning after each
# call, contends with numpy's for the cores).  scipy.linalg is imported all
# the same: it loads scipy's shared core (0.2-0.3 s on 2 vCPUs, mostly its
# array-API shim importing numpy.f2py, numpy.testing and numpy.ma), which would
# otherwise land in the first operation that reaches scipy.sparse
import scipy.linalg  # noqa: F401

from . import _text
from .geometry import DEDUP_DECIMALS, FractalModel, VertexSet

__all__ = [
    "GeneratorMatrix",
    "HeatKernel",
    "HeatKernelTable",
    "KernelBoundFit",
    "HolderFit",
    "DsEstimate",
    "build_generator",
    "kernel",
    "estimate_spectral_dimension",
    "verify_holder",
    "fit_subgaussian",
    "scaling_window",
    "log_time_grid",
    "duhamel_rule",
    "duhamel_weights",
]

# budget on the entries of the distinct dense blocks U, sum n^2 (200 MB of
# float64): HeatKernel refuses larger groups before it forms a block.  It
# holds every graph up to V = 5,000 (sum n^2 <= V^2), Vicsek level 5
# (2 x 1,233^2 + 2 x 1,111^2 + 2,344^2 = 1.1e7, about V^2 / 8) and 3D Vicsek
# level 3; Vicsek level 6 (2.7e8) and gasket level 8 (4.8e7) are refused
BLOCK_ENTRY_LIMIT = 25_000_000
# full P(t) exports (binary, or CSV of every row) are refused above this size
DENSE_TABLE_LIMIT = 600
# Gauss nodes per step of the Duhamel rule.  The source is interpolated on
# each step by a polynomial of this order minus one; at 8 nodes the rule
# agrees with the graded oracle eval_h to ~1e-13 on steps up to T/64 (6 does
# too, 4 does not), and the solve field moves by < 1e-9 against 12 nodes
DUHAMEL_ORDER = 8
# step lengths whose Duhamel weights a kernel keeps
DUHAMEL_CACHE = 256
# relative rounding level of a kernel row: densities (and their increments)
# below this factor of the row maximum are noise of the spectral sums
ROUNDING_FLOOR = 1e-13
# entries per row chunk of _factor_rows' rank-1 update (256 KiB of float64):
# the chunk's c q^T stays in cache, and no second (n, v) array is formed
UPDATE_CHUNK = 32768


class KernelError(RuntimeError):
    pass


class KernelSizeError(KernelError):
    """The symmetry blocks exceed the kernel budget BLOCK_ENTRY_LIMIT."""


@dataclass
class GeneratorMatrix:
    """Zero-row-sum rate matrix L of the level-n walk, reflecting or Dirichlet,
    held once, sparse.  Dirichlet removes the designated outer-boundary
    vertices (blow-up images of the essential fixed points) by row/column
    deletion; `kept` maps the reduced index back into the vertex set.
    """

    vs: VertexSet
    L: "scipy.sparse.csr_array"   # (V', V') canonical CSR: diagonal and edges
    rate: float
    boundary: str
    kept: np.ndarray              # (V',) indices into vs.points
    weights: np.ndarray           # (V',) measure weights of kept vertices
    detailed_balance_gap: float   # max asymmetry of m_x L[x,y]; ~0 for presets

    @property
    def level(self) -> int:
        return self.vs.level

    @property
    def model(self) -> FractalModel:
        return self.vs.model

    @property
    def points(self) -> np.ndarray:
        return self.vs.points[self.kept]

    @property
    def matrix(self) -> np.ndarray:
        """L as a dense (V', V') array, assembled anew on every access."""
        return self.L.toarray()

    def positions(self) -> np.ndarray:
        """Kernel position of every vertex-set id; -1 for a removed vertex."""
        pos = np.full(self.vs.n_vertices, -1, dtype=np.int64)
        pos[self.kept] = np.arange(len(self.kept))
        return pos


def build_generator(vs: VertexSet, boundary: str = "reflecting") -> GeneratorMatrix:
    """Uniform-jump CTRW generator with holding rate time_scale^level.

    For the shipped presets m(x) is proportional to deg(x), so m_x L[x,y] is
    exactly symmetric; other models get a warning gap recorded (the uniform
    conductance is then an approximation).
    """
    from scipy.sparse import csr_array

    model = vs.model
    if boundary not in ("reflecting", "dirichlet"):
        raise KernelError(f"unknown boundary {boundary!r}")
    V = vs.n_vertices
    if not vs.is_connected():
        raise KernelError("vertex graph is disconnected")
    # cells of the blow-up domain have diameter alpha^(M-n); the jump rate that
    # keeps the walk on the fixed-time diffusion clock is the -d_w power of that
    rate = model.time_scale ** (vs.level - vs.blowup)
    kept = np.arange(V)
    if boundary == "dirichlet":
        drop = vs.boundary_ids()
        if len(drop) == 0:
            raise KernelError("no designated boundary vertices found")
        kept = np.setdiff1d(kept, drop)
    deg = np.bincount(vs.edges.ravel(), minlength=V).astype(float)
    jump = (rate * (1.0 / deg))[kept]   # L[x, y] for every neighbour y of x
    pos = np.full(V, -1)
    pos[kept] = np.arange(len(kept))
    ends = pos[vs.edges]
    a, b = ends[(ends >= 0).all(axis=1)].T
    n = len(kept)
    # the edges are distinct pairs of distinct vertices: no entry is summed
    L = csr_array((np.r_[jump[a], jump[b], np.full(n, -rate)],
                   (np.r_[a, b, np.arange(n)], np.r_[b, a, np.arange(n)])), shape=(n, n))
    m = vs.weights[kept]
    W = L.multiply(m[:, None])          # m_x L[x, y]
    gap = float(abs(W - W.T).max() / max(abs(W).max(), 1e-300))
    return GeneratorMatrix(vs, L, rate, boundary, kept, m, gap)


@functools.cache
def duhamel_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], computed once per order
    and returned as the same read-only arrays on every call."""
    x, w = np.polynomial.legendre.leggauss(order)
    theta, weights = 0.5 * (x + 1.0), 0.5 * w
    theta.flags.writeable = weights.flags.writeable = False
    return theta, weights


def duhamel_weights(z, order: int) -> np.ndarray:
    """W[k, j] = int_0^1 exp(z_k (1 - theta)) l_j(theta) dtheta, with l_j the
    Lagrange basis on the Gauss nodes of duhamel_rule.

    In shifted Legendre polynomials l_j = w_j sum_n (2n + 1) P_n(x_j) P_n,
    exactly (discrete orthogonality of the Gauss rule), and the moments are
    int_0^1 exp(z (1 - theta)) P_n(2 theta - 1) dtheta = exp(z/2) (-1)^n i_n(z/2)
    with i_n the modified spherical Bessel function.  It is evaluated
    exponentially scaled, so nothing cancels as z -> 0 and nothing overflows
    at z = -1e4.
    """
    from scipy.special import ive

    z = np.atleast_1d(np.asarray(z, dtype=float))
    theta, w = duhamel_rule(order)
    n = np.arange(order)
    a = 0.5 * np.abs(z)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mom = np.sqrt(0.5 * np.pi / a) * ive(n + 0.5, a)
        mom *= np.where(z[:, None] > 0, (-1.0) ** n * np.exp(z[:, None]), 1.0)
    mom[z == 0] = n == 0
    legendre = np.polynomial.legendre.legvander(2.0 * theta - 1.0, order - 1)  # (j, n)
    return (mom * (2 * n + 1)) @ (legendre * w[:, None]).T


def _factor_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor an (n, v) array as a = coef @ q, with q of orthonormal rows, by
    row-pivoted Gram-Schmidt; in place when a is C-contiguous float64.

    Each step takes the residual row of largest norm, orthogonalizes it
    against the accepted rows in two passes (one pass leaves overlaps of the
    rounding level relative to the original rows, which grow as the residual
    shrinks) and projects it out of the remaining rows.  It stops once no
    residual row exceeds the rounding level max(n, v) eps max_i |a_i|.  The
    first R rows of a then hold q, returned as a view; coef is (n, R).
    """
    a = np.ascontiguousarray(a, dtype=float)      # rows are updated in place
    n, v = a.shape
    chunk = max(1, UPDATE_CHUNK // v)
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    tol = max(n, v) * np.finfo(float).eps * norms.max(initial=0.0)
    if not np.isfinite(tol):
        raise KernelError("Duhamel source has non-finite values")
    order = np.arange(n)                  # input row held in row i of a
    coef = np.zeros((n, min(n, v)))
    r = 0
    while r < min(n, v):
        p = r + int(np.argmax(norms[r:]))
        if not norms[p] > tol:
            break
        for x in (a, coef, order, norms):
            x[[r, p]] = x[[p, r]]
        q = a[r]
        for _ in range(2):
            d = a[:r] @ q
            q -= d @ a[:r]
            coef[r, :r] += d
        coef[r, r] = np.linalg.norm(q)
        q /= coef[r, r]
        rest = a[r + 1:]
        if len(rest):
            c = rest @ q
            for i in range(0, len(rest), chunk):          # rest -= c q^T in place
                rest[i:i + chunk] -= c[i:i + chunk, None] * q
            coef[r + 1:, r] = c
            norms[r + 1:] = np.sqrt(np.einsum("ij,ij->i", rest, rest))
        r += 1
    out = np.empty((n, r))
    out[order] = coef[:, :r]
    return out, a[:r]


def _reflection_group(gen: GeneratorMatrix) -> tuple[np.ndarray, np.ndarray | None]:
    """Commuting reflection symmetries of a generator, as a (2^k, V') array of
    vertex permutations (row e applies the generators whose bits e sets), and
    one more reflection D outside that group that normalizes it (D g D is in
    the group for every g), as a (V',) permutation, or None.

    The candidates are the reflections in the hyperplanes bisecting pairs of
    essential fixed points (blow-up scaled), which map a nested fractal and
    its vertex graph to itself.  A candidate is verified only if it permutes
    the kernel's points (matched by their coordinates rounded to
    DEDUP_DECIMALS, as vertex_set identifies them) and leaves L and the
    weights exactly unchanged.  The group takes each verified candidate that
    commutes with the reflections kept before it and lies outside the group
    they generate; D is the first other verified candidate that normalizes
    the final group.  On Vicsek that is a diagonal reflection (in 2D the
    group and D generate D4); the gasket has none.  A generator without a
    vertex set has the trivial group and no D.
    """
    V = len(gen.weights)
    group = np.arange(V)[None, :]
    if gen.vs is None:
        return group, None
    model = gen.model
    pts = gen.points
    ess = model.alpha ** gen.vs.blowup * model.essential_fixed_points
    L = gen.L
    keys = np.round(pts, DEDUP_DECIMALS)
    order = np.lexsort(keys.T)
    others = []
    for a, b in itertools.combinations(ess, 2):
        n = (b - a) / np.linalg.norm(b - a)
        image = np.round(pts - 2.0 * ((pts - 0.5 * (a + b)) @ n)[:, None] * n,
                         DEDUP_DECIMALS)
        # the images permute the points iff their sorted keys are the points'
        at = np.lexsort(image.T)
        if not np.array_equal(image[at], keys[order]):
            continue
        g = np.empty(V, dtype=np.int64)
        g[at] = order
        if not (np.array_equal(g[g], group[0])
                and np.array_equal(gen.weights[g], gen.weights)
                and (L[g][:, g] != L).nnz == 0):
            continue
        gens = group[2 ** np.arange(len(group).bit_length() - 1)]
        if (all(np.array_equal(g[h], h[g]) for h in gens)
                and not any(np.array_equal(g, h) for h in group)):
            group = np.concatenate([group, g[group]])
        else:
            others.append(g)
    members = {h.tobytes() for h in group}
    flip = next((g for g in others if g.tobytes() not in members
                 and all(g[h[g]].tobytes() in members for h in group)), None)
    return group, flip


def _flip_partners(group: np.ndarray, flip: np.ndarray) -> list[int]:
    """The character c' whose block P_D maps block c onto, for every c: the
    orbit sum of r for chi_c goes to +-the orbit sum of D r for
    chi_c'(g) = chi_c(D g D), found by integer sign arithmetic."""
    G = len(group)
    index = {g.tobytes(): e for e, g in enumerate(group)}
    conj = np.array([index[flip[g[flip]].tobytes()] for g in group])   # D g_e D = g_conj[e]
    chi = np.array([[bin(e & c).count("1") & 1 for e in range(G)] for c in range(G)])
    rows = {row.tobytes(): c for c, row in enumerate(chi)}              # chi_c = (-1)^row
    return [rows[row[conj].tobytes()] for row in chi]


def _flip_halves(O, reps: np.ndarray, group: np.ndarray, flip: np.ndarray,
                 chi: np.ndarray):
    """Sparse bases of the +1 and -1 eigenspaces of P_D on the span of O, the
    orbit sums of the character chi (its +-1 values on the group) for the
    orbit minima reps, a block D maps onto itself.  P_D takes column i to
    sign_i times column j_i (j_j = i), so the halves hold the columns e_i
    with sign_i = +-1 where j_i = i, and (e_i +- sign_i e_j) / sqrt 2 for the
    pairs i < j, mapped through O."""
    from scipy.sparse import csr_array

    moved = flip[reps]
    home = group.min(axis=0)[moved]                     # orbit minimum of D r
    h = np.argmax(group[:, home] == moved, axis=0)      # g_h(home) = D r
    sign = chi[h]
    j = np.searchsorted(reps, home)
    i = np.arange(len(reps))
    halves = []
    for s in (1, -1):
        cols = np.flatnonzero(((j == i) & (sign == s)) | (i < j))
        pair = j[cols] > cols
        E = csr_array((np.r_[np.where(pair, np.sqrt(0.5), 1.0),
                             s * sign[cols[pair]] * np.sqrt(0.5)],
                       (np.r_[cols, j[cols[pair]]],
                        np.r_[np.arange(len(cols)), np.flatnonzero(pair)])),
                      shape=(len(reps), len(cols)))
        halves.append((O @ E).tocsr())
    return halves



class HeatKernel:
    """Spectral form of exp(tL), held as its symmetry blocks: evaluates
    transition matrices, densities, rows and diagonals at arbitrary t >= 0,
    and the Duhamel integrals int P(t - s) g(s) ds on a time grid.

    S = M^{1/2} L M^{-1/2}, symmetrized, is factored block by block.  For
    each character chi of the reflection group G (_reflection_group), O_chi
    is a sparse (V, n_chi) array whose orthonormal columns are the signed
    orbit sums u_r = n_r^{-1/2} sum_{x in O(r)} chi(x) e_x, one per orbit
    representative r whose stabilizer chi is trivial on.  S maps their span
    into itself, so the block is O_chi^T S O_chi and its eigenvectors U_chi
    give the columns O_chi U_chi of U.

    The extra reflection D of _reflection_group commutes with S and maps u_r
    to +-u_r' for the orbit sum of D r under the character chi'(g) =
    chi(D g D); orbits and signs come from the permutations, in integers.
    If chi' != chi, only the first of the two blocks is factored: the second
    one's basis is P_D O_chi, with the same U_chi and eigenvalues.  If
    chi' = chi, the block splits into the +1 and -1 eigenspaces of D, with
    the sparse bases u_i and (u_i +- s u_j) / sqrt 2 (_flip_halves), each
    factored on its own.  On 2D Vicsek level 4 that gives six blocks,
    (255, 214, 469, 469, 255, 214), from five eigh calls.  The eigenvalues
    come block after block, ascending within a block.  With the trivial
    group O is the identity and the one block is S itself.

    The kernel keeps O (the block bases side by side, sparse), the dense
    blocks U (a partner's is the same array) and the eigenvalues, and no
    (V, V) array.  Every operator goes through two transforms, each one
    sparse product with O pre-scaled by M^{+-1/2} and one GEMM per block: into
    modes, B^T M x = U_k^T (O_k^T M^{1/2} x), and out of modes,
    B a = M^{-1/2} O_k (U_k a_k).
    """

    def __init__(self, gen: GeneratorMatrix):
        from scipy.sparse import csc_array, csr_array, hstack

        self.gen = gen
        self.weights = gen.weights
        self._sqrt_m = np.sqrt(self.weights)
        V = len(self.weights)
        L = gen.L.tocoo()             # row-major order, as L is canonical CSR
        # S = (A + A^T) / 2 with A = M^{1/2} L M^{-1/2}
        half = 0.5 * ((self._sqrt_m[L.row] * L.data) / self._sqrt_m[L.col])
        S = csr_array((np.r_[half, half], (np.r_[L.row, L.col], np.r_[L.col, L.row])),
                      shape=(V, V))
        perms, flip = _reflection_group(gen)
        G = len(perms)
        reps = np.flatnonzero(perms.min(axis=0) == np.arange(V))   # orbit minima
        images = (perms[:, reps].ravel(), np.tile(np.arange(len(reps)), G))
        partner = range(G) if flip is None else _flip_partners(perms, flip)
        # bases[k] spans block k, and its U is that of todo[owner[k]]
        bases, owner, todo, first = [], [], [], {}
        for c in range(G):
            chi = np.array([(-1.0) ** bin(e & c).count("1") for e in range(G)])
            # column r sums chi(e) e_{e(r)} over G: the orbit sum of r times
            # its stabilizer's order, or zero if chi is not trivial there
            O = csc_array((np.repeat(chi, len(reps)), images), shape=(V, len(reps)))
            norm = np.sqrt(np.ravel(O.multiply(O).sum(axis=0)))
            O = O[:, norm > 0].multiply(1.0 / norm[norm > 0]).tocsr()
            if partner[c] < c:
                # P_D maps block partner[c] onto this one: S is the same
                # there in the basis P_D O, so it shares that block's U
                k = first[partner[c]]
                bases.append(bases[k][flip])
                owner.append(owner[k])
                continue
            first[c] = len(bases)
            halves = ([O] if flip is None or partner[c] > c
                      else _flip_halves(O, reps[norm > 0], perms, flip, chi))
            for half in halves:
                owner.append(len(todo))
                todo.append(half)
                bases.append(half)
        self._block_sizes = tuple(O.shape[1] for O in bases)
        entries = sum(O.shape[1] ** 2 for O in todo)
        if entries > BLOCK_ENTRY_LIMIT:
            raise KernelSizeError(
                f"V = {V} vertices in symmetry blocks {self._block_sizes} need "
                f"{entries} block entries; the kernel budget is {BLOCK_ENTRY_LIMIT}")
        Us, lams = [], []
        for O in todo:
            Sb = (O.T @ S @ O).toarray()
            # the two triangles of Sb are summed in different orders, equal
            # only to rounding; symmetrized in place, as eigh copies its input
            Sb += Sb.T
            Sb *= 0.5
            try:
                # LAPACK ?syevd, divide and conquer: the MRRR routine (?syevr)
                # stalls on the highly degenerate Vicsek spectrum
                lam, Ub = np.linalg.eigh(Sb)
            except np.linalg.LinAlgError as exc:  # pragma: no cover
                raise KernelError(f"eigendecomposition failed: {exc}") from exc
            del Sb                        # freed before the next block is formed
            Us.append(Ub)
            lams.append(lam)
        self._blocks = [Us[k] for k in owner]
        self.eigenvalues = np.concatenate([lams[k] for k in owner])
        ends = np.cumsum(self._block_sizes)
        self._spans = [slice(e - n, e) for e, n in zip(ends, self._block_sizes)]
        self._orbits = hstack(bases, format="csc")        # O, columns by block
        self._in = self._orbits.multiply(self._sqrt_m[:, None]).T.tocsr()
        self._out = self._orbits.multiply(1.0 / self._sqrt_m[:, None]).tocsr()
        self._duhamel_cache: dict = {}

    @property
    def B(self) -> np.ndarray:
        """B = M^{-1/2} O diag(U_c) as a dense (V', V') array, assembled block
        by block on every access; the operators never form it."""
        B = np.zeros((self.n_vertices,) * 2, order="F")
        for U, span in zip(self._blocks, self._spans):
            B[:, span] = self._orbits[:, span] @ U
        B /= self._sqrt_m[:, None]
        return B

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """Sizes of the symmetry blocks S was factored in, one per character
        of the reflection group; they sum to V'."""
        return self._block_sizes

    @property
    def n_vertices(self) -> int:
        return len(self.weights)

    @property
    def level(self) -> int:
        return self.gen.level

    @property
    def model(self) -> FractalModel:
        return self.gen.model

    def _to_modes(self, x: np.ndarray) -> np.ndarray:
        """B^T M x = U_c^T (O_c^T M^{1/2} x) for x of shape (V,) or (V, k):
        one sparse product, then one GEMM per block, in place."""
        y = self._in @ x
        for U, span in zip(self._blocks, self._spans):
            y[span] = U.T @ y[span]
        return y

    def _from_modes(self, a: np.ndarray, squared: bool = False) -> np.ndarray:
        """B a = M^{-1/2} O_c (U_c a_c) for modes a of shape (V,) or (V, k):
        one GEMM per block, then one sparse product.
        With squared, of (B * B) a: a row of O_c holds at most one entry, so
        B * B = (M^{-1/2} O)^2 diag(U_c^2) entrywise."""
        out = self._out.multiply(self._out) if squared else self._out
        z = np.empty(a.shape)
        for U, span in zip(self._blocks, self._spans):
            z[span] = (U * U if squared else U) @ a[span]
        return out @ z

    def _rows(self, ids) -> np.ndarray:
        """B[ids], (V,) for one index: out of modes for the unit modes, rows
        first.  A row of M^{-1/2} O holds one entry per block, so block c
        costs n_c per row."""
        V = self.n_vertices
        ids = np.arange(V)[ids]
        rows = self._out[ids.ravel()]
        return np.hstack([rows[:, span] @ U for U, span in zip(self._blocks, self._spans)]
                         ).reshape(*ids.shape, V)

    def _exp_lam(self, t) -> np.ndarray:
        """exp(lam t) for one time, (V,), or a vector of times, (K, V)."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t) & (t >= 0)):
            raise KernelError("negative time or one that is not finite")
        with np.errstate(under="ignore"):
            return np.exp(np.multiply.outer(t, self.eigenvalues))

    def density(self, t: float, clip: bool = True) -> np.ndarray:
        """Symmetric density matrix p(t) with p[x,y] = P(t)[x,y] / m(y)."""
        return self.density_rows(t, slice(None), clip=clip)

    def transition(self, t: float, clip: bool = True) -> np.ndarray:
        """Stochastic matrix P(t) = p(t) * m[col]."""
        return self.density(t, clip=clip) * self.weights[None, :]

    def density_rows(self, t: float, ids, clip: bool = True) -> np.ndarray:
        """Rows p(t)[ids, :] without forming the full matrix; with clip, the
        negative entries rounding leaves are set to zero."""
        # p is symmetric: its columns ids are B exp(t lam) B[ids]^T
        rows = self._from_modes((self._exp_lam(t) * self._rows(ids)).T).T
        if clip and rows.min() < 0:
            rows = np.maximum(rows, 0.0)
        return rows

    def diag_density(self, times: np.ndarray) -> np.ndarray:
        """On-diagonal densities p(t, x, x) for a vector of times: (K, V)."""
        return self._from_modes(self._exp_lam(times).T, squared=True).T

    def pair_density(self, times: np.ndarray, i: int, j: int) -> np.ndarray:
        """p(t, x_i, x_j) over a vector of times."""
        bi, bj = self._rows([i, j])
        return self._exp_lam(times) @ (bi * bj)

    def apply(self, t, v: np.ndarray) -> np.ndarray:
        """P(t) @ v for one (V,) vector v at one time, (V,), or a vector of times, (K, V)."""
        if np.shape(v) != (self.n_vertices,):
            raise KernelError(f"v has shape {np.shape(v)}, not ({self.n_vertices},)")
        return self._from_modes((self._exp_lam(t) * self._to_modes(v)).T).T

    def invariant_gaps(self, t: float) -> dict:
        """Semigroup identities of the unclipped P(t): row-sum gap, relative
        density symmetry gap, detailed-balance gap and the smallest entry."""
        P = self.transition(t, clip=False)
        m = self.weights
        p = P / m[None, :]
        W = m[:, None] * P
        return {
            "row_sum_gap": float(np.max(np.abs(P.sum(axis=1) - 1.0))),
            "density_symmetry_gap": float(np.max(np.abs(p - p.T)) / max(p.max(), 1e-300)),
            "detailed_balance_gap": float(np.max(np.abs(W - W.T))),
            "min_entry": float(P.min()),
        }

    def chapman_kolmogorov_gap(self, s: float, t: float, s_plus_t: float) -> float:
        """sup |P(s) P(t) - P(s + t)|.  The caller passes the sum as written
        (0.1 + 0.2 is not 0.3 in binary), since at rounding level the gap
        follows the time it is evaluated at."""
        Ps, Pt, Pst = (self.transition(x) for x in (s, t, s_plus_t))
        return float(np.max(np.abs(Ps @ Pt - Pst)))

    def _duhamel_steps(self, times):
        """The (S, P) Gauss nodes of a sorted grid's S steps, and the rules
        (exp(lam h), h W(lam h)) of its distinct step lengths h, cached per
        length, with the index of each step's rule."""
        times = np.asarray(times, dtype=float)
        if len(times) < 2 or np.any(np.diff(times) <= 0):
            raise KernelError("Duhamel time grid must be strictly increasing, "
                              "with at least one step")
        order = DUHAMEL_ORDER
        theta, _ = duhamel_rule(order)
        h = np.diff(times)
        lengths, which = np.unique(h, return_inverse=True)
        rules = []
        for hk in lengths:
            key = (hk, order)
            if key not in self._duhamel_cache:
                if len(self._duhamel_cache) >= DUHAMEL_CACHE:
                    self._duhamel_cache.clear()
                z = self.eigenvalues * hk
                with np.errstate(under="ignore"):
                    self._duhamel_cache[key] = (np.exp(z), hk * duhamel_weights(z, order))
            rules.append(self._duhamel_cache[key])
        return times[:-1, None] + h[:, None] * theta, (rules, which)

    def duhamel(self, times, source, fields=None, at=None) -> np.ndarray:
        """int_{t_0}^{t_i} P(t_i - s) g(s) ds at the times t_i of a sorted grid.

        source(s) is called once, at the P = DUHAMEL_ORDER Gauss nodes of each
        of the S steps in grid order, and the array it returns is the rule's
        to overwrite.  One call of the into-modes transform moves the samples
        into modes; each step then advances
        acc <- exp(lam h) acc + sum_j W_j(lam h) ghat_j, exact in the
        eigenvalues, and one call out of modes moves every kept grid time
        back, as (V, K C) columns.  The sum over j is one contraction per
        step length h, over all the steps of that length (one on a uniform
        grid, a few on a grid whose steps differ in the last ulp), so the
        step loop only recurs.  Per-node form (fields None): source returns
        g itself, (S P, V) or (S P, V, C), in either memory order, and
        ghat_j = B^T (m g(s_j)); column-major (S P, V) samples are already
        the transform's layout and are not copied.

        Separable form: g(s, y, c) = source(s)[y] fields[y, c], with source
        returning (S P, V) values and fields a fixed (V, C) block.  The
        samples are factored as coef @ Q (_factor_rows, Q with orthonormal
        rows, cut at the rounding level max(S P, V) eps max_i |row_i|), so a
        source of rank R in (s, y) moves only the R C columns Q_r * fields
        into modes, as ghat (V, R, C).  The steps advance the (V, R)
        coefficients, acc <- exp(lam h) acc + W coef_step (again one batched
        product per step length), and only the kept times are expanded, by
        acc ghat per mode; the result matches the per-node form to rounding.

        The result holds every vertex at the grid indices at (default every
        grid time), shape (K, V) for an (S P, V) per-node source, else
        (K, V, C); it is zero at t_0.
        """
        nodes, (rules, which) = self._duhamel_steps(times)
        S, P = nodes.shape
        V = self.n_vertices
        g = np.asarray(source(nodes.ravel()), dtype=float)
        squeeze = fields is None and g.ndim == 2
        if fields is None:
            coef = Q = None
            cols = np.moveaxis(g.reshape(len(g), V, -1), 0, 1)          # (V, S P, C)
        else:
            coef, Q = _factor_rows(g)
            cols = Q.T[:, :, None] * np.asarray(fields, dtype=float)[:, None, :]
        # C order: a sparse product with a column-major operand runs several
        # times slower.  Column-major (S P, V) samples are C order here
        ghat = self._to_modes(np.ascontiguousarray(cols.reshape(V, -1))).reshape(cols.shape)
        del g, Q, cols                    # the samples are in modes
        if coef is None:
            parts = ghat.reshape(V, S, P, -1)

            def contract(W, run):         # sum_j W_j ghat_j, (n, V, C)
                return np.einsum("kr,ksrc->skc", W, parts[:, run])
        else:
            parts = coef.reshape(S, P, -1)

            def contract(W, run):         # W coef_step, (n, V, R)
                return W @ parts[run]
        # accs[i + 1] takes step i's added term, from one contraction per step
        # length over all the steps of that length, then the recurrence
        accs = np.zeros((S + 1, V, parts.shape[-1]))
        for j, (_, W) in enumerate(rules):
            run = np.flatnonzero(which == j)
            if run[-1] - run[0] == len(run) - 1:
                run = slice(run[0], run[-1] + 1)     # a view, not a gather
            accs[1:][run] = contract(W, run)
        for i, j in enumerate(which):
            accs[i + 1] = rules[j][0][:, None] * accs[i] + accs[i + 1]
        kept = np.ascontiguousarray(np.moveaxis(accs if at is None else accs[np.asarray(at)],
                                                0, 1))                  # (V, K, R or C)
        if coef is not None:
            kept = np.einsum("kjr,krc->kjc", kept, ghat)                # (V, K, C)
        del ghat
        out = np.moveaxis(self._from_modes(kept.reshape(V, -1)).reshape(kept.shape),
                          0, 1)                                         # (K, V, C)
        return out[..., 0] if squeeze else out


def scaling_window(model: FractalModel, level: int, blowup: int = 0) -> tuple[float, float]:
    """Times where the level-n kernel tracks the diffusion: below ten mean
    jump times the walk has taken too few jumps, above 0.5 the reflecting
    semigroup saturates toward stationarity."""
    return (10.0 * model.time_scale ** (blowup - level), 0.5)


def log_time_grid(t_lo: float, t_hi: float, per_decade: int = 20) -> np.ndarray:
    """Geometric grid from t_lo to t_hi, both ends included, at about
    per_decade >= 1 points per decade; 0 < t_lo < t_hi must be finite."""
    if not (per_decade >= 1 and 0 < t_lo < t_hi < math.inf):
        raise KernelError(f"log time grid needs 0 < t_lo < t_hi finite and "
                          f"per_decade >= 1, got {t_lo}, {t_hi}, {per_decade}")
    decades = math.log10(t_hi / t_lo)
    n = max(2, int(round(decades * per_decade)) + 1)
    return np.geomspace(t_lo, t_hi, n)


@dataclass
class HeatKernelTable:
    """Kernel evaluated on a time grid: the diagonals are stored, and P(t)
    and its rows are recomputed on demand from the spectral form.
    """

    kernel: HeatKernel
    times: np.ndarray
    diag: np.ndarray                       # (K, V) densities p(t, x, x)
    dense: list[np.ndarray] | None         # unread: kernel() passes None

    @property
    def level(self) -> int:
        return self.kernel.level

    @property
    def model(self) -> FractalModel:
        return self.kernel.model

    def transition(self, t: float) -> np.ndarray:
        return self.kernel.transition(t)

    def to_csv(self, path, x_ids=None) -> None:
        """Rows t,x_id,y_id,density: time, then x, then y; x restricted to
        x_ids for big graphs."""
        V = self.kernel.n_vertices
        if x_ids is None:
            if V > DENSE_TABLE_LIMIT:
                raise KernelError(
                    f"{V} vertices: pass x_ids to export a row subset")
            x_ids = np.arange(V)
        x_ids = np.asarray(x_ids)
        x_txt, y_txt = _text.ints(x_ids), _text.ints(range(V))
        with _text.open_table(path, "t,x_id,y_id,density\n") as f:
            for t, t_txt in zip(self.times, _text.floats(self.times)):
                rows = self.kernel.density_rows(t, x_ids)
                for x, row in zip(x_txt, rows):
                    _text.write_block(f, t_txt + x, y_txt, row)

    def diag_csv(self, path) -> None:
        """Rows t,x_id,density of the on-diagonal densities: time, then x."""
        x_txt = _text.ints(range(self.diag.shape[1]))
        with _text.open_table(path, "t,x_id,density\n") as f:
            for head, block in zip(_text.floats(self.times), self.diag):
                _text.write_block(f, head, x_txt, block)

    def to_binary(self, path) -> None:
        """Fixed-layout dump: int64 magic, level, V, K; float64 times[K];
        float64 row-major P(t) stack (K, V, V). Refused for big graphs."""
        V = self.kernel.n_vertices
        if V > DENSE_TABLE_LIMIT:
            raise KernelError(f"{V} vertices exceeds dense export limit")
        with open(path, "wb") as f:
            np.array([0x46484b54, self.level, V, len(self.times)],
                     dtype=np.int64).tofile(f)
            np.asarray(self.times, dtype=np.float64).tofile(f)
            for t in self.times:
                self.transition(t).astype(np.float64).tofile(f)


def kernel(gen: GeneratorMatrix, times: np.ndarray | None = None) -> HeatKernelTable:
    """Evaluate the heat semigroup on a positive, finite, strictly increasing
    time grid (default: the scaling window on a log grid, which needs a vertex
    set), checked before the kernel is factored."""
    if times is None:
        if gen.vs is None:
            raise KernelError("a generator without a vertex set has no default "
                              "time grid; pass times")
        lo, hi = scaling_window(gen.model, gen.level, gen.vs.blowup)
        times = log_time_grid(lo, hi)
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times > 0)):
        raise KernelError("time grid must be positive and finite")
    if not np.all(np.diff(times) > 0):
        raise KernelError("time grid must be strictly increasing")
    hk = HeatKernel(gen)
    return HeatKernelTable(hk, times, hk.diag_density(times), None)


@dataclass
class DsEstimate:
    d_s: float
    slope_sd: float
    window: tuple[float, float]
    n_times: int
    n_vertices: int


def estimate_spectral_dimension(table: HeatKernelTable, window=None,
                                interior=None) -> DsEstimate:
    """-2 x least-squares slope of log p(t,x,x) vs log t, averaged over
    interior vertices; the on-diagonal decay exponent.

    The default window starts at ten mean jump times and stops at half a
    relaxation time 1/|lambda_1| (measured from the spectrum), where the
    reflecting semigroup starts flattening toward its stationary floor.
    A kernel without a vertex set needs both window and interior.
    """
    gen = table.kernel.gen
    if gen.vs is None and (window is None or interior is None):
        raise KernelError("window and interior required when the kernel has no vertex set")
    if window is None:
        lo, hi = scaling_window(table.model, table.level, gen.vs.blowup)
        if table.kernel.n_vertices > 1:
            gap = -np.sort(table.kernel.eigenvalues)[-2]
            if gap > 0:
                hi = min(hi, 0.5 / gap)
        window = (lo, hi)
    lo, hi = window
    mask = (table.times >= lo * (1 - 1e-12)) & (table.times <= hi * (1 + 1e-12))
    if mask.sum() < 2 or math.log10(table.times[mask][-1] / table.times[mask][0]) < 0.5:
        raise KernelError("time window too narrow (< half a decade in the grid)")
    ts = table.times[mask]
    diag = table.diag[mask]
    if interior is None:
        # reflecting kernels keep every vertex; Dirichlet ones kept no boundary
        drop = gen.vs.boundary_ids() if gen.boundary == "reflecting" else []
        interior = np.setdiff1d(np.arange(table.kernel.n_vertices), drop)
    logt = np.log(ts)
    logp = np.log(np.maximum(diag[:, interior], 1e-300))
    A = np.stack([logt, np.ones_like(logt)], axis=1)
    coef, *_ = np.linalg.lstsq(A, logp, rcond=None)
    slopes = coef[0]
    return DsEstimate(float(-2.0 * slopes.mean()), float(2.0 * slopes.std()),
                      (float(ts[0]), float(ts[-1])), int(mask.sum()), len(interior))


def _holder_pairs(gen: GeneratorMatrix, rng, pairs_per_scale: int):
    """Vertex pairs sharing a depth-j cell for every j = 1..level, giving
    |y1 - y2| support across ~level decades of alpha: their kernel positions
    (n, 2) and distances (n,).  A pair goes whole if the boundary condition
    removed an end or its ends coincide."""
    vs = gen.vs
    model, n = vs.model, vs.level
    out = []
    ids = vs.cell_vertex_ids                       # (N^n, F0)
    for j in range(1, n + 1):
        grouped = ids.reshape(model.N ** j, -1)    # vertices per depth-j cell
        rows = rng.integers(0, grouped.shape[0], size=pairs_per_scale)
        for r in rows:
            pool = np.unique(grouped[r])
            if len(pool) < 2:
                continue
            a, b = rng.choice(pool, size=2, replace=False)
            out.append((int(a), int(b)))
    mapped = gen.positions()[np.asarray(out, dtype=np.int64).reshape(-1, 2)]
    pairs = mapped[(mapped >= 0).all(axis=1)]
    pts = gen.points
    dist = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    return pairs[dist > 0], dist[dist > 0]


def _window_times(table: HeatKernelTable, model: FractalModel, n: int) -> np.ndarray:
    """Up to n table times inside the scaling window, evenly spread by index."""
    lo, hi = scaling_window(model, table.level, table.kernel.gen.vs.blowup)
    inside = table.times[(table.times >= lo) & (table.times <= hi)]
    return inside[np.linspace(0, len(inside) - 1, min(n, len(inside))).astype(int)]


@dataclass
class HolderFit:
    exponent: float
    c1: float
    n_pairs: int
    per_time: list          # (t, slope, c1_t)


def verify_holder(table: HeatKernelTable, model: FractalModel | None = None,
                  times=None, seed: int = 0) -> HolderFit:
    """Fit |p(t,x,y1) - p(t,x,y2)| ~ |y1 - y2|^theta over cell-sharing pairs at
    all depths (60 per depth) from 24 sampled rows x; returns the fitted
    exponent (target d_w - d_f) and the largest t |dp| / |dy|^{d_w - d_f} as
    the empirical Hoelder constant."""
    model = table.model if model is None else model
    kern = table.kernel
    if kern.level < 2:
        raise KernelError("need level >= 2 for pair scales")
    rng = np.random.default_rng(seed)
    if times is None:
        times = _window_times(table, model, 4)
    pairs, dist = _holder_pairs(kern.gen, rng, 60)
    if not len(pairs):
        raise KernelError("no usable vertex pairs")
    pa, pb = pairs.T
    xs = rng.choice(np.arange(kern.n_vertices), size=min(24, kern.n_vertices),
                    replace=False)
    target = model.d_w - model.d_f
    per_time, used = [], 0
    for t in times:
        rows = kern.density_rows(float(t), xs, clip=False)
        dp = np.abs(rows[:, pa] - rows[:, pb])           # (X, pairs)
        mask = dp > ROUNDING_FLOOR * rows.max()
        if mask.sum() < 10:
            continue
        ld = np.log(np.broadcast_to(dist, dp.shape)[mask])
        lp = np.log(dp[mask])
        slope = np.polyfit(ld, lp, 1)[0]
        c1_t = float(np.max(t * dp[mask] / np.exp(ld) ** target))
        per_time.append((float(t), float(slope), c1_t))
        used += int(mask.sum())
    if not per_time:
        raise KernelError("all kernel increments below floating noise")
    slopes = np.array([s for _, s, _ in per_time])
    c1 = max(c for *_, c in per_time)
    return HolderFit(float(np.median(slopes)), float(c1), used, per_time)


@dataclass
class KernelBoundFit:
    """Upper-envelope parameters c2 t^{-d_s/2} exp(-c3 xi^{1/(d_J-1)})."""

    c1: float
    c2: float
    c3: float
    d_J: float
    max_residual: float
    rms_residual: float
    envelope_fraction: float     # points below the inflated envelope
    time_range: tuple[float, float]
    dist_range: tuple[float, float]
    converged: bool

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0 and self.c3 > 0):
            raise KernelError("bound constants must be positive")
        if not self.d_J > 1:
            raise KernelError("d_J must exceed 1")


def fit_subgaussian(table: HeatKernelTable, model: FractalModel | None = None,
                    holder: HolderFit | None = None, seed: int = 0) -> KernelBoundFit:
    """Nonlinear least squares for (c2, c3, d_J) in
    log(p t^{d_s/2}) ~ log c2 - c3 (|x-y|^{d_w}/t)^{1/(d_J-1)}, over the rows
    of 12 sampled vertices at 5 times of the scaling window; a row keeps its
    densities above ROUNDING_FLOOR times its maximum (the rest is rounding)."""
    from scipy.optimize import least_squares

    model = table.model if model is None else model
    kern = table.kernel
    rng = np.random.default_rng(seed)
    times = _window_times(table, model, 5)
    if holder is None:
        holder = verify_holder(table, model, seed=seed)
    xs = rng.choice(np.arange(kern.n_vertices), size=min(12, kern.n_vertices),
                    replace=False)
    pts = kern.gen.points
    ts_data, dist_data, p_data = [], [], []
    for t in times:
        rows = kern.density_rows(float(t), xs)
        for xi, row in zip(xs, rows):
            dist = np.linalg.norm(pts - pts[xi], axis=1)
            ok = (row > ROUNDING_FLOOR * row.max()) & (dist > 0)
            ts_data.append(np.full(ok.sum(), t))
            dist_data.append(dist[ok])
            p_data.append(row[ok])
    tv = np.concatenate(ts_data)
    dv = np.concatenate(dist_data)
    pv = np.concatenate(p_data)
    if len(pv) < 30:
        raise KernelError("not enough off-diagonal tail data above the floor")
    y = np.log(pv) + 0.5 * model.d_s * np.log(tv)
    base = dv ** model.d_w / tv

    def resid(theta):
        logc2, c3, dj = theta
        return y - (logc2 - c3 * base ** (1.0 / (dj - 1.0)))

    sol = None
    for dj0 in (1.5, 2.0, 4.0, 8.0):
        cand = least_squares(resid, np.array([y.max(), 1.0, dj0]),
                             bounds=([-60.0, 1e-8, 1.0 + 1e-6], [60.0, 1e4, 60.0]))
        if sol is None or cand.cost < sol.cost:
            sol = cand
    logc2, c3, dj = sol.x
    r = resid(sol.x)
    # envelope with c2 inflated by the worst positive residual
    inflated = logc2 + max(float(r.max()), 0.0)
    below = float(np.mean(y <= inflated - c3 * base ** (1.0 / (dj - 1.0)) + 1e-12))
    return KernelBoundFit(
        c1=holder.c1, c2=float(np.exp(logc2)), c3=float(c3), d_J=float(dj),
        max_residual=float(np.abs(r).max()), rms_residual=float(np.sqrt(np.mean(r * r))),
        envelope_fraction=below,
        time_range=(float(tv.min()), float(tv.max())),
        dist_range=(float(dv.min()), float(dv.max())),
        converged=bool(sol.success))
