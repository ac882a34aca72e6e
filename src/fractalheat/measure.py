"""Stochastic measures on the fractal via the interval transport of cell addresses.

A base measure lives on (0, 1]; the depth-n cell with word (i_1..i_n) is mapped
to the interval ((k-1) N^-n, k N^-n] with k the base-N rank of the word, and
receives the base measure of that interval.  Blow-up components (unit cells of
alpha^M E) carry independent copies combined with summable weights.

Three base kinds ship:

* gaussian_white   -- mass((a, b]) = W(b) - W(a); children are refined by exact
                      Brownian-bridge conditioning, so parent/child additivity
                      holds to floating precision and the depth-n cell masses
                      of one component are i.i.d. Normal(0, N^-n).
* symmetric_stable -- index beta_st in (0, 2); children are independent stable
                      increments recentred by spreading the parent mismatch
                      equally (exact additivity, approximate conditional law;
                      exact stable bridges are out of scope).
* atomic_series    -- sum_i xi_i sign_i 1{x_i in A}: deterministic positions and
                      coefficients, optionally random signs.  Testing base; it
                      has atoms by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _text
from .geometry import CellAddress, FractalModel

__all__ = [
    "BaseSM",
    "MeasureRealization",
    "address_to_interval",
    "interval_rank",
    "realize",
    "integrate",
    "lemma22_diagnostic",
    "LevelIndicatorFamily",
    "write_realization",
    "read_realization",
]

BASE_KINDS = ("gaussian_white", "symmetric_stable", "atomic_series")


class MeasureError(ValueError):
    pass


@dataclass(frozen=True)
class BaseSM:
    """Descriptor of the driving measure on (0, 1]: kind, seed, parameters."""

    kind: str
    seed: int = 0
    stable_index: float = 1.5
    atoms: tuple = ()          # ((position, coefficient), ...) for atomic_series
    random_signs: bool = False

    def __post_init__(self):
        if self.kind not in BASE_KINDS:
            raise MeasureError(f"unknown base kind {self.kind!r}; known: {BASE_KINDS}")
        if self.kind == "symmetric_stable" and not 0 < self.stable_index < 2:
            raise MeasureError("stable index must lie in (0, 2)")
        if self.kind == "atomic_series" and not self.atoms:
            raise MeasureError("atomic_series needs at least one atom")
        object.__setattr__(self, "atoms", tuple((float(x), float(c)) for x, c in self.atoms))

    @property
    def atomless(self) -> bool:
        return self.kind in ("gaussian_white", "symmetric_stable")


def interval_rank(word, N: int) -> int:
    """Base-N rank k of a word: k = 1 + sum (i_j - 1) N^(n-j)."""
    k = 0
    for i in word:
        if not 1 <= i <= N:
            raise MeasureError(f"symbol {i} outside 1..{N}")
        k = k * N + (i - 1)
    return k + 1


def address_to_interval(addr: CellAddress, model: FractalModel) -> tuple[float, float]:
    """Half-open interval ((k-1) N^-n, k N^-n] of a blowup-local word."""
    n = addr.depth
    k = interval_rank(addr.word, model.N)
    width = float(model.N) ** (-n)
    return ((k - 1) * width, k * width)


def _sample_sas(rng, beta: float, scale: float, size) -> np.ndarray:
    """Chambers-Mallows-Stuck draw of symmetric beta-stable variables."""
    th = rng.uniform(-math.pi / 2, math.pi / 2, size)
    if beta == 1.0:
        return scale * np.tan(th)
    w = rng.exponential(1.0, size)
    num = np.sin(beta * th) / np.cos(th) ** (1.0 / beta)
    tail = (np.cos((1.0 - beta) * th) / w) ** ((1.0 - beta) / beta)
    return scale * num * tail


def _atom_level_masses(base: BaseSM, signs: np.ndarray, N: int, depth: int) -> np.ndarray:
    masses = np.zeros(N ** depth)
    scale = N ** depth
    for (x, c), s in zip(base.atoms, signs):
        if not 0 < x <= 1:
            raise MeasureError("atom positions must lie in (0, 1]")
        k = int(math.ceil(x * scale))  # (a, b] semantics
        masses[k - 1] += s * c
    return masses


def _component_levels(base: BaseSM, rng, N: int, depth: int) -> list[np.ndarray]:
    """Masses of every interval level 0..depth for one component, additive by
    construction (children of each parent sum exactly to the parent)."""
    if base.kind == "atomic_series":
        signs = (rng.choice([-1.0, 1.0], size=len(base.atoms))
                 if base.random_signs else np.ones(len(base.atoms)))
        return [_atom_level_masses(base, signs, N, lev) for lev in range(depth + 1)]
    levels = []
    if base.kind == "gaussian_white":
        root = rng.normal(0.0, 1.0)
    else:
        root = float(_sample_sas(rng, base.stable_index, 1.0, ()))
    levels.append(np.array([root]))
    for lev in range(depth):
        parents = levels[-1]
        width = float(N) ** (-(lev + 1))
        if base.kind == "gaussian_white":
            z = rng.normal(0.0, math.sqrt(width), size=(len(parents), N))
        else:
            z = _sample_sas(rng, base.stable_index, width ** (1.0 / base.stable_index),
                            size=(len(parents), N))
        z += (parents - z.sum(axis=1))[:, None] / N
        levels.append(z.reshape(-1))
    return levels


@dataclass
class MeasureRealization:
    """One sampled measure on the depth-n_max cell tree of alpha^M E.

    Cell masses are stored per blow-up component, already multiplied by the
    component weights; depth-n masses for n < M aggregate component roots.
    Immutable once built; a fixed seed reproduces it bit for bit.
    """

    model: FractalModel
    base: BaseSM
    blowup: int
    n_max: int
    component_weights: np.ndarray
    component_levels: list          # per component: list of level arrays

    @property
    def n_components(self) -> int:
        return len(self.component_weights)

    def level_masses(self, n: int) -> np.ndarray:
        """Masses of all N^n depth-n cells in word-rank order."""
        if not 0 <= n <= self.n_max:
            raise MeasureError(f"depth {n} outside 0..{self.n_max}")
        N, M = self.model.N, self.blowup
        if n >= M:
            return np.concatenate([lv[n - M] for lv in self.component_levels])
        roots = np.array([lv[0][0] for lv in self.component_levels])
        return roots.reshape(N ** n, -1).sum(axis=1)

    def mass(self, addr: CellAddress) -> float:
        if addr.blowup != self.blowup:
            raise MeasureError("address blowup does not match the realization")
        n = addr.depth
        if n >= self.blowup:
            comp = interval_rank(addr.word[:self.blowup], self.model.N) - 1
            k = interval_rank(addr.word[self.blowup:], self.model.N) - 1
            return float(self.component_levels[comp][n - self.blowup][k])
        return float(self.level_masses(n)[interval_rank(addr.word, self.model.N) - 1])

    def total_mass(self) -> float:
        return float(self.level_masses(0)[0])

    def additivity_gap(self) -> float:
        """Worst |mass(parent) - sum children| over every realized node."""
        gap = 0.0
        N = self.model.N
        for lv in self.component_levels:
            for parents, children in zip(lv[:-1], lv[1:]):
                gap = max(gap, float(np.max(np.abs(
                    parents - children.reshape(-1, N).sum(axis=1)))))
        return gap

    def scaled(self, factor: float) -> "MeasureRealization":
        return MeasureRealization(
            self.model, self.base, self.blowup, self.n_max,
            self.component_weights.copy(),
            [[arr * factor for arr in lv] for lv in self.component_levels])

    def cellwise_sum(self, other: "MeasureRealization") -> "MeasureRealization":
        if (other.blowup, other.n_max, other.model.N) != (self.blowup, self.n_max, self.model.N):
            raise MeasureError("realizations are not on the same cell tree")
        return MeasureRealization(
            self.model, self.base, self.blowup, self.n_max,
            self.component_weights.copy(),
            [[a + b for a, b in zip(la, lb)]
             for la, lb in zip(self.component_levels, other.component_levels)])


def default_component_weights(n_components: int) -> np.ndarray:
    """Summable weights 2^-j for the blow-up extension; a single component
    (M = 0) keeps weight 1 so the unit domain is undistorted."""
    if n_components == 1:
        return np.ones(1)
    return 0.5 ** np.arange(1, n_components + 1)


def realize(base: BaseSM, model: FractalModel, M: int = 0, n_max: int = 4,
            component_weights=None, max_cells: int = 2_000_000) -> MeasureRealization:
    """Sample a measure realization on the depth-n_max tree of alpha^M E."""
    if n_max < M:
        raise MeasureError("n_max must be at least the blowup depth")
    if model.N ** n_max > max_cells:
        raise MeasureError(f"depth {n_max} needs {model.N ** n_max} cells > budget")
    n_comp = model.N ** M
    if component_weights is None:
        weights = default_component_weights(n_comp)
    else:
        weights = np.asarray(component_weights, dtype=float)
        if len(weights) != n_comp:
            raise MeasureError(f"need {n_comp} component weights")
    streams = np.random.SeedSequence(base.seed).spawn(n_comp)
    comp_levels = []
    for j in range(n_comp):
        rng = np.random.default_rng(streams[j])
        levels = _component_levels(base, rng, model.N, n_max - M)
        comp_levels.append([arr * weights[j] for arr in levels])
    return MeasureRealization(model, base, M, n_max, weights, comp_levels)


def integrate(g, real: MeasureRealization, n: int, anchor_rule: int = 0) -> float:
    """Cell sum  sum_cells g(anchor) * mass(cell)  at depth n.

    The anchor is the cell image of one essential fixed point; g is called
    vectorized on the (N^n, d) anchor array.
    """
    from .geometry import cell_anchors

    anchors = cell_anchors(real.model, n, real.blowup, anchor_rule)
    values = np.asarray(g(anchors), dtype=float)
    if values.shape != (len(anchors),):
        raise MeasureError("g must map (K, d) points to (K,) values")
    if not np.all(np.isfinite(values)):
        raise MeasureError("g is not finite at some cell anchor")
    return float(values @ real.level_masses(n))


@dataclass(frozen=True)
class LevelIndicatorFamily:
    """The level-grouped indicator family alpha^(-(l-1) beta) 1_{depth-l cell k}.

    Term l aggregates the squared integrals over all depth-l cells; the
    integrals are exact cell masses, read from the realization.
    """

    beta: float = 0.75

    def term(self, real: MeasureRealization, l: int) -> float:
        masses = real.level_masses(l)
        return float(real.model.alpha ** (-2.0 * (l - 1) * self.beta)
                     * np.dot(masses, masses))


def lemma22_diagnostic(g_family, real: MeasureRealization, L: int, n: int,
                       anchor_rule: int = 0):
    """Partial sums of the squared-integral series for an indexed family.

    `g_family` is either a LevelIndicatorFamily (exact path, needs L <= n_max)
    or a callable l -> g_l with g_l vectorized on points (anchored cell sums at
    depth n).  Returns (partial_sums[L], plateau_flag); the plateau flag checks
    that the increment over the last half of the index range is below 1% of
    the total.
    """
    terms = np.empty(L)
    if isinstance(g_family, LevelIndicatorFamily):
        if L > real.n_max:
            raise MeasureError("LevelIndicatorFamily needs realization depth >= L")
        for l in range(1, L + 1):
            terms[l - 1] = g_family.term(real, l)
    else:
        for l in range(1, L + 1):
            v = integrate(g_family(l), real, n, anchor_rule)
            terms[l - 1] = v * v
    partial = np.cumsum(terms)
    total = partial[-1]
    if total <= 0:
        return partial, True
    increment = total - partial[max(0, math.ceil(L / 2) - 1)]
    return partial, bool(increment < 0.01 * total)


# realization text format: header comments then "word mass" lines (root = "-")

def write_realization(real: MeasureRealization, path) -> None:
    b = real.base
    atoms_s = ";".join(f"{float(x)!r}:{float(c)!r}" for x, c in b.atoms)
    header = (
        "# fractalheat measure realization v1\n"
        f"# model={real.model.name} N={real.model.N} alpha={real.model.alpha!r}\n"
        f"# base kind={b.kind} seed={b.seed} stable_index={b.stable_index!r} "
        f"random_signs={b.random_signs} atoms={atoms_s}\n"
        f"# blowup={real.blowup} n_max={real.n_max}\n"
        f"# component_weights={','.join(repr(float(w)) for w in real.component_weights)}\n")
    symbols = [str(d) for d in range(1, real.model.N + 1)]
    with _text.open_table(path, header) as f:
        for n in range(real.n_max + 1):
            # cell k of level n is the base-N word of k, most significant
            # first; the root's word is "-"
            words = ([",".join(w) + " " for w in itertools.product(symbols, repeat=n)]
                     if n else ["- "])
            _text.write_block(f, "", words, real.level_masses(n))


def read_realization(path, model: FractalModel) -> MeasureRealization:
    """Rebuild a realization from the text format (additivity re-verified)."""
    header = {}
    level_data: dict[int, dict[int, float]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        key, val = tok.split("=", 1)
                        header[key] = val
                continue
            word_s, mass_s = line.split()
            word = () if word_s == "-" else tuple(int(t) for t in word_s.split(","))
            level_data.setdefault(len(word), {})[interval_rank(word, model.N) - 1] = float(mass_s)
    if "n_max" not in header or "blowup" not in header:
        raise MeasureError("missing header fields in realization file")
    n_max, M = int(header["n_max"]), int(header["blowup"])
    weights = np.array([float(w) for w in header["component_weights"].split(",")])
    atoms_src = header.get("atoms", "")
    atoms = tuple(tuple(float(v) for v in pair.split(":"))
                  for pair in atoms_src.split(";") if pair)
    base = BaseSM(header.get("kind", "gaussian_white"), int(header.get("seed", 0)),
                  float(header.get("stable_index", 1.5)), atoms,
                  header.get("random_signs", "False") == "True")
    N = model.N
    comp_levels = []
    for comp in range(N ** M):
        levels = []
        for lev in range(n_max - M + 1):
            n = lev + M
            width = N ** lev
            arr = np.array([level_data[n][comp * width + k] for k in range(width)])
            levels.append(arr)
        comp_levels.append(levels)
    real = MeasureRealization(model, base, M, n_max, weights, comp_levels)
    if real.additivity_gap() > 1e-9:
        raise MeasureError("realization file violates parent/child additivity")
    return real
