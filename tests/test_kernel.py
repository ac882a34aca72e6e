import ast
import dataclasses
import functools
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import fractalheat.kernel as K
from fractalheat.geometry import FractalModel, build_preset, vertex_set
from fractalheat.kernel import (
    HeatKernel,
    HeatKernelTable,
    KernelError,
    KernelSizeError,
    build_generator,
    duhamel_rule,
    duhamel_weights,
    estimate_spectral_dimension,
    fit_subgaussian,
    kernel,
    log_time_grid,
    scaling_window,
    verify_holder,
)
from fractalheat.measure import BaseSM, realize
from fractalheat.paramint import HFunction, eval_eta, h_row, sigma_preset


_KERNEL_LVL2 = []


def _module_kernel():
    if not _KERNEL_LVL2:
        _KERNEL_LVL2.append(HeatKernel(build_generator(
            vertex_set(build_preset("vicsek"), 2))))
    return _KERNEL_LVL2[0]


def _cycle_generator(n):
    """Generator of the uniform walk on an n-cycle, with no vertex set."""
    P = np.zeros((n, n))
    idx = np.arange(n)
    P[idx, (idx + 1) % n] = 0.5
    P[idx, (idx - 1) % n] = 0.5
    rate = 2.0 * n * n
    return K.GeneratorMatrix(None, scipy.sparse.csr_array(rate * (P - np.eye(n))),
                             rate, "reflecting", np.arange(n), np.full(n, 1.0 / n), 0.0)


class TestGenerator:
    def test_level0_rows_sum_zero(self, vs_cache):
        gen = build_generator(vs_cache("vicsek", 0))
        assert gen.matrix.shape == (4, 4)
        assert np.allclose(gen.matrix.sum(axis=1), 0.0, atol=1e-12)
        assert gen.rate == pytest.approx(1.0)

    def test_level1_conjugated_symmetry(self, generator_cache):
        gen = generator_cache("vicsek", 1)
        assert gen.matrix.shape == (16, 16)
        W = gen.weights[:, None] * gen.matrix
        assert np.max(np.abs(W - W.T)) < 1e-12 * np.max(np.abs(W))
        assert gen.detailed_balance_gap < 1e-12

    def test_rate_scaling(self, generator_cache, vicsek):
        assert generator_cache("vicsek", 3).rate == pytest.approx(
            vicsek.time_scale ** 3)

    def test_blowup_rate_matches_cell_size(self, vicsek):
        gen = build_generator(vertex_set(vicsek, 3, M=1))
        assert gen.rate == pytest.approx(vicsek.time_scale ** 2)

    def test_size_budget_refused(self, vs_cache, monkeypatch):
        # the budget counts the entries of the dense blocks, sum n_c^2; it is
        # checked once the group is known, before any block is formed
        vs = vs_cache("vicsek", 1)
        for boundary in ("reflecting", "dirichlet"):
            gen = build_generator(vs, boundary=boundary)
            kern = HeatKernel(gen)
            sizes = kern.block_sizes
            # a block and its partner under the diagonal share one U, which
            # the budget counts once
            entries = sum(U.size for U in {id(U): U for U in kern._blocks}.values())
            assert entries < sum(n * n for n in sizes)
            monkeypatch.setattr(K, "BLOCK_ENTRY_LIMIT", entries)
            assert HeatKernel(gen).block_sizes == sizes
            monkeypatch.setattr(K, "BLOCK_ENTRY_LIMIT", entries - 1)
            with monkeypatch.context() as m:
                m.setattr(K.np.linalg, "eigh", None)         # no block is factored
                with pytest.raises(KernelSizeError, match=(
                        rf"V = {len(gen.kept)} vertices .* {entries} block entries; "
                        rf"the kernel budget is {entries - 1}")):
                    HeatKernel(gen)
        assert issubclass(KernelSizeError, KernelError)

    @pytest.mark.parametrize("name,level", [("vicsek", 2), ("vicsek", 3),
                                            ("gasket", 3), ("gasket", 5)])
    @pytest.mark.parametrize("boundary", ["reflecting", "dirichlet"])
    def test_matrix_and_gap_match_dense_construction(self, vs_cache, name,
                                                     level, boundary):
        # the generator is assembled from the edge list; the dense adjacency
        # construction and its W - W^T gap give the same bits
        vs = vs_cache(name, level)
        gen = build_generator(vs, boundary=boundary)
        V = vs.n_vertices
        A = np.zeros((V, V))
        A[vs.edges[:, 0], vs.edges[:, 1]] = 1.0
        A[vs.edges[:, 1], vs.edges[:, 0]] = 1.0
        L = gen.rate * (A / A.sum(axis=1)[:, None])
        np.fill_diagonal(L, -gen.rate)
        L = L[np.ix_(gen.kept, gen.kept)]
        assert np.array_equal(gen.matrix, L)
        W = gen.weights[:, None] * L
        gap = float(np.max(np.abs(W - W.T)) / max(np.max(np.abs(W)), 1e-300))
        assert gen.detailed_balance_gap == gap

    @pytest.mark.parametrize("name,level", [("vicsek", 2), ("gasket", 4)])
    @pytest.mark.parametrize("boundary", ["reflecting", "dirichlet"])
    def test_sparse_canonical_edges_and_diagonal(self, vs_cache, name, level,
                                                boundary):
        vs = vs_cache(name, level)
        gen = build_generator(vs, boundary=boundary)
        n_kept_edges = int(np.isin(vs.edges, gen.kept).all(axis=1).sum())
        assert gen.L.format == "csr" and gen.L.has_canonical_format
        assert gen.L.nnz == 2 * n_kept_edges + len(gen.kept)

    @pytest.mark.parametrize("boundary", ["reflecting", "dirichlet"])
    def test_build_allocates_no_dense_matrix(self, vs_cache, boundary):
        # a dense V' x V' float64 array would be 16 times this bound
        import tracemalloc

        vs = vs_cache("vicsek", 4)
        build_generator(vs_cache("vicsek", 1), boundary=boundary)  # warm imports
        tracemalloc.start()
        try:
            gen = build_generator(vs, boundary=boundary)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        V = len(gen.kept)
        assert peak < V * V * 8 / 16

    def test_dirichlet_dimension(self, vs_cache):
        vs = vs_cache("vicsek", 2)
        gen = build_generator(vs, boundary="dirichlet")
        assert gen.matrix.shape == (vs.n_vertices - 4, vs.n_vertices - 4)

    def test_unknown_boundary(self, vs_cache):
        with pytest.raises(KernelError):
            build_generator(vs_cache("vicsek", 1), boundary="absorbing")


class TestSemigroup:
    @pytest.mark.parametrize("level", [2, 3])
    def test_structure_identities(self, kernel_cache, level):
        kern = kernel_cache("vicsek", level)
        m = kern.weights
        for t in (0.05, 0.2):
            P = kern.transition(t, clip=False)
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-8
            p = P / m[None, :]
            assert np.max(np.abs(p - p.T)) < 1e-8 * p.max()
            W = m[:, None] * P
            assert np.max(np.abs(W - W.T)) < 1e-10
            assert P.min() > -1e-12

    def test_chapman_kolmogorov(self, kernel_cache):
        kern = kernel_cache("vicsek", 3)
        P1, P2, P3 = (kern.transition(t) for t in (0.1, 0.2, 0.3))
        assert np.max(np.abs(P1 @ P2 - P3)) < 1e-8

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1e-4, 0.6), st.floats(1e-4, 0.6))
    def test_semigroup_property_random_times(self, s, t):
        kern = _module_kernel()
        gap = np.max(np.abs(kern.transition(s) @ kern.transition(t)
                            - kern.transition(s + t)))
        assert gap < 1e-8

    def test_t_to_zero_identity(self, kernel_cache):
        kern = kernel_cache("vicsek", 2)
        diag = kern.diag_density(np.array([1e-9]))[0]
        assert np.allclose(diag * kern.weights, 1.0, atol=1e-6)

    def test_t_to_infinity_stationary(self, kernel_cache):
        kern = kernel_cache("vicsek", 2)
        p = kern.density(50.0)
        # reflecting walk equilibrates to density 1 / total mass (mass 1 here)
        assert np.allclose(p, 1.0, atol=1e-10)

    @pytest.mark.parametrize("call", [
        lambda k, t: k.density(t),
        lambda k, t: k.density_rows(t, [0, 3]),
        lambda k, t: k.apply(t, np.ones(k.n_vertices)),
        lambda k, t: k.apply([0.1, t], np.ones(k.n_vertices)),
        lambda k, t: k.diag_density(np.array([0.1, t])),
    ], ids=["density", "density_rows", "apply", "apply-times", "diag_density"])
    def test_negative_time_rejected(self, kernel_cache, call):
        # and times that are not finite: at +inf the reflecting kernel's zero
        # eigenvalue, +5e-14 at rounding level, would blow up
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(KernelError, match="negative time"):
                call(kernel_cache("vicsek", 2), t)

    @pytest.mark.parametrize("name,level", [("vicsek", 3), ("gasket", 4)])
    @pytest.mark.parametrize("boundary", ["reflecting", "dirichlet"])
    def test_apply_on_time_vector(self, kernel_cache, name, level, boundary):
        # one call on a vector of times is the per-time apply, row by row
        kern = kernel_cache(name, level, 0, boundary)
        v = np.random.default_rng(4).normal(size=kern.n_vertices)
        times = np.array([0.0, 1e-3, 0.05, 0.4, 2.0])
        got = kern.apply(times, v)
        want = np.stack([kern.apply(float(t), v) for t in times])
        assert got.shape == (len(times), kern.n_vertices)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("shape", [(76, 76), (76, 3), (75,), ()])
    def test_apply_refuses_what_is_not_one_vector(self, kernel_cache, shape):
        # exp(t lam) multiplies the modes along their last axis, so a (V, V)
        # block would come back scaled along the wrong axis with no error
        with pytest.raises(KernelError, match=re.escape(f"v has shape {shape}, not (76,)")):
            kernel_cache("vicsek", 2).apply(0.1, np.ones(shape))

    def test_dirichlet_mass_monotone_loss(self, vs_cache):
        kern = HeatKernel(build_generator(vs_cache("vicsek", 2), boundary="dirichlet"))
        masses = [kern.transition(t).sum(axis=1).max() for t in (0.05, 0.2, 0.8)]
        assert masses[0] < 1.0
        assert masses[0] > masses[1] > masses[2]

    def test_level_consistency(self, kernel_cache, vicsek):
        # densities at shared vertices agree within 10% across levels 3 and 4
        from scipy.spatial import cKDTree
        k3, k4 = kernel_cache("vicsek", 3), kernel_cache("vicsek", 4)
        ids = cKDTree(k4.gen.points).query(k3.gen.points)[1]
        lo, _ = scaling_window(vicsek, 3)
        ts = np.geomspace(lo, 0.17, 8)
        rel = np.abs(k3.diag_density(ts) - k4.diag_density(ts)[:, ids])
        assert (rel / k4.diag_density(ts)[:, ids]).max() < 0.10


class TestKernelTable:
    def test_grid_validation(self, generator_cache):
        gen = generator_cache("vicsek", 1)
        with pytest.raises(KernelError):
            kernel(gen, times=np.array([0.0, 0.1]))
        with pytest.raises(KernelError):
            kernel(gen, times=np.array([0.2, 0.1]))

    @pytest.mark.parametrize("times", [[0.1, math.nan], [math.nan], [0.1, math.inf],
                                       [0.1, math.nan, 0.2]], ids=str)
    def test_non_finite_times_refused(self, times):
        # NaN compares False both ways, so the sign and order tests alone pass it
        with pytest.raises(KernelError, match="finite"):
            kernel(_cycle_generator(16), times=times)

    def test_no_default_grid_without_vertex_set(self):
        with pytest.raises(KernelError, match="pass times"):
            kernel(_cycle_generator(16))

    def test_invariants_report(self, generator_cache):
        tab = kernel(generator_cache("vicsek", 2))
        rep = tab.kernel.invariant_gaps(tab.times[len(tab.times) // 2])
        assert rep["row_sum_gap"] < 1e-8
        assert rep["density_symmetry_gap"] < 1e-8
        assert rep["min_entry"] > -1e-12

    def test_csv_export(self, generator_cache, tmp_path):
        tab = kernel(generator_cache("vicsek", 1), times=np.array([0.05, 0.1]))
        path = tmp_path / "k.csv"
        tab.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x_id,y_id,density"
        assert len(lines) == 1 + 2 * 16 * 16

    def test_binary_export_layout(self, generator_cache, tmp_path):
        tab = kernel(generator_cache("vicsek", 1), times=np.array([0.05, 0.1]))
        path = tmp_path / "k.bin"
        tab.to_binary(path)
        raw = np.fromfile(path, dtype=np.float64)
        header = np.fromfile(path, dtype=np.int64, count=4)
        assert header[0] == 0x46484b54 and header[1] == 1 and header[2] == 16
        times = raw[4:6]
        assert np.allclose(times, [0.05, 0.1])
        P0 = raw[6:6 + 256].reshape(16, 16)
        assert np.allclose(P0, tab.transition(0.05))

    def test_binary_blocks_at_tiny_grid_times(self, generator_cache, tmp_path):
        # 1e-10 and 5e-9 are within the default atol of np.isclose; each block
        # must still be the P(t) of its own time
        tab = kernel(generator_cache("vicsek", 1), times=np.array([1e-10, 5e-9]))
        want = tab.kernel.transition(5e-9)
        assert np.array_equal(tab.transition(5e-9), want)
        path = tmp_path / "k.bin"
        tab.to_binary(path)
        raw = np.fromfile(path, dtype=np.float64)
        assert np.array_equal(raw[6 + 256:].reshape(16, 16), want)


class TestSpectralDimension:
    def test_vicsek_level3(self, table_cache, vicsek):
        est = estimate_spectral_dimension(table_cache("vicsek", 3))
        assert abs(est.d_s - vicsek.d_s) <= 0.06

    def test_gasket_blowup(self, table_cache, gasket):
        est = estimate_spectral_dimension(table_cache("gasket", 6, 2))
        assert abs(est.d_s - gasket.d_s) <= 0.06

    def test_window_too_narrow(self, table_cache):
        tab = table_cache("vicsek", 3)
        with pytest.raises(KernelError):
            estimate_spectral_dimension(tab, window=(0.05, 0.1))

    def test_uniform_cycle_control(self):
        # Euclidean control: a 200-cycle diffusion has d_s = 1
        n = 200
        gen = _cycle_generator(n)
        rate = gen.rate
        kern = HeatKernel(gen)
        ts = np.geomspace(10 / rate, 0.02, 40)
        tab = HeatKernelTable(kern, ts, kern.diag_density(ts), None)
        est = estimate_spectral_dimension(tab, window=(10 / rate, 0.02),
                                          interior=np.arange(n))
        assert abs(est.d_s - 1.0) < 0.05

    @pytest.mark.parametrize("given", [{}, {"window": (0.01, 0.1)},
                                       {"interior": np.arange(64)}],
                             ids=["neither", "window only", "interior only"])
    def test_without_vertex_set_needs_window_and_interior(self, given):
        gen = _cycle_generator(64)
        kern = HeatKernel(gen)
        ts = np.geomspace(0.001, 0.2, 20)
        tab = HeatKernelTable(kern, ts, kern.diag_density(ts), None)
        with pytest.raises(KernelError, match="vertex set"):
            estimate_spectral_dimension(tab, **given)


class TestHolder:
    def test_exponent_and_c1(self, table_cache, vicsek):
        fit = verify_holder(table_cache("vicsek", 3), vicsek, seed=1)
        # exact target d_w - d_f = 1; the acceptance threshold is 0.9 at level 4
        assert fit.exponent >= 0.8
        assert np.isfinite(fit.c1) and fit.c1 > 0
        c1s = [c for *_, c in fit.per_time]
        assert max(c1s) <= 2.0 * min(c1s)

    def test_exact_exponent_identity(self, vicsek):
        assert math.isclose(vicsek.d_w - vicsek.d_f, 1.0, rel_tol=1e-12)

    def test_level_too_low(self, table_cache, vicsek):
        with pytest.raises(KernelError):
            verify_holder(table_cache("vicsek", 1), vicsek)

    def test_dirichlet_pairs_stay_aligned(self, kernel_cache, vicsek):
        # Dirichlet drops the outer corners: a pair touching one goes as a
        # whole and every other pair keeps its partner.  Replays the sampling
        # of verify_holder with the aligned pairs and compares counts and slopes.
        kern = kernel_cache("vicsek", 3, 0, "dirichlet")
        times = np.array([0.01, 0.1])
        tab = HeatKernelTable(kern, times, kern.diag_density(times), None)
        fit = verify_holder(tab, vicsek, times=times, seed=4)
        # the reflecting generator keeps every vertex, so its sample is the
        # raw vertex-set ids, drawn from the same random stream
        rng = np.random.default_rng(4)
        pairs, _ = K._holder_pairs(kernel_cache("vicsek", 3).gen, rng, 60)
        pos = {v: i for i, v in enumerate(kern.gen.kept)}
        pa, pb = np.array([(pos[a], pos[b]) for a, b in pairs
                           if a in pos and b in pos]).T
        assert len(pa) < len(pairs)       # the sample does touch the boundary
        dist = np.linalg.norm(kern.gen.points[pa] - kern.gen.points[pb], axis=1)
        pa, pb, dist = pa[dist > 0], pb[dist > 0], dist[dist > 0]
        xs = rng.choice(np.arange(kern.n_vertices), size=24, replace=False)
        used = 0
        for t, slope, _ in fit.per_time:
            rows = kern.density_rows(t, xs, clip=False)
            dp = np.abs(rows[:, pa] - rows[:, pb])
            mask = dp > 1e-13 * rows.max()
            used += int(mask.sum())
            ld = np.log(np.broadcast_to(dist, dp.shape)[mask])
            assert slope == pytest.approx(np.polyfit(ld, np.log(dp[mask]), 1)[0],
                                          abs=1e-12)
        assert fit.n_pairs == used


def _recorded(source):
    """source, and the list of the node arrays it is called with."""
    calls = []

    def wrapped(s):
        calls.append(np.array(s))
        return source(s)
    return wrapped, calls


def _grid_nodes(grid):
    """The Gauss nodes of every step of a grid, in grid order."""
    theta, _ = duhamel_rule(K.DUHAMEL_ORDER)
    return np.concatenate([a + (b - a) * theta for a, b in zip(grid[:-1], grid[1:])])


def _per_step_duhamel(kern, grid, source, fields=None):
    """The Duhamel integral on every grid time, (K, V, C), with one
    contraction per grid step: the rule's reference order of operations."""
    nodes, (rules, which) = kern._duhamel_steps(grid)
    P, V = nodes.shape[1], kern.n_vertices
    g = np.asarray(source(nodes.ravel()), dtype=float)
    if fields is None:
        cols = np.moveaxis(g.reshape(len(g), V, -1), 0, 1)
    else:
        coef, Q = K._factor_rows(g)
        cols = Q.T[:, :, None] * fields[:, None, :]
    ghat = kern._to_modes(np.ascontiguousarray(cols.reshape(V, -1))).reshape(cols.shape)
    accs = [np.zeros((V, ghat.shape[2] if fields is None else coef.shape[1]))]
    for i, k in enumerate(which):
        E, W = rules[k]
        span = slice(i * P, (i + 1) * P)
        added = (np.einsum("kr,krc->kc", W, ghat[:, span]) if fields is None
                 else W @ coef[span])
        accs.append(E[:, None] * accs[-1] + added)
    kept = np.stack(accs, axis=1)
    if fields is not None:
        kept = np.einsum("kjr,krc->kjc", kept, ghat)
    out = kern._from_modes(kept.reshape(V, -1))
    return np.moveaxis(out.reshape(V, *kept.shape[1:]), 0, 1)


class TestDuhamel:
    @pytest.mark.parametrize("z", [0.0, 1e-10, -1e-10, -1e-3, -1.0, -50.0, -1e4])
    @pytest.mark.parametrize("order", [K.DUHAMEL_ORDER, 12])
    def test_weights_match_adaptive_quadrature(self, z, order):
        from scipy.integrate import quad
        from scipy.interpolate import BarycentricInterpolator

        theta, _ = duhamel_rule(order)
        W = duhamel_weights([z], order)[0]
        for j in range(order):
            basis = BarycentricInterpolator(theta, np.eye(order)[j])
            if z < -10:
                # substitute u = |z| (1 - theta): the mass sits in u = O(1)
                a = -z
                ref = quad(lambda u: math.exp(-u) * basis(1 - u / a), 0, a,
                           points=[1, 10, 40], limit=200, epsabs=1e-16)[0] / a
            else:
                ref = quad(lambda x: math.exp(z * (1 - x)) * basis(x), 0, 1,
                           epsabs=1e-16)[0]
            assert W[j] == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_constant_source_gives_t(self, kernel_cache):
        # the reflecting semigroup conserves constants
        kern = kernel_cache("vicsek", 3)
        grid = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 9)])
        out = kern.duhamel(grid, lambda s: np.ones((len(s), kern.n_vertices)))
        assert np.abs(out - grid[:, None]).max() < 1e-12

    def test_eigenmode_identity(self, kernel_cache):
        # g(s) = exp(mu s) phi_k with L phi_k = lam_k phi_k integrates to
        # (exp(mu t) - exp(lam_k t)) / (mu - lam_k) phi_k; stiff and slow modes
        kern = kernel_cache("vicsek", 3)
        ks = [0, 5, kern.n_vertices // 2, kern.n_vertices - 1]
        phi = kern.B[:, ks]
        lam = kern.eigenvalues[ks]
        mu = 2.0
        grid = np.linspace(0.0, 1.0, 17)
        out = kern.duhamel(grid, lambda s: np.exp(mu * s)[:, None, None] * phi[None])
        want = ((np.exp(mu * grid)[:, None] - np.exp(np.outer(grid, lam)))
                / (mu - lam))[:, None, :] * phi[None]
        assert np.abs(out - want).max() < 1e-11 * np.abs(phi).max()

    def test_rows_and_weight_form_agree(self, kernel_cache):
        kern = kernel_cache("vicsek", 2)
        rng = np.random.default_rng(0)
        coef = rng.normal(size=(3, kern.n_vertices))

        def source(s):
            return np.cos(np.outer(s, [1.0, 2.0, 3.0])) @ coef

        grid = np.array([0.0, 0.05, 0.3, 0.31])
        counted, calls = _recorded(source)
        full = kern.duhamel(grid, counted)
        assert full.shape == (len(grid), kern.n_vertices)
        # with fields diag(1/m), column y of the separable form is the source
        # at y alone; summed against the vertex weights, it is the last row
        last, per_y = [len(grid) - 1], np.diag(1.0 / kern.weights)
        pairs = kern.duhamel(grid, counted, fields=per_y, at=last)[0]
        # each form samples the source once, at every node of the grid
        assert len(calls) == 2
        for nodes in calls:
            assert np.array_equal(nodes, _grid_nodes(grid))
        assert pairs.shape == (kern.n_vertices, kern.n_vertices)
        assert np.abs(pairs @ kern.weights - full[-1]).max() < 1e-13

    def test_separable_form_matches_per_node(self, kernel_cache):
        # g(s, y, c) = a(s, y) fields[y, c] with a of rank 2 in (s, y)
        kern = kernel_cache("vicsek", 2)
        rng = np.random.default_rng(1)
        modes = rng.normal(size=(2, kern.n_vertices))
        fields = rng.normal(size=(kern.n_vertices, 3))

        def values(s):
            return np.stack([np.ones_like(s), np.sin(3.0 * s)], axis=1) @ modes

        grid = np.array([0.0, 0.05, 0.3, 0.31, 0.7])
        per_node, per_node_calls = _recorded(lambda s: values(s)[:, :, None] * fields[None])
        ref = kern.duhamel(grid, per_node)
        at = [4, 1, 1]
        separable, separable_calls = _recorded(values)
        got = kern.duhamel(grid, separable, fields=fields, at=at)
        for calls in (per_node_calls, separable_calls):
            assert len(calls) == 1
            assert np.array_equal(calls[0], _grid_nodes(grid))
        assert got.shape == (3, kern.n_vertices, 3)
        assert np.abs(got - ref[at]).max() < 1e-14 * np.abs(ref).max()

    def test_factor_rows(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(40, 3)) @ rng.normal(size=(3, 25))
        ref = a.copy()
        coef, q = K._factor_rows(a)
        assert q.shape == (3, 25) and np.shares_memory(q, a)
        assert np.abs(q @ q.T - np.eye(3)).max() < 1e-15 * 25
        assert np.abs(coef @ q - ref).max() < 1e-14 * np.abs(ref).max()
        wide = rng.normal(size=(5, 9))          # full rank, Fortran order: copied
        coef, q = K._factor_rows(np.asfortranarray(wide))
        assert q.shape == (5, 9)
        assert np.abs(coef @ q - wide).max() < 1e-14 * np.abs(wide).max()
        coef, q = K._factor_rows(np.zeros((8, 5)))
        assert coef.shape == (8, 0) and q.shape == (0, 5)
        with pytest.raises(KernelError):
            K._factor_rows(np.full((8, 5), np.inf))

    def test_rule_is_computed_once(self):
        first, second = duhamel_rule(K.DUHAMEL_ORDER), duhamel_rule(K.DUHAMEL_ORDER)
        x, w = np.polynomial.legendre.leggauss(K.DUHAMEL_ORDER)
        for a, b, want in zip(first, second, (0.5 * (x + 1.0), 0.5 * w)):
            assert a is b and not a.flags.writeable
            assert np.array_equal(a, want)

    @pytest.mark.parametrize("grid", [np.linspace(0.0, 1.0, 9),
                                      np.array([0.0, 0.125, 0.25, 0.5, 0.625, 0.75, 1.0]),
                                      np.linspace(0.0, 1.0, 101)])
    def test_one_contraction_per_step_length(self, kernel_cache, grid):
        # grouped by step length, the steps give the per-step rule's bits, for
        # (S P, V, C) samples of either memory order and the separable form
        kern = kernel_cache("vicsek", 2)
        rng = np.random.default_rng(3)
        modes = rng.normal(size=(3, kern.n_vertices))
        fields = rng.normal(size=(kern.n_vertices, 2))

        def values(s):
            return np.cos(np.outer(s, [1.0, 2.0, 5.0])) @ modes

        def c_order(s):
            return values(s)[:, :, None] * fields[None]

        def column_major(s):
            return np.asfortranarray(c_order(s))

        _, (rules, _) = kern._duhamel_steps(grid)
        assert len(rules) == len(np.unique(np.diff(grid)))
        want = _per_step_duhamel(kern, grid, c_order)
        assert np.array_equal(kern.duhamel(grid, c_order), want)
        assert np.array_equal(kern.duhamel(grid, column_major), want)
        assert np.array_equal(kern.duhamel(grid, values, fields=fields),
                              _per_step_duhamel(kern, grid, values, fields))

    def test_grid_must_increase(self, kernel_cache):
        kern = kernel_cache("vicsek", 2)
        with pytest.raises(KernelError):
            kern.duhamel([0.0, 0.2, 0.2], lambda s: np.ones((len(s), kern.n_vertices)))


class TestSubgaussian:
    def test_fit_reports(self, table_cache, vicsek):
        fit = fit_subgaussian(table_cache("vicsek", 3), vicsek, seed=2)
        assert fit.d_J > 1
        assert fit.c1 > 0 and fit.c2 > 0 and fit.c3 > 0
        assert fit.envelope_fraction >= 0.95

    def test_diag_consistency_with_envelope(self, table_cache, vicsek):
        # at |x-y| = 0 the bound reduces to c2 t^{-d_s/2}; the inflated
        # envelope must sit above the on-diagonal data in the fit window
        tab = table_cache("vicsek", 3)
        fit = fit_subgaussian(tab, vicsek, seed=2)
        t_lo, t_hi = fit.time_range
        mask = (tab.times >= t_lo) & (tab.times <= t_hi)
        diag_scaled = tab.diag[mask] * tab.times[mask, None] ** (vicsek.d_s / 2)
        envelope_c2 = fit.c2 * math.exp(fit.max_residual)
        assert diag_scaled.max() <= envelope_c2 * (1 + 1e-9)

    @pytest.mark.parametrize("name,level", [("vicsek", 3), ("gasket", 5)])
    def test_fit_ignores_rounding_level_densities(self, table_cache, monkeypatch,
                                                  name, level):
        # densities at the rounding level of the spectral sums carry no tail:
        # moving every one by +-5e-15 leaves the fitted constants in place
        tab = table_cache(name, level)
        holder = verify_holder(tab)
        ref = fit_subgaussian(tab, holder=holder)
        rows, rng = tab.kernel.density_rows, np.random.default_rng(0)

        def moved(t, ids, clip=True):
            out = rows(t, ids, clip)
            return out + 5e-15 * rng.choice([-1.0, 1.0], size=out.shape)

        monkeypatch.setattr(tab.kernel, "density_rows", moved)
        fit = fit_subgaussian(tab, holder=holder)
        for key in ("c2", "c3", "d_J"):
            assert getattr(fit, key) == pytest.approx(getattr(ref, key), rel=1e-4), key


def test_scaling_window_values(vicsek):
    lo, hi = scaling_window(vicsek, 4)
    assert lo == pytest.approx(10 * 15.0 ** -4)
    assert hi == 0.5
    lo_b, _ = scaling_window(vicsek, 4, blowup=1)
    assert lo_b == pytest.approx(10 * 15.0 ** -3)


def test_log_time_grid_density():
    g = log_time_grid(1e-3, 1.0, 20)
    assert len(g) == 61
    assert np.allclose(np.diff(np.log10(g)), np.diff(np.log10(g))[0])


@pytest.mark.parametrize("t_lo,t_hi,per_decade", [
    (0.1, 1.0, 0), (0.1, 1.0, -5), (1.0, 0.1, 20), (0.5, 0.5, 20),
    (0.0, 1.0, 20), (-1.0, 1.0, 20), (0.1, math.inf, 20), (math.nan, 1.0, 20),
    (0.1, math.nan, 20)])
def test_log_time_grid_refuses_grids_nobody_asked_for(t_lo, t_hi, per_decade):
    with pytest.raises(KernelError, match="log time grid"):
        log_time_grid(t_lo, t_hi, per_decade)


def _plain_eigh(gen):
    """Plain eigh of the dense symmetrized S: (S, lam, B).  On scipy's evd,
    the same LAPACK routine as the kernel's numpy eigh from a second LAPACK
    build, so it stays an independent oracle."""
    sm = np.sqrt(gen.weights)
    S = (sm[:, None] * gen.matrix) / sm[None, :]
    S = 0.5 * (S + S.T)
    lam, U = scipy.linalg.eigh(S, driver="evd")
    return S, lam, U / sm[:, None]


def _one_block_kernel(gen, monkeypatch):
    """The kernel with the reflection group forced trivial: one block, the
    plain eigh of S (test_trivial_group_is_plain_eigh)."""
    with monkeypatch.context() as m:
        m.setattr(K, "_reflection_group",
                  lambda gen: (np.arange(len(gen.weights))[None, :], None))
        return HeatKernel(gen)


# (model, level, blow-up, order of the reflection group): Z2 x Z2 on Vicsek,
# Z2 on the gasket, Z2^3 on the 3D Vicsek set; ids without the order
_BLOCK_CASES = [pytest.param(*case, id="-".join(map(str, case[:3]))) for case in [
    ("vicsek", 2, 0, 4), ("vicsek", 3, 0, 4), ("vicsek", 2, 1, 4),
    ("gasket", 3, 0, 2), ("gasket", 4, 0, 2), ("gasket", 5, 0, 2),
    ("gasket", 4, 1, 2), ("vicsek3d", 1, 0, 8), ("vicsek3d", 2, 0, 8)]]
# nine maps of ratio 1/3: the cube's corners and centre (d_s = 4/3)
_VICSEK_3D = FractalModel(
    "vicsek3d", 3.0, np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                               for z in (0.0, 1.0)] + [[0.5, 0.5, 0.5]]), 4 / 3)


@functools.lru_cache(maxsize=None)
def _vicsek3d_kernel(level, boundary):
    return HeatKernel(build_generator(vertex_set(_VICSEK_3D, level), boundary))


def _case_kernel(kernel_cache, name, level, blowup, boundary):
    if name == "vicsek3d":
        return _vicsek3d_kernel(level, boundary)
    return kernel_cache(name, level, blowup, boundary)


class TestSymmetryBlocks:
    @pytest.mark.parametrize("name,level,blowup,order", _BLOCK_CASES)
    @pytest.mark.parametrize("boundary", ["reflecting", "dirichlet"])
    def test_blocks_factor_s(self, kernel_cache, name, level, blowup, order, boundary):
        kern = _case_kernel(kernel_cache, name, level, blowup, boundary)
        S, lam, _ = _plain_eigh(kern.gen)
        V = kern.n_vertices
        # character c's span is the range of the projector
        # P_c = (1/|G|) sum_e chi_c(e) g_e, so its size is the trace: chi_c
        # against the fixed-point counts.  A span the extra reflection D maps
        # onto itself splits into the +1 and -1 halves of D, of sizes
        # (n_c +- trace(D P_c)) / 2; one D maps onto another span stays whole
        perms, flip = K._reflection_group(kern.gen)
        assert len(perms) == order and (flip is None) == (name == "gasket")
        chi = (-1) ** np.array([[bin(e & c).count("1") for e in range(order)]
                                for c in range(order)])
        fixed = (perms == np.arange(V)).sum(axis=1)
        sizes = [[n] for n in chi @ fixed // order]
        if flip is not None:
            conj = [next(k for k, h in enumerate(perms) if np.array_equal(flip[g[flip]], h))
                    for g in perms]                       # D g_e D = g_conj[e]
            trace = chi @ (flip[perms] == np.arange(V)).sum(axis=1) // order
            for c, (n,) in enumerate(list(sizes)):
                if np.array_equal(chi[c, conj], chi[c]):
                    sizes[c] = [(n + trace[c]) // 2, (n - trace[c]) // 2]
        assert kern.block_sizes == tuple(n for block in sizes for n in block)
        assert sum(kern.block_sizes) == V
        assert (np.abs(np.sort(kern.eigenvalues) - lam).max()
                <= 1e-12 * np.abs(lam).max())
        U = kern.B * np.sqrt(kern.weights)[:, None]
        eps = np.finfo(float).eps
        assert (np.linalg.norm(S @ U - U * kern.eigenvalues)
                <= V * eps * np.linalg.norm(S))
        assert np.abs(U.T @ U - np.eye(V)).max() <= V * eps

    @pytest.mark.parametrize("name,level,blowup,order", _BLOCK_CASES)
    @pytest.mark.parametrize("boundary", ["reflecting", "dirichlet"])
    def test_operators_match_one_block(self, kernel_cache, monkeypatch, name,
                                       level, blowup, order, boundary):
        kern = _case_kernel(kernel_cache, name, level, blowup, boundary)
        ref = _one_block_kernel(kern.gen, monkeypatch)
        V = kern.n_vertices

        def close(a, b):
            return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

        ids = [0, V // 3, V - 1]
        rng = np.random.default_rng(3)
        v = rng.normal(size=V)
        times = np.array([1e-3, 0.05, 0.4])
        for t in times:
            for rows in (ids, V // 3, slice(None)):
                assert close(kern.density_rows(t, rows, clip=False),
                             ref.density_rows(t, rows, clip=False))
            assert close(kern.apply(t, v), ref.apply(t, v))
        assert close(kern.apply(times, v), ref.apply(times, v))
        assert close(kern.diag_density(times), ref.diag_density(times))
        # one scale for all pairs: the on-diagonal pair sets it, as in a row
        got, want = (np.stack([k.pair_density(times, i, j) for i, j in
                               ((0, V - 1), (V // 3, 0), (V // 3, V // 3))])
                     for k in (kern, ref))
        assert close(got, want)
        grid = np.array([0.0, 0.05, 0.3, 0.31, 0.7])
        fields = rng.normal(size=(V, 2))
        modes = rng.normal(size=(2, V))

        def per_node(s):
            return np.sin(s)[:, None, None] * fields[None]

        def separable(s):
            return np.cos(np.outer(s, [1.0, 3.0])) @ modes

        assert close(kern.duhamel(grid, per_node), ref.duhamel(grid, per_node))
        assert close(kern.duhamel(grid, separable, fields=fields)[:, ids],
                     ref.duhamel(grid, separable, fields=fields)[:, ids])
        model = kern.model
        real = realize(BaseSM("gaussian_white", seed=2), model, M=blowup,
                       n_max=level + 1)
        sigma = sigma_preset("smooth", model)
        got, want = (eval_eta(HFunction(k, sigma, strict=False), real,
                              [0.25, 1.0], level + 1).partial for k in (kern, ref))
        assert close(got, want)
        got, want = (h_row(HFunction(k, sigma, strict=False), 0.3, V // 3)
                     for k in (kern, ref))
        assert close(got, want)

    def test_trivial_group_is_plain_eigh(self, generator_cache, monkeypatch):
        # one block is S itself, bit for bit
        gen = generator_cache("vicsek", 2)
        _, lam, B = _plain_eigh(gen)
        ref = _one_block_kernel(gen, monkeypatch)
        assert ref.block_sizes == (gen.matrix.shape[0],)
        assert np.array_equal(ref.eigenvalues, lam)
        assert np.array_equal(ref.B, B)

    @pytest.mark.parametrize("make", [
        lambda: _cycle_generator(200),
        lambda: build_generator(vertex_set(FractalModel(
            "scalene", 2.0, [[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]],
            math.log(9) / math.log(5)), 3)),
    ], ids=["cycle-without-vertex-set", "scalene-triangle"])
    def test_no_verified_symmetry_is_plain_eigh(self, make):
        gen = make()
        kern = HeatKernel(gen)
        _, lam, B = _plain_eigh(gen)
        assert kern.block_sizes == (gen.matrix.shape[0],)
        assert np.array_equal(kern.eigenvalues, lam)
        assert np.array_equal(kern.B, B)

    def test_broken_reflections_are_dropped(self, generator_cache):
        # a reflection survives a changed weight only if it fixes the vertex:
        # on the main diagonal that leaves the reflection in it, off every
        # symmetry line the trivial group
        gen = generator_cache("vicsek", 2)
        x, y = gen.points.T
        lines = np.isclose(x, 0.5) | np.isclose(y, 0.5) | np.isclose(x, 1.0 - y)
        main = int(np.flatnonzero(np.isclose(x, y) & ~lines)[0])
        generic = int(np.flatnonzero(~lines & ~np.isclose(x, y))[0])
        assert len(K._reflection_group(gen)[0]) == 4
        for changed, n_blocks in ((main, 2), (generic, 1)):
            weights = gen.weights.copy()
            weights[changed] *= 1.0 + 1e-15
            broken = dataclasses.replace(gen, weights=weights)
            group, flip = K._reflection_group(broken)
            assert flip is None
            assert len(group) == n_blocks
            assert (group[:, changed] == changed).all()
            kern = HeatKernel(broken)
            assert len(kern.block_sizes) == n_blocks
            assert sum(kern.block_sizes) == len(weights)
        # a changed generator entry breaks them the same way
        matrix = gen.matrix.copy()
        matrix[main, matrix[main] > 0] *= 1.0 + 1e-15
        broken = dataclasses.replace(gen, L=scipy.sparse.csr_array(matrix))
        group, flip = K._reflection_group(broken)
        assert len(group) == 2 and (group[:, main] == main).all() and flip is None

    def test_broken_diagonals_leave_four_blocks(self, generator_cache):
        # a weight changed alike on one orbit of Rx and Ry, whose diagonal
        # images lie outside it, keeps Z2 x Z2 but breaks both diagonal
        # reflections: no D, and the four character blocks of the group
        gen = generator_cache("vicsek", 2)
        x, y = gen.points.T
        lines = (np.isclose(x, 0.5) | np.isclose(y, 0.5) | np.isclose(x, y)
                 | np.isclose(x, 1.0 - y))
        group, flip = K._reflection_group(gen)
        orbit = group[:, np.flatnonzero(~lines)[0]]
        assert flip is not None and not np.isin(flip[orbit], orbit).any()
        weights = gen.weights.copy()
        weights[orbit] *= 1.0 + 1e-15
        broken = dataclasses.replace(gen, weights=weights)
        kept, flip = K._reflection_group(broken)
        assert np.array_equal(kept, group) and flip is None
        chi = (-1) ** np.array([[bin(e & c).count("1") for e in range(4)] for c in range(4)])
        fixed = (group == np.arange(len(weights))).sum(axis=1)
        assert HeatKernel(broken).block_sizes == tuple(chi @ fixed // 4)

    @pytest.mark.parametrize("name,level", [("vicsek", 3), ("vicsek3d", 2)])
    def test_paired_blocks_share_one_factor(self, kernel_cache, name, level):
        # D maps the span of one character onto another's, so the second
        # block is the first reflected: one U, equal eigenvalues, and its
        # columns of B are the first's with the rows permuted by D
        kern = _case_kernel(kernel_cache, name, level, 0, "reflecting")
        _, flip = K._reflection_group(kern.gen)
        first = {}
        pairs = []
        for U, span in zip(kern._blocks, kern._spans):
            if id(U) in first:
                pairs.append((first[id(U)], span))
            first.setdefault(id(U), span)
        assert len(pairs) == {"vicsek": 1, "vicsek3d": 2}[name]
        assert len(first) == len(kern._blocks) - len(pairs)
        B = kern.B
        for a, b in pairs:
            assert np.array_equal(kern.eigenvalues[a], kern.eigenvalues[b])
            assert np.array_equal(B[:, b], B[flip][:, a])

    def test_gasket_keeps_two_blocks(self, kernel_cache):
        # in D3 no reflection normalizes the Z2 of another, so there is no
        # D and the gasket is factored as before: one block per character
        kern = kernel_cache("gasket", 5)
        group, flip = K._reflection_group(kern.gen)
        assert len(group) == 2 and flip is None
        assert len(kern.block_sizes) == 2

    def test_block_sizes_read_only(self, kernel_cache):
        kern = kernel_cache("gasket", 3)
        assert isinstance(kern.block_sizes, tuple)
        with pytest.raises(AttributeError):
            kern.block_sizes = (42,)


class TestSpectralSeam:
    def test_only_kernel_module_touches_spectral_form(self):
        # B and the eigenvalues stay behind HeatKernel's methods, so another
        # backend can replace the dense spectral form inside kernel.py alone
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "fractalheat"
        touches = {}
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and node.attr in ("B", "eigenvalues")]
            if lines:
                touches[path.name] = lines
        assert "kernel.py" in touches      # the scan does see the owner
        assert {name: lines for name, lines in touches.items()
                if name != "kernel.py"} == {}

    def test_no_module_reads_the_dense_generator(self):
        # GeneratorMatrix.matrix assembles L densely on each access; the
        # library works on the sparse L alone
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src" / "fractalheat"
        reads = {}
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "matrix"]
            if lines:
                reads[path.name] = lines
        assert reads == {}

    def test_no_operator_reads_the_dense_basis(self):
        # HeatKernel.B assembles the dense V' x V' basis on each access; the
        # operators work through the block transforms alone
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "src" / "fractalheat" / "kernel.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        cls = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "HeatKernel")
        methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
        assert "B" in methods and "duhamel" in methods    # the scan sees the class
        reads = {}
        for name, node in methods.items():
            lines = [sub.lineno for sub in ast.walk(node)
                     if isinstance(sub, ast.Attribute) and sub.attr == "B"
                     and isinstance(sub.value, ast.Name) and sub.value.id == "self"]
            if lines and name != "B":
                reads[name] = lines
        assert reads == {}

    def test_kernel_holds_no_square_array(self, kernel_cache):
        # the five distinct blocks of six hold about V^2 / 8 entries on
        # Vicsek; nothing the kernel keeps, after every operator has run, is
        # V x V
        kern = kernel_cache("vicsek", 3)
        V = kern.n_vertices
        grid = np.linspace(0.0, 0.2, 5)
        kern.duhamel(grid, lambda s: np.ones((len(s), V)))
        kern.duhamel(grid, lambda s: np.ones((len(s), V)),
                     fields=np.diag(1.0 / kern.weights), at=[len(grid) - 1])
        kern.apply(0.1, np.ones(V))
        kern.density_rows(0.1, [0, 1])
        kern.diag_density(grid[1:])
        sizes, seen, todo = [], set(), [kern]
        while todo:
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                sizes.append(obj.size)
            elif scipy.sparse.issparse(obj):
                sizes.append(obj.nnz)
            elif isinstance(obj, (list, tuple)):
                todo.extend(obj)
            elif isinstance(obj, dict):
                todo.extend(obj.values())
            elif hasattr(obj, "__dict__"):
                todo.extend(vars(obj).values())
        distinct = {id(U): U for U in kern._blocks}.values()
        assert len(kern._blocks) == 6 and len(distinct) == 5
        assert sum(U.size for U in distinct) < V * V / 7
        assert max(sizes) < V * V


def _called_name(func):
    return getattr(func, "id", getattr(func, "attr", None))


def _init_fields(cls):
    """Init fields of a @dataclass class node, in constructor order, as
    (name, has default); None for any other class."""
    if not any(_called_name(getattr(d, "func", d)) == "dataclass"
               for d in cls.decorator_list):
        return None
    out = []
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        value = node.value
        if (isinstance(value, ast.Call) and _called_name(value.func) == "field"
                and any(k.arg == "init" and getattr(k.value, "value", True) is False
                        for k in value.keywords)):
            continue
        out.append((node.target.id, value is not None))
    return out


class TestDefaultsInUse:
    def test_every_default_is_set_by_some_call(self):
        # a default that no call in src/, tests/ or perfbench/ ever sets is a
        # fixed value dressed as an option.  It covers function parameters and
        # the init fields of dataclasses, where a positional constructor
        # argument sets the field in its place.  Calls are matched by name; a
        # *args or **kwargs splat counts as setting everything, and names
        # starting with "_" bind closure values, not options
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
                 for folder in ("src/fractalheat", "tests", "perfbench")
                 for path in sorted((root / folder).glob("*.py"))}
        # a conftest fixture returning a cached builder: calling the fixture
        # calls the builder
        alias = {fn.name: fn.body[-1].value.id
                 for fn in trees[root / "tests" / "conftest.py"].body
                 if isinstance(fn, ast.FunctionDef) and isinstance(fn.body[-1], ast.Return)
                 and isinstance(fn.body[-1].value, ast.Name)}
        calls = {}          # called name -> [(positional count, keywords, splat)]
        for tree in trees.values():
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func, args = node.func, node.args
                if _called_name(func) == "partial" and args:
                    func, args = args[0], args[1:]
                name = alias.get(_called_name(func), _called_name(func))
                splat = (any(isinstance(a, ast.Starred) for a in args)
                         or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    (len(args), {k.arg for k in node.keywords}, splat))
        options = []        # (where, called name, positional names, defaulted names)
        for path, tree in trees.items():
            if path.parent.name != "fractalheat":
                continue
            defs = [(None, node) for node in tree.body]
            defs += [(node.name, fn) for node in tree.body
                     if isinstance(node, ast.ClassDef) for fn in node.body]
            for owner, fn in defs:
                if isinstance(fn, ast.ClassDef) and _init_fields(fn) is not None:
                    fields = _init_fields(fn)
                    options.append((f"{path.name}:{fn.name}", fn.name,
                                    [f for f, _ in fields], [f for f, d in fields if d]))
                if not isinstance(fn, ast.FunctionDef):
                    continue
                a = fn.args
                pos = [p.arg for p in a.posonlyargs + a.args][owner is not None:]
                named = pos[len(pos) - len(a.defaults):] if a.defaults else []
                named += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
                qual = f"{owner}.{fn.name}" if owner else fn.name
                options.append((f"{path.name}:{qual}",
                                owner if fn.name == "__init__" else fn.name, pos, named))
        unset = []
        for where, called, pos, named in options:
            for p in named:
                i = pos.index(p) if p in pos else math.inf     # keyword-only
                if not p.startswith("_") and not any(
                        p in kw or splat or i < n for n, kw, splat in calls.get(called, [])):
                    unset.append(f"{where}({p})")
        assert not unset, "defaults no call sets:\n" + "\n".join(unset)
