import math

import numpy as np
import pytest

from fractalheat.geometry import CellAddress, build_preset, cell_anchors, vertex_set
from fractalheat.kernel import HeatKernel, build_generator
from fractalheat.measure import BaseSM, integrate, realize
from fractalheat.paramint import (
    HFunction,
    ParamIntegralError,
    SigmaFunction,
    estimate_h_holder,
    eval_eta,
    eval_h,
    h_matrix,
    h_row,
    path_regularity_report,
    quad_nodes,
    sigma_preset,
)


@pytest.fixture(scope="module")
def hf2(kernel_cache, vicsek):
    return HFunction(kernel_cache("vicsek", 2), sigma_preset("smooth", vicsek), T=1.0)


@pytest.fixture(scope="module")
def hf3(kernel_cache, vicsek):
    return HFunction(kernel_cache("vicsek", 3), sigma_preset("smooth", vicsek), T=1.0)


class TestQuadrature:
    def test_nodes_cover_almost_everything(self):
        taus, wts = quad_nodes(0.7)
        assert taus.min() > 0 and taus.max() < 0.7
        # total weight = t minus the dropped head of length t 2^-50
        assert wts.sum() == pytest.approx(0.7 * (1 - 2.0 ** -50), rel=1e-13)

    def test_positive_t_required(self):
        with pytest.raises(ParamIntegralError):
            quad_nodes(0.0)

    def test_mass_identity_sigma_one(self, kernel_cache, vicsek):
        # weighted y-sum of h equals t when sigma == 1 (kernel conserves mass)
        hf = HFunction(kernel_cache("vicsek", 2), sigma_preset("constant"), T=1.0)
        m = hf.kernel.weights
        for t in (0.05, 0.4, 1.0):
            H = h_matrix(hf, t)
            assert np.abs((H * m[None, :]).sum(axis=1) - t).max() < 1e-6

    def test_time_moment_identity(self, kernel_cache):
        # sigma(s, y) = s integrates to t^2/2 after the weighted y-sum
        hf = HFunction(kernel_cache("vicsek", 2), sigma_preset("time_linear"), T=1.0)
        m = hf.kernel.weights
        for t in (0.1, 1.0):
            H = h_matrix(hf, t)
            assert np.abs((H * m[None, :]).sum(axis=1) - t * t / 2).max() < 1e-6

    def test_pair_matches_matrix(self, hf2):
        H = h_matrix(hf2, 0.3)
        for x, y in ((0, 0), (3, 11), (7, 2)):
            assert eval_h(hf2, 0.3, x, y) == pytest.approx(H[x, y], abs=1e-12)

    def test_refinement_control(self, hf2):
        val = eval_h(hf2, 0.5, 1, 5, check_tol=1e-8)
        assert np.isfinite(val)

    def test_zero_sigma(self, kernel_cache):
        z = SigmaFunction(lambda s, pts: np.zeros(len(pts)), 0.0, 0.0, 1.0, "zero")
        hf = HFunction(kernel_cache("vicsek", 2), z, T=1.0)
        assert eval_h(hf, 0.5, 0, 3) == 0.0

    def test_horizon_refused(self, hf2):
        with pytest.raises(ParamIntegralError):
            eval_h(hf2, 1.5, 0, 1)
        with pytest.raises(ParamIntegralError):
            h_matrix(hf2, 2.0)

    def test_row_matches_matrix(self, hf2):
        H = h_matrix(hf2, 0.2)
        assert np.allclose(h_row(hf2, 0.2, 5), H[5], atol=1e-12)


class TestHFunctionGate:
    def test_rough_sigma_rejected_on_vicsek(self, kernel_cache, vicsek):
        rough = sigma_preset("rough_half", vicsek)
        with pytest.raises(ParamIntegralError):
            HFunction(kernel_cache("vicsek", 2), rough, T=1.0)

    def test_strict_false_allows(self, kernel_cache, vicsek):
        rough = sigma_preset("rough_half", vicsek)
        hf = HFunction(kernel_cache("vicsek", 2), rough, T=1.0, strict=False)
        assert np.isfinite(eval_h(hf, 0.3, 0, 1))

    def test_bound_respected_empirically(self, hf3):
        # |h| <= C_sigma * t from the kernel mass normalization
        t = 0.8
        H = h_matrix(hf3, t)
        m = hf3.kernel.weights
        assert (np.abs(H) * m[None, :]).sum(axis=1).max() <= \
            hf3.sigma.c_bound * t * (1 + 1e-9)


class TestEvalEta:
    def test_zero_measure(self, hf2, vicsek):
        real = realize(BaseSM("gaussian_white", seed=1), vicsek, n_max=4).scaled(0.0)
        ev = eval_eta(hf2, real, [0.1, 0.5], n_max=4)
        assert np.allclose(ev.eta, 0.0)

    def test_atomic_anchor_chain_identity(self, hf3, vicsek):
        # atom placed so its cell chain keeps the depth-2 anchor: S^(n) = h
        x_atom = 4 / 25 + 5.0 ** -7
        real = realize(BaseSM("atomic_series", atoms=((x_atom, 1.0),)), vicsek,
                       n_max=5)
        ev = eval_eta(hf3, real, [0.2, 0.6], n_max=5)
        aid = hf3.snap_ids(2)[4]          # word (1,5) has rank 5
        ref = np.stack([h_matrix(hf3, t)[:, aid] for t in (0.2, 0.6)])
        for n in range(2, 6):
            assert np.allclose(ev.partial[n], ref, atol=1e-12)

    def test_linearity_cellwise(self, hf2, vicsek):
        r1 = realize(BaseSM("gaussian_white", seed=1), vicsek, n_max=4)
        r2 = realize(BaseSM("gaussian_white", seed=2), vicsek, n_max=4)
        ts = [0.05, 0.4]
        e1 = eval_eta(hf2, r1, ts, 4).eta
        e2 = eval_eta(hf2, r2, ts, 4).eta
        e12 = eval_eta(hf2, r1.cellwise_sum(r2), ts, 4).eta
        assert np.abs(e12 - (e1 + e2)).max() < 1e-10

    def test_matches_integrate(self, hf3, vicsek):
        real = realize(BaseSM("gaussian_white", seed=4), vicsek, n_max=4)
        ev = eval_eta(hf3, real, [0.3], 4)
        H = h_matrix(hf3, 0.3)
        x = 17
        for n in (0, 2, 4):
            ids = hf3.snap_ids(n)
            def g(pts, ids=ids):
                return H[x, ids]
            assert integrate(g, real, n) == pytest.approx(
                float(ev.partial[n, 0, x]), abs=1e-12)

    def test_increments_decreasing_gaussian(self, hf3, vicsek):
        times = np.geomspace(0.02, 0.5, 4)
        ok = 0
        for s in range(6):
            real = realize(BaseSM("gaussian_white", seed=s), vicsek, n_max=6)
            ev = eval_eta(hf3, real, times, n_max=6)
            ratio = ev.median_ratio(3)
            ok += int(ratio < 1.0)
            # proof-rate budget with beta_h = 1 and a 1.5 safety factor
            assert ratio <= vicsek.alpha ** -(1.0 - vicsek.d_f / 2) * 1.5
        assert ok == 6

    def test_depth_guard(self, hf2, vicsek):
        real = realize(BaseSM("gaussian_white", seed=1), vicsek, n_max=3)
        with pytest.raises(ParamIntegralError):
            eval_eta(hf2, real, [0.1], n_max=4)

    def test_stable_base_finite(self, hf2, vicsek):
        real = realize(BaseSM("symmetric_stable", seed=9, stable_index=1.5),
                       vicsek, n_max=4)
        ev = eval_eta(hf2, real, np.geomspace(0.05, 0.5, 3), n_max=4)
        assert np.isfinite(ev.eta).all()

    def test_blowup_domain(self, vicsek):
        vsM = vertex_set(vicsek, 3, M=1)
        kern = HeatKernel(build_generator(vsM))
        hf = HFunction(kern, sigma_preset("smooth", vicsek), T=1.0)
        real = realize(BaseSM("gaussian_white", seed=2), vicsek, M=1, n_max=4)
        ev = eval_eta(hf, real, [0.1, 0.5], n_max=4)
        assert np.isfinite(ev.eta).all()
        assert ev.median_ratio(2) < 1.0

    def test_blowup_mismatch_rejected(self, hf2, vicsek):
        realM = realize(BaseSM("gaussian_white", seed=2), vicsek, M=1, n_max=3)
        with pytest.raises(ParamIntegralError):
            eval_eta(hf2, realM, [0.1], n_max=3)

    def test_exports(self, hf2, vicsek, tmp_path):
        real = realize(BaseSM("gaussian_white", seed=1), vicsek, n_max=3)
        ev = eval_eta(hf2, real, [0.1, 0.3], n_max=3)
        ev.to_csv(tmp_path / "eta.csv")
        ev.diagnostics_csv(tmp_path / "conv.csv")
        lines = (tmp_path / "eta.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x_id,level,partial_sum"
        assert len(lines) == 1 + 4 * 2 * hf2.kernel.n_vertices
        conv = (tmp_path / "conv.csv").read_text().strip().splitlines()
        assert conv[0] == "level,sup_increment" and len(conv) == 4


class TestAnchorRules:
    def test_snap_exact_when_depth_le_level(self, hf3, vicsek):
        ids = hf3.snap_ids(2)
        anchors = cell_anchors(vicsek, 2, 0, 0)
        assert np.allclose(hf3.points[ids], anchors, atol=1e-12)

    @pytest.mark.parametrize("rule", [0, 1])
    def test_reflecting_snap_is_nearest_kernel_vertex(self, hf3, vicsek, rule):
        from scipy.spatial import cKDTree
        tree = cKDTree(hf3.points)
        for depth in range(6):
            _, ref = tree.query(cell_anchors(vicsek, depth, 0, rule))
            assert np.array_equal(hf3.snap_ids(depth, rule), ref)

    def test_dirichlet_killed_anchors_dropped(self, kernel_cache, vicsek):
        # the rule-0 anchor of the root cell is the killed corner (0, 0), so
        # S^(0) carries no mass at all
        kern = kernel_cache("vicsek", 2, 0, "dirichlet")
        hf = HFunction(kern, sigma_preset("smooth", vicsek), T=1.0)
        real = realize(BaseSM("gaussian_white", seed=3), vicsek, n_max=0)
        ev = eval_eta(hf, real, [0.1, 0.5], n_max=0)
        assert np.array_equal(ev.partial, np.zeros_like(ev.partial))
        # at depth <= level every anchor is a vertex: kept ones snap onto
        # themselves, the others sit on the removed boundary
        vs = kern.gen.vs
        dead_pts = vs.points[vs.boundary_ids()]
        for depth in range(3):
            ids = hf.snap_ids(depth)
            anchors = cell_anchors(vicsek, depth, 0, 0)
            live = ids >= 0
            assert np.allclose(hf.points[ids[live]], anchors[live], atol=1e-12)
            gap = np.linalg.norm(anchors[~live][:, None] - dead_pts[None], axis=-1)
            assert (~live).sum() > 0 and (gap.min(axis=1) < 1e-12).all()

    def test_anchor_independence_decays(self, hf3, vicsek):
        real = realize(BaseSM("gaussian_white", seed=1), vicsek, n_max=6)
        ts = [0.05, 0.3]
        gaps = []
        for n in range(1, 7):
            e0 = eval_eta(hf3, real, ts, n, anchor_rule=0).eta
            e1 = eval_eta(hf3, real, ts, n, anchor_rule=1).eta
            gaps.append(np.abs(e0 - e1).max())
        ratios = np.array(gaps[1:]) / np.array(gaps[:-1])
        assert np.median(ratios[-3:]) < 1.0


class TestHHolder:
    def test_exponent_above_threshold(self, hf3, vicsek):
        reg = estimate_h_holder(hf3, 0.2, 11)
        assert reg.exponent > vicsek.d_f / 2
        assert reg.n_pairs > 50

    def test_level_guard(self, hf2):
        with pytest.raises(ParamIntegralError):
            estimate_h_holder(hf2, 0.2, 1)


class TestPathRegularity:
    def test_zero_sigma_zero_modulus(self, kernel_cache, vicsek):
        z = SigmaFunction(lambda s, pts: np.zeros(len(pts)), 0.0, 0.0, 1.0, "zero")
        hf = HFunction(kernel_cache("vicsek", 2), z, T=1.0)
        real = realize(BaseSM("gaussian_white", seed=2), vicsek, n_max=3)
        ev = eval_eta(hf, real, np.geomspace(0.05, 0.5, 4), n_max=3)
        rows, _ = path_regularity_report(ev)
        assert all(r[3] == 0.0 for r in rows)

    def test_modulus_decreases_to_fine_scales(self, hf3, vicsek):
        hits = 0
        for s in range(8):
            real = realize(BaseSM("gaussian_white", seed=s), vicsek, n_max=5)
            ev = eval_eta(hf3, real, np.geomspace(0.03, 0.5, 5), n_max=5)
            rows, dec = path_regularity_report(ev, seed=s)
            assert all(np.isfinite(r[3]) for r in rows)
            hits += int(dec)
        assert hits >= 7   # >= 90% of seeds

    def test_grid_guard(self, hf2, vicsek):
        real = realize(BaseSM("gaussian_white", seed=2), vicsek, n_max=2)
        ev = eval_eta(hf2, real, [0.3], n_max=2)
        with pytest.raises(ParamIntegralError):
            path_regularity_report(ev)


class TestIncrementBoundStructure:
    def test_cauchy_schwarz_chain(self, hf3, vicsek):
        """The per-level increment tail obeys the Cauchy-Schwarz product bound
        with the empirical Hoelder constant of h (exact anchors, depth 3)."""
        real = realize(BaseSM("gaussian_white", seed=8), vicsek, n_max=3)
        t = 0.3
        H = h_matrix(hf3, t)
        reg = estimate_h_holder(hf3, t, 5)
        beta_h = min(reg.exponent, 1.0)
        beta = (beta_h - vicsek.d_f / 2) / 2
        x = 5
        lhs_terms, K_emp, sq = [], 0.0, []
        for n in range(3):
            hp = H[x, hf3.snap_ids(n)]
            hc = H[x, hf3.snap_ids(n + 1)]
            parent_of = np.repeat(np.arange(vicsek.N ** n), vicsek.N)
            dh = hc - hp[parent_of]
            mass_c = real.level_masses(n + 1)
            lhs_terms.append(abs(float(np.dot(dh, mass_c))))
            da = np.linalg.norm(cell_anchors(vicsek, n + 1, 0, 0)
                                - cell_anchors(vicsek, n, 0, 0)[parent_of], axis=1)
            nz = da > 0
            K_emp = max(K_emp, float(np.max(np.abs(dh[nz]) / da[nz] ** beta_h)))
            sq.append(vicsek.alpha ** (-2 * n * beta) * float(np.dot(mass_c, mass_c)))
        for m in range(2):
            lhs = sum(lhs_terms[m:])
            A = sum(vicsek.N ** (n + 1) * vicsek.alpha ** (2 * n * (beta - beta_h))
                    for n in range(m, 3))
            rhs = K_emp * math.sqrt(A) * math.sqrt(sum(sq[m:]))
            assert lhs <= rhs * (1 + 1e-12)
