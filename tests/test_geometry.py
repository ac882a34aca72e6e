import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalheat.geometry import (
    CellAddress,
    FractalModel,
    GeometryError,
    apply_word,
    build_preset,
    cell_anchors,
    cell_corners,
    check_assumption1,
    load_ifs_file,
    vertex_set,
)

VIC_COUNTS = [4, 16, 76, 376, 1876, 9376]      # V_{n+1} = 5 V_n - 4
GASKET_COUNTS = [3, 6, 15, 42, 123, 366]       # V_{n+1} = 3 V_n - 3


class TestPresets:
    def test_vicsek_constants(self, vicsek):
        assert vicsek.N == 5
        assert vicsek.alpha == 3.0
        assert vicsek.assumption1_k == 4
        assert math.isclose(vicsek.d_f, math.log(5) / math.log(3), rel_tol=1e-12)
        assert math.isclose(vicsek.d_s, math.log(25) / math.log(15), rel_tol=1e-12)
        assert math.isclose(vicsek.d_w, math.log(15) / math.log(3), rel_tol=1e-12)
        # alpha^{d_w} = 15 exactly, analytically: 3^{log15/log3} = 15
        assert math.isclose(vicsek.time_scale, 15.0, rel_tol=1e-12)

    def test_gasket_constants(self, gasket):
        assert gasket.N == 3
        assert math.isclose(gasket.d_s, math.log(9) / math.log(5), rel_tol=1e-12)
        assert math.isclose(gasket.time_scale, 5.0, rel_tol=1e-12)
        assert gasket.d_s > 4 / 3  # the counterexample side of the dichotomy

    def test_dimension_identities(self, vicsek, gasket):
        for m in (vicsek, gasket):
            assert math.isclose(m.d_f, math.log(m.N) / math.log(m.alpha), rel_tol=1e-12)
            assert math.isclose(m.d_w * m.d_s, 2 * m.d_f, rel_tol=1e-12)

    def test_unknown_preset(self):
        with pytest.raises(GeometryError):
            build_preset("menger")

    def test_validate_runs(self, vicsek):
        assert vicsek.essential_indices == (0, 1, 2, 3)


class TestEssentialFixedPoints:
    def test_vicsek_corners_only(self, vicsek):
        pts = vicsek.essential_fixed_points
        assert sorted(map(tuple, pts)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        # the center (1/2, 1/2) is excluded
        assert (0.5, 0.5) not in set(map(tuple, pts))

    def test_vicsek_witness(self, vicsek):
        # psi_1((1,1)) = psi_5((0,0)) = (1/3, 1/3) certifies (1,1) essential
        a = vicsek.map_points(1, np.array([1.0, 1.0]))
        b = vicsek.map_points(5, np.array([0.0, 0.0]))
        assert np.allclose(a, b) and np.allclose(a, [1 / 3, 1 / 3])

    def test_gasket_all_three(self, gasket):
        assert len(gasket.essential_fixed_points) == 3

    def test_single_map_refused(self):
        # one map has d_f = 0, so no d_s lies in (0, d_f]
        with pytest.raises(GeometryError, match="d_s"):
            FractalModel("one", 2.0, np.array([[0.0, 0.0]]), d_s=1.0)


class TestApplyWord:
    def test_empty_word_identity(self, vicsek):
        x = np.array([0.3, 0.7])
        assert np.allclose(apply_word(vicsek, CellAddress(()), x), x)

    def test_single_symbol(self, vicsek):
        out = apply_word(vicsek, CellAddress((1,)), np.array([1.0, 1.0]))
        assert np.allclose(out, [1 / 3, 1 / 3])

    def test_blowup_rescales(self, vicsek):
        out = apply_word(vicsek, CellAddress((1,), blowup=1), np.array([1.0, 1.0]))
        assert np.allclose(out, [1.0, 1.0])

    def test_composition_order_outermost_first(self, vicsek):
        # word (2, 3) is psi_2(psi_3(x))
        x = np.array([0.2, 0.9])
        direct = vicsek.map_points(2, vicsek.map_points(3, x))
        assert np.allclose(apply_word(vicsek, CellAddress((2, 3)), x), direct)

    def test_bad_symbol(self, vicsek):
        with pytest.raises(GeometryError):
            apply_word(vicsek, CellAddress((6,)), np.zeros(2))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    def test_word_image_diameter(self, word):
        model = build_preset("vicsek")
        corners = apply_word(model, CellAddress(tuple(word)),
                             model.essential_fixed_points)
        diam = max(np.linalg.norm(a - b) for a in corners for b in corners)
        # bounding corners of the square have diameter sqrt(2)
        expected = math.sqrt(2) * model.alpha ** -len(word)
        assert abs(diam - expected) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000))
def test_contraction_property_random_pairs(seed):
    rng = np.random.default_rng(seed)
    for model in (build_preset("vicsek"), build_preset("gasket")):
        x = rng.uniform(-1, 2, size=(50, 2))
        y = rng.uniform(-1, 2, size=(50, 2))
        for i in range(1, model.N + 1):
            num = np.linalg.norm(model.map_points(i, x) - model.map_points(i, y), axis=1)
            den = np.linalg.norm(x - y, axis=1)
            assert np.allclose(num / den, 1 / model.alpha, rtol=1e-12)


class TestVertexSet:
    @pytest.mark.parametrize("n,count", list(enumerate(VIC_COUNTS[:5])))
    def test_vicsek_counts(self, vs_cache, n, count):
        assert vs_cache("vicsek", n).n_vertices == count

    def test_vicsek_recurrence_level5(self, vicsek):
        vs = vertex_set(vicsek, 5)
        assert vs.n_vertices == VIC_COUNTS[5] == 5 * VIC_COUNTS[4] - 4

    @pytest.mark.parametrize("n,count", list(enumerate(GASKET_COUNTS)))
    def test_gasket_counts(self, vs_cache, n, count):
        assert vs_cache("gasket", n).n_vertices == count

    @pytest.mark.parametrize("n", range(5))
    def test_connected(self, vs_cache, n):
        assert vs_cache("vicsek", n).is_connected()

    def test_edgeless_graph_disconnected(self, vs_cache):
        import dataclasses
        vs = vs_cache("vicsek", 1)
        assert not dataclasses.replace(vs, edges=vs.edges[:0]).is_connected()
        # drop the edges of the last vertex only
        kept = vs.edges[vs.edges.max(axis=1) < vs.n_vertices - 1]
        assert not dataclasses.replace(vs, edges=kept).is_connected()

    @pytest.mark.parametrize("name,n,M", [("vicsek", 3, 0), ("gasket", 4, 1)])
    def test_representatives_are_first_occurrences(self, name, n, M):
        # loop reference: the representative of a vertex is the first corner
        # image, in word order, that rounds to its key
        model = build_preset(name)
        vs = vertex_set(model, n, M)
        flat = cell_corners(model, n, M).reshape(-1, model.d)
        first = {}
        for idx, vid in enumerate(vs.cell_vertex_ids.ravel()):
            first.setdefault(int(vid), idx)
        assert np.array_equal(vs.points, flat[[first[v] for v in range(vs.n_vertices)]])

    def test_level0_complete_membership(self, vs_cache):
        vs = vs_cache("vicsek", 0)
        assert vs.cell_vertex_ids.shape == (1, 4)
        assert sorted(vs.cell_vertex_ids[0]) == [0, 1, 2, 3]

    def test_membership_bounds(self, vs_cache):
        vs = vs_cache("vicsek", 3)
        cells = np.bincount(vs.cell_vertex_ids.ravel(), minlength=vs.n_vertices)
        assert cells.min() >= 1
        assert cells.max() <= 2   # contact points join two cells

    def test_vertex_cells_lookup(self, vs_cache):
        vs = vs_cache("vicsek", 1)
        # the contact point (1/3, 1/3) joins cells with words (1,) and (5,)
        vid = int(np.argmin(np.sum((vs.points - [1 / 3, 1 / 3]) ** 2, axis=1)))
        assert sorted(np.nonzero((vs.cell_vertex_ids == vid).any(axis=1))[0]) == [0, 4]

    def test_budget_error(self, vicsek):
        with pytest.raises(GeometryError):
            vertex_set(vicsek, 12)

    def test_boundary_ids_are_corners(self, vs_cache, vicsek):
        vs = vs_cache("vicsek", 2)
        pts = vs.points[vs.boundary_ids()]
        assert sorted(map(tuple, pts)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_csv_export(self, vs_cache, tmp_path):
        vs = vs_cache("vicsek", 1)
        path = tmp_path / "v.csv"
        vs.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "vertex_id,x0,x1,weight"
        assert len(lines) == 1 + vs.n_vertices


class TestMeasureWeights:
    def test_level0_equal_quarters(self, vs_cache):
        w = vs_cache("vicsek", 0).weights
        assert np.allclose(w, 0.25)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_level1_shared_shares(self, vs_cache):
        w = vs_cache("vicsek", 1).weights
        vals = np.sort(np.round(w, 12))
        assert set(vals) == {0.05, 0.1}
        assert (vals == 0.1).sum() == 4          # the four contact vertices
        assert abs(w.sum() - 1.0) < 1e-12

    def test_blowup_total(self, vicsek):
        w = vertex_set(vicsek, 2, M=1).weights
        # alpha^{M d_f} = N^M = 5
        assert abs(w.sum() - 5.0) < 5e-12

    def test_self_similarity_per_cell(self, vs_cache):
        # the measure of psi_i(E) is 1/N: a vertex's weight splits equally
        # over the cells that hold it, and psi_i(E) gets the share of its own
        for name, n in (("vicsek", 3), ("gasket", 4)):
            vs = vs_cache(name, n)
            N, V = vs.model.N, vs.n_vertices
            cells = np.bincount(vs.cell_vertex_ids.ravel(), minlength=V)
            # rows run in word order, so block i holds the cells of psi_{i+1}(E)
            for block in np.split(vs.cell_vertex_ids, N):
                inside = np.bincount(block.ravel(), minlength=V)
                assert abs(np.sum(vs.weights * inside / cells) - 1 / N) < 1e-12


class TestAssumption1:
    def test_vicsek_k4(self, vicsek):
        assert check_assumption1(vicsek, 1, samples=100) == 4

    def test_vicsek_m2(self, vicsek):
        assert check_assumption1(vicsek, 2, samples=100) <= 4

    def test_vicsek_m3(self, vicsek):
        assert check_assumption1(vicsek, 3, samples=100) == 4

    def test_gasket_reported(self, gasket):
        # all three depth-1 cells pairwise touch, so chains need <= 3 points
        assert check_assumption1(gasket, 1, samples=100) == 3

    def test_trivial_same_point(self, vicsek):
        # a model with one admissible pair x = y only: max chain length 1
        assert check_assumption1(vicsek, 0, samples=0) >= 1

    @staticmethod
    def _all_pairs_chain(model, m, samples=200, seed=0):
        """check_assumption1 on the all-pairs (V, V) hop matrix, pair by pair."""
        from scipy.sparse.csgraph import shortest_path
        from scipy.spatial import cKDTree

        vs = vertex_set(model, m, 0)
        r = model.alpha ** (-m) * (1 + 1e-9)
        hops = shortest_path(vs._adjacency(), directed=False, unweighted=True)
        max_l = 1
        for i, j in cKDTree(vs.points).query_pairs(r):
            max_l = max(max_l, int(hops[i, j]) + 1)
        rng = np.random.default_rng(seed)
        words = rng.integers(1, model.N + 1, size=(samples, 12))
        anchor = model.essential_fixed_points[0]
        pts = np.array([apply_word(model, CellAddress(tuple(wd)), anchor) for wd in words])
        cell = [sum((wd[k] - 1) * model.N ** (m - 1 - k) for k in range(m)) for wd in words]
        for i, j in cKDTree(pts).query_pairs(r):
            if cell[i] == cell[j]:
                max_l = max(max_l, 2)
                continue
            ci, cj = vs.cell_vertex_ids[cell[i]], vs.cell_vertex_ids[cell[j]]
            max_l = max(max_l, int(min(hops[a, b] for a in ci for b in cj)) + 3)
        return max_l

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name,m", [("vicsek", 1), ("vicsek", 2), ("vicsek", 3),
                                        ("gasket", 1), ("gasket", 2), ("gasket", 3),
                                        ("gasket", 4)])
    def test_bfs_from_read_vertices_matches_all_pairs(self, name, m, seed):
        model = build_preset(name)
        assert check_assumption1(model, m, seed=seed) == self._all_pairs_chain(model, m,
                                                                               seed=seed)


class TestCellHelpers:
    def test_cell_corners_shape(self, vicsek):
        c = cell_corners(vicsek, 2)
        assert c.shape == (25, 4, 2)

    def test_children_cover_parent(self, vicsek):
        # the N children partition the parent: they sit inside the parent's
        # hull and reproduce all its corner images among their own
        parent = CellAddress((2, 4))
        assert parent.depth == 2
        pc = apply_word(vicsek, parent, vicsek.essential_fixed_points)
        assert np.ptp(pc, axis=0) == pytest.approx([3.0 ** -2] * 2)   # side alpha^-n
        child_corners = np.concatenate([
            apply_word(vicsek, CellAddress(parent.word + (i,)), vicsek.essential_fixed_points)
            for i in range(1, 6)])
        lo, hi = pc.min(axis=0), pc.max(axis=0)
        assert (child_corners >= lo - 1e-12).all()
        assert (child_corners <= hi + 1e-12).all()
        for corner in pc:
            assert np.min(np.linalg.norm(child_corners - corner, axis=1)) < 1e-12

    def test_anchor_rule_is_corner_image(self, vicsek):
        anchors = cell_anchors(vicsek, 2, 0, rule=0)
        # row k is the word of base-N rank k + 1, first symbol most significant
        words = list(itertools.product(range(1, 6), repeat=2))
        assert len(anchors) == len(words) == 25
        for k, wd in enumerate(words):
            ref = apply_word(vicsek, CellAddress(wd), vicsek.essential_fixed_points[0])
            assert np.allclose(anchors[k], ref)

    def test_anchor_rule_out_of_range(self, vicsek):
        with pytest.raises(GeometryError):
            cell_anchors(vicsek, 1, 0, rule=9)


class TestIfsFile:
    def test_roundtrip(self, tmp_path, vicsek):
        p = tmp_path / "model.ini"
        p.write_text(
            "[model]\nname = myvicsek\nalpha = 3.0\nd_s = "
            f"{math.log(25) / math.log(15)}\n"
            "[maps]\np1 = 0,0\np2 = 0,1\np3 = 1,1\np4 = 1,0\np5 = 0.5,0.5\n")
        m = load_ifs_file(p)
        assert m.N == 5
        assert len(m.essential_fixed_points) == 4
        assert math.isclose(m.d_s, vicsek.d_s, rel_tol=1e-9)

    def test_missing_ds_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nname = x\nalpha = 2.0\n[maps]\np1 = 0,0\np2 = 1,0\n")
        with pytest.raises(GeometryError):
            load_ifs_file(p)

    @pytest.mark.parametrize("d_s", ["-1", "0", "nan", "inf", "1.5"])
    def test_ds_outside_range_rejected(self, tmp_path, d_s):
        # 0 < d_s <= d_f = log5/log3 = 1.465, that is d_w >= 2
        p = tmp_path / "bad.ini"
        p.write_text(f"[model]\nname = x\nalpha = 3.0\nd_s = {d_s}\n"
                     "[maps]\np1 = 0,0\np2 = 0,1\np3 = 1,1\np4 = 1,0\np5 = 0.5,0.5\n")
        with pytest.raises(GeometryError, match="d_s"):
            load_ifs_file(p)

    @pytest.mark.parametrize("text", [
        "name = x\n", "[model]\nd_s = 1.0\n[maps]\np1 = 0,0\np2 = 1,0\n",
    ], ids=["no section header", "no alpha"])
    def test_malformed_file_rejected(self, tmp_path, text):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        with pytest.raises(GeometryError):
            load_ifs_file(p)

    def test_custom_model_needs_valid_alpha(self):
        with pytest.raises(GeometryError):
            FractalModel("bad", 0.9, np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0)


class TestOrthogonalSlot:
    def test_rotated_map_is_still_a_similitude(self):
        # one map carries a quarter turn; contraction ratio is unchanged
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        orth = np.stack([np.eye(2), np.eye(2), rot])
        m = FractalModel("rotated", 2.0,
                         np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]),
                         d_s=1.2, orthogonal=orth)
        x = np.array([0.3, 0.4])
        want = np.array([0.5, 0.8]) + rot @ (x - [0.5, 0.8]) / 2.0
        assert np.allclose(m.map_points(3, x), want)

    def test_reflected_gasket_map_keeps_the_attractor(self, gasket):
        # map 3 reflects its sub-triangle in the vertical line through its
        # fixed point, a symmetry of that sub-triangle
        orth = [np.eye(2), np.eye(2), np.diag([-1.0, 1.0])]
        m = FractalModel("reflected", 2.0, gasket.fixed_points, gasket.d_s, orth)
        vs, ref = vertex_set(m, 3), vertex_set(gasket, 3)
        assert (vs.n_vertices, len(vs.edges)) == (42, 81)
        assert np.allclose(vs.points, ref.points, atol=1e-12)
        assert np.array_equal(vs.edges, ref.edges)

    def test_non_orthogonal_rejected(self):
        bad = np.stack([np.eye(2), 2.0 * np.eye(2)])
        with pytest.raises(GeometryError):
            FractalModel("bad", 2.0, np.array([[0.0, 0.0], [1.0, 0.0]]),
                         d_s=1.0, orthogonal=bad)


class TestConstruction:
    # FractalModel(...) is the one construction path: presets and IFS files
    # go through it, so its checks hold for every model

    @pytest.mark.parametrize("d_s", [-1.0, 0.0, math.nan, math.inf, 1.5])
    def test_ds_outside_range_refused(self, vicsek, d_s):
        with pytest.raises(GeometryError, match="d_s"):
            FractalModel("v", 3.0, vicsek.fixed_points, d_s)

    def test_non_similitude_refused(self):
        # 1 + 1e-6 passes the orthogonality check's default rtol, not the ratio
        orth = np.stack([np.eye(2), (1.0 + 1e-6) * np.eye(2)])
        with pytest.raises(GeometryError, match="similitude"):
            FractalModel("bad", 2.0, np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0, orth)

    def test_essential_indices_derived_not_given(self, vicsek):
        with pytest.raises(TypeError):
            FractalModel("v", 3.0, vicsek.fixed_points, vicsek.d_s,
                         essential_indices=(0, 1, 2, 3, 4))

    @pytest.mark.parametrize("alpha,pts,d_s,orth,want", [
        (2.0, [[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]], 1.2, None, (0, 1, 2)),
        (2.0, [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]], 1.2,
         [np.eye(2), np.eye(2), [[0.0, -1.0], [1.0, 0.0]]], (0, 1)),
        (2.0, [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]], 1.2,
         [np.eye(2), np.eye(2), np.diag([-1.0, 1.0])], (0, 1, 2)),
        (3.0, [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
         + [[0.5, 0.5, 0.5]], 4 / 3, None, tuple(range(8))),
        # psi_1(F) = {0, 1/3} and psi_2(F) = {2/3, 1} on the x axis never meet
        (3.0, [[0.0, 0.0], [1.0, 0.0]], 0.5, None, ()),
    ], ids=["scalene", "rotated", "reflected-gasket", "vicsek3d", "cantor"])
    def test_essential_indices(self, alpha, pts, d_s, orth, want):
        m = FractalModel("m", alpha, np.array(pts), d_s, orth)
        assert m.essential_indices == want == _essential_by_loops(m)

    def test_presets_match_the_definition(self, vicsek, gasket):
        for m in (vicsek, gasket):
            assert m.essential_indices == _essential_by_loops(m)

    def test_models_compare_and_hash_by_identity(self):
        # array fields make a field-wise == ambiguous; identity never raises
        a, b = build_preset("vicsek"), build_preset("vicsek")
        assert a == a and a != b
        cache = {a: 1, b: 2}
        assert cache[a] == 1 and cache[b] == 2


def _essential_by_loops(model):
    """The definition, one (x, j, y, k) quadruple at a time."""
    F, symbols = model.fixed_points, range(1, model.N + 1)
    return tuple(x for x in range(model.N) if any(
        np.linalg.norm(model.map_points(j, F[x]) - model.map_points(k, F[y])) < 1e-12
        for j in symbols for k in symbols if k != j for y in range(model.N)))
