import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fractalheat.geometry import CellAddress, build_preset
from fractalheat.measure import (
    BaseSM,
    LevelIndicatorFamily,
    MeasureError,
    address_to_interval,
    integrate,
    interval_rank,
    lemma22_diagnostic,
    read_realization,
    realize,
    write_realization,
)


class TestAddressToInterval:
    def test_examples(self, vicsek):
        assert address_to_interval(CellAddress((1, 1)), vicsek) == (0.0, 1 / 25)
        assert address_to_interval(CellAddress((5,)), vicsek) == (0.8, 1.0)
        a, b = address_to_interval(CellAddress((2, 3)), vicsek)
        assert (a, b) == (7 / 25, 8 / 25)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=8))
    def test_positional_oracle(self, word):
        # base-N digit expansion oracle for the rank
        model = build_preset("vicsek")
        k = 1 + sum((d - 1) * 5 ** (len(word) - 1 - j) for j, d in enumerate(word))
        assert interval_rank(word, 5) == k
        a, b = address_to_interval(CellAddress(tuple(word)), model)
        assert a == pytest.approx((k - 1) * 5.0 ** -len(word))
        assert b == pytest.approx(k * 5.0 ** -len(word))

    def test_intervals_partition_unit(self, vicsek):
        ends = [address_to_interval(CellAddress((i, j)), vicsek)
                for i in range(1, 6) for j in range(1, 6)]
        ends.sort()
        assert ends[0][0] == 0.0 and ends[-1][1] == 1.0
        for (a1, b1), (a2, _) in zip(ends[:-1], ends[1:]):
            assert b1 == pytest.approx(a2)

    def test_bad_symbol(self):
        with pytest.raises(MeasureError):
            interval_rank((0,), 5)


class TestGaussianBase:
    def test_additivity_exact(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=42), vicsek, n_max=6)
        assert real.additivity_gap() <= 1e-12

    def test_seed_determinism_bitwise(self, vicsek):
        a = realize(BaseSM("gaussian_white", seed=3), vicsek, n_max=4)
        b = realize(BaseSM("gaussian_white", seed=3), vicsek, n_max=4)
        for la, lb in zip(a.component_levels, b.component_levels):
            for x, y in zip(la, lb):
                assert np.array_equal(x, y)

    def test_different_seeds_differ(self, vicsek):
        a = realize(BaseSM("gaussian_white", seed=3), vicsek, n_max=3)
        b = realize(BaseSM("gaussian_white", seed=4), vicsek, n_max=3)
        assert not np.allclose(a.level_masses(3), b.level_masses(3))

    def test_root_mass_unit_variance(self, vicsek):
        tots = [realize(BaseSM("gaussian_white", seed=s), vicsek, n_max=0).level_masses(0)[0]
                for s in range(4000)]
        assert abs(np.var(tots) - 1.0) < 0.08

    def test_depth_masses_iid_normal_ks(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=11), vicsek, n_max=6)
        sample = real.level_masses(6)[:5000] / math.sqrt(5.0 ** -6)
        assert stats.kstest(sample, "norm").pvalue > 0.01

    def test_variance_matches_interval_length(self, vicsek):
        vals = [realize(BaseSM("gaussian_white", seed=s), vicsek, n_max=3)
                .mass(CellAddress((1, 2, 3))) for s in range(2000)]
        target = 5.0 ** -3
        assert abs(np.var(vals) - target) < 0.05 * target

    def test_max_mass_decreasing_in_depth(self, vicsek):
        # continuity-at-empty-set proxy, valid for the light-tailed base
        meds = []
        for n in range(2, 9):
            mx = [np.abs(realize(BaseSM("gaussian_white", seed=s), vicsek,
                                 n_max=n).level_masses(n)).max()
                  for s in range(20)]
            meds.append(np.median(mx))
        assert all(a > b for a, b in zip(meds[:-1], meds[1:]))


class TestStableBase:
    def test_additivity_exact(self, vicsek):
        real = realize(BaseSM("symmetric_stable", seed=5, stable_index=1.5),
                       vicsek, n_max=5)
        assert real.additivity_gap() <= 1e-11
        assert np.isfinite(real.level_masses(5)).all()

    def test_no_overflow_heavy_tail(self, vicsek):
        for s in range(10):
            real = realize(BaseSM("symmetric_stable", seed=s, stable_index=1.5),
                           vicsek, n_max=4)
            assert np.isfinite(real.level_masses(4)).all()

    def test_atomless_chain_decays(self, vicsek):
        # Assumption-8 proxy: mass of the cell chain at a fixed point -> 0.
        # (max over ALL cells does not vanish for heavy tails: the largest
        # stable increment persists, so only the chain test is asserted.)
        meds = []
        for n in (2, 5, 8):
            vals = [abs(realize(BaseSM("symmetric_stable", seed=s, stable_index=1.5),
                                vicsek, n_max=n).mass(CellAddress((1,) * n)))
                    for s in range(25)]
            meds.append(np.median(vals))
        assert meds[0] > meds[1] > meds[2]

    def test_cauchy_index_sampler(self, vicsek):
        real = realize(BaseSM("symmetric_stable", seed=1, stable_index=1.0),
                       vicsek, n_max=3)
        assert real.additivity_gap() <= 1e-11

    def test_invalid_index(self):
        with pytest.raises(MeasureError):
            BaseSM("symmetric_stable", stable_index=2.5)


class TestAtomicBase:
    def test_single_atom_exact(self, vicsek):
        real = realize(BaseSM("atomic_series", atoms=((0.17, 1.0),)), vicsek, n_max=4)
        # 0.17 lies in (4/25, 5/25], the depth-2 cell with word (1, 5)
        assert real.mass(CellAddress((1, 5))) == 1.0
        assert real.mass(CellAddress((1, 4))) == 0.0
        assert real.level_masses(0)[0] == 1.0
        assert real.additivity_gap() == 0.0

    def test_half_open_boundary(self, vicsek):
        # an atom exactly at k N^-n belongs to the left-closed interval's cell
        real = realize(BaseSM("atomic_series", atoms=((0.2, 1.0),)), vicsek, n_max=1)
        assert real.mass(CellAddress((1,))) == 1.0
        assert real.mass(CellAddress((2,))) == 0.0

    def test_random_signs_deterministic(self, vicsek):
        base = BaseSM("atomic_series", seed=9, atoms=((0.3, 1.0), (0.7, 0.5)),
                      random_signs=True)
        a = realize(base, vicsek, n_max=2)
        b = realize(base, vicsek, n_max=2)
        assert np.array_equal(a.level_masses(2), b.level_masses(2))

    def test_not_atomless(self):
        assert not BaseSM("atomic_series", atoms=((0.5, 1.0),)).atomless

    def test_needs_atoms(self):
        with pytest.raises(MeasureError):
            BaseSM("atomic_series")

    @pytest.mark.parametrize("x", [0.0, 1.5])
    def test_atom_outside_unit_interval_refused(self, x):
        # refused when the descriptor is made, not when it is realized
        with pytest.raises(MeasureError, match="atom positions"):
            BaseSM("atomic_series", atoms=((0.5, 1.0), (x, 1.0)))

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite_coefficient_refused(self, c):
        with pytest.raises(MeasureError, match="coefficients"):
            BaseSM("atomic_series", atoms=((0.5, 1.0), (0.7, c)))


class TestIntegrate:
    def test_constant_one_telescopes(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=2), vicsek, n_max=5)
        one = lambda pts: np.ones(len(pts))
        vals = [integrate(one, real, n) for n in range(6)]
        assert np.allclose(vals, real.level_masses(0)[0], atol=1e-12)

    def test_zero(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=2), vicsek, n_max=3)
        assert integrate(lambda pts: np.zeros(len(pts)), real, 3) == 0.0

    def test_indicator_reads_cell_mass(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=6), vicsek, n_max=4)
        corner = np.array([0.0, 0.0])
        # depth-2 cell (1, 1) = [0, 1/9]^2.  The box must be half-open on the
        # far side: anchors of neighboring cells sit exactly on the contact
        # point (1/9, 1/9) and carry the neighbor's mass.
        def g(pts):
            return ((pts >= corner - 1e-12) & (pts < corner + 1 / 9 - 1e-12)) \
                .all(axis=1).astype(float)
        got = integrate(g, real, 4)
        assert got == pytest.approx(real.mass(CellAddress((1, 1))), abs=1e-12)

    def test_nonfinite_rejected(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=2), vicsek, n_max=2)
        with pytest.raises(MeasureError):
            integrate(lambda pts: np.full(len(pts), np.nan), real, 2)


class TestBlowupComponents:
    def test_component_weights_default(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=0), vicsek, M=1, n_max=3)
        assert len(real.component_weights) == 5
        assert np.allclose(real.component_weights, 0.5 ** np.arange(1, 6))

    def test_additivity_across_components(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=0), vicsek, M=1, n_max=4)
        assert real.additivity_gap() <= 1e-12
        roots = real.level_masses(1)
        assert real.level_masses(0)[0] == pytest.approx(roots.sum(), abs=1e-12)


class TestLemma22:
    def test_zero_family(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=1), vicsek, n_max=3)
        partial, plateau = lemma22_diagnostic(
            lambda l: (lambda pts: np.zeros(len(pts))), real, L=6, n=3)
        assert np.allclose(partial, 0.0) and plateau

    def test_single_constant_total_mass_squared(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=1), vicsek, n_max=3)
        fam = lambda l: (lambda pts: np.ones(len(pts)) if l == 1
                         else np.zeros(len(pts)))
        partial, _ = lemma22_diagnostic(fam, real, L=5, n=3)
        assert np.allclose(partial, real.level_masses(0)[0] ** 2)

    def test_level_family_vicsek(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=5), vicsek, n_max=7)
        partial, plateau = lemma22_diagnostic(LevelIndicatorFamily(0.75), real,
                                              L=7, n=7)
        assert plateau
        assert np.all(np.diff(partial) >= 0)

    def test_level_family_gasket_L12(self, gasket):
        ok = 0
        for s in range(10):
            real = realize(BaseSM("gaussian_white", seed=s), gasket, n_max=12)
            _, plateau = lemma22_diagnostic(LevelIndicatorFamily(0.75), real,
                                            L=12, n=12)
            ok += int(plateau)
        assert ok >= 9

    def test_depth_guard(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=1), vicsek, n_max=3)
        with pytest.raises(MeasureError):
            lemma22_diagnostic(LevelIndicatorFamily(), real, L=5, n=3)


class TestRealizationIO:
    @pytest.mark.parametrize("base", [
        BaseSM("gaussian_white", seed=13),
        BaseSM("symmetric_stable", seed=13, stable_index=1.2),
        BaseSM("atomic_series", seed=13, atoms=((0.3, 1.0), (0.9, 0.25)),
               random_signs=True),
    ])
    def test_roundtrip(self, vicsek, tmp_path, base):
        real = realize(base, vicsek, M=1, n_max=3)
        path = tmp_path / "real.txt"
        write_realization(real, path)
        back = read_realization(path, vicsek)
        assert back.base.kind == base.kind
        for la, lb in zip(real.component_levels, back.component_levels):
            for x, y in zip(la, lb):
                assert np.allclose(x, y, atol=0, rtol=1e-15)

    def test_corrupted_file_rejected(self, vicsek, tmp_path):
        real = realize(BaseSM("gaussian_white", seed=1), vicsek, n_max=2)
        path = tmp_path / "real.txt"
        write_realization(real, path)
        txt = path.read_text().splitlines()
        for i, line in enumerate(txt):
            if line.startswith("1,1 "):
                txt[i] = "1,1 99.0"
                break
        path.write_text("\n".join(txt) + "\n")
        with pytest.raises(MeasureError):
            read_realization(path, vicsek)

    @pytest.mark.parametrize("edit,match", [
        (lambda txt: [ln for ln in txt if not ln.startswith("1,2 ")],
         "no line for cell 1,2$"),
        (lambda txt: [ln for ln in txt if not ln.startswith("# component_weights")],
         r"header fields \['component_weights'\]"),
        (lambda txt: [ln + " 7" if ln.startswith("2,3 ") else ln for ln in txt],
         "bad cell line '2,3 .* 7'"),
        (lambda txt: [ln for ln in txt if not ln.startswith("# base")],
         r"header fields \['kind', 'seed', 'stable_index', 'random_signs', 'atoms'\]"),
    ], ids=["missing-cell", "missing-weights", "third-token", "missing-base"])
    def test_malformed_file_named(self, vicsek, tmp_path, edit, match):
        path = tmp_path / "real.txt"
        write_realization(realize(BaseSM("gaussian_white", seed=1), vicsek, n_max=2), path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(MeasureError, match=match):
            read_realization(path, vicsek)

    @pytest.mark.parametrize("written,read", [("gasket", "vicsek"), ("vicsek", "gasket")])
    def test_other_model_refused(self, tmp_path, written, read):
        # a file of one model read with another must name the mismatch, not
        # a missing cell or symbol of the other tree
        path = tmp_path / "real.txt"
        src, dst = build_preset(written), build_preset(read)
        write_realization(realize(BaseSM("gaussian_white", seed=1), src, n_max=2), path)
        with pytest.raises(MeasureError, match=f"has N={src.N}, model {read} has N={dst.N}"):
            read_realization(path, dst)


class TestGuards:
    def test_unknown_kind(self):
        with pytest.raises(MeasureError):
            BaseSM("poisson")

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # numpy would refuse these only at realize time
        with pytest.raises(MeasureError, match="non-negative integer"):
            BaseSM("gaussian_white", seed=seed)
        assert BaseSM("gaussian_white", seed=np.int64(7)).seed == 7

    def test_depth_budget(self, vicsek):
        with pytest.raises(MeasureError):
            realize(BaseSM("gaussian_white", seed=0), vicsek, n_max=12)

    def test_depth_below_blowup(self, vicsek):
        with pytest.raises(MeasureError):
            realize(BaseSM("gaussian_white", seed=0), vicsek, M=2, n_max=1)

    def test_mass_depth_guard(self, vicsek):
        real = realize(BaseSM("gaussian_white", seed=0), vicsek, n_max=2)
        with pytest.raises(MeasureError):
            real.level_masses(3)
