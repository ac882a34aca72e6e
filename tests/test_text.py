"""Artifact bytes: every table writer against the per-row f-string loop it
replaced, kept here as the reference format."""

import math

import numpy as np
import pytest

from fractalheat import _text
from fractalheat.geometry import measure_weights
from fractalheat.kernel import kernel
from fractalheat.measure import BaseSM, realize, write_realization
from fractalheat.paramint import HFunction, eval_eta, sigma_preset
from fractalheat.solver import ProblemSpec, picard_solve, prepare


# reference writers: one formatted line per value


def ref_eta(ev, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("t,x_id,level,partial_sum\n")
        for n in range(ev.partial.shape[0]):
            for i, t in enumerate(ev.times):
                for j, x in enumerate(ev.x_ids):
                    f.write(f"{float(t)!r},{x},{n},{float(ev.partial[n, i, j])!r}\n")


def ref_eta_convergence(ev, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("level,sup_increment\n")
        for n, v in enumerate(ev.sup_increments):
            f.write(f"{n},{float(v)!r}\n")


def ref_solution(sol, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("t,x_id,u\n")
        for i, t in enumerate(sol.times):
            for j in range(sol.u.shape[1]):
                f.write(f"{float(t)!r},{j},{float(sol.u[i, j])!r}\n")


def ref_diagnostics(sol, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("n,t,g_n,bound_factorial\n")
        for n, g in enumerate(sol.g_history):
            bnd = sol.bound_factorial(n)
            for t, gv, bv in zip(sol.times, g, bnd):
                f.write(f"{n},{float(t)!r},{float(gv)!r},{float(bv)!r}\n")


def ref_realization(real, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# fractalheat measure realization v1\n")
        f.write(f"# model={real.model.name} N={real.model.N} alpha={real.model.alpha!r}\n")
        b = real.base
        atoms_s = ";".join(f"{float(x)!r}:{float(c)!r}" for x, c in b.atoms)
        f.write(f"# base kind={b.kind} seed={b.seed} stable_index={b.stable_index!r} "
                f"random_signs={b.random_signs} atoms={atoms_s}\n")
        f.write(f"# blowup={real.blowup} n_max={real.n_max}\n")
        f.write(f"# component_weights={','.join(repr(float(w)) for w in real.component_weights)}\n")
        N = real.model.N
        for n in range(real.n_max + 1):
            for k, mval in enumerate(real.level_masses(n)):
                if n == 0:
                    word = "-"
                else:
                    digits, kk = [], k
                    for _ in range(n):
                        digits.append(kk % N + 1)
                        kk //= N
                    word = ",".join(str(d) for d in reversed(digits))
                f.write(f"{word} {float(mval)!r}\n")


def ref_kernel(tab, path, x_ids):
    V = tab.kernel.n_vertices
    with open(path, "w", encoding="utf-8") as f:
        f.write("t,x_id,y_id,density\n")
        for t in tab.times:
            rows = tab.kernel.density_rows(t, np.asarray(x_ids))
            for xi, row in zip(x_ids, rows):
                for yi in range(V):
                    f.write(f"{float(t)!r},{xi},{yi},{float(row[yi])!r}\n")


def ref_kernel_diag(tab, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("t,x_id,density\n")
        for i, t in enumerate(tab.times):
            for j in range(tab.diag.shape[1]):
                f.write(f"{float(t)!r},{j},{float(tab.diag[i, j])!r}\n")


def ref_vertices(vs, path, w):
    with open(path, "w", encoding="utf-8") as f:
        cols = ",".join(f"x{i}" for i in range(vs.points.shape[1]))
        f.write(f"vertex_id,{cols},weight\n")
        for vid, (p, wv) in enumerate(zip(vs.points, w)):
            coord = ",".join(repr(float(c)) for c in p)
            f.write(f"{vid},{coord},{float(wv)!r}\n")


def same_bytes(tmp_path, write, reference):
    write(tmp_path / "new")
    reference(tmp_path / "ref")
    new, ref = (tmp_path / "new").read_bytes(), (tmp_path / "ref").read_bytes()
    assert len(ref) > 0 and new == ref


@pytest.fixture(scope="module")
def sol2(vicsek):
    spec = ProblemSpec(vicsek, level=2, depth=4, n_steps=16,
                       base=BaseSM("gaussian_white", seed=7))
    return picard_solve(prepare(spec))


@pytest.fixture(scope="module")
def ev2(kernel_cache, vicsek):
    hf = HFunction(kernel_cache("vicsek", 2), sigma_preset("smooth", vicsek), T=1.0)
    real = realize(BaseSM("gaussian_white", seed=2), vicsek, n_max=4)
    return eval_eta(hf, real, np.linspace(0.0625, 1.0, 5), n_max=4)


@pytest.fixture(scope="module", params=["reflecting", "dirichlet"])
def tab2(request, generator_cache):
    return kernel(generator_cache("vicsek", 2, 0, request.param),
                  times=np.geomspace(0.01, 0.5, 6))


class TestArtifactBytes:
    def test_eta(self, ev2, tmp_path):
        same_bytes(tmp_path, ev2.to_csv, lambda p: ref_eta(ev2, p))

    def test_eta_convergence(self, ev2, tmp_path):
        same_bytes(tmp_path, ev2.diagnostics_csv, lambda p: ref_eta_convergence(ev2, p))

    def test_solution(self, sol2, tmp_path):
        same_bytes(tmp_path, sol2.to_csv, lambda p: ref_solution(sol2, p))

    def test_diagnostics(self, sol2, tmp_path):
        same_bytes(tmp_path, sol2.diagnostics_csv, lambda p: ref_diagnostics(sol2, p))

    @pytest.mark.parametrize("M", [0, 1])
    def test_realization(self, vicsek, tmp_path, M):
        real = realize(BaseSM("gaussian_white", seed=5), vicsek, M=M, n_max=4)
        same_bytes(tmp_path, lambda p: write_realization(real, p),
                   lambda p: ref_realization(real, p))

    def test_realization_atoms(self, vicsek, tmp_path):
        real = realize(BaseSM("atomic_series", atoms=((0.3, 1.5), (0.71, -0.25))),
                       vicsek, n_max=3)
        same_bytes(tmp_path, lambda p: write_realization(real, p),
                   lambda p: ref_realization(real, p))

    @pytest.mark.parametrize("x_ids", [None, [0, 5, 7]])
    def test_kernel(self, tab2, tmp_path, x_ids):
        ref_ids = range(tab2.kernel.n_vertices) if x_ids is None else x_ids
        same_bytes(tmp_path, lambda p: tab2.to_csv(p, x_ids=x_ids),
                   lambda p: ref_kernel(tab2, p, ref_ids))

    def test_kernel_diag(self, tab2, tmp_path):
        same_bytes(tmp_path, tab2.diag_csv, lambda p: ref_kernel_diag(tab2, p))

    @pytest.mark.parametrize("name", ["vicsek", "gasket"])
    def test_vertices(self, vs_cache, tmp_path, name):
        vs = vs_cache(name, 2)
        w = measure_weights(vs)
        same_bytes(tmp_path, lambda p: vs.to_csv(p, w),
                   lambda p: ref_vertices(vs, p, w.weights))


class TestWriteBlock:
    SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16,
               9999999999999998.0, 1e-05, 0.0001, 0.1, -2.5]

    def test_special_values_as_repr(self, tmp_path):
        vals = np.column_stack([self.SPECIAL, np.zeros(len(self.SPECIAL))])[:, 0]
        assert not vals.flags.c_contiguous
        keys = _text.ints(range(len(vals)))
        with _text.open_table(tmp_path / "t.csv", "k,v\n") as f:
            _text.write_block(f, "h,", keys, vals)
        ref = "k,v\n" + "".join(f"h,{k},{float(v)!r}\n" for k, v in enumerate(vals))
        assert (tmp_path / "t.csv").read_text() == ref
        assert "h,0,-0.0\n" in ref and "h,1,nan\n" in ref and "h,3,-inf\n" in ref
        assert "5e-324" in ref and "1e+16" in ref and "9999999999999998.0" in ref
        assert "1e-05" in ref and "0.0001" in ref

    def test_float_keys_and_non_contiguous_block(self, tmp_path):
        grid = np.arange(24, dtype=float).reshape(4, 6) / 7.0
        block = grid[::2, ::-3].T                     # strided, reversed view
        assert not block.flags.c_contiguous
        keys = _text.floats(self.SPECIAL[:len(block)], end=";")
        with _text.open_table(tmp_path / "t.csv", "") as f:
            _text.write_block(f, "", keys, block)
        ref = "".join(f"{float(k)!r};{float(a)!r},{float(b)!r}\n"
                      for k, (a, b) in zip(self.SPECIAL, block))
        assert (tmp_path / "t.csv").read_text() == ref

    def test_int_dtype_values_written_as_floats(self, tmp_path):
        with _text.open_table(tmp_path / "t.csv", "") as f:
            _text.write_block(f, "", ["a ", "b "], np.array([3, -1]))
        assert (tmp_path / "t.csv").read_text() == "a 3.0\nb -1.0\n"

    def test_key_count_must_match(self, tmp_path):
        with _text.open_table(tmp_path / "t.csv", "") as f:
            with pytest.raises(ValueError):
                _text.write_block(f, "", ["0,"], np.zeros(2))
