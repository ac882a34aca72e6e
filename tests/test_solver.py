import dataclasses
import math

import numpy as np
import pytest

import fractalheat.kernel as K
import fractalheat.solver as solver
from fractalheat.geometry import CellAddress, build_preset
from fractalheat.measure import BaseSM, realize
from fractalheat.paramint import eval_eta, h_matrix, sigma_preset
from fractalheat.solver import (
    AssumptionGateError,
    Nonlinearity,
    ProblemSpec,
    SolverError,
    _det_field,
    _nl_field,
    _stoch_field,
    _sweep,
    assumption_gate,
    bump_center,
    f_preset,
    mild_residual,
    picard_solve,
    prepare,
    u0_preset,
    uniqueness_check,
)


@pytest.fixture(scope="module")
def prob2(vicsek):
    return prepare(ProblemSpec(vicsek, level=2, depth=4,
                               base=BaseSM("gaussian_white", seed=42)))


@pytest.fixture(scope="module")
def sol2(prob2):
    return picard_solve(prob2)


class TestGate:
    def test_vicsek_preset_passes(self, prob2):
        assert prob2.gate.passed
        names = [n for n, *_ in prob2.gate.entries]
        assert len(names) == 7 and len(prob2.gate.failures()) == 0

    def test_gasket_fails_spectral_gate(self, gasket):
        prob = prepare(ProblemSpec(gasket, level=2, depth=3))
        assert prob.gate.failures() == ["A7 spectral dimension below 4/3"]
        with pytest.raises(AssumptionGateError):
            picard_solve(prob)

    def test_refusal_carries_gate_report(self, gasket):
        prob = prepare(ProblemSpec(gasket, level=2, depth=3))
        with pytest.raises(AssumptionGateError) as err:
            picard_solve(prob)
        assert "A7 spectral dimension below 4/3" in str(err.value)
        assert str(err.value).endswith(str(prob.gate))

    def test_gasket_override_runs(self, gasket):
        prob = prepare(ProblemSpec(gasket, level=2, depth=3, override_gate=True,
                                   base=BaseSM("gaussian_white", seed=1)))
        sol = picard_solve(prob)
        assert sol.converged

    def test_rough_sigma_fails_a6(self, vicsek):
        spec = ProblemSpec(vicsek, level=2, depth=3,
                           sigma=sigma_preset("rough_half", vicsek))
        report = assumption_gate(prepare(spec))
        assert "A6 Hoelder forcing above d_f/2" in report.failures()

    def test_atomic_base_fails_a8(self, vicsek):
        spec = ProblemSpec(vicsek, level=2, depth=3,
                           base=BaseSM("atomic_series", atoms=((0.3, 1.0),)))
        report = assumption_gate(prepare(spec))
        assert "A8 atomless driving measure" in report.failures()

    def test_gate_threshold_values(self, vicsek, gasket):
        assert vicsek.d_s < 4 / 3 < gasket.d_s

    # 4/3 one ulp low, 4/3 as the float 4 / 3, and 3D Vicsek's log 81 / log 27
    @pytest.mark.parametrize("d_s", [np.nextafter(4 / 3, 0.0), 4 / 3,
                                     math.log(81) / math.log(27)])
    def test_critical_spectral_dimension_refused(self, vicsek, d_s):
        # d_s = 4/3 is refused whichever way its float rounds
        model = dataclasses.replace(vicsek, d_s=d_s)
        report = assumption_gate(prepare(ProblemSpec(model, level=1, depth=2)))
        assert report.failures() == ["A7 spectral dimension below 4/3"]
        assert f"d_s = {d_s!r} is critical" in str(report)


class TestDeterministicTerm:
    def test_constant_initial_data(self, vicsek):
        prob = prepare(ProblemSpec(vicsek, level=2, depth=3, u0=u0_preset("one"),
                                   f=f_preset("zero")))
        sol = picard_solve(prob)
        assert np.abs(sol.deterministic - 1.0).max() < 1e-8

    def test_zero_initial_data(self, vicsek):
        prob = prepare(ProblemSpec(vicsek, level=2, depth=3, u0=u0_preset("zero"),
                                   f=f_preset("zero")))
        assert np.abs(picard_solve(prob).deterministic).max() == 0.0

    def test_identity_limit(self, kernel_cache, vicsek):
        # one mean jump time at level 4: smoothing moves the bump by < 3%
        # (measured 2.4%; improves with level: 15.1% at 2, 6.1% at 3)
        rels = []
        for lvl in (2, 3, 4):
            k = kernel_cache("vicsek", lvl)
            u = u0_preset("bump", center=[0.5, 0.5])(k.gen.points)
            t1 = vicsek.time_scale ** -lvl
            rels.append(np.abs(k.apply(t1, u) - u).max() / np.abs(u).max())
        assert rels[2] < 0.03
        assert rels[0] > rels[1] > rels[2]

    def test_field_rows_are_u0_and_apply(self, prob2):
        det = _det_field(prob2)
        assert np.array_equal(det[0], prob2.u0_values)
        i = 32
        assert prob2.times[i] == 0.5
        want = prob2.kernel.apply(0.5, prob2.u0_values)
        assert np.allclose(det[i], want, rtol=0, atol=1e-14)


class TestNonlinearTerm:
    def test_zero(self, prob2, sol2):
        prob = prepare(ProblemSpec(prob2.spec.model, level=2, depth=3,
                                   f=f_preset("zero")))
        sol = picard_solve(prob)
        assert np.array_equal(sol.u, sol.deterministic + sol.stochastic)

    def test_constant_gives_ct(self, vicsek):
        prob = prepare(ProblemSpec(vicsek, level=2, depth=3, f=f_preset("const", 0.3)))
        sol = picard_solve(prob)
        nl = sol.u - sol.deterministic - sol.stochastic
        assert np.abs(nl - 0.3 * sol.times[:, None]).max() < 1e-6

    def test_time_linear_gives_half_t_squared(self, vicsek):
        prob = prepare(ProblemSpec(vicsek, level=2, depth=3,
                                   f=f_preset("time_linear")))
        sol = picard_solve(prob)
        nl = sol.u - sol.deterministic - sol.stochastic
        assert np.abs(nl - 0.5 * (sol.times ** 2)[:, None]).max() < 1e-6

    def test_time_quadrature_p_refinement(self, prob2, sol2, monkeypatch):
        # the Duhamel rule is exact in the eigenvalues; raising the number
        # of Gauss nodes per step must leave the nonlinear field in place
        base = _nl_field(prob2, sol2.u)
        monkeypatch.setattr(K, "DUHAMEL_ORDER", 12)
        assert np.abs(_nl_field(prob2, sol2.u) - base).max() <= 1e-9


def _gathered_nl_field(prob, u):
    """The nonlinear term with u interpolated node by node from gathered rows
    (each node's solve interval found by searchsorted), and one contraction
    per Duhamel step: the reference order of operations."""
    kern, grid = prob.kernel, prob.times
    nodes, (rules, which) = kern._duhamel_steps(grid)
    s = nodes.ravel()
    idx = np.clip(np.searchsorted(grid, s, side="right") - 1, 0, len(grid) - 2)
    w = (s - grid[idx]) / (grid[idx + 1] - grid[idx])
    r = (1 - w[:, None]) * u[idx] + w[:, None] * u[idx + 1]
    g = prob.spec.f(s, prob.points, r)
    P, V = nodes.shape[1], kern.n_vertices
    ghat = kern._to_modes(np.ascontiguousarray(g.T))[:, :, None]
    accs = [np.zeros((V, 1))]
    for i, k in enumerate(which):
        E, W = rules[k]
        added = np.einsum("kr,krc->kc", W, ghat[:, i * P:(i + 1) * P])
        accs.append(E[:, None] * accs[-1] + added)
    kept = np.stack(accs, axis=1)
    return kern._from_modes(kept.reshape(V, -1)).T


class TestInterpolation:
    """_nl_field builds the node values in the transform's layout and
    contracts once per step length, with the gathered path's bits."""

    @staticmethod
    def _field(prob, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(-2, 2, (len(prob.times), len(prob.points)))

    def test_solve_grid(self, prob2, sol2):
        assert np.array_equal(_nl_field(prob2, sol2.u), _gathered_nl_field(prob2, sol2.u))

    def test_ulp_different_step_lengths(self, vicsek):
        prob = prepare(ProblemSpec(vicsek, level=2, depth=3, n_steps=100))
        _, (rules, _) = prob.kernel._duhamel_steps(prob.times)
        assert len(rules) > 1
        u = self._field(prob)
        assert np.array_equal(_nl_field(prob, u), _gathered_nl_field(prob, u))

    def test_dirichlet(self, vicsek):
        prob = prepare(ProblemSpec(vicsek, level=2, depth=3, boundary="dirichlet"))
        u = self._field(prob, 1)
        assert np.array_equal(_nl_field(prob, u), _gathered_nl_field(prob, u))

    def test_c_order_nonlinearity(self, vicsek):
        prob = prepare(ProblemSpec(vicsek, level=2, depth=3, f=f_preset("time_linear")))
        u = self._field(prob, 2)
        assert np.array_equal(_nl_field(prob, u), _gathered_nl_field(prob, u))

    def test_transform_reads_what_f_returned(self, prob2, sol2, monkeypatch):
        # sin returns its values column-major, the transform's layout: the
        # array moved into modes is f's own, with no transposing copy
        returned, received = [], []
        f, to_modes = prob2.spec.f, prob2.kernel._to_modes
        monkeypatch.setattr(prob2.spec, "f", Nonlinearity(
            lambda s, pts, r: returned.append(f.fn(s, pts, r)) or returned[-1],
            f.c_bound, f.lipschitz))
        monkeypatch.setattr(prob2.kernel, "_to_modes",
                            lambda x: received.append(x) or to_modes(x))
        _nl_field(prob2, sol2.u)
        assert len(returned) == len(received) == 1
        assert np.shares_memory(received[0], returned[0])


def _counted(f, calls):
    """f recording a copy of the time vector of every call."""
    return Nonlinearity(lambda s, pts, r: calls.append(s.copy()) or f.fn(s, pts, r),
                        f.c_bound, f.lipschitz)


class TestNonlinearityContract:
    """f maps S times and an (S, K) block to (S, K) values in one call."""

    def test_nl_field_calls_f_once_with_every_node(self, prob2, sol2, monkeypatch):
        want = _nl_field(prob2, sol2.u)
        calls = []
        monkeypatch.setattr(prob2.spec, "f", _counted(prob2.spec.f, calls))
        got = _nl_field(prob2, sol2.u)
        nodes, _ = prob2.kernel._duhamel_steps(prob2.times)
        assert len(calls) == 1 and np.array_equal(calls[0], nodes.ravel())
        assert np.array_equal(got, want)

    def test_one_call_per_sweep(self, vicsek):
        calls = []
        prob = prepare(ProblemSpec(vicsek, level=2, depth=3,
                                   f=_counted(f_preset("sin", 0.5), calls)))
        calls.clear()                     # the gate's spot checks
        sol = picard_solve(prob)
        assert len(calls) == sol.iterations

    @pytest.mark.parametrize("name", ["sin", "zero", "const", "time_linear"])
    def test_presets_broadcast_over_time(self, prob2, name):
        f = f_preset(name, 0.5)
        s = np.array([0.1, 0.4, 0.9])
        r = np.random.default_rng(0).uniform(-3, 3, (3, len(prob2.points)))
        block = f(s, prob2.points, r)
        rows = [f(s[i:i + 1], prob2.points, r[i:i + 1])[0] for i in range(3)]
        assert np.array_equal(block, np.stack(rows))

    def test_wrong_shapes_refused(self, prob2):
        pts = prob2.points
        s, r = np.array([0.1, 0.2]), np.zeros((2, len(pts)))
        with pytest.raises(SolverError):
            prob2.spec.f(0.1, pts, r[0])
        with pytest.raises(SolverError):
            prob2.spec.f(s, pts, r[0])
        per_time = Nonlinearity(lambda s, pts, r: np.zeros(len(pts)), 0.0, 0.0)
        with pytest.raises(SolverError):
            per_time(s, pts, r)


class TestStochasticTerm:
    def test_zero_sigma(self, vicsek):
        from fractalheat.paramint import SigmaFunction
        z = SigmaFunction(lambda s, pts: np.zeros((len(s), len(pts))), 0.0, 0.0, 1.0, "zero")
        prob = prepare(ProblemSpec(vicsek, level=2, depth=3, sigma=z))
        assert np.abs(picard_solve(prob).stochastic).max() == 0.0

    def test_zero_measure(self, vicsek):
        prob = prepare(ProblemSpec(vicsek, level=2, depth=3))
        real = prob.realization
        prob.realization = dataclasses.replace(real, component_levels=[
            [0.0 * a for a in lv] for lv in real.component_levels])
        assert np.abs(picard_solve(prob).stochastic).max() == 0.0

    def test_atomic_unit_mass_is_h(self, vicsek):
        x_atom = 4 / 25 + 5.0 ** -7
        spec = ProblemSpec(vicsek, level=3, depth=5, override_gate=True,
                           base=BaseSM("atomic_series", atoms=((x_atom, 1.0),)))
        prob = prepare(spec)
        t = float(prob.times[16])
        aid = prob.hfunction.snap_ids(2)[4]
        want = h_matrix(prob.hfunction, t)[:, aid]
        got = eval_eta(prob.hfunction, prob.realization, [t], n_max=prob.spec.depth).eta[0]
        assert np.allclose(got[[0, 5, 40]], want[[0, 5, 40]], atol=1e-12)


class TestPicard:
    def test_converges_fast(self, sol2):
        # every window converges within 10 sweeps, and the a-priori factorial
        # prediction, restarted per window, lands within 2 sweeps of the total
        assert sol2.converged and max(map(len, sol2.g_history)) <= 10
        assert abs(sol2.predicted_iterations - sol2.iterations) <= 2

    def test_initial_row_is_u0(self, prob2, sol2):
        assert np.allclose(sol2.u[0], prob2.u0_values, atol=1e-12)

    def test_g1_linear_bound(self, prob2, sol2):
        # a window starts from its linear part, so its first difference is
        # the Duhamel term of one sweep: g_0 <= C_f (t - t_a)
        cf, tau = prob2.spec.f.c_bound, sol2.tau
        for rows, history in zip(sol2.windows, sol2.g_history):
            assert np.all(history[0] <= cf * tau[rows] + 1e-6)

    def test_factorial_bound_at_horizon(self, sol2):
        # at the horizon t_b of every window
        for rows, history in zip(sol2.windows, sol2.g_history):
            for n in range(1, len(history)):
                gT = float(history[n][-1])
                if gT <= 1e-10:
                    continue
                assert gT <= sol2.bound_factorial(n)[rows][-1] * 1.1

    def test_derived_factorial_bound_every_seed(self, vicsek):
        # the one-index-lower chain holds with margin for all seeds, at every
        # grid time of every window (not only the horizon)
        for seed in (0, 1, 7, 123):
            prob = prepare(ProblemSpec(vicsek, level=2, depth=4,
                                       base=BaseSM("gaussian_white", seed=seed)))
            sol = picard_solve(prob)
            for rows, history in zip(sol.windows, sol.g_history):
                for n in range(1, len(history)):
                    g = history[n]
                    bound = sol.bound_factorial(n - 1)[rows]
                    mask = g > 1e-12
                    assert np.all(g[mask] <= bound[mask])

    def test_g_monotone_in_time(self, sol2):
        # integral form: g_n nondecreasing in t - t_a for n >= 1
        for history in sol2.g_history:
            for g in history[1:6]:
                assert np.all(np.diff(g) >= -1e-12 - 1e-9 * g.max())

    def test_f_zero_one_effective_iteration(self, vicsek):
        prob = prepare(ProblemSpec(vicsek, level=2, depth=3, f=f_preset("zero")))
        sol = picard_solve(prob)
        assert max(map(len, sol.g_history)) <= 2
        assert np.array_equal(sol.u, sol.deterministic + sol.stochastic)

    def test_nonconvergence_reported(self, vicsek):
        # a window that does not converge marks the solve, and the later
        # windows still run, so u covers every grid time
        spec = ProblemSpec(vicsek, level=2, depth=3, f=f_preset("sin", 24.0),
                           max_iter=6)
        sol = picard_solve(prepare(spec))
        assert not sol.converged and [len(h) for h in sol.g_history] == [6] * 4
        assert sol.iterations == 24
        assert np.isfinite(sol.u).all() and np.abs(sol.u[-1]).max() > 0

    def test_looser_stop_tol_stops_earlier(self, vicsek, sol2):
        prob = prepare(ProblemSpec(vicsek, level=2, depth=4, stop_tol=1e-4,
                                   base=BaseSM("gaussian_white", seed=42)))
        sol = picard_solve(prob)
        assert sol.converged and sol.iterations < sol2.iterations
        assert all(h[-1].max() < 1e-4 for h in sol.g_history)

    def test_determinism_bitwise(self, prob2, sol2):
        again = picard_solve(prob2)
        assert np.array_equal(again.u, sol2.u)

    def test_field_finite_and_g_decreasing(self, sol2):
        assert np.isfinite(sol2.u).all()
        for history in sol2.g_history:
            maxes = [float(g.max()) for g in history[1:]]
            assert all(a > b for a, b in zip(maxes[:-1], maxes[1:]))

    def test_dirichlet_boundary_solve(self, vicsek):
        prob = prepare(ProblemSpec(vicsek, level=2, depth=3, boundary="dirichlet",
                                   base=BaseSM("gaussian_white", seed=5)))
        sol = picard_solve(prob)
        assert len(prob.points) == 72    # four outer corners removed
        assert sol.converged and np.isfinite(sol.u).all()

    def test_noise_linearity_for_zero_f(self, vicsek):
        base = ProblemSpec(vicsek, level=2, depth=4, f=f_preset("zero"),
                           base=BaseSM("gaussian_white", seed=3))
        p1 = prepare(base)
        s1 = picard_solve(p1)
        p2 = prepare(base)
        p2.realization = dataclasses.replace(p1.realization, component_levels=[
            [2.0 * a for a in lv] for lv in p1.realization.component_levels])
        s2 = picard_solve(p2)
        gap = np.abs((s2.u - s2.deterministic) - 2 * (s1.u - s1.deterministic))
        assert gap.max() < 1e-10

    def test_level_refinement_consistency(self, vicsek):
        # same seed and depth at kernel levels 2 and 3: fields agree within
        # 10% sup-relative on the shared vertices
        from scipy.spatial import cKDTree
        sols = {}
        for lvl in (2, 3):
            prob = prepare(ProblemSpec(vicsek, level=lvl, depth=4,
                                       base=BaseSM("gaussian_white", seed=5)))
            sols[lvl] = (prob, picard_solve(prob))
        p2, s2 = sols[2]
        p3, s3 = sols[3]
        ids = cKDTree(p3.points).query(p2.points)[1]
        gap = np.abs(s2.u - s3.u[:, ids]).max()
        assert gap / np.abs(s3.u).max() < 0.10


def _one_window(prob, monkeypatch):
    """The solve with one window as long as the grid: the global Picard map."""
    with monkeypatch.context() as m:
        m.setattr(solver, "PICARD_WINDOW", prob.spec.n_steps)
        return picard_solve(prob)


class TestWindows:
    """The windowed sweep converges to the fixed point of the global map."""

    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("boundary", ["reflecting", "dirichlet"])
    def test_matches_one_window(self, vicsek, monkeypatch, level, boundary):
        prob = prepare(ProblemSpec(vicsek, level=level, depth=4, boundary=boundary,
                                   base=BaseSM("gaussian_white", seed=42)))
        sol, one = picard_solve(prob), _one_window(prob, monkeypatch)
        assert len(sol.windows) == 4 and len(one.windows) == 1
        assert sol.converged and one.converged
        assert np.abs(sol.u - one.u).max() <= 1e-9

    @pytest.mark.parametrize("n_steps", [2, 17, 20])
    def test_step_counts_off_the_window(self, vicsek, monkeypatch, n_steps):
        prob = prepare(ProblemSpec(vicsek, level=2, depth=4, n_steps=n_steps,
                                   base=BaseSM("gaussian_white", seed=3)))
        sol, one = picard_solve(prob), _one_window(prob, monkeypatch)
        # every grid row is owned by one window; only the last is shorter
        owned = np.concatenate([np.arange(n_steps + 1)[rows] for rows in sol.windows])
        assert np.array_equal(owned, np.arange(n_steps + 1))
        sizes = [rows.stop - max(rows.start - 1, 0) - 1 for rows in sol.windows]
        assert sizes == [16] * (n_steps // 16) + [n_steps % 16] * bool(n_steps % 16)
        assert [len(g) for h in sol.g_history for g in h] == \
            [rows.stop - rows.start for rows, h in zip(sol.windows, sol.g_history) for _ in h]
        assert sol.converged and np.abs(sol.u - one.u).max() <= 1e-9

    def test_dropped_carry_is_caught(self, prob2, sol2, monkeypatch):
        # without P_{t - t_a} N(t_a) the windows forget the nonlinear term
        # before t_a: both the match and the global residual see it
        frozen = _det_field(prob2) + _stoch_field(prob2)
        monkeypatch.setattr(prob2.kernel, "apply",
                            lambda t, v: np.zeros((len(t), len(v))))
        u, *_ = _sweep(prob2, frozen)
        monkeypatch.undo()
        one = _one_window(prob2, monkeypatch)
        assert np.abs(u - one.u).max() > 1e-3
        assert mild_residual(prob2, dataclasses.replace(sol2, u=u)) > 4e-8
        assert mild_residual(prob2, sol2) <= 4e-8

    @pytest.mark.parametrize("boundary", ["reflecting", "dirichlet"])
    def test_window_bounds_at_every_time(self, vicsek, boundary):
        # g_0 <= C_f tau, g_n <= printed bound x 1.1 and the one-index-lower
        # chain, with tau = t - t_a, at every time of every window
        for seed in (0, 1, 7, 123):
            prob = prepare(ProblemSpec(vicsek, level=2, depth=4, boundary=boundary,
                                       base=BaseSM("gaussian_white", seed=seed)))
            sol = picard_solve(prob)
            cf, tau = prob.spec.f.c_bound, sol.tau
            for rows, history in zip(sol.windows, sol.g_history):
                assert np.all(history[0] <= cf * tau[rows])
                for n in range(1, len(history)):
                    g, big = history[n], history[n] > 1e-12
                    assert np.all(g[big] <= sol.bound_factorial(n)[rows][big] * 1.1)
                    assert np.all(g[big] <= sol.bound_factorial(n - 1)[rows][big])

    def test_bound_restarts_at_every_window(self, sol2):
        tau = sol2.tau
        assert tau[0] == 0 and np.all(tau[1:] > 0)
        ends = [rows.stop - 1 for rows in sol2.windows]
        assert np.allclose(tau[ends], 0.25, rtol=0, atol=1e-15)
        assert np.allclose(tau[17], 1 / 64, rtol=0, atol=1e-15)
        assert np.array_equal(sol2.bound_factorial(0), 2 * 0.5 * tau)


class TestUniquenessAndResidual:
    def test_two_starts_same_fixed_point(self, prob2):
        assert uniqueness_check(prob2) <= 1e-7

    def test_large_offset(self, prob2):
        assert uniqueness_check(prob2, offset=100.0) <= 1e-6

    def test_mild_residual_small(self, prob2, sol2):
        assert mild_residual(prob2, sol2) <= 4e-8


class TestSpecValidation:
    def test_bad_horizon(self, vicsek):
        with pytest.raises(SolverError):
            ProblemSpec(vicsek, T=0.0)

    def test_depth_below_blowup(self, vicsek):
        with pytest.raises(SolverError):
            ProblemSpec(vicsek, blowup=2, depth=1)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_horizon_not_finite(self, vicsek, T):
        with pytest.raises(SolverError, match="finite T"):
            ProblemSpec(vicsek, T=T)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    def test_stop_tol_finite_and_positive(self, vicsek, tol):
        with pytest.raises(SolverError, match="stop_tol"):
            ProblemSpec(vicsek, stop_tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_at_least_one(self, vicsek, max_iter):
        with pytest.raises(SolverError, match="max_iter"):
            ProblemSpec(vicsek, max_iter=max_iter)

    def test_preset_constants(self):
        f = f_preset("sin", 0.5)
        assert f.c_bound == f.lipschitz == 0.5
        u0 = u0_preset("bump", center=[0.5, 0.5])
        corners = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=float)
        assert np.abs(u0(corners)).max() < 1e-3   # vanishes toward the boundary

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["sin", "const"])
    def test_non_finite_f_constant_refused(self, name, c):
        with pytest.raises(SolverError, match="not finite"):
            f_preset(name, c)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.inf, math.nan])
    def test_bump_width_positive_and_finite(self, width):
        with pytest.raises(SolverError, match="width"):
            u0_preset("bump", [0.5, 0.5], width)

    def test_default_bump_centre(self, vicsek):
        spec = ProblemSpec(vicsek, level=1, blowup=1, depth=1)
        want = u0_preset("bump", center=bump_center(vicsek, 1))
        pts = np.array([[0.0, 0.0], [1.5, 1.5], [3.0, 1.0]])
        assert np.allclose(bump_center(vicsek, 1), [1.5, 1.5])
        assert np.array_equal(spec.u0(pts), want(pts))

    def test_exports(self, sol2, tmp_path):
        sol2.to_csv(tmp_path / "u.csv")
        sol2.diagnostics_csv(tmp_path / "diag.csv")
        u_lines = (tmp_path / "u.csv").read_text().strip().splitlines()
        assert u_lines[0] == "t,x_id,u"
        assert len(u_lines) == 1 + sol2.u.size
        d_lines = (tmp_path / "diag.csv").read_text().strip().splitlines()
        assert d_lines[0] == "n,t,g_n,bound_factorial"
