import math

import numpy as np
import pytest

import opcalc.torus as tor
from opcalc.allen_cahn import (ACProblem, Trajectory, commutative_cross_check,
                               contraction_time, evolve, export_trajectory_csv,
                               global_existence_check, picard_solve, smoothing_report,
                               strong_residual)
from opcalc.besov import BesovIndex, besov_multiplier_norm
from opcalc.errors import (BlowUpDetected, HypothesisViolation, NoContraction,
                           SymbolHypothesisError)
from opcalc.expr import parse_symbol
from opcalc.linalg import HermitianOperator, func_calc
from opcalc.seeding import rng_for


@pytest.fixture(scope="module")
def alg():
    return tor.TorusAlgebra.make(d=2, N=16, theta_num=1)


@pytest.fixture(scope="module")
def u0(alg):
    return tor.random_element(alg, rng_for(0, "ac"), band=3, decay=2.0)


IDX = BesovIndex(1.5, 2, 2)


def test_problem_validation(alg, u0):
    with pytest.raises(SymbolHypothesisError):
        ACProblem(u0=u0, F=parse_symbol("1 + x"), idx=IDX)  # F(0) != 0
    bad = tor.TorusElement(alg, 1j * u0.coeffs)
    with pytest.raises(SymbolHypothesisError):
        ACProblem(u0=bad, F=parse_symbol("x"), idx=IDX)
    with pytest.raises(HypothesisViolation):
        ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=BesovIndex(0.5, 2, 2))  # s <= d/p


def test_heat_flow_single_sweep(u0, alg):
    prob = ACProblem(u0=u0, F=parse_symbol("0*x"), idx=IDX, t_max=0.2, dt=1e-3)
    traj, rep = picard_solve(prob)
    assert rep["sweeps"] == 1  # Duhamel term vanishes
    for i, t in enumerate(traj.times):
        dev = np.max(np.abs(traj.states[i].coeffs - tor.heat(u0, t).coeffs))
        assert dev <= 1e-10


def test_zero_datum_stays_zero(alg):
    zero = tor.TorusElement(alg, np.zeros(alg.shape, complex))
    prob = ACProblem(u0=zero, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.05, dt=1e-3,
                     blow_up_threshold=10.0)
    traj, _ = picard_solve(prob)
    assert max(np.max(np.abs(s.coeffs)) for s in traj.states) == 0.0


def test_linear_symbol_closed_form(u0, alg):
    c = 0.5
    prob = ACProblem(u0=u0, F=parse_symbol("0.5*x"), idx=IDX, t_max=0.2, dt=1e-3)
    traj, _ = picard_solve(prob)
    err = 0.0
    for i, t in enumerate(traj.times):
        exact = u0.coeffs * np.exp((-alg.abs_k ** 2 + c) * t)
        err = max(err, tor.lp_norm(tor.TorusElement(alg, traj.states[i].coeffs - exact), 2))
    assert err <= 1e-8


def test_contraction_time_formula(u0):
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=1.0, dt=1e-3)
    t1 = contraction_time(prob, 1.0, 1.0)
    # doubling the symbol halves the horizon
    prob2 = ACProblem(u0=u0, F=parse_symbol("2*tanh(x)"), idx=IDX, t_max=1.0, dt=1e-3)
    t2 = contraction_time(prob2, 1.0, 1.0)
    assert t2 == pytest.approx(t1 / 2, rel=1e-6)
    # enlarging delta never increases the horizon (up to norm-grid resolution)
    prob3 = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=1.0, dt=1e-3, delta=2.0)
    assert contraction_time(prob3, 1.0, 1.0) <= t1 * (1 + 1e-4)
    assert t1 > 0


def test_picard_contraction_and_ball(u0):
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=1.0, dt=2e-3)
    t_c = contraction_time(prob, 1.0, 1.0)
    traj, rep = picard_solve(prob, horizon=min(t_c, 0.5))
    assert rep["contraction_factor"] < 1.0
    assert rep["ball_radius"] <= rep["ball_bound"] * (1 + 1e-9)
    assert rep["hermitian_dev"] <= 1e-11


def test_picard_uniqueness_across_initial_iterates(u0):
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.1, dt=1e-3)
    tol = 1e-10
    t1, _ = picard_solve(prob, horizon=0.1, tol=tol, initial="heat")
    t2, _ = picard_solve(prob, horizon=0.1, tol=tol, initial="constant")
    dev = max(tor.lp_norm(a - b, 2) for a, b in zip(t1.states, t2.states))
    assert dev <= 10 * tol * max(1.0, tor.lp_norm(u0, 2))


def test_no_contraction_at_large_horizon(alg):
    # a stiff cubic with order-one data fails to contract on a long horizon
    u = 1.5 * tor.random_element(alg, rng_for(1, "nc"), band=2, decay=1.0)
    prob = ACProblem(u0=u, F=parse_symbol("8*x**3"), idx=IDX, t_max=8.0, dt=5e-3,
                     blow_up_threshold=1e6)
    with pytest.raises((NoContraction, BlowUpDetected)):
        picard_solve(prob, horizon=8.0, max_iter=12)


def test_evolve_runs_to_horizon(u0):
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.3, dt=2e-3)
    traj = evolve(prob, segment_time=0.12)
    assert not traj.blow_up
    assert traj.times[-1] == pytest.approx(0.3, abs=1e-9)
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.states) == len(traj.times)


def test_evolve_heat_only(u0):
    prob = ACProblem(u0=u0, F=parse_symbol("0*x"), idx=IDX, t_max=0.3, dt=2e-3)
    traj = evolve(prob, segment_time=0.1)
    assert not traj.blow_up
    # heat contraction: Besov norm never increases
    assert np.all(np.diff(traj.besov_norms) <= 1e-11)


def test_evolve_halving_recovers_from_large_segment(alg):
    # a strong linear drive fails to contract on the full horizon; the
    # halving loop finds a workable segment and still reaches t_max
    u = tor.random_element(alg, rng_for(5, "halve"), band=2, decay=2.0)
    prob = ACProblem(u0=u, F=parse_symbol("40*x"), idx=IDX, t_max=0.1, dt=1e-3,
                     blow_up_threshold=1e6)
    with pytest.raises(NoContraction):
        picard_solve(prob, horizon=0.1)
    traj = evolve(prob, segment_time=0.1)
    assert not traj.blow_up
    assert traj.times[-1] == pytest.approx(0.1, abs=1e-9)
    rep = traj.reports
    assert rep["halvings"] >= 1
    assert sum(seg["horizon"] for seg in rep["segments"]) == pytest.approx(0.1, abs=1e-9)
    for seg in rep["segments"]:
        assert seg["sweeps"] == len(seg["distances"]) >= 1
        assert seg["contraction_factor"] < 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_non_finite_iterate_is_a_blow_up():
    # F(u) = u^4 overflows at u = 1e100: the first sweep leaves inf/NaN states,
    # which must not pass for a converged fixed point
    algc = tor.TorusAlgebra.make(d=2, N=4, theta_num=0, backend="commutative")
    prob = ACProblem(u0=1e100 * tor.unit_element(algc), F=parse_symbol("x**4"), idx=IDX,
                     t_max=0.01, dt=1e-3)
    with pytest.raises(BlowUpDetected, match="non-finite Picard iterate in sweep 1"):
        picard_solve(prob)
    traj = evolve(prob, segment_time=0.01)
    assert traj.blow_up
    assert traj.blow_up_time == pytest.approx(0.01)
    assert traj.times.tolist() == [0.0] and traj.reports["segments"] == []


def test_evolve_blow_up_riccati():
    # zero-mode Riccati: du/dt = u^2 from u(0) = 2 escapes at t = 1/2
    algc = tor.TorusAlgebra.make(d=2, N=8, theta_num=0, backend="commutative")
    u = 2.0 * tor.unit_element(algc)
    prob = ACProblem(u0=u, F=parse_symbol("x**2"), idx=IDX, t_max=2.0, dt=1e-3,
                     blow_up_threshold=50.0)
    traj = evolve(prob, segment_time=0.05)
    assert traj.blow_up
    assert traj.blow_up_time == pytest.approx(0.5, abs=0.1)
    assert np.all(np.diff(traj.besov_norms) >= -1e-9)  # escape is monotone here


def test_strong_residual_refinement(u0):
    prob_c = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.2, dt=2e-3)
    prob_f = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.2, dt=1e-3)
    _, rc = strong_residual(evolve(prob_c, segment_time=0.1), prob_c)
    _, rf = strong_residual(evolve(prob_f, segment_time=0.1), prob_f)
    assert np.max(rc) / np.max(rf) >= 3.0


def test_strong_residual_heat_flow(alg):
    # smooth corpus: the O(dt^2) constant scales with |k|^6, so heavy mode
    # decay keeps the absolute residual at the 1e-6 level
    u_s = tor.random_element(alg, rng_for(4, "acs"), band=2, decay=4.0)
    prob = ACProblem(u0=u_s, F=parse_symbol("0*x"), idx=IDX, t_max=0.1, dt=1e-3)
    traj, _ = picard_solve(prob)
    ts, res = strong_residual(traj, prob)
    assert ts[0] > 0.0  # initial times excluded
    assert np.max(res) <= 1e-6


def test_smoothing_report(u0):
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.1, dt=2e-3)
    traj = evolve(prob, segment_time=0.1)
    rep = smoothing_report(traj, prob, alphas=(2.0, 2.5))
    norms0 = [row["norm"] for row in rep["rows"] if row["t"] == 0.0]
    assert all(np.isfinite(v) for v in (row["norm"] for row in rep["rows"]))
    assert norms0[0] == pytest.approx(
        besov_multiplier_norm(u0, BesovIndex(2.0, 2, 2)), rel=1e-12)
    # top dyadic block decays relative to t = 0 after a few steps
    late = rep["top_ratios"][rep["times"] >= 10 * prob.dt]
    assert np.all(late < 1.0)


def test_heat_block_decay_bound(u0, alg):
    # heat flow damps block j at least by exp(-t 4^{j-1}) (annulus lower edge)
    from opcalc.besov import block_norms
    t = 0.2
    nb0 = block_norms(u0, 2.0)
    nbt = block_norms(tor.heat(u0, t), 2.0)
    for j in range(1, len(nb0)):
        if nb0[j] > 1e-12:
            assert nbt[j] <= nb0[j] * math.exp(-t * 4.0 ** (j - 1)) * (1 + 1e-9)


def test_global_existence_tanh(u0):
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=1.0, dt=2e-3)
    rep = global_existence_check(prob, c_lip_baseline=1.0, segment_time=0.25)
    assert rep["completed"]
    assert rep["max_envelope_ratio"] <= 1.0 + 1e-6


def test_global_existence_linear_envelope(u0, alg):
    # F = cx: the zero mode grows exactly like e^{ct}
    c = 0.4
    base = tor.unit_element(alg) * 1.0
    prob = ACProblem(u0=base, F=parse_symbol("0.4*x"), idx=IDX, t_max=1.0, dt=1e-3)
    traj = evolve(prob, segment_time=0.25)
    expect = np.exp(c * traj.times)
    got = np.array([s.coeffs[0, 0].real for s in traj.states])
    assert np.max(np.abs(got - expect)) <= 1e-6


def test_negative_time_rejected(u0):
    with pytest.raises(ValueError):
        tor.heat(u0, -0.5)
    with pytest.raises(ValueError):
        ACProblem(u0=u0, F=parse_symbol("x"), idx=IDX, t_max=1.0, dt=-1e-3)


def test_commutative_cross_check_small(alg):
    alg0 = tor.TorusAlgebra.make(d=2, N=16, theta_num=0, backend="matrix")
    u = tor.random_element(alg0, rng_for(2, "cc"), band=3, decay=2.0)
    prob = ACProblem(u0=u, F=parse_symbol("x**3"), idx=IDX, t_max=0.05, dt=1e-3)
    assert commutative_cross_check(prob, horizon=0.05) <= 1e-8
    with pytest.raises(HypothesisViolation):
        commutative_cross_check(ACProblem(u0=tor.random_element(alg, rng_for(3, "cc"), band=3),
                                          F=parse_symbol("x**3"), idx=IDX, t_max=0.05, dt=1e-3))


def test_trajectory_csv_export(tmp_path, u0):
    prob = ACProblem(u0=u0, F=parse_symbol("0*x"), idx=IDX, t_max=0.05, dt=5e-3)
    traj, _ = picard_solve(prob)
    path = tmp_path / "traj.csv"
    export_trajectory_csv(traj, prob, path, alphas=(2.0,))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,besov_s1.5,besov_s2,blow_up"
    assert len(lines) == len(traj.times) + 1


def test_checkpoint_snapshots(tmp_path, u0):
    from opcalc.allen_cahn import export_checkpoints
    prob = ACProblem(u0=u0, F=parse_symbol("0*x"), idx=IDX, t_max=0.05, dt=5e-3)
    traj, _ = picard_solve(prob)
    paths = export_checkpoints(traj, tmp_path / "snaps", every=5)
    assert len(paths) >= 2
    loaded = tor.load_element(paths[0])
    assert np.max(np.abs(loaded.coeffs - traj.states[0].coeffs)) <= 1e-16


def _per_state_picard(problem, horizon, initial, max_iter=40, tol=1e-10):
    """Picard iteration one state at a time: F applied matrix by matrix (or
    grid by grid), the distance taken state by state."""
    alg = problem.u0.algebra
    steps = max(1, int(round(horizon / problem.dt)))
    dt = horizon / steps
    decay = np.exp(-dt * alg.abs_k ** 2)
    u0c = problem.u0.coeffs
    coeffs = [u0c.copy()]
    for _ in range(steps):
        coeffs.append(decay * coeffs[-1] if initial == "heat" else u0c.copy())

    def apply_F(c):
        x = tor.TorusElement(alg, c)
        if problem.f_route == "grid":
            return tor.from_grid_values(alg, np.asarray(problem.F(tor.grid_values(x).real))).coeffs
        h = HermitianOperator(tor.to_matrix(x))
        return tor.from_matrix(alg, func_calc(h, problem.F).data).coeffs

    scale = max(tor.lp_norm(problem.u0, problem.idx.p), 1e-12)
    distances = []
    for _ in range(max_iter):
        g = [apply_F(c) for c in coeffs]
        new, integral, heat_state = [u0c.copy()], np.zeros_like(u0c), u0c.copy()
        for i in range(1, len(g)):
            integral = decay * (integral + 0.5 * dt * g[i - 1]) + 0.5 * dt * g[i]
            heat_state = decay * heat_state
            new.append(heat_state + integral)
        distances.append(max(tor.lp_norm(tor.TorusElement(alg, a - b), problem.idx.p)
                             for a, b in zip(new, coeffs)))
        coeffs = new
        if distances[-1] <= tol * scale:
            break
    return coeffs, distances


@pytest.mark.parametrize("theta_num,route,initial,horizon", [
    (1, "matrix", "heat", 0.15), (1, "matrix", "constant", 0.15),
    (0, "matrix", "heat", 0.03), (0, "grid", "heat", 0.03), (0, "grid", "constant", 0.03)])
def test_picard_matches_per_state_reference(theta_num, route, initial, horizon):
    # the batched sweep (stacked functional calculus over chunks of the time
    # grid, one stacked FFT on the grid route) gives the per-state bits
    alg = tor.TorusAlgebra.make(d=2, N=16 if theta_num else 8, theta_num=theta_num)
    u = tor.random_element(alg, rng_for(theta_num, "sweep"), band=3, decay=2.0)
    prob = ACProblem(u0=u, F=parse_symbol("tanh(x)"), idx=IDX, t_max=horizon, dt=1e-3,
                     f_route=route)
    traj, rep = picard_solve(prob, horizon=horizon, initial=initial)
    ref, distances = _per_state_picard(prob, horizon, initial)
    assert len(tor.realization_chunks(alg, len(ref))) > 1 or route == "grid"
    assert rep["distances"] == distances
    assert len(traj.states) == len(ref)
    for state, c in zip(traj.states, ref):
        assert np.array_equal(state.coeffs, c)
