import math

import numpy as np
import pytest

import opcalc.torus as tor
import opcalc.allen_cahn as ac
import opcalc.linalg as la
from opcalc.allen_cahn import (ACProblem, contraction_time, evolve, first_segment,
                               global_existence_check, picard_solve, strong_residual)
from opcalc.baselines import BaselineStore
from opcalc.besov import BesovIndex, besov_multiplier_norm, block_norms, regular_apply_symbol
from opcalc.config import ExperimentConfig
from opcalc.errors import (BackendMismatch, BlowUpDetected, HypothesisViolation, NoContraction,
                           SymbolDomainError, SymbolHypothesisError, SymbolNotFinite)
from opcalc.experiments import run_allen_cahn
from opcalc.expr import parse_symbol
from opcalc.linalg import HermitianOperator, func_calc
from opcalc.seeding import rng_for
from opcalc.symbols import SmoothSymbol


@pytest.fixture(scope="module")
def alg():
    return tor.TorusAlgebra(d=2, N=16, theta_num=1)


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
        dev = np.max(np.abs(traj.coeffs[i] - tor.heat(u0, t).coeffs))
        assert dev <= 1e-10


def test_zero_datum_stays_zero(alg):
    zero = tor.TorusElement(alg, np.zeros(alg.shape, complex))
    prob = ACProblem(u0=zero, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.05, dt=1e-3,
                     blow_up_threshold=10.0)
    traj, _ = picard_solve(prob)
    assert np.max(np.abs(traj.coeffs)) == 0.0


def test_linear_symbol_closed_form(u0, alg):
    c = 0.5
    prob = ACProblem(u0=u0, F=parse_symbol("0.5*x"), idx=IDX, t_max=0.2, dt=1e-3)
    traj, _ = picard_solve(prob)
    err = 0.0
    for i, t in enumerate(traj.times):
        exact = u0.coeffs * np.exp((-alg.abs_k ** 2 + c) * t)
        err = max(err, tor.lp_norm(tor.TorusElement(alg, traj.coeffs[i] - exact), 2))
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
    traj, rep = picard_solve(prob, max(1, round(min(t_c, 0.5) / prob.dt)))
    assert rep["contraction_factor"] < 1.0
    assert rep["ball_radius"] <= rep["ball_bound"] * (1 + 1e-9)
    assert rep["hermitian_dev"] <= 1e-11


def test_picard_uniqueness_across_initial_iterates(u0):
    # the solver starts from the heat flow; the reference iterates from the
    # constant path u0 and must reach the same fixed point
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.1, dt=1e-3)
    tol = ac.PICARD_TOL
    t1, _ = picard_solve(prob)
    t2, _ = _per_state_picard(prob, 0.1, "constant", "matrix")
    assert len(t1.coeffs) == len(t2)
    dev = max(tor.lp_norm(tor.TorusElement(u0.algebra, a - b), 2)
              for a, b in zip(t1.coeffs, t2))
    assert dev <= 10 * tol * max(1.0, tor.lp_norm(u0, 2))


def test_no_contraction_at_large_horizon(alg):
    # a stiff cubic with order-one data fails to contract on a long horizon
    u = 1.5 * tor.random_element(alg, rng_for(1, "nc"), band=2, decay=1.0)
    prob = ACProblem(u0=u, F=parse_symbol("8*x**3"), idx=IDX, t_max=8.0, dt=5e-3,
                     blow_up_threshold=1e6)
    with pytest.raises((NoContraction, BlowUpDetected)):
        picard_solve(prob)


def test_evolve_runs_to_horizon(u0):
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.3, dt=2e-3)
    traj = evolve(prob, segment_time=0.12)
    assert not traj.blow_up
    assert traj.times[-1] == pytest.approx(0.3, abs=1e-9)
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.coeffs) == len(traj.times)


def test_evolve_heat_only(u0):
    prob = ACProblem(u0=u0, F=parse_symbol("0*x"), idx=IDX, t_max=0.3, dt=2e-3)
    traj = evolve(prob, segment_time=0.1)
    assert not traj.blow_up
    # heat contraction: Besov norm never increases
    assert np.all(np.diff(traj.besov_norms) <= 1e-11)


def test_evolve_halving_recovers_from_large_segment(alg):
    # a strong linear drive fails to contract on the full horizon; the
    # halving loop finds a workable segment and still reaches t_max.  The
    # 101 steps are odd, so a halved segment is floored to whole steps.
    u = tor.random_element(alg, rng_for(5, "halve"), band=2, decay=2.0)
    prob = ACProblem(u0=u, F=parse_symbol("40*x"), idx=IDX, t_max=0.101, dt=1e-3,
                     blow_up_threshold=1e6)
    with pytest.raises(NoContraction):
        picard_solve(prob)
    traj = evolve(prob, segment_time=0.101)
    assert not traj.blow_up
    assert traj.times[-1] == pytest.approx(0.101, abs=1e-9)
    assert np.array_equal(traj.times, prob.dt * np.arange(102))
    rep = traj.reports
    assert rep["halvings"] >= 1
    assert sum(seg["horizon"] for seg in rep["segments"]) == pytest.approx(0.101, abs=1e-9)
    steps = [round(seg["horizon"] / prob.dt) for seg in rep["segments"]]
    assert steps[0] == 101 // 2 ** rep["halvings"] and sum(steps) == 101
    for seg in rep["segments"]:
        assert seg["sweeps"] == len(seg["distances"]) >= 1
        assert seg["contraction_factor"] < 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_non_finite_iterate_is_a_blow_up():
    # F(u) = u^4 overflows at u = 1e100: F = inf at a finite point of the
    # spectrum (the grid values at theta = 0) may not pass for a converged
    # fixed point
    alg0 = tor.TorusAlgebra(d=2, N=4, theta_num=0)
    prob = ACProblem(u0=1e100 * tor.unit_element(alg0), F=parse_symbol("x**4"), idx=IDX,
                     t_max=0.01, dt=1e-3)
    with pytest.raises(BlowUpDetected, match="in sweep 1") as err:
        picard_solve(prob)
    assert isinstance(err.value.__cause__, SymbolNotFinite)
    traj = evolve(prob, segment_time=0.01)
    assert traj.blow_up
    assert traj.blow_up_time == pytest.approx(0.01)
    assert traj.times.tolist() == [0.0] and traj.reports["segments"] == []


def test_non_real_symbol_rejected_on_both_routes():
    # F = 0.1 i x is not real-valued on any nonzero spectrum: the grid
    # evaluation (theta = 0) and the functional calculus (theta != 0) reject
    # it through the one real-valuedness test instead of running on with
    # non-Hermitian states
    F = SmoothSymbol(func=lambda x: 0.1j * x,
                     derivs=(lambda x: 0.1j * np.ones_like(x), lambda x: 0j * x), check=False)
    for theta_num in (0, 1):
        alg = tor.TorusAlgebra(d=2, N=4, theta_num=theta_num)
        prob = ACProblem(u0=0.5 * tor.unit_element(alg), F=F, idx=IDX, t_max=0.01, dt=1e-3)
        with pytest.raises(SymbolDomainError, match="not real-valued"):
            picard_solve(prob)


def test_evolve_blow_up_riccati():
    # zero-mode Riccati: du/dt = u^2 from u(0) = 2 escapes at t = 1/2
    alg0 = tor.TorusAlgebra(d=2, N=8, theta_num=0)
    u = 2.0 * tor.unit_element(alg0)
    prob = ACProblem(u0=u, F=parse_symbol("x**2"), idx=IDX, t_max=2.0, dt=1e-3,
                     blow_up_threshold=50.0)
    traj = evolve(prob, segment_time=0.05)
    assert traj.blow_up
    assert traj.blow_up_time == pytest.approx(0.5, abs=0.1)
    assert np.all(np.diff(traj.besov_norms) >= -1e-9)  # escape is monotone here


@pytest.mark.parametrize("segment_time", [0.1, 0.0143])
@pytest.mark.parametrize("expr", ["tanh(x)", "x - x**3", "x - x*abs(x)"])
def test_strong_residual_refinement(u0, expr, segment_time):
    # second-order refinement of check (d), also for a segment that is not a
    # multiple of either step: the continuation stays on one grid of dt
    prob_c = ACProblem(u0=u0, F=parse_symbol(expr), idx=IDX, t_max=0.2, dt=2e-3)
    prob_f = ACProblem(u0=u0, F=parse_symbol(expr), idx=IDX, t_max=0.2, dt=1e-3)
    _, rc = strong_residual(evolve(prob_c, segment_time=segment_time), prob_c)
    _, rf = strong_residual(evolve(prob_f, segment_time=segment_time), prob_f)
    assert np.max(rc) / np.max(rf) >= 3.0


@pytest.mark.parametrize("expr", ["tanh(x)", "x - x**3"])
def test_evolve_segment_runs_at_exactly_dt(u0, expr):
    # 6 steps of 3e-3 are a horizon of 0.018000000000000002, and that over 6
    # is not 3e-3: a segment kept as a step count runs at dt itself, so the
    # first segment of evolve is the 6-step solve, bit for bit
    prob = ACProblem(u0=u0, F=parse_symbol(expr), idx=IDX, t_max=0.036, dt=3e-3)
    assert 6 * prob.dt / 6 != prob.dt
    traj = evolve(prob, segment_time=0.018)
    assert traj.reports["halvings"] == 0
    ref, rep = picard_solve(prob, 6)
    assert np.array_equal(traj.coeffs[:7], ref.coeffs)
    assert np.array_equal(traj.besov_norms[:7], ref.besov_norms)
    assert traj.reports["segments"][0]["distances"] == rep["distances"]


def test_evolve_stays_on_one_time_grid(u0):
    # segments of 0.0143 are 14 whole steps of 1e-3: the times are the grid
    # itself, bit for bit, and every solved horizon is a whole number of steps
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.2, dt=1e-3)
    traj = evolve(prob, segment_time=0.0143)
    assert np.array_equal(traj.times, prob.dt * np.arange(len(traj.times)))
    assert len(traj.times) == len(traj.coeffs) == len(traj.besov_norms) == 201
    steps = [seg["horizon"] / prob.dt for seg in traj.reports["segments"]]
    assert steps == pytest.approx([round(k) for k in steps], abs=1e-9)
    assert [round(k) for k in steps] == [14] * 14 + [4]
    # t_max = 0.1 is not on the grid of 3e-3: the run ends at the first grid
    # point past it, 34 steps or t = 0.102
    prob3 = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.1, dt=3e-3)
    rep = global_existence_check(prob3, c_lip_baseline=1.0, segment_time=0.05)
    traj3 = rep["trajectory"]
    assert rep["completed"]
    assert len(traj3.times) == 35 and traj3.times[-1] == pytest.approx(0.102, abs=1e-12)
    assert np.array_equal(traj3.times, prob3.dt * np.arange(35))


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
    # the highest dyadic block with substantial initial energy decays below
    # its t = 0 value after a few steps
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.1, dt=2e-3)
    traj = evolve(prob, segment_time=0.1)
    states = [tor.TorusElement(u0.algebra, c) for c in traj.coeffs]
    nb0 = block_norms(states[0], 2.0)
    top = int(np.max(np.nonzero(nb0 >= 0.01 * np.max(nb0))[0]))
    late = [block_norms(s, 2.0)[top] for t, s in zip(traj.times, states) if t >= 10 * prob.dt]
    assert late and max(late) < nb0[top]


def test_heat_block_decay_bound(u0, alg):
    # heat flow damps block j at least by exp(-t 4^{j-1}) (annulus lower edge)
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
    got = traj.coeffs[:, 0, 0].real
    assert np.max(np.abs(got - expect)) <= 1e-6


def test_negative_time_rejected(u0):
    with pytest.raises(ValueError):
        tor.heat(u0, -0.5)
    with pytest.raises(ValueError):
        ACProblem(u0=u0, F=parse_symbol("x"), idx=IDX, t_max=1.0, dt=-1e-3)


def _cross_check_problem():
    alg0 = tor.TorusAlgebra(d=2, N=8, theta_num=0)
    u = tor.random_element(alg0, rng_for(2, "cc"), band=3, decay=2.0)
    prob = ACProblem(u0=u, F=parse_symbol("x**3"), idx=IDX, t_max=0.05, dt=1e-3)
    return alg0, prob, picard_solve(prob)[0].coeffs


def _cross_check_reference(alg0, prob, states):
    """Check (f)'s reference: F on the real coset blocks of the left-regular
    realization, read from column 0 of each block."""
    return regular_apply_symbol(prob.F, alg0, states)


def test_commutative_cross_check_small(alg):
    # check (f) at N = 8: F(u) along a theta = 0 Picard trajectory against
    # F on the left-regular (convolution) realization
    alg0, prob, states = _cross_check_problem()
    ref = _cross_check_reference(alg0, prob, states)
    got = prob.apply_F(states).reshape(len(states), -1)
    assert np.max(np.linalg.norm(got - ref, axis=1)) <= 1e-8
    with pytest.raises(BackendMismatch):  # the convolution realization is flat only
        tor.regular_blocks(alg, states[:1])


def test_cross_check_reference_uses_no_fft(monkeypatch):
    # the reference of check (f) must not share the grid route's FFT
    alg0, prob, states = _cross_check_problem()
    expect = _cross_check_reference(alg0, prob, states)

    class NoFFT:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.fft.{name} called")

    tor._parity_tables.cache_clear()
    monkeypatch.setattr(np, "fft", NoFFT())
    with pytest.raises(AssertionError, match="numpy.fft"):  # the guard is live
        tor.grid_values(alg0, states)
    assert np.array_equal(_cross_check_reference(alg0, prob, states), expect)


def _per_state_picard(problem, horizon, initial, reference, max_iter=40, tol=1e-10):
    """Picard iteration one state at a time: F applied matrix by matrix
    (``reference = "matrix"``: the clock/shift or grid-diagonal realization)
    or grid by grid (``"grid"``, theta = 0), the distance taken state by state."""
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
        if reference == "grid":
            return tor.from_grid_values(alg, problem.F(tor.grid_values(alg, c[None]).real))[0]
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


@pytest.mark.parametrize("theta_num,reference,initial,horizon", [
    (1, "matrix", "heat", 0.15), (0, "matrix", "heat", 0.03), (0, "grid", "heat", 0.03)])
def test_picard_matches_per_state_reference(theta_num, reference, initial, horizon):
    # the batched sweep (stacked functional calculus over chunks of the time
    # grid; one stacked grid evaluation at theta = 0) gives the per-state
    # bits.  At theta = 0 every case is also held to the per-state matrix
    # functional calculus, so the one route keeps the bits of both routes
    # it replaced.
    alg = tor.TorusAlgebra(d=2, N=16 if theta_num else 8, theta_num=theta_num)
    u = tor.random_element(alg, rng_for(theta_num, "sweep"), band=3, decay=2.0)
    prob = ACProblem(u0=u, F=parse_symbol("tanh(x)"), idx=IDX, t_max=horizon, dt=1e-3)
    traj, rep = picard_solve(prob)
    assert len(tor.realization_chunks(alg, len(traj.coeffs))) > 1 or theta_num == 0
    for ref_route in sorted({reference, "matrix"}):
        ref, distances = _per_state_picard(prob, horizon, initial, ref_route)
        assert rep["distances"] == distances
        assert len(traj.coeffs) == len(ref)
        for state, c in zip(traj.coeffs, ref):
            assert np.array_equal(state, c)


def test_picard_ball_norms_match_per_state(u0):
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.05, dt=1e-3)
    traj, _ = picard_solve(prob)
    assert traj.besov_norms.tolist() == [besov_multiplier_norm(tor.TorusElement(u0.algebra, c), IDX)
                                         for c in traj.coeffs]


def test_evolve_reads_the_shared_first_segment(u0, monkeypatch):
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.25, dt=2e-3)
    plain = evolve(prob, segment_time=0.1)
    first = first_segment(prob, 0.1)
    calls = []
    solve = ac.picard_solve
    monkeypatch.setattr(ac, "picard_solve", lambda *a, **k: calls.append(k) or solve(*a, **k))
    shared = evolve(prob, segment_time=0.1, first=first)
    assert len(calls) == len(plain.reports["segments"]) - 1 == 2
    assert shared.times.tolist() == plain.times.tolist()
    assert shared.besov_norms.tolist() == plain.besov_norms.tolist()
    assert shared.reports == plain.reports
    assert np.array_equal(shared.coeffs, plain.coeffs)


def test_first_segment_is_none_when_the_solve_fails(u0):
    prob = ACProblem(u0=u0, F=parse_symbol("tanh(x)"), idx=IDX, t_max=0.1, dt=1e-3,
                     blow_up_threshold=1e-3)
    assert first_segment(prob, 0.1) is None


def test_run_allen_cahn_eigensolves(monkeypatch):
    # the fine run of check (d) and check (e) solve their shared first segment
    # once, and check (f) diagonalizes 2^d blocks of side (N/2)^d per state
    # instead of one matrix of side N^d
    cfg = ExperimentConfig(kind="allen-cahn", seed=3, ensemble=1, band=2, d=2, n_modes=8,
                           theta_num=1, expr="tanh(x)", s=1.5, p=2.0, q=2.0, t_max=0.3, dt=0.005)
    store = BaselineStore(data={f"{cfg.config_hash}/c_bound": 1.0, f"{cfg.config_hash}/c_lip": 1.0})
    seen = {}
    original = la.eig_hermitian

    def counted(h):
        shape = np.shape(h.data if isinstance(h, HermitianOperator) else h)
        seen[shape[-1]] = seen.get(shape[-1], 0) + int(np.prod(shape[:-2]))
        return original(h)
    monkeypatch.setattr(la, "eig_hermitian", counted)
    res = run_allen_cahn(cfg, store)
    assert res.passed
    # 2404 clock/shift states of side 8; check (f): 11 states x 4 blocks of side 16
    assert seen == {8: 2404, 16: 44}
