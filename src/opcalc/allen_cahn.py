"""Mild-solution solver for du/dt = Laplacian u + F(u) on the fuzzy torus.

Picard iteration of the Duhamel map on a uniform time grid: the heat factor
is applied analytically per mode and the nonlinear samples are integrated by
the subinterval trapezoid rule, so the stiff linear part never enters the
quadrature error.  The iterate is one (T,) + shape coefficient stack, so a
sweep applies F to every time step in one batched functional calculus (or
one batched grid transform at theta = 0).  Short-horizon contraction segments
are concatenated up to the horizon or a detected norm escape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .besov import BesovIndex, apply_symbol_batch, besov_multiplier_norm, block_norms
from .errors import (BackendMismatch, BlowUpDetected, HypothesisViolation, NoContraction,
                     SymbolHypothesisError)
from .symbols import BumpLocalizer, SmoothSymbol, cb_norm, localize
from . import torus as tor
from .torus import TorusElement, is_hermitian, lp_norm, lp_norm_batch


@dataclass(frozen=True)
class ACProblem:
    """Initial datum, symbol and discretization of one Cauchy problem."""

    u0: TorusElement
    F: SmoothSymbol
    idx: BesovIndex = BesovIndex(1.5, 2.0, 2.0)
    t_max: float = 1.0
    dt: float = 1e-3
    delta: float = 1.0
    blow_up_threshold: Optional[float] = None
    n_smooth: Optional[int] = None
    f_route: str = "auto"  # matrix | grid | auto

    def __post_init__(self):
        if not is_hermitian(self.u0):
            raise SymbolHypothesisError("initial datum must be Hermitian")
        f0 = complex(np.asarray(self.F(np.array([0.0])))[0])
        if abs(f0) > 1e-12:
            raise SymbolHypothesisError(f"need F(0) = 0, got {f0}")
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be positive")
        # smallest smoothness order compatible with d/p < s <= n
        n = min(max(1, math.ceil(self.idx.s)), self.F.max_order) if self.n_smooth is None else self.n_smooth
        object.__setattr__(self, "n_smooth", n)
        d, p, s = self.u0.algebra.d, self.idx.p, self.idx.s
        if not (d / p < s <= n):
            raise HypothesisViolation(f"need d/p < s <= n: d/p={d / p}, s={s}, n={n}")
        if self.f_route == "auto":
            route = "grid" if self.u0.algebra.backend == "commutative" else "matrix"
            object.__setattr__(self, "f_route", route)
        if self.blow_up_threshold is None:
            object.__setattr__(self, "blow_up_threshold",
                               1e3 * max(besov_multiplier_norm(self.u0, self.idx), 1e-12))

    def apply_F(self, coeff_stack: np.ndarray) -> np.ndarray:
        """F(u) for every state of a (T,) + shape coefficient stack."""
        alg = self.u0.algebra
        if self.f_route == "grid":
            if not alg.is_flat:
                raise BackendMismatch("grid values require theta = 0")
            axes, size = tuple(range(1, alg.d + 1)), alg.N ** alg.d
            vals = np.fft.ifftn(coeff_stack, axes=axes) * size
            return np.fft.fftn(np.asarray(self.F(vals.real), dtype=np.complex128), axes=axes) / size
        return apply_symbol_batch(self.F, alg, coeff_stack)


@dataclass
class Trajectory:
    """Time grid, states, per-time diagnostics and blow-up flags."""

    times: np.ndarray
    states: list
    besov_norms: np.ndarray
    blow_up: bool = False
    blow_up_time: Optional[float] = None
    reports: dict = field(default_factory=dict)

    @property
    def final(self) -> TorusElement:
        return self.states[-1]


def contraction_time(problem: ACProblem, c_bound: float, c_lip: float) -> float:
    """T = 1 / (max(C, 2 C_p) * ||F||_{C_b^n} localized at ||u0||_inf + delta).

    The empirical constants C (Besov boundedness) and C_p (L_p Lipschitz)
    come from the committed baseline for the configuration.
    """
    m_window = lp_norm(problem.u0, math.inf) + problem.delta
    floc = localize(problem.F, BumpLocalizer(m_window))
    n = min(problem.n_smooth, problem.F.max_order)
    norm_loc = cb_norm(floc, n, window=(-2 * m_window, 2 * m_window))
    if norm_loc == 0.0:
        return problem.t_max
    return 1.0 / (max(c_bound, 2.0 * c_lip) * norm_loc)


def _heat_factors(algebra, dt: float) -> np.ndarray:
    return np.exp(-dt * algebra.abs_k ** 2)


def _duhamel_sweep(problem: ACProblem, u0_coeffs: np.ndarray, g_coeffs: np.ndarray,
                   dt: float, out: np.ndarray) -> np.ndarray:
    """Psi(u)(t_i) coefficients written into ``out``: analytic heat factors,
    trapezoid on the F samples ``g_coeffs`` (both (T,) + shape stacks)."""
    decay = _heat_factors(problem.u0.algebra, dt)
    out[0] = u0_coeffs
    integral = np.zeros_like(u0_coeffs)
    heat_state = u0_coeffs.copy()
    for i in range(1, len(g_coeffs)):
        integral = decay * (integral + 0.5 * dt * g_coeffs[i - 1]) + 0.5 * dt * g_coeffs[i]
        heat_state = decay * heat_state
        out[i] = heat_state + integral
    return out


def _state_norms(algebra, coeff_stack: np.ndarray, p) -> np.ndarray:
    """lp_norm of every state of a coefficient stack, realized chunk by chunk."""
    return np.concatenate([lp_norm_batch(algebra, coeff_stack[chunk], p)
                           for chunk in tor.realization_chunks(algebra, len(coeff_stack))])


def picard_solve(problem: ACProblem, horizon: Optional[float] = None,
                 max_iter: int = 40, tol: float = 1e-10,
                 initial: str = "heat") -> tuple:
    """Fixed point of the mild-solution map on [0, horizon].

    Returns (Trajectory, report).  The report holds the per-sweep sup-L_p
    distances and the measured contraction factor; NoContraction is raised
    when the distances fail to decrease geometrically (the caller halves the
    horizon), BlowUpDetected when a sweep leaves a non-finite iterate (its
    distance would be non-finite) or the Besov ball escapes the threshold.
    """
    alg = problem.u0.algebra
    horizon = problem.t_max if horizon is None else horizon
    steps = max(1, int(round(horizon / problem.dt)))
    dt = horizon / steps
    times = dt * np.arange(steps + 1)
    u0c = problem.u0.coeffs
    coeffs = np.empty((steps + 1,) + alg.shape, dtype=np.complex128)
    if initial == "heat":
        decay = _heat_factors(alg, dt)
        coeffs[0] = u0c
        for i in range(1, steps + 1):
            coeffs[i] = decay * coeffs[i - 1]
    elif initial == "constant":
        coeffs[:] = u0c
    else:
        raise ValueError("initial must be 'heat' or 'constant'")
    new = np.empty_like(coeffs)
    distances = []
    scale = max(lp_norm(problem.u0, problem.idx.p), 1e-12)
    for it in range(max_iter):
        _duhamel_sweep(problem, u0c, problem.apply_F(coeffs), dt, out=new)
        if not np.isfinite(new).all():
            raise BlowUpDetected(f"non-finite Picard iterate in sweep {it + 1}")
        dist = float(np.max(_state_norms(alg, new - coeffs, problem.idx.p)))
        coeffs, new = new, coeffs
        distances.append(dist)
        if dist <= tol * scale:
            break
        if len(distances) >= 3 and distances[-1] > distances[-2] >= distances[-3]:
            raise NoContraction(
                f"iterate distances non-decreasing: {distances[-3]:.3e} -> {distances[-1]:.3e}"
            )
    else:
        raise NoContraction(f"no convergence in {max_iter} sweeps (last dist {distances[-1]:.3e})")
    states = [TorusElement(alg, c) for c in coeffs]
    bnorms = np.array([besov_multiplier_norm(s, problem.idx) for s in states])
    factors = [distances[i + 1] / distances[i] for i in range(len(distances) - 1)
               if distances[i] > 0]
    report = {
        "distances": distances,
        "contraction_factor": float(np.median(factors)) if factors else 0.0,
        "ball_radius": float(np.max(bnorms)),
        "ball_bound": besov_multiplier_norm(problem.u0, problem.idx) + problem.delta,
        "hermitian_dev": max(tor.hermitian_deviation(s) for s in states),
        "sweeps": len(distances),
    }
    traj = Trajectory(times=times, states=states, besov_norms=bnorms)
    if not float(np.max(bnorms)) <= problem.blow_up_threshold:  # NaN escapes too
        raise BlowUpDetected(f"Besov norm {np.max(bnorms):.3e} above threshold")
    return traj, report


def evolve(problem: ACProblem, segment_time: Optional[float] = None,
           c_bound: float = 1.0, c_lip: float = 1.0) -> Trajectory:
    """Continuation: restart Picard from u(T) until t_max or blow-up.

    On NoContraction the segment is halved; on BlowUpDetected the trajectory
    is flagged with the norm-escape time (limsup-style detector: threshold
    crossing with increasing log-norm trend).  ``reports`` holds each accepted
    segment's horizon, Picard sweeps, contraction factor and distances, and
    the number of segment halvings.
    """
    alg = problem.u0.algebra
    t_accum = 0.0
    all_times = [np.array([0.0])]
    all_states = [[problem.u0]]
    all_norms = [np.array([besov_multiplier_norm(problem.u0, problem.idx)])]
    current = problem.u0
    blow_up = False
    blow_time = None
    seg = segment_time if segment_time is not None else contraction_time(problem, c_bound, c_lip)
    reports = {"segments": [], "halvings": 0}
    segments = 0
    while t_accum < problem.t_max - 1e-12 and segments < 10000:
        segments += 1
        seg_here = min(seg, problem.t_max - t_accum)
        sub = replace(problem, u0=current)
        try:
            traj, rep = picard_solve(sub, horizon=seg_here)
        except NoContraction:
            seg = seg_here / 2.0
            reports["halvings"] += 1
            if seg < 4 * problem.dt:
                raise
            continue
        except BlowUpDetected:
            blow_up = True
            blow_time = t_accum + seg_here
            break
        reports["segments"].append({"horizon": float(traj.times[-1]), "sweeps": rep["sweeps"],
                                    "contraction_factor": rep["contraction_factor"],
                                    "distances": rep["distances"]})
        all_times.append(t_accum + traj.times[1:])
        all_states.append(traj.states[1:])
        all_norms.append(traj.besov_norms[1:])
        current = traj.final
        t_accum += traj.times[-1]
    times = np.concatenate(all_times)
    states = [s for chunk in all_states for s in chunk]
    norms = np.concatenate(all_norms)
    return Trajectory(times=times, states=states, besov_norms=norms,
                      blow_up=blow_up, blow_up_time=blow_time, reports=reports)


def strong_residual(traj: Trajectory, problem: ACProblem, skip_initial: int = 2):
    """|| (u(t+h) - u(t-h))/2h - Laplacian u(t) - F(u(t)) ||_p per interior time.

    Times closer than ``skip_initial`` steps to t = 0 are excluded (the
    solution is strong only on the open interval).
    """
    alg = problem.u0.algebra
    dt = traj.times[1] - traj.times[0]
    lap = -alg.abs_k ** 2
    first = max(1, skip_initial)
    if first >= len(traj.times) - 1:
        return np.zeros(0), np.zeros(0)
    states = np.stack([s.coeffs for s in traj.states])
    du = (states[first + 1:] - states[first - 1:-2]) / (2 * dt)
    mid = states[first:-1]
    rhs = lap * mid + problem.apply_F(mid)
    return traj.times[first:-1], _state_norms(alg, du - rhs, problem.idx.p)


def smoothing_report(traj: Trajectory, problem: ACProblem,
                     alphas: Sequence[float]) -> dict:
    """Besov norms over the alpha grid per time plus top-block decay ratios."""
    rows = []
    nb0 = block_norms(traj.states[0], 2.0)
    # highest block with substantial initial energy (filter tails excluded)
    occupied = np.nonzero(nb0 >= 0.01 * np.max(nb0))[0] if np.any(nb0 > 0) else np.array([0])
    top = int(np.max(occupied))
    top_energy0 = max(nb0[top], 1e-300)
    top_ratios = []
    for t, state in zip(traj.times, traj.states):
        nb = block_norms(state, 2.0)
        top_ratios.append(float(nb[top] / top_energy0))
        for a in alphas:
            rows.append({"t": float(t), "alpha": float(a),
                         "norm": besov_multiplier_norm(state, BesovIndex(a, problem.idx.p, problem.idx.q))})
    return {"rows": rows, "top_block": top, "top_ratios": np.asarray(top_ratios),
            "times": traj.times}


def global_existence_check(problem: ACProblem, c_lip_baseline: float,
                           lip_norm: Optional[float] = None,
                           segment_time: Optional[float] = None) -> dict:
    """Run to t_max under the Gronwall envelope ||u0|| exp(C t)."""
    from .symbols import lipschitz_norm as lip_fn
    lip = lip_fn(problem.F) if lip_norm is None else lip_norm
    traj = evolve(problem, segment_time=segment_time)
    c_hat = c_lip_baseline * lip
    base = besov_multiplier_norm(problem.u0, problem.idx)
    envelope = base * np.exp(c_hat * traj.times)
    margin = traj.besov_norms / np.maximum(envelope, 1e-300)
    return {
        "completed": bool(not traj.blow_up and traj.times[-1] >= problem.t_max - 1e-9),
        "max_envelope_ratio": float(np.max(margin)),
        "envelope_rate": c_hat,
        "trajectory": traj,
    }


def commutative_cross_check(problem: ACProblem, horizon: Optional[float] = None) -> float:
    """Matrix-backend trajectory vs pointwise-grid trajectory at theta = 0.

    Returns the sup-over-time normalized L2 deviation.
    """
    if not problem.u0.algebra.is_flat:
        raise HypothesisViolation("cross check requires theta = 0")
    tm, _ = picard_solve(replace(problem, f_route="matrix"), horizon=horizon)
    tg, _ = picard_solve(replace(problem, f_route="grid"), horizon=horizon)
    diff = np.stack([a.coeffs - b.coeffs for a, b in zip(tm.states, tg.states)])
    return max(_state_norms(problem.u0.algebra, diff, 2.0).tolist())


def export_checkpoints(traj: Trajectory, directory, every: int = 10, prefix: str = "state"):
    """Element snapshots (torus text format) at every ``every``-th time step."""
    import os
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i in range(0, len(traj.times), max(1, every)):
        path = os.path.join(directory, f"{prefix}_t{traj.times[i]:.6f}.txt")
        tor.save_element(traj.states[i], path)
        paths.append(path)
    return paths


def export_trajectory_csv(traj: Trajectory, problem: ACProblem, path,
                          alphas: Sequence[float] = ()):
    """CSV rows (time, besov norm at s, extra alpha columns, blow-up flag)."""
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["time", f"besov_s{problem.idx.s:g}"]
        header += [f"besov_s{a:g}" for a in alphas]
        header += ["blow_up"]
        w.writerow(header)
        for i, t in enumerate(traj.times):
            row = [f"{t:.12g}", f"{traj.besov_norms[i]:.12g}"]
            for a in alphas:
                row.append(f"{besov_multiplier_norm(traj.states[i], BesovIndex(a, problem.idx.p, problem.idx.q)):.12g}")
            row.append("1" if traj.blow_up else "0")
            w.writerow(row)
