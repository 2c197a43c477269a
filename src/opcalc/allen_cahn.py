"""Mild-solution solver for du/dt = Laplacian u + F(u) on the fuzzy torus.

Picard iteration of the Duhamel map on a uniform time grid: the heat factor
is applied analytically per mode and the nonlinear samples are integrated by
the subinterval trapezoid rule, so the stiff linear part never enters the
quadrature error.  The iterate is one (T,) + shape coefficient stack, so a
sweep applies F to every time step in one ``besov.apply_symbol_batch`` call;
the Duhamel recurrences then run in place on that F(u) stack, which becomes
the next iterate, and the old iterate's stack takes the difference, so a
sweep holds two stacks.  The Besov ball norms of a solve are one
``besov.multiplier_norm_stack`` call.  Short-horizon contraction segments are
concatenated up to the horizon or a detected norm escape; continuations from
the same datum can hand ``evolve`` their common first segment
(``first_segment``), so it is solved once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .besov import BesovIndex, apply_symbol_batch, besov_multiplier_norm, multiplier_norm_stack
from .errors import (BlowUpDetected, HypothesisViolation, NoContraction, SymbolHypothesisError,
                     SymbolNotFinite)
from .symbols import BumpLocalizer, SmoothSymbol, cb_norm, lipschitz_norm, localize
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

    def __post_init__(self):
        if not is_hermitian(self.u0):
            raise SymbolHypothesisError("initial datum must be Hermitian")
        f0 = complex(np.asarray(self.F(np.array([0.0])))[0])
        if abs(f0) > 1e-12:
            raise SymbolHypothesisError(f"need F(0) = 0, got {f0}")
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be positive")
        d, p, s, n = self.u0.algebra.d, self.idx.p, self.idx.s, self.n_smooth
        if not (d / p < s <= n):
            raise HypothesisViolation(f"need d/p < s <= n: d/p={d / p}, s={s}, n={n}")
        if self.blow_up_threshold is None:
            object.__setattr__(self, "blow_up_threshold",
                               1e3 * max(besov_multiplier_norm(self.u0, self.idx), 1e-12))

    @property
    def n_smooth(self) -> int:
        """Smallest smoothness order compatible with d/p < s <= n."""
        return min(max(1, math.ceil(self.idx.s)), self.F.max_order)

    def apply_F(self, coeff_stack: np.ndarray) -> np.ndarray:
        """F(u) for every state of a (T,) + shape coefficient stack."""
        return apply_symbol_batch(self.F, self.u0.algebra, coeff_stack)


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
    norm_loc = cb_norm(floc, problem.n_smooth, window=(-2 * m_window, 2 * m_window))
    if norm_loc == 0.0:
        return problem.t_max
    return 1.0 / (max(c_bound, 2.0 * c_lip) * norm_loc)


def _heat_factors(algebra, dt: float) -> np.ndarray:
    return np.exp(-dt * algebra.abs_k ** 2)


def _duhamel_sweep(problem: ACProblem, u0_coeffs: np.ndarray, g_coeffs: np.ndarray,
                   dt: float) -> np.ndarray:
    """Psi(u)(t_i) coefficients from the F samples ``g_coeffs`` (a (T,) + shape
    stack), written over them: analytic heat factors, trapezoid on the samples.

    The samples are scaled by dt/2 in place, and the integral and heat
    recurrences run in state-sized buffers; step i copies sample i aside
    before overwriting it with Psi(u)(t_i), for step i + 1 to read, so the
    sweep allocates no stack.  Each step evaluates
    integral = decay (integral + dt/2 g_{i-1}) + dt/2 g_i and
    heat = decay heat operation by operation as written, so the states have
    the bits of a step-by-step evaluation of those formulas."""
    decay = _heat_factors(problem.u0.algebra, dt)
    g_coeffs *= 0.5 * dt
    integral = np.zeros_like(u0_coeffs)
    heat_state = u0_coeffs.copy()
    g_prev = g_coeffs[0].copy()
    g_coeffs[0] = u0_coeffs
    for state in g_coeffs[1:]:
        integral += g_prev
        integral *= decay
        integral += state
        g_prev[...] = state
        heat_state *= decay
        np.add(heat_state, integral, out=state)
    return g_coeffs


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
    horizon), BlowUpDetected when F is non-finite on the spectrum of a finite
    iterate, when a sweep leaves a non-finite iterate (its distance would be
    non-finite) or when the Besov ball escapes the threshold.
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
    distances = []
    scale = max(lp_norm(problem.u0, problem.idx.p), 1e-12)
    for it in range(max_iter):
        try:
            new = problem.apply_F(coeffs)
        except SymbolNotFinite as err:
            raise BlowUpDetected(f"F non-finite on the Picard iterate in sweep {it + 1}") from err
        _duhamel_sweep(problem, u0c, new, dt)
        if not np.isfinite(new).all():
            raise BlowUpDetected(f"non-finite Picard iterate in sweep {it + 1}")
        # the old iterate's buffer takes the difference: a sweep holds two stacks
        dist = float(np.max(_state_norms(alg, np.subtract(new, coeffs, out=coeffs), problem.idx.p)))
        coeffs = new
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
    bnorms = multiplier_norm_stack(alg, coeffs, problem.idx)
    factors = [distances[i + 1] / distances[i] for i in range(len(distances) - 1)
               if distances[i] > 0]
    report = {
        "distances": distances,
        "contraction_factor": float(np.median(factors)) if factors else 0.0,
        "ball_radius": float(np.max(bnorms)),
        "ball_bound": besov_multiplier_norm(problem.u0, problem.idx) + problem.delta,
        "hermitian_dev": max(float(np.max(tor.hermitian_deviation_batch(alg, coeffs[chunk])))
                             for chunk in tor.realization_chunks(alg, len(coeffs))),
        "sweeps": len(distances),
    }
    traj = Trajectory(times=times, states=states, besov_norms=bnorms)
    if not float(np.max(bnorms)) <= problem.blow_up_threshold:  # NaN escapes too
        raise BlowUpDetected(f"Besov norm {np.max(bnorms):.3e} above threshold")
    return traj, report


def first_segment(problem: ACProblem, segment_time: float) -> Optional[tuple]:
    """The first Picard solve of ``evolve(problem, segment_time)``: the
    (Trajectory, report) of [0, min(segment_time, t_max)], or None when it
    does not contract or blows up (``evolve`` then meets that itself)."""
    try:
        return picard_solve(problem, horizon=min(segment_time, problem.t_max))
    except (NoContraction, BlowUpDetected):
        return None


def evolve(problem: ACProblem, segment_time: float, first: Optional[tuple] = None) -> Trajectory:
    """Continuation: restart Picard from u(T) until t_max or blow-up.

    Segments start at ``segment_time`` (the caller's contraction horizon,
    e.g. ``contraction_time``).  On NoContraction the segment is halved; on
    BlowUpDetected the trajectory is flagged with the norm-escape time
    (limsup-style detector: threshold crossing with increasing log-norm
    trend).  ``reports`` holds each accepted segment's horizon, Picard sweeps,
    contraction factor and distances, and the number of segment halvings.

    ``first``, when given, is ``first_segment`` of a problem with the same
    u0, F, index, dt, delta and blow-up threshold whose first horizon is this
    one's, so that continuations from one datum solve their shared first
    segment once.
    """
    t_accum = 0.0
    all_times = [np.array([0.0])]
    all_states = [[problem.u0]]
    all_norms = [np.array([besov_multiplier_norm(problem.u0, problem.idx)])]
    current = problem.u0
    blow_up = False
    blow_time = None
    seg = segment_time
    reports = {"segments": [], "halvings": 0}
    segments = 0
    while t_accum < problem.t_max - 1e-12 and segments < 10000:
        segments += 1
        seg_here = min(seg, problem.t_max - t_accum)
        sub = replace(problem, u0=current)
        try:
            if segments == 1 and first is not None:
                traj, rep = first
            else:
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


def strong_residual(traj: Trajectory, problem: ACProblem):
    """|| (u(t+h) - u(t-h))/2h - Laplacian u(t) - F(u(t)) ||_p per interior time.

    Times closer than two steps to t = 0 are excluded (the solution is strong
    only on the open interval).
    """
    alg = problem.u0.algebra
    dt = traj.times[1] - traj.times[0]
    lap = -alg.abs_k ** 2
    first = 2
    if first >= len(traj.times) - 1:
        return np.zeros(0), np.zeros(0)
    states = np.stack([s.coeffs for s in traj.states])
    du = (states[first + 1:] - states[first - 1:-2]) / (2 * dt)
    mid = states[first:-1]
    rhs = lap * mid + problem.apply_F(mid)
    return traj.times[first:-1], _state_norms(alg, du - rhs, problem.idx.p)


def global_existence_check(problem: ACProblem, c_lip_baseline: float,
                           segment_time: float, first: Optional[tuple] = None) -> dict:
    """Run to t_max under the Gronwall envelope ||u0|| exp(C t); ``first`` as
    in ``evolve``."""
    traj = evolve(problem, segment_time=segment_time, first=first)
    c_hat = c_lip_baseline * lipschitz_norm(problem.F)
    base = besov_multiplier_norm(problem.u0, problem.idx)
    envelope = base * np.exp(c_hat * traj.times)
    margin = traj.besov_norms / np.maximum(envelope, 1e-300)
    return {
        "completed": bool(not traj.blow_up and traj.times[-1] >= problem.t_max - 1e-9),
        "max_envelope_ratio": float(np.max(margin)),
        "envelope_rate": c_hat,
        "trajectory": traj,
    }
