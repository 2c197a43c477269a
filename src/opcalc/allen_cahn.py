"""Mild-solution solver for du/dt = Laplacian u + F(u) on the fuzzy torus.

Picard iteration of the Duhamel map on the uniform time grid of step dt, in a
whole number of steps (by default to the first grid point at or after t_max):
the heat factor is applied analytically per mode and the nonlinear samples
are integrated by the subinterval trapezoid rule, so the stiff linear part
never enters the quadrature error.  The iterate is one (T + 1,) + shape
coefficient stack, which each sweep writes over chunk by chunk (``_sweep``):
one ``besov.apply_symbol_batch`` call per chunk of at most
REALIZATION_CHUNK_ENTRIES coefficients, the Duhamel recurrences carried from
chunk to chunk, the distance of each new state to its old one, and the new
states in the old ones' place, so a solve holds one stack and a chunk's
work.  The Besov ball norms of a solve are one
``besov.multiplier_norm_stack`` call.  ``evolve`` continues on the same grid:
contraction segments of whole steps fill one coefficient stack up to t_max or
a detected norm escape, and continuations from one datum can share their
first segment (``first_segment``), so it is solved once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .besov import BesovIndex, apply_symbol_batch, besov_multiplier_norm, multiplier_norm_stack
from .errors import (BlowUpDetected, HypothesisViolation, NoContraction, SymbolHypothesisError,
                     SymbolNotFinite)
from .symbols import (BumpLocalizer, SmoothSymbol, cb_norm, lipschitz_norm, localize,
                      smoothness_order)
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
        return smoothness_order(self.F, self.idx.s)

    def apply_F(self, coeff_stack: np.ndarray) -> np.ndarray:
        """F(u) for every state of a (T,) + shape coefficient stack."""
        return apply_symbol_batch(self.F, self.u0.algebra, coeff_stack)


@dataclass
class Trajectory:
    """Time grid, (T,) + shape coefficient stack, Besov norms and blow-up time."""

    times: np.ndarray
    coeffs: np.ndarray
    besov_norms: np.ndarray
    blow_up_time: Optional[float] = None
    reports: dict = field(default_factory=dict)

    @property
    def blow_up(self) -> bool:
        return self.blow_up_time is not None


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


def _chunks(algebra, count: int) -> list:
    """Chunks of a count-state coefficient stack of at most
    REALIZATION_CHUNK_ENTRIES coefficients: as many entries as the
    realization at theta != 0, and as the grid values at theta = 0, where
    ``realization_chunks``' default of N^d x N^d matrix entries would give one
    state per chunk."""
    return tor.realization_chunks(algebra, count, entries=math.prod(algebra.shape))


def _state_norms(algebra, coeff_stack: np.ndarray, p) -> np.ndarray:
    """lp_norm of every state of a coefficient stack, chunk by chunk."""
    return np.concatenate([lp_norm_batch(algebra, coeff_stack[chunk], p)
                           for chunk in _chunks(algebra, len(coeff_stack))])


def _sweep(problem: ACProblem, coeffs: np.ndarray, chunks: list, sweep: int) -> float:
    """One Picard sweep, written over the iterate ``coeffs`` (a (T + 1,) +
    shape stack) chunk by chunk; returns the sup-L_p distance of the new
    iterate to the old.

    Per chunk: F of the old states, the Duhamel recurrence (analytic heat
    factors, trapezoid on the samples) with the integral, the heat state and
    the previous sample carried over from the chunk before, the distance of
    each new state to its old one, then the new states over the old.  Each
    step evaluates integral = decay (integral + dt/2 g_{i-1}) + dt/2 g_i and
    heat = decay heat operation by operation as written, so the states have
    the bits of a step-by-step evaluation of those formulas.  After a
    non-finite new state the remaining chunks only apply F, so that an F
    error still raises first; BlowUpDetected follows once F has run on every
    chunk."""
    alg, u0c = problem.u0.algebra, problem.u0.coeffs
    decay = _heat_factors(alg, problem.dt)
    integral = np.zeros_like(u0c)
    heat_state = u0c.copy()
    g_prev = np.empty_like(u0c)
    dists = np.empty(len(coeffs))
    finite = True
    for chunk in chunks:
        try:
            g = problem.apply_F(coeffs[chunk])
        except SymbolNotFinite as err:
            raise BlowUpDetected(f"F non-finite on the Picard iterate in sweep {sweep}") from err
        if not finite:
            continue
        g *= 0.5 * problem.dt
        first = 0
        if chunk.start == 0:  # state 0 is u0, and its sample starts the recurrence
            g_prev[...] = g[0]
            g[0] = u0c
            first = 1
        for state in g[first:]:
            integral += g_prev
            integral *= decay
            integral += state
            g_prev[...] = state
            heat_state *= decay
            np.add(heat_state, integral, out=state)
        finite = bool(np.isfinite(g).all())
        if finite:
            old = coeffs[chunk]
            dists[chunk] = lp_norm_batch(alg, np.subtract(g, old, out=old), problem.idx.p)
            old[...] = g
    if not finite:
        raise BlowUpDetected(f"non-finite Picard iterate in sweep {sweep}")
    return float(np.max(dists))


MAX_SWEEPS = 40     # a Picard solve not converged after this many sweeps fails
PICARD_TOL = 1e-10  # converged: sup-L_p distance of two iterates <= PICARD_TOL ||u0||_p


def _grid_steps(problem: ACProblem) -> int:
    """Steps of dt to the first grid point at or after t_max, at least one."""
    return max(1, math.ceil(problem.t_max / problem.dt - 1e-9))


def _segment_steps(problem: ACProblem, segment_time: float) -> int:
    """Whole steps of dt in ``segment_time``, at least one, at most ``_grid_steps``."""
    return min(_grid_steps(problem), max(1, math.floor(segment_time / problem.dt + 1e-9)))


def picard_solve(problem: ACProblem, steps: Optional[int] = None) -> tuple:
    """Fixed point of the mild-solution map on ``steps`` steps of exactly
    problem.dt (by default to the first grid point at or after t_max),
    iterated from the heat flow of u0.  The iterate is one (steps + 1)-state
    stack that every sweep writes over (``_sweep``); the Trajectory holds it.

    Returns (Trajectory, report).  The report holds the per-sweep sup-L_p
    distances and the measured contraction factor; NoContraction is raised
    when the distances fail to decrease geometrically or to reach PICARD_TOL
    in MAX_SWEEPS sweeps (``evolve`` then halves the segment), BlowUpDetected
    when F is non-finite on the spectrum of a finite iterate, when a sweep
    leaves a non-finite iterate (its distance would be non-finite) or when the
    Besov ball escapes the threshold.
    """
    alg = problem.u0.algebra
    steps = _grid_steps(problem) if steps is None else steps
    times = problem.dt * np.arange(steps + 1)
    u0c = problem.u0.coeffs
    coeffs = np.empty((steps + 1,) + alg.shape, dtype=np.complex128)
    decay = _heat_factors(alg, problem.dt)
    coeffs[0] = u0c
    for i in range(1, steps + 1):
        coeffs[i] = decay * coeffs[i - 1]
    chunks = _chunks(alg, steps + 1)
    distances = []
    scale = max(lp_norm(problem.u0, problem.idx.p), 1e-12)
    for it in range(MAX_SWEEPS):
        dist = _sweep(problem, coeffs, chunks, it + 1)
        distances.append(dist)
        if dist <= PICARD_TOL * scale:
            break
        if len(distances) >= 3 and distances[-1] > distances[-2] >= distances[-3]:
            raise NoContraction(
                f"iterate distances non-decreasing: {distances[-3]:.3e} -> {distances[-1]:.3e}"
            )
    else:
        raise NoContraction(f"no convergence in {MAX_SWEEPS} sweeps (last dist {distances[-1]:.3e})")
    bnorms = multiplier_norm_stack(alg, coeffs, problem.idx)
    factors = [distances[i + 1] / distances[i] for i in range(len(distances) - 1)
               if distances[i] > 0]
    report = {
        "distances": distances,
        "contraction_factor": float(np.median(factors)) if factors else 0.0,
        "ball_radius": float(np.max(bnorms)),
        "ball_bound": besov_multiplier_norm(problem.u0, problem.idx) + problem.delta,
        "hermitian_dev": max(float(np.max(tor.hermitian_deviation_batch(alg, coeffs[chunk])))
                             for chunk in chunks),
        "sweeps": len(distances),
    }
    traj = Trajectory(times=times, coeffs=coeffs, besov_norms=bnorms)
    if not float(np.max(bnorms)) <= problem.blow_up_threshold:  # NaN escapes too
        raise BlowUpDetected(f"Besov norm {np.max(bnorms):.3e} above threshold")
    return traj, report


def first_segment(problem: ACProblem, segment_time: float) -> Optional[tuple]:
    """The first Picard solve of ``evolve(problem, segment_time)``, over its
    first segment's whole steps: (Trajectory, report), or None when it does
    not contract or blows up (``evolve`` then meets that itself)."""
    try:
        return picard_solve(problem, _segment_steps(problem, segment_time))
    except (NoContraction, BlowUpDetected):
        return None


def evolve(problem: ACProblem, segment_time: float, first: Optional[tuple] = None) -> Trajectory:
    """Continuation on the grid of step dt: restart Picard from the last state
    until the first grid point at or after t_max, or a blow-up.

    Segments are ``segment_time`` (the caller's contraction horizon, e.g.
    ``contraction_time``) in whole steps, copied into one preallocated
    coefficient stack.  On NoContraction the segment is halved (re-raised
    below four steps); on BlowUpDetected the stack stops at the last accepted
    state and the blow-up time is the grid time that ends the failed segment.
    ``reports`` holds each accepted segment's horizon, sweeps, contraction
    factor and distances, and the number of halvings.  ``first``, when given,
    is ``first_segment`` of a problem with the same u0, F, index, dt, delta,
    blow-up threshold and first segment, so that continuations from one
    datum solve their shared first segment once.
    """
    alg, dt = problem.u0.algebra, problem.dt
    total, seg = _grid_steps(problem), _segment_steps(problem, segment_time)
    coeffs = np.empty((total + 1,) + alg.shape, dtype=np.complex128)
    norms = np.empty(total + 1)
    coeffs[0], norms[0] = problem.u0.coeffs, besov_multiplier_norm(problem.u0, problem.idx)
    reports = {"segments": [], "halvings": 0}
    done, blow_time = 0, None
    while done < total:
        steps = min(seg, total - done)
        try:
            traj, rep = first or picard_solve(replace(problem, u0=TorusElement(alg, coeffs[done])),
                                              steps)
        except NoContraction:
            seg = steps // 2
            reports["halvings"] += 1
            if seg < 4:
                raise
            continue
        except BlowUpDetected:
            blow_time = dt * (done + steps)
            break
        reports["segments"].append({"horizon": float(traj.times[-1]), "sweeps": rep["sweeps"],
                                    "contraction_factor": rep["contraction_factor"],
                                    "distances": rep["distances"]})
        coeffs[done + 1:done + steps + 1] = traj.coeffs[1:]
        norms[done + 1:done + steps + 1] = traj.besov_norms[1:]
        done += steps
        first = None  # shared by the first segment only
    return Trajectory(times=dt * np.arange(done + 1), coeffs=coeffs[:done + 1],
                      besov_norms=norms[:done + 1], blow_up_time=blow_time, reports=reports)


def strong_residual(traj: Trajectory, problem: ACProblem):
    """|| (u(t+h) - u(t-h))/2h - Laplacian u(t) - F(u(t)) ||_p per interior time
    of a trajectory on the grid of problem.dt (a single solve's, or ``evolve``'s).

    Times closer than two steps to t = 0 are excluded (the solution is strong
    only on the open interval).
    """
    alg = problem.u0.algebra
    lap = -alg.abs_k ** 2
    first = 2
    if first >= len(traj.times) - 1:
        return np.zeros(0), np.zeros(0)
    u = traj.coeffs
    du = (u[first + 1:] - u[first - 1:-2]) / (2 * problem.dt)
    mid = u[first:-1]
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
        "completed": not traj.blow_up,  # evolve ends at or after t_max unless it blows up
        "max_envelope_ratio": float(np.max(margin)),
        "envelope_rate": c_hat,
        "trajectory": traj,
    }
