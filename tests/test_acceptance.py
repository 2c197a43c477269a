"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Empirical-constant criteria read the committed baseline shipped
with the package; regenerate it with tools/capture_baselines.py only when the
harness parameters change.
"""

import math
import time

import numpy as np
import pytest

import opcalc.besov as bz
import opcalc.chain as ch
import opcalc.moi as mo
import opcalc.torus as tor
from opcalc.baselines import BaselineStore
from opcalc.besov import BesovIndex
from opcalc.experiments import (allen_cahn_config, besov_equivalence_configs,
                                besov_equivalence_grid, nonlinear_configs, run_allen_cahn,
                                run_meyer)
from opcalc.config import ExperimentConfig
from opcalc.expr import parse_symbol
from opcalc.linalg import random_hermitian, schatten_norm
from opcalc.seeding import rng_for


SEED = 20260810


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status}" + (f"  ({detail})" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def store():
    return BaselineStore.load()


def test_criterion_1_loewner_identity():
    t0 = time.time()
    polys = [parse_symbol(f"x**{d}") for d in range(2, 7)]
    smooth = [parse_symbol(s) for s in ("exp(x)", "sin(x)", "tanh(x)")]
    worst_poly, worst_smooth = 0.0, 0.0
    for i in range(100):
        rng = rng_for(SEED, "loewner", i)
        n = 4 + (i % 13)  # dimensions 4..16
        X, Y = random_hermitian(rng, n), random_hermitian(rng, n)
        scale = (1.0 + schatten_norm(X.data, math.inf) + schatten_norm(Y.data, math.inf)) ** 2
        r = mo.loewner_residual(polys[i % len(polys)], X, Y) / scale
        worst_poly = max(worst_poly, r)
        r = mo.loewner_residual(smooth[i % len(smooth)], X, Y) / scale
        worst_smooth = max(worst_smooth, r)
    elapsed = time.time() - t0
    ok = worst_poly <= 1e-11 and worst_smooth <= 1e-8 and elapsed < 10.0
    assert report(1, "Loewner identity", ok,
                  f"poly {worst_poly:.2e} <= 1e-11, smooth {worst_smooth:.2e} <= 1e-8, {elapsed:.1f}s < 10s")


def test_criterion_2_perturbation_formula():
    t0 = time.time()
    polys = [parse_symbol(f"x**{d}") for d in (3, 4, 5, 6)]
    worst = 0.0
    for i in range(50):
        rng = rng_for(SEED, "pert", i)
        n = 4 + (i % 5)  # dimensions 4..8
        F = polys[i % len(polys)]
        A, B = random_hermitian(rng, n), random_hermitian(rng, n)
        for order in (1, 2):
            anchors = [random_hermitian(rng, n) for _ in range(order)]
            args = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for _ in range(order)]
            scale = (1.0 + schatten_norm(A.data, math.inf) + schatten_norm(B.data, math.inf)
                     + sum(schatten_norm(a.data, math.inf) for a in anchors)) ** 3
            for slot in range(order + 1):
                r = mo.perturbation_residual(F, slot, A, B, anchors, args) / scale
                worst = max(worst, r)
    elapsed = time.time() - t0
    ok = worst <= 1e-11 and elapsed < 30.0
    assert report(2, "Perturbation formula", ok,
                  f"residual {worst:.2e} <= 1e-11, {elapsed:.1f}s < 30s")


def test_criterion_3_quantum_chain_rule():
    t0 = time.time()
    # exact integer weight identity up to K = 6
    weights_ok = all(ch.commutative_collapse(ch.expand((k,))) == ch.faa_di_bruno_weights(k)
                     for k in range(1, 7))
    # inner derivations: polynomial degree <= 5, |beta| <= 3, dim <= 16
    polys = ["x**2", "x**3", "x**4", "x**5", "x**5 + x**3"]
    worst_inner = 0.0
    for i in range(50):
        rng = rng_for(SEED, "chain", i)
        n = 6 + (i % 11)  # dimensions 6..16
        u = random_hermitian(rng, n)
        F = parse_symbol(polys[i % len(polys)])
        d_single = random_hermitian(rng, n)
        for r in ch.chain_rule_residual(F, u, [(1,), (2,), (3,)],
                                        ch.DerivationSpec("inner", (d_single,))):
            worst_inner = max(worst_inner, r)
        # commuting two-axis family exercises genuine multi-indices
        d1 = np.diag(rng.standard_normal(n))
        d2 = np.diag(rng.standard_normal(n))
        spec2 = ch.DerivationSpec("inner", (d1, d2))
        for r in ch.chain_rule_residual(F, u, [(1, 1), (2, 1)], spec2):
            worst_inner = max(worst_inner, r)
    # torus derivations at N = 32, band <= 4 (degree chosen inside the guard)
    alg = tor.TorusAlgebra(d=2, N=32, theta_num=1)
    worst_torus = 0.0
    cases = [("x**2", 4), ("x**3", 4), ("x**5", 2)]
    for i in range(6):
        expr, band = cases[i % len(cases)]
        u = tor.random_element(alg, rng_for(SEED, "chain-t", i), band=band, decay=2.0)
        for r in ch.chain_rule_residual(parse_symbol(expr), u, [(1, 0), (2, 0), (1, 1), (1, 2)],
                                        ch.DerivationSpec("torus")):
            worst_torus = max(worst_torus, r)
    elapsed = time.time() - t0
    ok = weights_ok and worst_inner <= 1e-12 and worst_torus <= 1e-9 and elapsed < 120.0
    assert report(3, "Quantum chain rule", ok,
                  f"weights K<=6 {'exact' if weights_ok else 'BROKEN'}, inner {worst_inner:.2e} <= 1e-12, "
                  f"torus {worst_torus:.2e} <= 1e-9, {elapsed:.1f}s < 120s")


def test_criterion_4_binned_moi_convergence():
    F_cases = [parse_symbol("exp(x)"), parse_symbol("sin(x)")]
    ms = [10, 20, 40, 80, 160]
    curves = []
    for i in range(20):
        rng = rng_for(SEED, "binned", i)
        ops = mo.MOIOperands((random_hermitian(rng, 6), random_hermitian(rng, 6)),
                             (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)),))
        F = F_cases[i % 2]
        exact = mo.moi_schur(F, ops)
        curves.append([float(np.linalg.norm(mo.moi_binned(F, ops, m=m) - exact)) for m in ms])
    slope = float(np.polyfit(np.log(ms), np.log(np.mean(curves, axis=0)), 1)[0])
    ok = -1.3 <= slope <= -0.7
    assert report(4, "Binned MOI convergence", ok, f"log-log slope {slope:.3f} in [-1.3, -0.7]")


def test_criterion_5_doubling_property():
    alg = tor.TorusAlgebra(d=2, N=16, theta_num=1)
    lat = 2 * math.pi / alg.N
    tuples = 0
    violations = 0
    slack = 1.0 + 1e-10
    for i in range(70):
        x = tor.random_element(alg, rng_for(SEED, "dbl-x", i), band=5,
                               hermitian=(i % 2 == 0))
        rng = rng_for(SEED, "dbl-h", i)
        h_cont = rng.uniform(-2.0, 2.0, size=(16, 2))
        ints = rng.integers(-4, 5, size=(16, 2))
        ints[np.all(ints == 0, axis=1)] = (1, 0)
        h_latt = 2.0 * lat * ints  # h/2 stays on the translation lattice
        for m in (1, 2, 3):
            # p = 2: any shift (pointwise multiplier bound + Parseval)
            for h in h_cont:
                lhs = tor.lp_norm(tor.difference(x, h, m), 2)
                rhs = (2.0 ** m) * tor.lp_norm(tor.difference(x, h / 2, m), 2)
                tuples += 1
                violations += int(lhs > rhs * slack)
            # p in {1, inf}: lattice shifts, where translations are inner
            stack, stack_half = [], []
            for h in h_latt:
                stack.append(tor.difference_multiplier(alg, h, m) * x.coeffs)
                stack_half.append(tor.difference_multiplier(alg, h / 2, m) * x.coeffs)
            for p in (1, math.inf):
                lhs = tor.lp_norm_batch(alg, np.stack(stack), p)
                rhs = (2.0 ** m) * tor.lp_norm_batch(alg, np.stack(stack_half), p)
                tuples += len(h_latt)
                violations += int(np.sum(lhs > rhs * slack))
    ok = violations == 0 and tuples >= 10_000
    assert report(5, "Doubling property", ok, f"{violations} violations over {tuples} tuples")


def test_criterion_6_besov_three_norm_equivalence(store):
    configs = besov_equivalence_configs()
    widths = {}
    worst_note = ""
    all_ok = True
    pair_metrics = (("ratio_md_min", "ratio_md_max"), ("ratio_mi_min", "ratio_mi_max"),
                    ("ratio_di_min", "ratio_di_max"))
    for cfg, (stats, _rows) in zip(configs, besov_equivalence_grid(configs)):
        for lo_key, hi_key in pair_metrics:
            lo_base = store.get(cfg.config_hash, lo_key)
            hi_base = store.get(cfg.config_hash, hi_key)
            inside = (stats[lo_key] >= lo_base * (1 - 1e-9)
                      and stats[hi_key] <= hi_base * (1 + 1e-9))
            if not inside:
                all_ok = False
                worst_note = (f"s={cfg.s} p={cfg.p} q={cfg.q} N={cfg.n_modes} {hi_key} "
                              f"{stats[hi_key]:.4g} vs [{lo_base:.4g}, {hi_base:.4g}]")
            widths[(cfg.s, cfg.p, cfg.q, cfg.n_modes, lo_key)] = stats[hi_key] / stats[lo_key]
    growth_worst = 0.0
    for s in (0.5, 1.5, 2.5):
        for p in (1.0, 2.0, math.inf):
            for q in (1.0, 2.0, math.inf):
                for lo_key, _hi in pair_metrics:
                    for n1, n2 in ((8, 16), (16, 32)):
                        w1 = widths[(s, p, q, n1, lo_key)]
                        w2 = widths[(s, p, q, n2, lo_key)]
                        growth_worst = max(growth_worst, w2 / w1)
    ok = all_ok and growth_worst < 1.10
    assert report(6, "Besov three-norm equivalence", ok,
                  f"bands {'held' if all_ok else 'broke: ' + worst_note}, "
                  f"worst width growth {growth_worst:.4f} < 1.10 over N 8->16->32")


def test_criterion_7_heat_semigroup(store):
    alg = tor.TorusAlgebra(d=2, N=16, theta_num=1)
    worst_contraction = 0.0
    for i in range(20):
        x = tor.random_element(alg, rng_for(SEED, "heat", i), band=5)
        for t in (0.5, 1.0, 2.0):
            for p in (1, 2, math.inf):
                ratio = tor.lp_norm(tor.heat(x, t), p) / tor.lp_norm(x, p)
                worst_contraction = max(worst_contraction, ratio)
    # smoothing-shape ratio against the committed baseline for the canonical config
    cfg = next(c for c in besov_equivalence_configs()
               if c.s == 1.5 and c.p == 2.0 and c.q == 2.0 and c.n_modes == 16)
    smooth_max = 0.0
    for i in range(10):
        x = tor.random_element(tor.TorusAlgebra(d=2, N=16, theta_num=1),
                               rng_for(cfg.seed, "besov", i), band=cfg.band, decay=2.0)
        rep = bz.heat_smoothing_check(x, cfg.s, cfg.s + 1.0, cfg.p, cfg.q, (0.25, 0.5, 1.0, 2.0))
        smooth_max = max(smooth_max, rep["sup_ratio"])
    base = store.get(cfg.config_hash, "heat_smoothing_max")
    ok = worst_contraction <= 1.0 + 1e-11 and smooth_max <= base * 1.1
    assert report(7, "Heat semigroup", ok,
                  f"contraction ratio {worst_contraction:.12f} <= 1+1e-11, "
                  f"smoothing {smooth_max:.4g} <= baseline*1.1 = {base * 1.1:.4g}")


def test_criterion_8_meyer_decomposition():
    cfg = ExperimentConfig(kind="meyer", seed=SEED, ensemble=20, band=4,
                           d=2, n_modes=16, theta_num=1)
    res = run_meyer(cfg, BaselineStore())
    worst = max(row["K32"] for row in res.tables["residuals"])
    refine = all(row["K32"] < row["K4"] for row in res.tables["residuals"])
    ok = res.passed and worst <= 1e-8 and refine
    assert report(8, "Meyer decomposition", ok,
                  f"max residual {worst:.2e} <= 1e-8 at K=32, xi in {{0.5, 1, 2}}, 20 seeds")


def test_criterion_9_nonlinear_boundedness(store):
    from opcalc.experiments import nonlinear_stats
    maxima = {}
    all_ok = True
    for cfg in nonlinear_configs():
        stats, ratios, _l = nonlinear_stats(cfg)
        base = store.get(cfg.config_hash, "bound_ratio_max")
        if stats["bound_ratio_max"] > base * (1 + 1e-9):
            all_ok = False
        maxima[cfg.n_modes] = stats["bound_ratio_max"]
    growth = max(maxima[16] / maxima[8], maxima[32] / maxima[16])
    # identity symbol comes back exactly with ratio 1
    alg = tor.TorusAlgebra(d=2, N=16, theta_num=1)
    u = tor.random_element(alg, rng_for(SEED, "id"), band=3)
    rid = bz.boundedness_ratio(parse_symbol("x"), u, BesovIndex(0.5, 2, 2))
    ok = all_ok and growth <= 1.10 and abs(rid - 1.0) <= 1e-12
    assert report(9, "Nonlinear boundedness (tanh, 0<s<1)", ok,
                  f"max ratios {maxima} within baseline, N-doubling growth {growth:.4f} <= 1.10, "
                  f"identity ratio |{rid:.15f} - 1| <= 1e-12")


def test_criterion_10_allen_cahn(store):
    t0 = time.time()
    cfg = allen_cahn_config()
    res = run_allen_cahn(cfg, store)
    elapsed = time.time() - t0
    by_name = {a.name: a for a in res.assertions}
    parts = {
        "(a) heat flow": by_name["ac.heat_flow"].value <= 1e-10,
        "(b) linear closed form": by_name["ac.linear_closed_form"].value <= 1e-8,
        "(c) contraction factor < 1": by_name["ac.contraction_factor"].value < 1.0,
        "(d) strong refinement >= 3": by_name["ac.strong_refinement"].value >= 3.0,
        "(e) tanh to T_max under Gronwall": by_name["ac.global_completed"].passed
                                            and by_name["ac.gronwall_envelope"].passed,
        "(f) cross-check <= 1e-8": by_name["ac.cross_check"].value <= 1e-8,
    }
    ok = all(parts.values()) and res.passed and elapsed < 300.0
    detail = ", ".join(f"{k} {'ok' if v else 'FAIL'}" for k, v in parts.items())
    assert report(10, "Allen-Cahn mild solution", ok, f"{detail}, {elapsed:.0f}s < 300s")
