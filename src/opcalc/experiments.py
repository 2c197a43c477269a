"""Experiment harnesses: seeded ensembles, assertions, baseline handling.

Each experiment returns an ExperimentResult with a flat list of assertions
(name, value, bound, passed) and named tables for CSV emission.  Ensembles
derive all randomness from the config seed via counted splitting, so any
member is reproducible in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import besov as bz
from . import chain as ch
from . import moi as mo
from . import torus as tor
from .allen_cahn import (ACProblem, contraction_time, evolve, first_segment, global_existence_check,
                         picard_solve, strong_residual)
from .baselines import BaselineStore
from .besov import BesovIndex
from .config import ExperimentConfig
from .expr import parse_symbol
from .linalg import (HermitianOperator, eig_hermitian, func_calc, haar_unitary,
                     random_hermitian, schatten_norm, schatten_norm_batch)
from .seeding import rng_for
from .symbols import LPFilterFamily, cb_norm, divided_diff, lipschitz_norm


@dataclass
class Assertion:
    name: str
    value: float
    bound: float
    passed: bool
    note: str = ""


@dataclass
class ExperimentResult:
    kind: str
    config_hash: str
    assertions: list = field(default_factory=list, init=False)
    tables: dict = field(default_factory=dict, init=False)

    def check(self, name: str, value: float, bound: float, mode: str = "le", note: str = ""):
        ok = value <= bound if mode == "le" else value >= bound
        if not math.isfinite(value):
            ok, note = False, f"{note}; non-finite value" if note else "non-finite value"
        self.assertions.append(Assertion(name, float(value), float(bound), bool(ok), note))
        return ok

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def besov_index(cfg: ExperimentConfig) -> BesovIndex:
    return BesovIndex(cfg.s, cfg.p, cfg.q)


def ensemble_elements(cfg: ExperimentConfig, count=None, tag="element", decay=1.5):
    alg = cfg.algebra()
    count = cfg.ensemble if count is None else count
    return [tor.random_element(alg, rng_for(cfg.seed, tag, i), band=cfg.band, decay=decay)
            for i in range(count)]


def _stack(members) -> HermitianOperator:
    """One HermitianOperator stack of the ensemble members' operators."""
    return HermitianOperator(np.stack([h.data for h in members]))


def parallel_map(fn, items, jobs: int = 1):
    """Order-preserving map over ensemble members, optionally on a pool."""
    if jobs <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# verify-core
# ---------------------------------------------------------------------------

def run_verify_core(cfg: ExperimentConfig, store: BaselineStore) -> ExperimentResult:
    res = ExperimentResult("verify-core", cfg.config_hash)
    rng = rng_for(cfg.seed, "core")

    # eigendecomposition and Schatten norms
    for i in range(3):
        h = random_hermitian(rng_for(cfg.seed, "eig", i), 8)
        dec = eig_hermitian(h)
        rel = np.linalg.norm(dec.reconstruct() - h.data) / max(np.linalg.norm(h.data), 1e-300)
        res.check(f"eig.reconstruction.{i}", rel, 1e-11)
        res.check(f"eig.unitarity.{i}",
                  np.linalg.norm(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(8)), 1e-11)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    res.check("schatten.hoelder", schatten_norm(a @ b, 1),
              schatten_norm(a, 2) * schatten_norm(b, 2) * (1 + 1e-12))
    u, v = haar_unitary(rng, 6), haar_unitary(rng, 6)
    for p in (1, 2, math.inf):
        res.check(f"schatten.unitary_invariance.p{p}",
                  abs(schatten_norm(u @ a @ v, p) - schatten_norm(a, p)),
                  1e-10 * schatten_norm(a, p))
    res.check("schatten.frobenius",
              abs(schatten_norm(a, 2) ** 2 - (np.vdot(a, a).real / 6)), 1e-12 * np.vdot(a, a).real)

    # functional calculus
    h = random_hermitian(rng, 8)
    fid = func_calc(h, parse_symbol("x"))
    res.check("funccalc.identity", np.linalg.norm(fid.data - h.data), 1e-12 * np.linalg.norm(h.data))
    fsq = func_calc(h, parse_symbol("x**2"))
    res.check("funccalc.square", np.linalg.norm(fsq.data - h.data @ h.data),
              1e-11 * np.linalg.norm(h.data @ h.data))
    comm = fsq.data @ h.data - h.data @ fsq.data
    res.check("funccalc.commutes", np.linalg.norm(comm), 1e-10 * np.linalg.norm(h.data))

    # divided differences
    F3 = parse_symbol("x**3")
    res.check("divdiff.x3_nodes123", abs(divided_diff(F3, [1, 2, 3]) - 6), 1e-12)
    res.check("divdiff.equal_nodes", abs(divided_diff(parse_symbol("sin(x)"), [0.4, 0.4]) - math.cos(0.4)), 1e-9)
    nodes = rng.standard_normal(4)
    perm = nodes[[2, 0, 3, 1]]
    res.check("divdiff.symmetry",
              abs(divided_diff(F3, nodes) - divided_diff(F3, perm)), 1e-12)
    # x**5 without its coefficients takes the Hermite-table path; with them, h_2
    F5 = parse_symbol("x**5")
    res.check("divdiff.homog_sym",
              abs(divided_diff(replace(F5, poly_coeffs=None), nodes) - divided_diff(F5, nodes)), 1e-10)

    # Littlewood-Paley partition
    lp = LPFilterFamily()
    xs = np.geomspace(0.07, 40.0, 64)
    hom = sum(lp.phi_k(xs, k) for k in range(-8, 12))
    res.check("lp.homogeneous_partition", float(np.max(np.abs(hom - 1))), 1e-10)
    nonhom = sum(lp.phi_k(np.linspace(0, 40, 64), k, homogeneous=False) for k in range(0, 12))
    res.check("lp.nonhomogeneous_partition", float(np.max(np.abs(nonhom - 1))), 1e-10)
    res.check("lp.support", float(np.max(np.abs(lp.phi_k(np.array([0.3, 3.0]), 0)))), 1e-14)

    # Loewner and perturbation
    X, Y = random_hermitian(rng, 6), random_hermitian(rng, 6)
    res.check("loewner.poly", mo.loewner_residual(parse_symbol("x**4"), X, Y), 1e-11)
    res.check("loewner.exp", mo.loewner_residual(parse_symbol("exp(x)"), X, Y), 1e-8)
    anc = [random_hermitian(rng_for(cfg.seed, "pert", 0), 4)]
    arg = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))]
    pa, pb = random_hermitian(rng, 4), random_hermitian(rng, 4)
    for slot in (0, 1):
        res.check(f"perturbation.slot{slot}",
                  mo.perturbation_residual(parse_symbol("x**3"), slot, pa, pb, anc, arg), 1e-11)
    w = haar_unitary(rng, 6)
    ops = mo.MOIOperands((X, Y, X), (a, b))
    res.check("moi.homomorphism", mo.homomorphism_commutation_residual(F3, w, ops), 1e-10)
    # the h_k kernel against the dense contraction of the Hermite-table F^[2],
    # as divdiff.homog_sym compares the two divided-difference paths
    dx, dy = eig_hermitian(X), eig_hermitian(Y)
    kernel = mo.moi_schur(F3, ops, decompositions=[dx, dy, dx])
    dense = mo.moi_schur(replace(F3, poly_coeffs=None), ops, decompositions=[dx, dy, dx])
    res.check("moi.poly_kernel", float(np.linalg.norm(kernel - dense) / np.linalg.norm(dense)), 1e-11)

    # torus identities
    alg = tor.TorusAlgebra(d=2, N=8, theta_num=1)
    x1 = tor.random_element(alg, rng_for(cfg.seed, "tor", 1), band=2)
    y1 = tor.random_element(alg, rng_for(cfg.seed, "tor", 2), band=2)
    z1 = tor.multiply(x1, y1)
    z2 = tor.basis_product(x1, y1)
    res.check("torus.product_routes", float(np.max(np.abs(z1.coeffs - z2.coeffs))), 1e-12)
    res.check("torus.traciality",
              abs(tor.multiply(x1, y1).trace - tor.multiply(y1, x1).trace), 1e-12)
    res.check("torus.roundtrip",
              float(np.max(np.abs(tor.from_matrix(alg, tor.to_matrix(x1)).coeffs - x1.coeffs))), 1e-12)
    lhs = tor.multiply(tor.mode_element(alg, (0, 1)), tor.mode_element(alg, (1, 0)))
    rhs = tor.multiply(tor.mode_element(alg, (1, 0)), tor.mode_element(alg, (0, 1)))
    ph = np.exp(2j * np.pi * (alg.theta_num / alg.N))
    res.check("torus.commutation_phase", float(np.max(np.abs(lhs.coeffs - ph * rhs.coeffs))), 1e-12)
    res.check("torus.translate_isometry",
              abs(tor.lp_norm(tor.translate(x1, (0.3, -0.7)), 2) - tor.lp_norm(x1, 2)), 1e-11)
    xs1, ys1 = (tor.random_element(alg, rng_for(cfg.seed, "leib", i), band=1) for i in (0, 1))
    prod = tor.multiply(xs1, ys1, mode="checked")
    leib = tor.derive(prod, 0) - (tor.multiply(tor.derive(xs1, 0), ys1) + tor.multiply(xs1, tor.derive(ys1, 0)))
    res.check("torus.leibniz", float(np.max(np.abs(leib.coeffs))), 1e-11)
    hh = tor.heat(tor.heat(x1, 0.3), 0.2)
    res.check("torus.heat_semigroup", float(np.max(np.abs(hh.coeffs - tor.heat(x1, 0.5).coeffs))), 1e-12)
    res.check("torus.heat_contraction", tor.lp_norm(tor.heat(x1, 0.5), 2), tor.lp_norm(x1, 2) * (1 + 1e-11))
    res.check("torus.parseval",
              abs(tor.lp_norm(x1, 2) - float(np.linalg.norm(x1.coeffs))), 1e-11)
    # theta = 0: grid norms against the Schatten norms of the left-regular
    # (convolution) realization, the block-diagonal matrix of its coset blocks;
    # products against the dense mode matrices
    alg0 = tor.TorusAlgebra(d=2, N=8, theta_num=0)
    x0 = tor.random_element(alg0, rng_for(cfg.seed, "flat", 0), band=2)
    y0 = tor.random_element(alg0, rng_for(cfg.seed, "flat", 1), band=1)
    blocks = tor.regular_blocks(alg0, x0.coeffs[None, ...])[0]
    n_blocks, side = blocks.shape[:2]
    regular = np.einsum("ij,iab->iajb", np.eye(n_blocks), blocks).reshape(1, n_blocks * side, -1)
    for p in (1, 2, math.inf):
        ref = float(schatten_norm_batch(regular, p)[0])
        res.check(f"torus.regular_norm_p{p}", abs(tor.lp_norm(x0, p) - ref), 1e-10 * max(ref, 1e-300))
    pr = tor.basis_product(y0, y0).coeffs
    prods = np.stack([tor.multiply(y0, y0, mode=mode).coeffs for mode in ("wrap", "checked")])
    res.check("torus.flat_product", float(np.max(np.abs(prods - pr))), 1e-10)

    # doubling and difference bounds
    xd = tor.random_element(alg, rng_for(cfg.seed, "dbl", 0), band=3)
    for i, (m, p) in enumerate(((1, 1), (2, 2), (3, math.inf))):
        h = rng_for(cfg.seed, "dblh", i).uniform(-1, 1, size=2)
        rep = bz.doubling_check(xd, h, m, p)
        res.check(f"besov.doubling.{i}", rep["lhs"], rep["rhs"] * (1 + 1e-10))

    # chain rule
    for kk in range(1, 5):
        lhs_w = ch.commutative_collapse(ch.expand((kk,)))
        rhs_w = ch.faa_di_bruno_weights(kk)
        res.check(f"chain.weights.K{kk}", 0.0 if lhs_w == rhs_w else 1.0, 0.5)
    uu = random_hermitian(rng, 8)
    dd = random_hermitian(rng, 8)
    r_beta2, = ch.chain_rule_residual(parse_symbol("x**4"), uu, [(2,)],
                                      ch.DerivationSpec("inner", (dd,)))
    res.check("chain.inner_beta2", r_beta2, 1e-12)

    # Meyer at small size
    xm8 = tor.random_element(alg, rng_for(cfg.seed, "mey", 0), band=2)
    res.check("meyer.residual_K16", float(bz.meyer_residual(xm8, [1.0], [16])[0, 0]), 1e-8)

    res.tables["assertions"] = [vars(a) for a in res.assertions]
    return res


# ---------------------------------------------------------------------------
# moi experiment
# ---------------------------------------------------------------------------

def run_moi(cfg: ExperimentConfig, store: BaselineStore) -> ExperimentResult:
    res = ExperimentResult("moi", cfg.config_hash)
    F = parse_symbol(cfg.expr) if cfg.expr else parse_symbol("exp(x)")
    ms = [10, 20, 40, 80, 160]
    count = min(cfg.ensemble, 20)
    members = []
    for i in range(count):
        rng = rng_for(cfg.seed, "binned", i)
        members.append((random_hermitian(rng, 6), random_hermitian(rng, 6),
                        rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))))
    # the whole ensemble is one stack of operands
    xs, ys, args = zip(*members)
    ops = mo.MOIOperands((_stack(xs), _stack(ys)), (np.stack(args),))
    decs = [eig_hermitian(a) for a in ops.anchors]  # shared by the exact form and every m
    exact = mo.moi_schur(F, ops, decompositions=decs)
    binned = [mo.moi_binned(F, ops, m=m, decompositions=decs) for m in ms]
    rows = []
    curves = []
    for i in range(count):
        errs = [float(np.linalg.norm(b[i] - exact[i])) for b in binned]
        curves.append(errs)
        for m, e in zip(ms, errs):
            rows.append({"seed": i, "m": m, "error": e})
    mean_err = np.mean(curves, axis=0)
    slope = float(np.polyfit(np.log(ms), np.log(mean_err), 1)[0])
    res.check("moi.binned_slope_hi", slope, -0.7)
    res.check("moi.binned_slope_lo", slope, -1.3, mode="ge")
    res.tables["binned_convergence"] = rows
    res.tables["binned_slope"] = [{"slope": slope}]

    # monotone error along a dyadic subsequence
    mono_ok = 0
    for errs in curves:
        e0, e1, e2 = errs[0], errs[1], errs[2]
        mono_ok += int(e0 >= e1 * (1 - 1e-9) and e1 >= e2 * (1 - 1e-9))
    res.check("moi.binned_monotone", float(len(curves) - mono_ok), 0.5)

    # Lipschitz ratios at p = 2 against the divided-difference sup bound
    pairs = [(random_hermitian(rng, 8), random_hermitian(rng, 8))
             for rng in (rng_for(cfg.seed, "lip", i) for i in range(count))]
    X, Y = (_stack(side) for side in zip(*pairs))
    decs = [eig_hermitian(X), eig_hermitian(Y)]
    ratios = mo.lipschitz_ratio(F, X, Y, 2, decompositions=decs)
    worst = 0.0
    for i, ratio in enumerate(ratios):
        lam = np.concatenate([decs[0].eigenvalues[i], decs[1].eigenvalues[i]])
        lipw = lipschitz_norm(F, (float(lam.min()) - 0.1, float(lam.max()) + 0.1))
        worst = max(worst, ratio / lipw)
    res.check("moi.lipschitz_p2", worst, 1 + 1e-8)
    return res


# ---------------------------------------------------------------------------
# chain-rule experiment
# ---------------------------------------------------------------------------

def run_chain_rule(cfg: ExperimentConfig, store: BaselineStore) -> ExperimentResult:
    res = ExperimentResult("chain-rule", cfg.config_hash)
    for kk in range(1, 7):
        lhs = ch.commutative_collapse(ch.expand((kk,)))
        rhs = ch.faa_di_bruno_weights(kk)
        res.check(f"chain.weights.K{kk}", 0.0 if lhs == rhs else 1.0, 0.5,
                  note="integer identity")
    rows = []
    # member i runs symbol i % len(polys) (below: case i % len(cases)); the
    # members of one symbol or case are one stack
    polys = ["x**2", "x**3", "x**4 + x**2", "x**5"]
    symbol = {expr: parse_symbol(expr) for expr in polys}
    inner = {}
    for k, expr in enumerate(polys):
        group = range(k, min(cfg.ensemble, 50), len(polys))
        if not group:
            continue
        pairs = [(random_hermitian(rng, 16), random_hermitian(rng, 16))
                 for rng in (rng_for(cfg.seed, "inner", i) for i in group)]
        u, dgen = (_stack(side) for side in zip(*pairs))
        residuals = ch.chain_rule_residual(symbol[expr], u, [(K,) for K in (1, 2, 3)],
                                           ch.DerivationSpec("inner", (dgen,)))
        inner.update(zip(group, residuals))
    worst_inner = 0.0
    for i, residuals in sorted(inner.items()):
        for K, r in zip((1, 2, 3), residuals):
            worst_inner = max(worst_inner, r)
            rows.append({"seed": i, "kind": "inner", "beta": K, "poly": polys[i % len(polys)],
                         "residual": r})
    res.check("chain.inner_residual", worst_inner, 1e-12)
    # torus derivations: degree a band chosen to keep F(u) inside the guard band
    alg = tor.TorusAlgebra(d=2, N=32, theta_num=1)
    cases = [("x**3", 4), ("x**2", 4), ("x**5", 2)]
    betas = ((1, 0), (2, 0), (1, 1), (2, 1))
    torus = {}
    for k, (expr, band) in enumerate(cases):
        group = range(k, min(cfg.ensemble, 10), len(cases))
        if not group:
            continue
        u = tor.TorusElement(alg, np.stack([
            tor.random_element(alg, rng_for(cfg.seed, "torus", i), band=band, decay=2.0).coeffs
            for i in group]))
        torus.update(zip(group, ch.chain_rule_residual(symbol[expr], u, betas, ch.DerivationSpec("torus"))))
    worst_torus = 0.0
    for i, residuals in sorted(torus.items()):
        expr = cases[i % len(cases)][0]
        for beta, r in zip(betas, residuals):
            worst_torus = max(worst_torus, r)
            rows.append({"seed": i, "kind": "torus", "beta": str(beta), "poly": expr,
                         "residual": r})
    res.check("chain.torus_residual", worst_torus, 1e-9)
    res.tables["residuals"] = rows
    res.tables["expansion_K3"] = [
        {"order": t.order, "args": str(t.args), "coeff": t.coeff} for t in ch.expand((3,))
    ]
    return res


# ---------------------------------------------------------------------------
# besov equivalence
# ---------------------------------------------------------------------------

_EQ_SAMPLING = tor.AmplitudeSampling(n_dir=8, n_rad=4)
_EQ_QUADRATURE = bz.RadialQuadrature(n_rad=12, n_dir=6)
# heat times of the smoothing harness, and the ensemble members the heat,
# block-difference and paraproduct harnesses run on
_EQ_HEAT_TS = (0.25, 0.5, 1.0, 2.0)
_EQ_HARNESS_MEMBERS = 10
_EQ_PSDO_THETA = 0.7  # the paraproduct harness splits e^{iu} = e^{i theta u} e^{i (1 - theta) u}

_EQ_METRICS = ("ratio_md_min", "ratio_md_max", "ratio_mi_min", "ratio_mi_max",
               "ratio_di_min", "ratio_di_max", "heat_smoothing_max",
               "block_diff_ratio_max", "paraproduct_ratio_max")


def exp_psdo_sequence(u):
    """Unitary multiplier family e^{i theta S_{j-1} u}, theta = _EQ_PSDO_THETA, from
    the dyadic decomposition of e^{iu}; the canonical elementary
    pseudodifferential sequence for the paraproduct harness.

    The partial sums S_0 u, ..., S_{J-2} u are realized in one call and
    diagonalized in one stacked call; S_0 u serves j = 0 and j = 1.
    """
    alg = u.algebra
    jb = tor.block_count(alg)
    sums = np.stack([bz.partial_sum(u, j).coeffs for j in range(max(jb - 1, 1))])
    dec = eig_hermitian(HermitianOperator(tor.to_matrix_batch(alg, sums)))
    a = tor.from_matrix_batch(alg, dec.apply(lambda lam: np.exp(1j * _EQ_PSDO_THETA * lam)))
    b = tor.from_matrix_batch(alg, dec.apply(lambda lam: np.exp(1j * (1 - _EQ_PSDO_THETA) * lam)))
    members = [max(j - 1, 0) for j in range(jb)]
    return bz.PsdoSymbolSequence(tuple(tor.TorusElement(alg, a[i]) for i in members),
                                 tuple(tor.TorusElement(alg, b[i]) for i in members))


def _measure_norms(args):
    """Block norms and difference measurements of a contiguous chunk of the
    ensemble, from one difference geometry."""
    elements, p, m, n_der = args
    geometry = bz.DifferenceGeometry(elements[0].algebra, m, n_der, _EQ_SAMPLING, _EQ_QUADRATURE)
    return [(bz.block_norms(x, p), geometry.measure(x, p)) for x in elements]


@dataclass(frozen=True)
class EquivalenceMeasurement:
    """The q-free part of ``besov_equivalence_stats``: per ensemble member its
    block norms and ``DifferenceMeasure``; per harness member the heat block
    norms and the paraproduct's sequence and output block norms; and the
    block-difference maximum, which has no q."""

    norms: list
    heat: list
    paraproducts: list
    block_max: float


def _measure_key(cfg: ExperimentConfig) -> tuple:
    """The config without q: configs with equal keys share a measurement."""
    return tuple((f.name, getattr(cfg, f.name)) for f in fields(cfg) if f.name != "q")


def measure_equivalence(cfg: ExperimentConfig, jobs: int = 1) -> EquivalenceMeasurement:
    """Measure stage of ``besov_equivalence_stats``: every value that does not
    depend on q.  With jobs > 1 the ensemble is cut into that many contiguous
    chunks, each measured from one geometry."""
    bz.check_difference_hypotheses(besov_index(cfg), cfg.m, cfg.n_der)
    # decay 2.0: smooth enough that the ratio extremes are stable order
    # statistics across lattice doublings
    elements = ensemble_elements(cfg, tag="besov", decay=2.0)
    chunks = [c for c in np.array_split(np.arange(len(elements)), max(jobs, 1)) if len(c)]
    measured = parallel_map(_measure_norms, [([elements[i] for i in c], cfg.p, cfg.m, cfg.n_der)
                                             for c in chunks], jobs)
    norms = [member for chunk in measured for member in chunk]
    heat, paraproducts = [], []
    block_max = 0.0
    for i, x in enumerate(elements[:_EQ_HARNESS_MEMBERS]):
        heat.append(bz.heat_block_norms(x, cfg.p, _EQ_HEAT_TS))
        rng = rng_for(cfg.seed, "bdc", i)
        steps = [(rng.uniform(-1, 1, size=cfg.d), k) for k in range(1, 4)]
        for rep in bz.block_difference_checks(x, steps, cfg.m, cfg.p):
            if not rep["skipped"]:
                block_max = max(block_max, rep["ratio"])
        u_mod = tor.random_element(x.algebra, rng_for(cfg.seed, "psdo", i), band=cfg.band)
        seq = exp_psdo_sequence(u_mod)
        paraproducts.append((seq, bz.block_norms(bz.paraproduct(seq, x), cfg.p)))
    return EquivalenceMeasurement(norms, heat, paraproducts, block_max)


def reduce_equivalence(cfg: ExperimentConfig, meas: EquivalenceMeasurement):
    """Reduce stage of ``besov_equivalence_stats``: the weights and l_q sums
    of cfg's s and q over a measurement of cfg."""
    s, q = cfg.s, cfg.q
    rows = []
    r_md, r_mi, r_di = [], [], []
    for i, (blocks, dm) in enumerate(meas.norms):
        nm = bz.multiplier_form(blocks, s, q)
        nd = bz.difference_form(dm, s, q)
        ni = bz.integral_form(dm, s, q)
        r_md.append(nm / nd)
        r_mi.append(nm / ni)
        r_di.append(nd / ni)
        rows.append({"element-seed": i, "multiplier": nm, "difference": nd, "integral": ni})
    smooth_max, para_max = 0.0, 0.0
    for heat, (seq, out_blocks), (blocks, _dm) in zip(meas.heat, meas.paraproducts, meas.norms):
        rep = bz.heat_smoothing_ratios(heat, s, s + 1.0, q, _EQ_HEAT_TS)
        smooth_max = max(smooth_max, rep["sup_ratio"])
        prep = bz.paraproduct_report(seq, blocks, out_blocks, s, q)
        para_max = max(para_max, prep["ratio"])
    stats = {
        "ratio_md_min": float(np.min(r_md)), "ratio_md_max": float(np.max(r_md)),
        "ratio_mi_min": float(np.min(r_mi)), "ratio_mi_max": float(np.max(r_mi)),
        "ratio_di_min": float(np.min(r_di)), "ratio_di_max": float(np.max(r_di)),
        "heat_smoothing_max": smooth_max,
        "block_diff_ratio_max": meas.block_max,
        "paraproduct_ratio_max": para_max,
    }
    return stats, rows


def besov_equivalence_stats(cfg: ExperimentConfig, jobs: int = 1):
    """(stats, per-member rows) of the three-norm equivalence harness."""
    return reduce_equivalence(cfg, measure_equivalence(cfg, jobs))


def besov_equivalence_grid(configs) -> list:
    """``besov_equivalence_stats`` of every config, in order.  Configs that
    differ only in q share one measurement, so each group is measured once
    and reduced once per q; the stats are bit-identical to one call per
    config."""
    for cfg in configs:
        besov_index(cfg)
    groups: dict = {}
    for cfg in configs:
        groups.setdefault(_measure_key(cfg), []).append(cfg)
    results = {}
    for group in groups.values():
        meas = measure_equivalence(group[0])
        for cfg in group:
            results[cfg] = reduce_equivalence(cfg, meas)
    return [results[cfg] for cfg in configs]


def run_besov_equivalence(cfg: ExperimentConfig, store: BaselineStore,
                          jobs: int = 1) -> ExperimentResult:
    res = ExperimentResult("besov-equivalence", cfg.config_hash)
    stats, rows = besov_equivalence_stats(cfg, jobs=jobs)
    table = []
    # harness sup-ratios (smoothing, block difference, paraproduct) tolerate
    # 10% regression; the equivalence band edges themselves are strict
    loose = ("heat_smoothing_max", "block_diff_ratio_max", "paraproduct_ratio_max")
    for metric in _EQ_METRICS:
        value = stats[metric]
        baseline = store.get(res.config_hash, metric)
        if metric.endswith("_min"):
            ok = res.check(f"besov.{metric}", value, baseline * (1 - 1e-9), mode="ge",
                           note=f"baseline {baseline:.6g}")
        else:
            slack = 1.1 if metric in loose else 1 + 1e-9
            ok = res.check(f"besov.{metric}", value, baseline * slack,
                           note=f"baseline {baseline:.6g}")
        table.append({"config-hash": res.config_hash, "metric": metric, "value": value,
                      "baseline": baseline, "pass": ok})
    csv_rows = []
    baselines = {"difference": ("ratio_md_min", "ratio_md_max"),
                 "integral": ("ratio_mi_min", "ratio_mi_max")}
    for row in rows:
        for form in ("multiplier", "difference", "integral"):
            if form == "multiplier":
                ratio, base, ok = 1.0, 1.0, True
            else:
                ratio = row["multiplier"] / row[form]
                lo = store.get(res.config_hash, baselines[form][0])
                hi = store.get(res.config_hash, baselines[form][1])
                base = hi
                ok = lo * (1 - 1e-9) <= ratio <= hi * (1 + 1e-9)
            csv_rows.append({"config-hash": res.config_hash, "element-seed": row["element-seed"],
                             "norm-form": form, "value": row[form], "ratio": ratio,
                             "baseline": base, "pass": ok})
    res.tables["norms"] = csv_rows
    res.tables["ratio_bands"] = table
    return res


def store_stats(cfg: ExperimentConfig, store: BaselineStore, stats: dict, force: bool = False):
    """Record every value of stats as a baseline constant of cfg."""
    key, label = cfg.config_hash, cfg.canonical()
    for metric, value in stats.items():
        store.set(key, metric, value, force=force, label=label)
    return stats


def capture_besov_equivalence(cfg: ExperimentConfig, store: BaselineStore, force: bool = False):
    return store_stats(cfg, store, besov_equivalence_stats(cfg)[0], force)


# ---------------------------------------------------------------------------
# nonlinear estimate
# ---------------------------------------------------------------------------

def nonlinear_stats(cfg: ExperimentConfig):
    idx = besov_index(cfg)
    F = parse_symbol(cfg.expr)
    elements = ensemble_elements(cfg, tag="nl")
    ratios, lips = [], []
    m_sup = max(tor.lp_norm(x, math.inf) for x in elements) + 1.0
    from .symbols import BumpLocalizer, localize, smoothness_order
    floc = localize(F, BumpLocalizer(m_sup))
    cb_loc = cb_norm(floc, smoothness_order(F, cfg.s), (-2 * m_sup, 2 * m_sup))
    lip_loc = lipschitz_norm(F, (-m_sup, m_sup))
    clip = 0.0
    for i, x in enumerate(elements):
        y = tor.random_element(x.algebra, rng_for(cfg.seed, "nl2", i), band=cfg.band)
        ratio, lip, fx = bz.symbol_ratios(F, x, y, idx)
        ratios.append(ratio)
        lips.append(lip)
        # L_p Lipschitz constant on matrix realizations (contraction-time input)
        if i < 20:
            y = tor.random_element(x.algebra, rng_for(cfg.seed, "nl3", i), band=cfg.band)
            nf = tor.lp_norm(fx - bz.apply_symbol(F, y), cfg.p)
            nd = tor.lp_norm(x - y, cfg.p)
            if nd > 0 and lip_loc > 0:
                clip = max(clip, nf / (nd * lip_loc))
    stats = {
        "bound_ratio_max": float(np.max(ratios)),
        "lip_ratio_max": float(np.max(lips)),
        "c_bound": float(np.max(ratios)) / max(cb_loc, 1e-300),
        "c_lip": clip,
    }
    return stats, ratios, lips


def run_nonlinear_estimate(cfg: ExperimentConfig, store: BaselineStore) -> ExperimentResult:
    res = ExperimentResult("nonlinear-estimate", cfg.config_hash)
    stats, ratios, lips = nonlinear_stats(cfg)
    for metric in ("bound_ratio_max", "lip_ratio_max"):
        baseline = store.get(res.config_hash, metric)
        res.check(f"nonlinear.{metric}", stats[metric], baseline * (1 + 1e-9),
                  note=f"baseline {baseline:.6g}")
    # identity symbol must return exactly 1
    x0 = ensemble_elements(cfg, count=1, tag="nl")[0]
    rid = bz.boundedness_ratio(parse_symbol("x"), x0, besov_index(cfg))
    res.check("nonlinear.identity_ratio", abs(rid - 1.0), 1e-12)
    res.tables["ratios"] = [{"config-hash": res.config_hash, "element-seed": i,
                             "bound_ratio": r, "lip_ratio": l}
                            for i, (r, l) in enumerate(zip(ratios, lips))]
    return res


def capture_nonlinear(cfg: ExperimentConfig, store: BaselineStore, force: bool = False):
    return store_stats(cfg, store, nonlinear_stats(cfg)[0], force)


# ---------------------------------------------------------------------------
# meyer
# ---------------------------------------------------------------------------

def run_meyer(cfg: ExperimentConfig, store: BaselineStore) -> ExperimentResult:
    res = ExperimentResult("meyer", cfg.config_hash)
    rows = []
    worst32 = 0.0
    refine_fail = 0
    alg = cfg.algebra()
    # the whole ensemble is one stack of elements
    x = tor.TorusElement(alg, np.stack([
        tor.random_element(alg, rng_for(cfg.seed, "meyer", i), band=cfg.band).coeffs
        for i in range(min(cfg.ensemble, 20))]))
    xis = (0.5, 1.0, 2.0)
    for i, grid in enumerate(bz.meyer_residual(x, xis, (4, 32)).tolist()):
        for xi, (r4, r32) in zip(xis, grid):
            worst32 = max(worst32, r32)
            refine_fail += int(not r32 < r4)
            rows.append({"seed": i, "xi": xi, "K4": r4, "K32": r32})
    res.check("meyer.residual_K32", worst32, 1e-8)
    res.check("meyer.refinement", float(refine_fail), 0.5)
    res.tables["residuals"] = rows
    return res


# ---------------------------------------------------------------------------
# allen-cahn
# ---------------------------------------------------------------------------

def run_allen_cahn(cfg: ExperimentConfig, store: BaselineStore) -> ExperimentResult:
    res = ExperimentResult("allen-cahn", cfg.config_hash)
    alg = cfg.algebra()
    idx = besov_index(cfg)
    u0 = tor.random_element(alg, rng_for(cfg.seed, "ac-u0"), band=cfg.band, decay=2.0)
    F = parse_symbol(cfg.expr)

    # (a) F = 0 reduces to the analytic heat flow
    p0 = ACProblem(u0=u0, F=parse_symbol("0*x"), idx=idx, t_max=min(cfg.t_max, 0.2), dt=cfg.dt)
    traj0, rep0 = picard_solve(p0)
    dev = max(float(np.max(np.abs(traj0.coeffs[i] - tor.heat(u0, t).coeffs)))
              for i, t in enumerate(traj0.times))
    res.check("ac.heat_flow", dev, 1e-10)
    res.check("ac.heat_flow_sweeps", float(rep0["sweeps"]), 2.0)

    # (b) linear symbol matches the per-mode closed form
    c_lin = 0.5
    pl = ACProblem(u0=u0, F=parse_symbol("0.5*x"), idx=idx, t_max=0.2, dt=1e-3)
    trajl, _ = picard_solve(pl)
    exact = u0.coeffs * np.exp(np.multiply.outer(trajl.times, -alg.abs_k ** 2 + c_lin))
    err = float(np.max(tor.lp_norm_batch(alg, trajl.coeffs - exact, 2)))
    res.check("ac.linear_closed_form", err, 1e-8)

    # (c) contraction on [0, T], T = min(t_c, t_max): off the grid, round(T / dt) steps ending on T
    c_bound = store.get(cfg.config_hash, "c_bound")
    c_lip = store.get(cfg.config_hash, "c_lip")
    prob = ACProblem(u0=u0, F=F, idx=idx, t_max=cfg.t_max, dt=cfg.dt, delta=cfg.delta)
    t_c = contraction_time(prob, c_bound, c_lip)
    T = min(t_c, cfg.t_max)
    k = max(1, round(T / cfg.dt))
    traj_c, rep_c = picard_solve(replace(prob, dt=T / k), k)
    res.check("ac.contraction_factor", rep_c["contraction_factor"], 1.0 - 1e-9,
              note=f"T={t_c:.4g}")
    res.check("ac.ball", rep_c["ball_radius"], rep_c["ball_bound"] * (1 + 1e-9))
    res.check("ac.hermitian_states", rep_c["hermitian_dev"], 1e-11)

    # (d) strong-solution residual refines at second order
    seg = min(t_c, 0.15)
    p_coarse = ACProblem(u0=u0, F=F, idx=idx, t_max=0.2, dt=2 * cfg.dt, delta=cfg.delta)
    p_fine = ACProblem(u0=u0, F=F, idx=idx, t_max=0.2, dt=cfg.dt, delta=cfg.delta)
    # the fine run and (e) start from u0 with the same F, dt and first
    # horizon: their first segment is solved once
    shared = first_segment(prob, seg) if min(seg, p_fine.t_max) == min(seg, prob.t_max) else None
    _, rc = strong_residual(evolve(p_coarse, segment_time=seg), p_coarse)
    _, rf = strong_residual(evolve(p_fine, segment_time=seg, first=shared), p_fine)
    res.check("ac.strong_refinement", float(np.max(rc) / np.max(rf)), 3.0, mode="ge")

    # (e) Lipschitz symbol runs to the horizon under the Gronwall envelope
    rep_g = global_existence_check(prob, c_lip, segment_time=seg, first=shared)
    res.check("ac.global_completed", 1.0 if rep_g["completed"] else 0.0, 0.5, mode="ge")
    res.check("ac.gronwall_envelope", rep_g["max_envelope_ratio"], 1.0 + 1e-6,
              note=f"rate {rep_g['envelope_rate']:.4g}")

    # (f) F(u) along a theta = 0 trajectory against F on the left-regular
    # realization, split into 2^d real symmetric coset blocks
    alg0 = tor.TorusAlgebra(d=cfg.d, N=cfg.n_modes, theta_num=0)
    u00 = tor.random_element(alg0, rng_for(cfg.seed, "ac-cc"), band=cfg.band, decay=2.0)
    pc = ACProblem(u0=u00, F=F, idx=idx, t_max=0.05, dt=cfg.dt)
    states = picard_solve(pc)[0].coeffs
    got = pc.apply_F(states).reshape(len(states), -1)
    cross = float(np.max(np.linalg.norm(got - bz.regular_apply_symbol(F, alg0, states), axis=1)))
    res.check("ac.cross_check", cross, 1e-8)

    res.tables["contraction"] = [{"T": t_c, "factor": rep_c["contraction_factor"],
                                  "sweeps": rep_c["sweeps"]}]
    traj_g = rep_g["trajectory"]
    norms_hi = bz.multiplier_norm_stack(alg, traj_g.coeffs, BesovIndex(cfg.s + 1.0, cfg.p, cfg.q))
    res.tables["trajectory"] = [
        {"time": float(t), f"besov_s{cfg.s:g}": float(n), f"besov_s{cfg.s + 1.0:g}": float(n_hi),
         "blow_up": traj_g.blow_up}
        for t, n, n_hi in zip(traj_g.times, traj_g.besov_norms, norms_hi)]
    return res


def capture_allen_cahn(cfg: ExperimentConfig, store: BaselineStore, force: bool = False):
    stats = nonlinear_stats(cfg)[0]
    return store_stats(cfg, store, {k: stats[k] for k in ("c_bound", "c_lip")}, force)


# ---------------------------------------------------------------------------
# canonical acceptance configurations (shared by tests and baseline capture)
# ---------------------------------------------------------------------------

ACCEPTANCE_SEED = 2026


def besov_equivalence_configs():
    """The (s, p, q) x N grid of the three-norm equivalence criterion."""
    out = []
    for s in (0.5, 1.5, 2.5):
        for p in (1.0, 2.0, math.inf):
            for q in (1.0, 2.0, math.inf):
                for n_modes in (8, 16, 32):
                    out.append(ExperimentConfig(
                        kind="besov-equivalence", seed=ACCEPTANCE_SEED, ensemble=50,
                        band=3, d=2, n_modes=n_modes, theta_num=1,
                        s=s, p=p, q=q, m=1, n_der=bz.default_n_der(s)))
    return out


def nonlinear_configs():
    """tanh boundedness harness across lattice doublings (0 < s < 1)."""
    return [ExperimentConfig(kind="nonlinear-estimate", seed=ACCEPTANCE_SEED, ensemble=50,
                             band=3, d=2, n_modes=n_modes, theta_num=1,
                             expr="tanh(x)", s=0.5, p=2.0, q=2.0, m=1, n_der=0)
            for n_modes in (8, 16, 32)]


def allen_cahn_config():
    return ExperimentConfig(kind="allen-cahn", seed=ACCEPTANCE_SEED, ensemble=20,
                            band=3, d=2, n_modes=16, theta_num=1,
                            expr="tanh(x)", s=1.5, p=2.0, q=2.0,
                            t_max=1.0, dt=1e-3, delta=1.0)


RUNNERS = {
    "verify-core": run_verify_core,
    "moi": run_moi,
    "chain-rule": run_chain_rule,
    "besov-equivalence": run_besov_equivalence,
    "nonlinear-estimate": run_nonlinear_estimate,
    "meyer": run_meyer,
    "allen-cahn": run_allen_cahn,
}

CAPTURES = {
    "besov-equivalence": capture_besov_equivalence,
    "nonlinear-estimate": capture_nonlinear,
    "allen-cahn": capture_allen_cahn,
}


def run_experiment(cfg: ExperimentConfig, store: BaselineStore, jobs: int = 1) -> ExperimentResult:
    if cfg.kind not in RUNNERS:
        raise ValueError(f"unknown experiment kind {cfg.kind}")
    if cfg.kind == "besov-equivalence":
        return run_besov_equivalence(cfg, store, jobs=jobs)
    return RUNNERS[cfg.kind](cfg, store)
