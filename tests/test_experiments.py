import math

import numpy as np
import pytest

import opcalc.chain as chain
import opcalc.moi as moi
from opcalc.baselines import BaselineStore
from opcalc.config import ExperimentConfig
from opcalc.errors import MissingBaseline
from opcalc.experiments import (ExperimentResult, besov_equivalence_configs,
                                capture_besov_equivalence, parallel_map, run_besov_equivalence,
                                run_chain_rule, run_experiment, run_meyer, run_moi, run_verify_core)


def test_verify_core_battery():
    cfg = ExperimentConfig(kind="verify-core", seed=7)
    res = run_verify_core(cfg, BaselineStore())
    assert len(res.assertions) >= 40
    assert res.passed, [a.name for a in res.assertions if not a.passed]


def test_verify_core_deterministic():
    cfg = ExperimentConfig(kind="verify-core", seed=13)
    r1 = run_verify_core(cfg, BaselineStore())
    r2 = run_verify_core(cfg, BaselineStore())
    assert [(a.name, a.value) for a in r1.assertions] == [(a.name, a.value) for a in r2.assertions]


def test_moi_experiment_slope_bounds():
    cfg = ExperimentConfig(kind="moi", seed=5, ensemble=8, expr="exp(x)")
    res = run_moi(cfg, BaselineStore())
    assert res.passed
    slope = res.tables["binned_slope"][0]["slope"]
    assert -1.3 <= slope <= -0.7


def test_chain_rule_builds_no_polynomial_tensor(monkeypatch):
    # every chain-rule symbol is a polynomial: its MOIs contract the h_k
    # recurrence on matrices, and no F^[n] tensor is built on the way
    tensor = chain.divided_diff_tensor

    def refuse_polynomials(F, spectra):
        assert F.poly_coeffs is None, f"F^[n] tensor built for {F.name}"
        return tensor(F, spectra)

    for module in (chain, moi):
        monkeypatch.setattr(module, "divided_diff_tensor", refuse_polynomials)
    res = run_chain_rule(ExperimentConfig(kind="chain-rule", seed=3, ensemble=4), BaselineStore())
    assert res.passed
    assert {row["kind"] for row in res.tables["residuals"]} == {"inner", "torus"}


def test_meyer_experiment():
    cfg = ExperimentConfig(kind="meyer", seed=5, ensemble=4, band=3, n_modes=16, theta_num=1)
    res = run_meyer(cfg, BaselineStore())
    assert res.passed
    assert all(row["K32"] <= 1e-8 for row in res.tables["residuals"])


KERNELS = {"linalg": ("eig_hermitian", "schatten_norm", "schatten_norm_batch"),
           "symbols": ("divided_diff_tensor",)}


@pytest.mark.parametrize("kind", ["chain-rule", "meyer", "moi"])
def test_kernel_calls_do_not_grow_with_the_ensemble(kind, monkeypatch):
    # each harness stage hands every ensemble member to one stacked kernel
    # call, so a per-member loop shows as counts that grow with the ensemble
    import sys
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, names in KERNELS.items():
        for name in names:
            original = getattr(sys.modules[f"opcalc.{owner}"], name)
            wrapper = counted(name, original)
            for module in [m for key, m in sys.modules.items() if key.startswith("opcalc")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)
    runner = {"chain-rule": run_chain_rule, "meyer": run_meyer, "moi": run_moi}[kind]
    seen = []
    for ensemble in (5, 20):
        counts.clear()
        cfg = ExperimentConfig(kind=kind, seed=3, ensemble=ensemble, band=4, n_modes=16, theta_num=1)
        assert runner(cfg, BaselineStore()).passed
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0].get("eig_hermitian", 0) > 0


def test_besov_equivalence_against_committed_baseline():
    # smallest committed configuration; reruns must land inside the bands
    cfg = next(c for c in besov_equivalence_configs()
               if c.n_modes == 8 and c.s == 1.5 and c.p == 2.0 and c.q == 2.0)
    store = BaselineStore.load()
    res = run_besov_equivalence(cfg, store)
    assert res.passed, [a.name for a in res.assertions if not a.passed]
    rows = res.tables["norms"]
    assert set(rows[0].keys()) == {"config-hash", "element-seed", "norm-form",
                                   "value", "ratio", "baseline", "pass"}
    assert len(rows) == 3 * cfg.ensemble
    assert all(r["pass"] for r in rows)


def test_besov_equivalence_missing_baseline():
    cfg = ExperimentConfig(kind="besov-equivalence", seed=99, ensemble=2, band=2,
                           n_modes=8, s=1.5, p=2, q=2, n_der=1)
    with pytest.raises(MissingBaseline):
        run_besov_equivalence(cfg, BaselineStore(data={}))


def test_capture_then_run_roundtrip(tmp_path):
    cfg = ExperimentConfig(kind="besov-equivalence", seed=42, ensemble=3, band=2,
                           n_modes=8, s=1.5, p=2, q=2, n_der=1)
    store = BaselineStore(data={}, path=str(tmp_path / "c.json"))
    capture_besov_equivalence(cfg, store)
    res = run_besov_equivalence(cfg, store)
    assert res.passed


def test_run_experiment_dispatch():
    cfg = ExperimentConfig(kind="verify-core", seed=3)
    res = run_experiment(cfg, BaselineStore())
    assert res.kind == "verify-core"
    assert res.config_hash == cfg.config_hash


def test_check_fails_non_finite_values():
    res = ExperimentResult("verify-core", "h")
    assert not res.check("x", math.inf, 3.0, mode="ge")
    assert not res.check("y", -math.inf, 3.0)
    assert not res.check("z", math.nan, 3.0, note="ratio")
    assert res.check("w", 1.0, 3.0)
    assert [a.note for a in res.assertions] == ["non-finite value", "non-finite value",
                                                "ratio; non-finite value", ""]
    assert not res.passed


def test_parallel_map_order_preserved():
    items = list(range(20))
    assert parallel_map(lambda v: v * v, items, jobs=1) == [v * v for v in items]


def test_besov_grid_matches_per_config_stats(monkeypatch):
    import opcalc.experiments as ex
    configs = [ExperimentConfig(kind="besov-equivalence", seed=11, ensemble=4, band=3, d=2,
                                n_modes=8, theta_num=1, s=s, p=p, q=q, m=1, n_der=n_der)
               for s, n_der in ((0.5, 0), (1.5, 1)) for p in (1.0, 2.0, math.inf)
               for q in (1.0, 2.0, math.inf)]
    measured = []
    measure = ex.measure_equivalence
    monkeypatch.setattr(ex, "measure_equivalence",
                        lambda cfg, jobs=1: measured.append(cfg) or measure(cfg, jobs))
    grid = ex.besov_equivalence_grid(configs)
    assert len(measured) == 6  # one measurement per (s, p), shared by its three q
    monkeypatch.setattr(ex, "measure_equivalence", measure)
    for cfg, (stats, rows) in zip(configs, grid):
        ref_stats, ref_rows = ex.besov_equivalence_stats(cfg)
        assert stats == ref_stats and rows == ref_rows
