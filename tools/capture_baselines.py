#!/usr/bin/env python3
"""Regenerate the committed baseline constants (src/opcalc/data/constants.json).

Runs every canonical acceptance configuration once and records the empirical
ratio bands and contraction constants; the Besov configurations that differ
only in q share one measurement (``besov_equivalence_grid``).  Rerun only
when the harness sampling or the canonical configurations change; the
acceptance suite asserts non-regression against the committed values.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from opcalc.baselines import BaselineStore
from opcalc.experiments import (allen_cahn_config, besov_equivalence_configs,
                                besov_equivalence_grid, capture_allen_cahn, capture_nonlinear,
                                nonlinear_configs, store_stats)

TARGET = pathlib.Path(__file__).resolve().parents[1] / "src/opcalc/data/constants.json"


def main():
    store = BaselineStore.load(TARGET)
    t0 = time.time()
    configs = [cfg for cfg in besov_equivalence_configs()
               if not store.has(cfg.config_hash, "ratio_md_min")]
    for i, (cfg, (stats, _rows)) in enumerate(zip(configs, besov_equivalence_grid(configs))):
        store_stats(cfg, store, stats, force=True)
        store.save(TARGET)
        print(f"[{i + 1}/{len(configs)}] besov {cfg.config_hash} "
              f"(s={cfg.s}, p={cfg.p}, q={cfg.q}, N={cfg.n_modes}) "
              f"{time.time() - t0:.0f}s")
    for cfg in nonlinear_configs():
        if not store.has(cfg.config_hash, "bound_ratio_max"):
            capture_nonlinear(cfg, store, force=True)
            store.save(TARGET)
            print(f"nonlinear {cfg.config_hash} (N={cfg.n_modes}) {time.time() - t0:.0f}s")
    cfg = allen_cahn_config()
    if not store.has(cfg.config_hash, "c_bound"):
        capture_allen_cahn(cfg, store, force=True)
        store.save(TARGET)
        print(f"allen-cahn {cfg.config_hash} {time.time() - t0:.0f}s")
    print(f"done in {time.time() - t0:.0f}s -> {TARGET}")


if __name__ == "__main__":
    main()
