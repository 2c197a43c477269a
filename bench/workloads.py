"""Workload definitions: the experiment configs each workload sends to `opcalc run`.

A workload is a cycle of passes; a pass is a list of ops and one op is one
`opcalc run <ini>` call.  Every config is written here from explicit
parameters and the workload seed, so the program only ever receives the
generated INI files and a change to the package's own config helpers does not
change the workload.  A baselined config at the workload's default seed
hashes to a canonical acceptance configuration, whose constants are packaged
with opcalc; at any other seed the benchmark captures them in set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Kinds whose `opcalc run` compares against (or reads) baseline constants.
BASELINED_KINDS = ("besov-equivalence", "nonlinear-estimate", "allen-cahn")


def _besov(n: int, p: str, q: str) -> dict:
    # criterion-6 grid point at s = 1.5 (n_der = 1), as in the acceptance suite
    return {"experiment": {"kind": "besov-equivalence", "ensemble": 50, "band": 3},
            "algebra": {"d": 2, "n": n, "theta_num": 1, "backend": "matrix"},
            "besov": {"s": 1.5, "p": p, "q": q, "m": 1, "n_der": 1}}


def _nonlinear(n: int) -> dict:
    # criterion-9 tanh boundedness harness
    return {"experiment": {"kind": "nonlinear-estimate", "ensemble": 50, "band": 3},
            "algebra": {"d": 2, "n": n, "theta_num": 1, "backend": "matrix"},
            "symbol": {"expr": "tanh(x)"},
            "besov": {"s": 0.5, "p": 2, "q": 2, "m": 1, "n_der": 0}}


# The shipped configs/*.ini files, minus their seeds.
ALLEN_CAHN = {"experiment": {"kind": "allen-cahn", "ensemble": 20, "band": 3},
              "algebra": {"d": 2, "n": 16, "theta_num": 1},
              "symbol": {"expr": "tanh(x)"},
              "besov": {"s": 1.5, "p": 2, "q": 2},
              "allen-cahn": {"t_max": 1.0, "dt": 0.001, "delta": 1.0}}
ALLEN_CAHN_SEED = 2026
VERIFY_CORE = {"experiment": {"kind": "verify-core"},
               "algebra": {"d": 2, "n": 8, "theta_num": 1}}
MOI = {"experiment": {"kind": "moi", "ensemble": 20}, "symbol": {"expr": "exp(x)"}}
CHAIN_RULE = {"experiment": {"kind": "chain-rule", "ensemble": 50}}
MEYER = {"experiment": {"kind": "meyer", "ensemble": 20, "band": 4},
         "algebra": {"n": 16, "theta_num": 1}}

# verify-core runs at its shipped seed only: its p = 1 and p = inf doubling
# assertions use random non-lattice shifts, which are not isometries of the
# matrix norms, and fail at some seeds (13, 19, 68, ... among 0-299).
VERIFY_CORE_SEED = 7
# core-battery seeds per pass, so that one pass is about ten seconds of work
CORE_SEEDS_PER_PASS = 5
# distinct passes written at set-up; longer runs cycle through them again
CORE_PASSES = 16


def with_seed(sections: dict, seed: int) -> dict:
    out = {name: dict(keys) for name, keys in sections.items()}
    out["experiment"]["seed"] = seed
    return out


def _besov_grid(seed: int) -> list:
    ops = [(f"besov-n16-p{p}-q{q}", with_seed(_besov(16, p, q), seed))
           for p in ("1", "2", "inf") for q in ("2", "inf")]
    ops += [(f"nonlinear-n{n}", with_seed(_nonlinear(n), seed)) for n in (8, 16, 32)]
    return [ops]


def _allen_cahn(seed: int) -> list:
    # Picard sweeps vary from 80 to 105 across seeds, so the shipped seed's run
    # (fixed work, packaged constants) halves the seed-driven spread of a pass.
    return [[(f"allen-cahn-s{s}", with_seed(ALLEN_CAHN, s)) for s in (ALLEN_CAHN_SEED, seed)]]


def _core_battery(seed: int) -> list:
    passes = []
    for j in range(CORE_PASSES):
        ops = [("verify-core", with_seed(VERIFY_CORE, VERIFY_CORE_SEED))]
        for i in range(CORE_SEEDS_PER_PASS):
            s = seed + j * CORE_SEEDS_PER_PASS + i
            ops += [(f"{name}-s{s}", with_seed(cfg, s))
                    for name, cfg in (("moi", MOI), ("chain-rule", CHAIN_RULE), ("meyer", MEYER))]
        passes.append(ops)
    return passes


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    passes: Callable[[int], list]   # seed -> [[(op name, INI sections), ...], ...]


WORKLOADS = {w.name: w for w in (
    Workload("besov-grid", 2026, _besov_grid),
    Workload("allen-cahn", ALLEN_CAHN_SEED, _allen_cahn),
    Workload("core-battery", 7, _core_battery),
)}


def ini_text(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)
