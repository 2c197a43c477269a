"""Checks of the benchmark itself; run from the repository root:

    python3 bench/selfcheck.py

Takes about five minutes on a two-core machine.  Prints one line per check
and exits 1 if any check fails.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from tracer import KINDS, PER_LAYER_METRICS, Tracer
from workloads import (ALLEN_CAHN, CHAIN_RULE, MEYER, MOI, VERIFY_CORE, WORKLOADS, _besov,
                       ini_text, with_seed)

CONSTANTS = run.SRC / "opcalc" / "data" / "constants.json"
WORK = run.OUT / "selfcheck"
OTHER_SEED = 11
failures = []


def check(name, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(name)


def write_ini(name, sections) -> str:
    path = WORK / "ini" / f"{name}.ini"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(ini_text(sections))
    return str(path)


def bench(*argv, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def check_definitions():
    from opcalc.config import KINDS as program_kinds, parse_config
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check("BENCHMARK.json lists every per-layer metric the tracer reports",
          [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER_METRICS)
    check("tracer knows every experiment kind", tuple(program_kinds) == KINDS)
    packaged = json.loads(CONSTANTS.read_text())
    for name in ("besov-grid", "allen-cahn"):
        w = WORKLOADS[name]
        missing = [op for op, sections in w.passes(w.default_seed)[0]
                   if not any(k.startswith(parse_config(write_ini(op, sections)).config_hash + "/")
                              for k in packaged)]
        check(f"{name} at its default seed reads packaged constants", not missing, str(missing))
    shipped = {"allen-cahn": (ALLEN_CAHN, 2026), "verify-core": (VERIFY_CORE, 7), "moi": (MOI, 7),
               "chain-rule": (CHAIN_RULE, 7), "meyer": (MEYER, 7)}
    for name, (sections, seed) in shipped.items():
        ours = parse_config(write_ini(f"shipped-{name}", with_seed(sections, seed)))
        theirs = parse_config(str(run.ROOT / "configs" / f"{name}.ini"))
        check(f"workload copy of configs/{name}.ini is the shipped config", ours == theirs)


def check_failure_accounting(cli):
    uncaptured = write_ini("uncaptured", with_seed(_besov(16, "2", "2"), OTHER_SEED))
    cases = [
        ("exit 3: baselined config at an uncaptured seed, packaged store", uncaptured, 3),
        ("exit 1: verify-core at seed 13 (doubling assertion fails)",
         write_ini("verify-core-13", with_seed(VERIFY_CORE, 13)), 1),
        ("uncaught exception: Besov p below 1",
         write_ini("bad-p", with_seed(_besov(8, "0.5", "2"), OTHER_SEED)), "exception"),
    ]
    for i, (name, ini, code) in enumerate(cases):
        _, records = run.run_passes(cli, [[{"op": name, "ini": ini, "baseline": None}]],
                                    WORK / "failures" / str(i), count=1)
        failed = sum(1 for r in records if r["exit"] != 0)
        check(f"failure accounting, {name}: 1 failed of 1 attempted",
              len(records) == 1 and failed == 1 and records[0]["exit"] == code, str(records))


def check_trace_coverage(cli):
    """Layer counts equal what numpy.linalg received; tracing leaves summaries alone."""
    import numpy as np
    received = {"svd": 0, "eigh": 0}
    originals = {k: getattr(np.linalg, k) for k in received}

    def counting(kind):
        def fn(a, *args, **kwargs):
            received[kind] += int(np.prod(np.shape(a)[:-2]))
            return originals[kind](a, *args, **kwargs)
        return fn

    store = WORK / "coverage" / "constants.json"
    small_besov = with_seed(_besov(8, "1", "2"), OTHER_SEED)
    small_besov["experiment"]["ensemble"] = 4
    small_ac = with_seed(ALLEN_CAHN, OTHER_SEED)
    small_ac["algebra"]["n"] = 8
    small_ac["allen-cahn"]["t_max"] = 0.3
    ops = []
    for name, sections in (("besov", small_besov), ("allen-cahn", small_ac),
                           ("meyer", with_seed({"experiment": {"kind": "meyer", "ensemble": 2},
                                                "algebra": {"n": 8}}, OTHER_SEED)),
                           ("chain-rule", with_seed({"experiment": {"kind": "chain-rule", "ensemble": 3}},
                                                    OTHER_SEED))):
        ini = write_ini(f"coverage-{name}", sections)
        if sections["experiment"]["kind"] in run.BASELINED_KINDS:
            run.call(cli, ["baseline", ini, "--baseline", str(store)])
            ops.append({"op": name, "ini": ini, "baseline": str(store)})
        else:
            ops.append({"op": name, "ini": ini, "baseline": None})
    _, plain = run.run_passes(cli, [ops], WORK / "coverage" / "plain", count=1)
    tracer = Tracer()
    tracer.install()
    for kind in received:
        setattr(np.linalg, kind, counting(kind))
    try:
        _, traced = run.run_passes(cli, [ops], WORK / "coverage" / "traced", count=1, tracer=tracer)
    finally:
        for kind, fn in originals.items():
            setattr(np.linalg, kind, fn)
        tracer.uninstall()
    counts = tracer.counts
    check("linalg.svd.matrices equals the matrices numpy.linalg.svd received",
          received["svd"] > 0 and counts.get("linalg.svd.matrices") == received["svd"],
          f"{counts.get('linalg.svd.matrices')} vs {received['svd']}")
    check("linalg.eigh.matrices equals the matrices numpy.linalg.eigh received",
          received["eigh"] > 0 and counts.get("linalg.eigh.matrices") == received["eigh"],
          f"{counts.get('linalg.eigh.matrices')} vs {received['eigh']}")
    run.check_records(plain)
    run.check_records(traced)
    check("traced summary.txt files are byte-identical to the untraced ones",
          [r["summary_sha256"] for r in plain] == [r["summary_sha256"] for r in traced]
          and all(r["summary_sha256"] for r in plain))
    from opcalc import besov, linalg
    check("every wrapper is removed again",
          not any(hasattr(f, "__wrapped__") for f in (cli.run_experiment, besov.lp_norm_batch,
                                                      linalg.HermitianOperator.__post_init__)))


def check_runs():
    before = hashlib.sha256(CONSTANTS.read_bytes()).hexdigest()
    for name, w in WORKLOADS.items():
        for seed in (w.default_seed, OTHER_SEED):
            proc, result = bench("--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "0")
            check(f"{name} at seed {seed}: correct, failed_frac 0",
                  result is not None and result["correct"] and result["failed"] == 0
                  and set(result["metrics"]) == {"run_s", "setup_s", "peak_rss_mb"},
                  proc.stderr[-2000:])
    digests = []
    for _ in range(2):
        bench("--workload", "core-battery", "--seed", str(OTHER_SEED), "--seconds", "1", "--trace", "0")
        record = json.loads((run.OUT / "core-battery" / "result.json").read_text())
        digests.append([r["summary_sha256"] for r in record["records"]])
    check("two untraced runs give identical summary digests", digests[0] == digests[1] and all(digests[0]))
    for name in WORKLOADS:
        proc, result = bench("--workload", name, "--seed", str(OTHER_SEED), "--seconds", "1", "--trace", "1")
        check(f"{name} traced: correct, digests equal untraced, every per-layer metric",
              result is not None and result["correct"]
              and list(result["metrics"]) == [m for m, _ in PER_LAYER_METRICS], proc.stderr[-2000:])
    check("packaged constants.json is byte-identical after the runs",
          hashlib.sha256(CONSTANTS.read_bytes()).hexdigest() == before)


def check_stripped():
    """Without the opcalc sources the benchmark fails and prints no result."""
    stripped = WORK / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(run.BENCH, stripped / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = bench("--workload", "core-battery", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=stripped)
    check("without src/ the benchmark exits non-zero and prints no result",
          proc.returncode != 0 and not proc.stdout.strip(), proc.stdout[-500:])


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    cli = run.import_opcalc()
    check_definitions()
    check_failure_accounting(cli)
    check_trace_coverage(cli)
    check_stripped()
    check_runs()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
