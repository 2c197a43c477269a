"""opcalc benchmark: closed-loop `opcalc run` workloads, end to end or per layer.

    python3 bench/run.py --workload besov-grid --seed 2026 --seconds 25 --trace 0

One client runs the workload's ops one after another, in process, through
`opcalc.cli.main(["run", <ini>, "--out", <dir>, "--jobs", "1"])`.  Passes over
the op list repeat while another pass still fits in --seconds; there is
always at least one.  Exit code 0 is a success; any other exit code or an
uncaught exception is one failed op, and the run goes on.

--trace 0 sets up the workload twice, each in a fresh process (import,
config generation, baseline capture at a non-default seed, store load), then
reports run_s (median pass wall time), setup_s (median set-up wall time) and
peak_rss_mb.  --trace 1 sets up once in process, runs one pass untraced,
then runs it again with every layer wrapped (see tracer.py) and reports the
per-layer metrics.  The last line of standard output is the
result as JSON; the full record, with every op's summary.txt sha256, is
written to bench-out/<workload>/result.json.  Needs the opcalc sources in
src/ next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import BASELINED_KINDS, WORKLOADS, ini_text

# One BLAS thread, set before numpy is first imported: on the two-core
# reference machine 1 and 2 threads time the same at N <= 32, and one thread
# keeps the runs from contending for cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench-out"
# set-ups per run; at a non-default seed besov-grid's capture makes each cost
# as much as a pass, so two keep a run's time for the passes
SETUP_REPEATS = 2
# the strict equivalence bands of the baselined harnesses are 1e-9 relative
DRIFT_LIMIT = 1e-9
# set-up subprocesses share this budget, so a hung set-up still ends the run in time
SETUP_DEADLINE_S = 150.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def import_opcalc():
    """opcalc.cli from src/ of this checkout, never from an installed copy."""
    package = SRC / "opcalc"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"opcalc sources not found in {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import opcalc.cli as cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported opcalc from {cli.__file__}, not from {package}")
    return cli


def call(cli, argv):
    """(exit code, captured output) of one in-process opcalc command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught program error counts as one failed op
            traceback.print_exc(file=buf)
            code = "exception"
    return code, buf.getvalue()


def set_up(workload, seed: int, directory: Path) -> list:
    """Write the workload's configs and capture the constants they lack.

    A baselined config at the workload's default seed reads the packaged
    store; at any other seed its constants are captured into a store of the
    benchmark's own, never into the packaged one.  Returns the passes as lists
    of {"op", "ini", "baseline"}, where a baseline of None is the packaged store.
    """
    cli = import_opcalc()
    ini_dir = directory / "ini"
    ini_dir.mkdir(parents=True)
    store = directory / "constants.json"
    written = {}
    passes = []
    for ops in workload.passes(seed):
        entries = []
        for name, sections in ops:
            captured = (sections["experiment"]["kind"] in BASELINED_KINDS
                        and sections["experiment"]["seed"] != workload.default_seed)
            text = ini_text(sections)
            path = written.get(text)
            if path is None:
                path = ini_dir / f"{len(written):03d}-{name}.ini"
                path.write_text(text)
                written[text] = path
                if captured:
                    code, output = call(cli, ["baseline", str(path), "--baseline", str(store)])
                    if code != 0:
                        raise BenchError(f"baseline capture for {path} exited {code}:\n{output}")
            entries.append({"op": name, "ini": str(path), "baseline": str(store) if captured else None})
        passes.append(entries)
    for path in {e["baseline"] for ops in passes for e in ops}:
        cli.BaselineStore.load(path)
    return passes


def run_passes(cli, passes: list, out: Path, seconds=None, count=None, tracer=None):
    """Closed loop over the passes; returns (pass wall times, op records).

    Runs `count` passes, or while another pass still fits in `seconds`.
    """
    times, records = [], []
    start = perf_counter()
    while True:
        j = len(times)
        t_pass = perf_counter()
        for i, entry in enumerate(passes[j % len(passes)]):
            op_out = out / f"p{j}-o{i}"
            argv = ["run", entry["ini"], "--out", str(op_out), "--jobs", "1"]
            if entry["baseline"]:
                argv += ["--baseline", entry["baseline"]]
            if tracer is not None:
                tracer.op = op_out.name
            t_op = perf_counter()
            code, output = call(cli, argv)
            records.append({"pass": j, "op": entry["op"], "ini": entry["ini"],
                            "baseline": entry["baseline"], "exit": code,
                            "seconds": perf_counter() - t_op, "out": str(op_out),
                            "output": output if code != 0 else ""})
        times.append(perf_counter() - t_pass)
        if count is not None:
            if len(times) >= count:
                break
        elif perf_counter() - start + statistics.median(times) > seconds:
            break
    return times, records


def _summary(op_out: Path):
    found = sorted(op_out.glob("*/summary.txt"))
    return found[0] if len(found) == 1 else None


def drift(summary: dict, store: dict) -> float:
    """Largest relative deviation of a baseline-compared statistic.

    Summary values carry 12 significant digits, so the constant is rounded
    the same way before comparing; equal results read exactly 0.
    """
    worst = 0.0
    for key, value in summary.items():
        if key.startswith("assert.") and key.endswith(".value"):
            metric = key[len("assert."):-len(".value")].split(".", 1)[-1]
            base = store.get(f"{summary['config_hash']}/{metric}")
            if base is not None:
                worst = max(worst, abs(float(value) - float(f"{base:.12g}")) / max(abs(base), 1e-300))
    return worst


def check_records(records: list) -> float:
    """Fill in each record's digest, pass flag and drift; returns drift_max."""
    stores = {}
    worst = 0.0
    for rec in records:
        path = _summary(Path(rec["out"]))
        rec["summary_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest() if path else None
        rec["passed"] = False
        rec["drift"] = None
        if rec["exit"] != 0 or path is None:
            continue
        summary = dict(line.split("=", 1) for line in path.read_text().splitlines())
        rec["passed"] = summary.get("pass") == "true"
        if summary["kind"] in BASELINED_KINDS:
            store_path = rec["baseline"] or str(SRC / "opcalc" / "data" / "constants.json")
            if store_path not in stores:
                stores[store_path] = json.loads(Path(store_path).read_text())
            rec["drift"] = drift(summary, stores[store_path])
            worst = max(worst, rec["drift"])
    return worst


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "numpy": np.__version__, "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS}}


def untraced(args, workload, seed, wdir: Path) -> dict:
    setup_times = []
    started = perf_counter()
    for i in range(SETUP_REPEATS):
        directory = wdir / f"setup-{i}"
        t0 = perf_counter()
        try:
            proc = subprocess.run([sys.executable, __file__, "--setup-only", "--workload", workload.name,
                                   "--seed", str(seed), "--setup-dir", str(directory)],
                                  capture_output=True, text=True, cwd=ROOT,
                                  timeout=max(1.0, SETUP_DEADLINE_S - (perf_counter() - started)))
        except subprocess.TimeoutExpired:
            raise BenchError("set-up did not finish in time") from None
        setup_times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    passes = json.loads((directory / "plan.json").read_text())
    cli = import_opcalc()
    times, records = run_passes(cli, passes, wdir / "ops", seconds=args.seconds)
    drift_max = check_records(records)
    metrics = {
        "run_s": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    return {"setup_s": setup_times, "pass_s": times, "records": records,
            "drift_max": drift_max, "metrics": metrics, "digests_match": True}


def traced(args, workload, seed, wdir: Path) -> dict:
    from tracer import SETUP_LAYERS, Tracer

    cli = import_opcalc()
    tracer = Tracer()
    tracer.install(SETUP_LAYERS)
    try:
        passes = set_up(workload, seed, wdir / "setup-0")
    finally:
        tracer.uninstall()
    tracer.top_s = 0.0
    # one pass each, so the layer counts depend on the seed alone
    plain_times, plain = run_passes(cli, passes, wdir / "untraced", count=1)
    tracer.install()
    try:
        times, records = run_passes(cli, passes, wdir / "traced", count=1, tracer=tracer)
    finally:
        tracer.uninstall()
    drift_max = max(check_records(plain), check_records(records))
    digests_match = [r["summary_sha256"] for r in plain] == [r["summary_sha256"] for r in records]
    (wdir / "trace.json").write_text(json.dumps(
        {"stats": tracer.stats, "counts": tracer.counts,
         "spans": [dict(zip(("id", "parent", "op", "name", "start", "end"), s)) for s in tracer.spans]}))
    return {"pass_s": times, "untraced_pass_s": plain_times, "records": plain + records,
            "drift_max": drift_max, "digests_match": digests_match,
            "metrics": tracer.metrics(sum(times), sum(plain_times))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    try:
        if args.setup_only:
            directory = Path(args.setup_dir)
            (directory / "plan.json").write_text(json.dumps(set_up(workload, seed, directory)))
            return 0
        import_opcalc()
        wdir = OUT / workload.name
        shutil.rmtree(wdir, ignore_errors=True)
        wdir.mkdir(parents=True)
        result = (traced if args.trace else untraced)(args, workload, seed, wdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    records = result["records"]
    failed = sum(1 for r in records if r["exit"] != 0)
    correct = (failed == 0 and all(r["passed"] for r in records)
               and result["drift_max"] <= DRIFT_LIMIT and result["digests_match"])
    record = {"workload": workload.name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "correct": correct, "attempted": len(records),
              "failed": failed, "failed_frac": failed / len(records), **result}
    (wdir / "result.json").write_text(json.dumps(record, indent=1, default=str))
    for r in records:
        if r["exit"] != 0:
            print(f"bench: op {r['op']} (pass {r['pass']}) exited {r['exit']}:\n{r['output'][-2000:]}",
                  file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
