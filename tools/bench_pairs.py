#!/usr/bin/env python3
"""Paired benchmark runs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --workload besov-grid --seeds 101-110

For every seed it runs `bench/run.py --trace 0` once on an exported copy of
the parent revision (`git archive`, so the repository's .git is left alone)
and once on the working tree, each with the bench/ and src/ of its own
checkout, and with bench/run.py's own measurement window.  The side that goes
first alternates from seed to seed, so a drift of the machine's speed over
minutes falls on both sides alike.

It writes BENCH_<workload>.json at the repository root: every run's
end-to-end metrics, pass count, failed ops, `correct` and `drift_max`; per
metric the per-pair values, the median and quartiles of each side and the
number of pairs the working tree wins; the window and the environment of the
runs, as bench/run.py recorded them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(specs) -> list:
    """Seeds from arguments such as `101-110` or `7 9 12`."""
    seeds = []
    for spec in specs:
        lo, sep, hi = spec.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if sep else [int(spec)]
    return seeds


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_revision(rev: str, directory: Path) -> None:
    """The committed files of rev, written under directory."""
    archive = directory.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(directory, filter="data")
    archive.unlink()


def bench_once(checkout: Path, workload: str, seed: int) -> dict:
    """One `bench/run.py --trace 0` run of a checkout; its result or its error."""
    proc = subprocess.run([sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / "bench-out" / workload / "result.json").read_text())
    return {"metrics": {name: m["value"] for name, m in line["metrics"].items()},
            "correct": line["correct"], "attempted": line["attempted"], "failed": line["failed"],
            "passes": len(record["pass_s"]), "drift_max": record["drift_max"],
            "seconds": record["seconds"], "environment": record["environment"]}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per end-to-end metric: per-pair values, each side's quartiles, the wins
    (empty with fewer than two complete pairs)."""
    done = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    if len(done) < 2:
        return {}
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in done]
        change = [p["change"]["metrics"][name] for p in done]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(parent, change))
        qp, qc = quartiles(parent), quartiles(change)
        out[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                     "parent": parent, "change": change, "parent_quartiles": qp,
                     "change_quartiles": qc, "wins": wins, "pairs": len(done),
                     "median_rel_change": qc["median"] / qp["median"] - 1.0,
                     "median_gap": abs(qc["median"] - qp["median"]),
                     "parent_iqr": qp["q3"] - qp["q1"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds, e.g. 101-110 or 7 9 12")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_rev = git("rev-parse", args.parent)
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_dir = Path(tmp) / "parent"
        export_revision(parent_rev, parent_dir)
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench_once(parent_dir if side == "parent" else ROOT,
                                        args.workload, seed)
                print(f"seed {seed} {side}: "
                      f"{pair[side].get('metrics', pair[side].get('error'))}", file=sys.stderr)
            pairs.append(pair)
    runs = [p[side] for p in pairs for side in ("parent", "change") if "environment" in p[side]]
    seconds, environment = (runs[0]["seconds"], runs[0]["environment"]) if runs else (None, None)
    for run in runs:
        del run["seconds"], run["environment"]
    result = {
        "workload": args.workload, "seconds": seconds, "seeds": seeds,
        "parent_revision": parent_rev,
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "environment": environment,
        "failed": {side: sum(p[side].get("failed", 0) for p in pairs) for side in ("parent", "change")},
        "errors": {side: sum("error" in p[side] for p in pairs) for side in ("parent", "change")},
        "summary": summarize(pairs, end_to_end),
        "pairs": pairs,
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
