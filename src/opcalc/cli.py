"""Command-line experiment runner.

    opcalc run <config> [--out DIR] [--seed S] [--jobs J] [--baseline PATH]
    opcalc baseline <config> [--force] [--baseline PATH]
    opcalc list-experiments

Outputs per run: RFC-4180 CSV tables, a line-oriented key=value summary
(summary.txt) and plot-data CSVs.  Exit status 0 iff every assertion passed.
The default output root is $OPCALC_OUT or ./opcalc-out.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

from .baselines import BaselineStore
from .config import KINDS, ExperimentConfig, parse_config
from .errors import ConfigError, MissingBaseline, OpcalcError
from .experiments import CAPTURES, run_experiment


def _out_root(cli_out) -> str:
    if cli_out:
        return cli_out
    return os.environ.get("OPCALC_OUT", "opcalc-out")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def write_csv(path: str, rows: list):
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})


def write_summary(path: str, cfg: ExperimentConfig, result) -> None:
    lines = [f"kind={cfg.kind}", f"config_hash={cfg.config_hash}", f"seed={cfg.seed}"]
    for a in result.assertions:
        lines.append(f"assert.{a.name}.value={_fmt(a.value)}")
        lines.append(f"assert.{a.name}.bound={_fmt(a.bound)}")
        lines.append(f"assert.{a.name}.pass={_fmt(a.passed)}")
        if a.note:
            lines.append(f"assert.{a.name}.note={a.note}")
    lines.append(f"n_assertions={len(result.assertions)}")
    lines.append(f"pass={_fmt(result.passed)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    store = BaselineStore.load(args.baseline)
    outdir = os.path.join(_out_root(args.out), f"{cfg.kind}-{cfg.config_hash}")
    os.makedirs(outdir, exist_ok=True)
    try:
        result = run_experiment(cfg, store, jobs=args.jobs)
    except MissingBaseline as exc:
        hint = "" if args.seed is None else (
            f"; --seed changes the config hash: copy the config with [experiment] seed = {args.seed}, then "
            "run `opcalc baseline COPY --baseline PATH` and `opcalc run COPY --baseline PATH`")
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 3
    write_summary(os.path.join(outdir, "summary.txt"), cfg, result)
    report_rows = [{"name": a.name, "value": a.value, "bound": a.bound,
                    "pass": a.passed, "note": a.note} for a in result.assertions]
    write_csv(os.path.join(outdir, "report.csv"), report_rows)
    for name, rows in result.tables.items():
        write_csv(os.path.join(outdir, f"{name}.csv"), rows)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {cfg.kind} ({len(result.assertions)} assertions) -> {outdir}")
    for a in result.assertions:
        if not a.passed:
            print(f"  FAIL {a.name}: value {_fmt(a.value)} vs bound {_fmt(a.bound)}")
    return 0 if result.passed else 1


def cmd_baseline(args) -> int:
    cfg = parse_config(args.config)
    if cfg.kind not in CAPTURES:
        print(f"error: experiment kind {cfg.kind!r} has no baseline constants", file=sys.stderr)
        return 2
    path = args.baseline or os.path.join(_out_root(args.out), "constants.json")
    store = BaselineStore.load(path)
    try:
        stats = CAPTURES[cfg.kind](cfg, store, force=args.force)
    except FileExistsError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    store.save(path)
    for metric, value in stats.items():
        print(f"{cfg.config_hash}/{metric}={_fmt(value)}")
    print(f"baseline written to {path}")
    return 0


def cmd_list(_args) -> int:
    for kind in KINDS:
        print(kind)
    return 0


def positive_int(text: str) -> int:
    """argparse type of ``--jobs``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="opcalc",
                                     description="operator-calculus workbench experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output root (default $OPCALC_OUT)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--jobs", type=positive_int, default=1,
                       help="worker processes; parallelizes besov-equivalence ensembles only")
    p_run.add_argument("--baseline", default=None, help="baseline store path (default packaged)")
    p_run.set_defaults(fn=cmd_run)

    p_base = sub.add_parser("baseline", help="capture baseline constants for a config")
    p_base.add_argument("config")
    p_base.add_argument("--force", action="store_true", help="overwrite existing keys")
    p_base.add_argument("--out", default=None)
    p_base.add_argument("--baseline", default=None, help="baseline store path to write")
    p_base.set_defaults(fn=cmd_baseline)

    p_list = sub.add_parser("list-experiments", help="list experiment kinds")
    p_list.set_defaults(fn=cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OpcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
