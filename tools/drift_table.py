#!/usr/bin/env python3
"""Drift table: the outputs of every shipped config, a parent revision against
the working tree.

    python3 tools/drift_table.py --parent HEAD~1 --seed 11 --seed 13

Every `configs/*.ini` runs through `opcalc run` at its own seed and at each
`--seed`, once on an exported copy of the parent revision (`git archive`, as
in tools/bench_pairs.py) and once on the working tree, each with the src/ and
configs/ of its own checkout and with one BLAS thread.  At its own seed each
side runs the config against the committed baselines, and also captures it
with `opcalc baseline <config> --baseline <out>/constants.json`, so that the
constants only a capture computes (`c_bound`, `c_lip`, the ratio bands) are
compared at the shipped seed too.  The seed is part of the config hash, so at
an extra seed each side first writes a copy of the config with
`[experiment] seed = S` and captures that copy into the same kind of store; a
kind that has baselines (allen-cahn, besov-equivalence, nonlinear-estimate)
then runs `opcalc run <copy> --baseline <same store>`, any other kind runs
the config with `--seed S`.
Each `summary.txt` row that differs is printed as a row of a markdown table
(parent value, working-tree value); every other output file that differs, or
exists on one side only, is named below it, the captured baseline store and
the exit statuses of each run among them.  Exit status 0 iff nothing differs.
"""

from __future__ import annotations

import argparse
import configparser
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_revision, git

ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def opcalc(checkout: Path, *args) -> int:
    """The exit status of `opcalc <args>` run with checkout/src."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **ONE_THREAD)
    return subprocess.run([sys.executable, "-m", "opcalc.cli", *map(str, args)], cwd=checkout,
                          env=env, capture_output=True).returncode


def run_config(checkout: Path, config: str, seed, out: Path) -> str:
    """Capture checkout/configs/<config> into out/constants.json and run it
    into out, at seed if given; the exit statuses."""
    path = checkout / "configs" / config
    store = out / "constants.json"
    if seed is None:
        captured = opcalc(checkout, "baseline", path, "--baseline", store)
        return f"baseline {captured}\nrun {opcalc(checkout, 'run', path, '--out', out)}\n"
    parser = configparser.ConfigParser()
    parser.read(path)
    parser["experiment"]["seed"] = str(seed)
    copy = out.with_suffix(".ini")  # beside out, so not compared itself
    with open(copy, "w") as fh:
        parser.write(fh)
    captured = opcalc(checkout, "baseline", copy, "--baseline", store)
    if captured == 0:
        ran = opcalc(checkout, "run", copy, "--out", out, "--baseline", store)
    else:  # a kind without baselines, or a config error that the run reports too
        ran = opcalc(checkout, "run", path, "--out", out, "--seed", seed)
    return f"baseline {captured}\nrun {ran}\n"


def summary_rows(path: Path) -> dict:
    if not path.is_file():
        return {}
    return dict(line.partition("=")[::2] for line in path.read_text().splitlines())


def compare(label: str, parent: Path, change: Path, rows: list, files: list) -> None:
    """Append the differing summary rows and the other differing files of one run."""
    names = sorted({p.relative_to(side) for side in (parent, change) for p in side.rglob("*")
                    if p.is_file()})
    for name in names:
        a, b = parent / name, change / name
        if name.name == "summary.txt":
            ra, rb = summary_rows(a), summary_rows(b)
            rows += [(label, key, ra.get(key, "(absent)"), rb.get(key, "(absent)"))
                     for key in sorted(ra.keys() | rb.keys()) if ra.get(key) != rb.get(key)]
        elif not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            files.append(f"{label}: {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--seed", type=int, action="append", default=[],
                        help="an extra seed to run every config at (repeatable)")
    args = parser.parse_args(argv)
    parent_rev = git("rev-parse", args.parent)
    configs = sorted(p.name for p in (ROOT / "configs").glob("*.ini"))
    rows, files = [], []
    with tempfile.TemporaryDirectory(prefix="drift-table-") as tmp:
        parent_dir = Path(tmp) / "parent"
        export_revision(parent_rev, parent_dir)
        for config in configs:
            for seed in [None, *args.seed]:
                label = f"`configs/{config}`" + ("" if seed is None else f" --seed {seed}")
                tag = Path(config).stem + ("" if seed is None else f"-seed{seed}")
                outs = {}
                for side, checkout in (("parent", parent_dir), ("change", ROOT)):
                    outs[side] = Path(tmp) / "out" / side / tag
                    outs[side].mkdir(parents=True)
                    status = run_config(checkout, config, seed, outs[side])
                    (outs[side] / "exit_status").write_text(status)
                    print(f"{label} {side}: " + status.replace("\n", " "), file=sys.stderr)
                compare(label, outs["parent"], outs["change"], rows, files)
    print(f"Drift of `configs/*.ini` outputs, {args.parent} ({parent_rev[:7]}) -> working tree, "
          f"extra seeds {args.seed or 'none'}:\n")
    if rows:
        print("| run | row | parent | change |\n|---|---|---|---|")
        for row in rows:
            print("| " + " | ".join(f"`{cell}`" if i == 1 else cell for i, cell in enumerate(row)) + " |")
    else:
        print("No summary.txt row differs.")
    print("\nOther files that differ: " + (", ".join(files) if files else "none."))
    return 1 if rows or files else 0


if __name__ == "__main__":
    sys.exit(main())
