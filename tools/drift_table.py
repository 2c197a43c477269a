#!/usr/bin/env python3
"""Drift table: the outputs of every shipped config, a parent revision against
the working tree.

    python3 tools/drift_table.py --parent HEAD~1 --seed 11 --seed 13

Every `configs/*.ini` runs through `opcalc run` at its own seed and at each
`--seed`, once on an exported copy of the parent revision (`git archive`, as
in tools/bench_pairs.py) and once on the working tree, each with the src/ and
configs/ of its own checkout and with one BLAS thread.  Each `summary.txt`
row that differs is printed as a row of a markdown table (parent value,
working-tree value); every other output file that differs, or exists on one
side only, is named below it, the exit status of each run among them.  A
run at an extra seed whose baselines are not in the packaged store exits 3
(missing baseline) before it computes anything, so only its exit status is
compared.  Exit status 0 iff nothing differs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_revision, git

ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run_config(checkout: Path, config: str, seed, out: Path) -> int:
    """`opcalc run` of checkout/configs/<config> into out; its exit status."""
    cmd = [sys.executable, "-m", "opcalc.cli", "run", str(checkout / "configs" / config),
           "--out", str(out)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **ONE_THREAD)
    return subprocess.run(cmd, cwd=checkout, env=env, capture_output=True).returncode


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
                    (outs[side] / "exit_status").write_text(f"{status}\n")
                    print(f"{label} {side}: exit {status}", file=sys.stderr)
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
