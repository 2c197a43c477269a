import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from opcalc.baselines import BaselineStore
from opcalc.cli import main
from opcalc.config import ExperimentConfig, parse_config
from opcalc.errors import ConfigError, MissingBaseline


CORE_INI = """
[experiment]
kind = verify-core
seed = 11

[algebra]
d = 2
n = 8
theta_num = 1
"""


@pytest.fixture
def core_config(tmp_path):
    path = tmp_path / "core.ini"
    path.write_text(CORE_INI)
    return path


def test_parse_config_defaults_and_values(core_config):
    cfg = parse_config(core_config)
    assert cfg.kind == "verify-core"
    assert cfg.seed == 11
    assert cfg.n_modes == 8
    assert cfg.p == 2.0  # default


def test_parse_config_inf(tmp_path):
    path = tmp_path / "b.ini"
    path.write_text("[experiment]\nkind = besov-equivalence\n[besov]\np = inf\nq = 2\n")
    cfg = parse_config(path)
    assert math.isinf(cfg.p)


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nkind = verify-core\nbogus = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "bogus" in str(err.value)


def test_parse_config_unknown_section(tmp_path):
    path = tmp_path / "bad2.ini"
    path.write_text("[wrong]\nx = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "wrong" in str(err.value)


def test_parse_config_bad_number(tmp_path):
    path = tmp_path / "bad3.ini"
    path.write_text("[experiment]\nkind = verify-core\nseed = seven\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "seed" in str(err.value)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.ini")


def test_config_hash_key_order_invariant(tmp_path):
    a = tmp_path / "a.ini"
    b = tmp_path / "b.ini"
    a.write_text("[experiment]\nkind = moi\nseed = 3\n[algebra]\nn = 8\nd = 2\n")
    b.write_text("[algebra]\nd = 2\nn = 8\n[experiment]\nseed = 3\nkind = moi\n")
    assert parse_config(a).config_hash == parse_config(b).config_hash


def test_config_hash_sensitivity():
    c1 = ExperimentConfig(kind="moi", seed=1)
    c2 = ExperimentConfig(kind="moi", seed=2)
    assert c1.config_hash != c2.config_hash


def test_cli_run_and_determinism(core_config, tmp_path):
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert main(["run", str(core_config), "--out", str(out1)]) == 0
    assert main(["run", str(core_config), "--out", str(out2)]) == 0
    s1 = next(out1.glob("verify-core-*/summary.txt")).read_bytes()
    s2 = next(out2.glob("verify-core-*/summary.txt")).read_bytes()
    assert s1 == s2  # byte-identical summaries for identical config + seed
    text = s1.decode()
    assert "pass=true" in text
    assert text.count(".pass=true") >= 40


def test_cli_run_seed_override_changes_summary(core_config, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(core_config), "--out", str(out1)]) == 0
    assert main(["run", str(core_config), "--out", str(out2), "--seed", "99"]) == 0
    s1 = next(out1.glob("*/summary.txt")).read_text()
    s2 = next(out2.glob("*/summary.txt")).read_text()
    assert s1 != s2


def test_cli_env_output_root(core_config, tmp_path, monkeypatch):
    monkeypatch.setenv("OPCALC_OUT", str(tmp_path / "envout"))
    assert main(["run", str(core_config)]) == 0
    assert (tmp_path / "envout").exists()


def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    assert "allen-cahn" in out and "verify-core" in out


def test_cli_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nkind = verify-core\nbogus = 1\n")
    assert main(["run", str(path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_rejects_outdir_key(tmp_path, capsys):
    # the output directory comes from --out / $OPCALC_OUT only
    path = tmp_path / "outdir.ini"
    path.write_text("[experiment]\nkind = verify-core\noutdir = elsewhere\n")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "outdir" in capsys.readouterr().err


@pytest.mark.parametrize("kind,text,section", [
    ("meyer", "[algebra]\nn = 15\n", "[algebra]"),
    ("meyer", "[algebra]\nbackend = foo\n", "[algebra]"),
    ("meyer", "[algebra]\nn = 16\ntheta_num = 2\n", "[algebra]"),
    ("meyer", "ensemble = 0\n", "[experiment]"),
    ("meyer", "seed = -1\n", "[experiment]"),
    ("meyer", "[algebra]\nd = 3\n", "[algebra]"),
    ("meyer", "[algebra]\nbackend = commutative\n", "[algebra]"),
    ("meyer", "[algebra]\nd = 1\n", "[algebra]"),
    # verify-core builds its own lattices, but its [algebra] is still checked
    ("verify-core", "[algebra]\nn = 15\n", "[algebra]"),
    ("allen-cahn", "[allen-cahn]\ndt = 0\n", "[allen-cahn]"),
    ("allen-cahn", "[allen-cahn]\ndt = -0.001\n", "[allen-cahn]"),
    ("allen-cahn", "[allen-cahn]\ndt = nan\n", "[allen-cahn]"),
    ("allen-cahn", "[allen-cahn]\nt_max = 0\n", "[allen-cahn]"),
    ("allen-cahn", "[allen-cahn]\nt_max = inf\n", "[allen-cahn]"),
    ("moi", "[symbol]\nexpr = x" + " + x" * 1199 + "\n", "symbol expression"),
    # backend admits one value; 'commutative' is no longer a choice
    ("meyer", "[algebra]\ntheta_num = 0\nbackend = commutative\n", "[algebra]"),
    # closed-form derivatives that fail the central-difference sanity check
    ("moi", "[symbol]\nexpr = x**400\n", "'x**400'"),
    # keys in a section that the kind never reads
    ("meyer", "ensemble = 1\n[algebra]\nn = 8\n[besov]\np = 0.5\n", "[besov]"),
    ("verify-core", "[besov]\ns = 2.5\n", "[besov]"),
    ("moi", "ensemble = 1\n[besov]\nq = 1\n", "[besov]"),
    ("chain-rule", "ensemble = 1\n[besov]\nm = 2\n", "[besov]"),
    ("chain-rule", "ensemble = 1\n[symbol]\nexpr = tanh(x)\n", "[symbol]"),
    ("meyer", "ensemble = 1\n[algebra]\nn = 8\n[symbol]\nexpr = sin(x)\n", "[symbol]"),
    ("moi", "ensemble = 1\n[allen-cahn]\ndt = 0.01\n", "[allen-cahn]"),
    ("besov-equivalence", "ensemble = 1\n[algebra]\nn = 8\n[allen-cahn]\nt_max = 2\n",
     "[allen-cahn]"),
    ("nonlinear-estimate", "ensemble = 1\n[algebra]\nn = 8\n[allen-cahn]\ndelta = 2\n",
     "[allen-cahn]"),
    ("meyer", "band = -2\n", "[experiment] band"),
    ("allen-cahn", "[allen-cahn]\ndelta = nan\n", "[allen-cahn] delta"),
    ("allen-cahn", "[allen-cahn]\ndelta = -5\n", "[allen-cahn] delta"),
    ("meyer", "[algebra]\nd = 0\n", "[algebra] d must be >= 1"),
    # a symbol that is not finite on the sanity-check window
    ("moi", "[symbol]\nexpr = 1e999*x\n", "not finite"),
    # a constant power is folded in one step, so its overflow is refused at once
    ("moi", "[symbol]\nexpr = 2**1000000*x\n", "'2**1000000*x': constant power 2**1000000 overflows"),
], ids=["odd-n", "backend", "theta-gcd", "ensemble", "seed", "d3-theta", "commutative-theta",
        "d1-theta", "verify-core-odd-n", "dt-zero", "dt-negative", "dt-nan", "t-max-zero",
        "t-max-inf", "deep-expr", "commutative-flat", "symbol-check", "meyer-besov",
        "verify-core-besov", "moi-besov", "chain-rule-besov", "chain-rule-symbol", "meyer-symbol",
        "moi-allen-cahn", "besov-equivalence-allen-cahn", "nonlinear-allen-cahn", "band-negative",
        "delta-nan", "delta-negative", "d0", "inf-literal", "constant-power-overflow"])
def test_cli_bad_values_exit_2(tmp_path, capsys, kind, text, section):
    path = tmp_path / "bad.ini"
    path.write_text(f"[experiment]\nkind = {kind}\n" + text)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and section in err


@pytest.mark.parametrize("expr,degree", [("x**1000000", 1000000), ("(x**60)**60", 3600)])
def test_cli_polynomial_degree_above_512_exits_2_quickly(tmp_path, capsys, expr, degree):
    # the degree is refused before the coefficients are expanded
    path = tmp_path / "bad.ini"
    path.write_text(f"[experiment]\nkind = moi\n[symbol]\nexpr = {expr}\n")
    start = time.perf_counter()
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "config error" in err and f"{expr!r}: polynomial degree {degree} is above 512" in err


# The packaged baseline constants are keyed by these hashes.
SHIPPED_HASHES = {
    "allen-cahn": "3b91e3ae3ba3", "besov-equivalence": "f5d63b9ac907",
    "chain-rule": "79a9b505ca5e", "meyer": "62370f983e95", "moi": "3419f165ffe1",
    "nonlinear-estimate": "d76547905008", "verify-core": "eafa612c38d6",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_HASHES))
def test_shipped_config_hashes(name):
    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.ini"
    assert parse_config(path).config_hash == SHIPPED_HASHES[name]


def test_backend_key_is_fixed(tmp_path):
    # [algebra] backend = matrix parses and, set or not, hashes alike
    text = (Path(__file__).resolve().parent.parent / "configs" / "meyer.ini").read_text()
    assert "backend" not in text
    path = tmp_path / "m.ini"
    path.write_text(text.replace("[algebra]\n", "[algebra]\nbackend = matrix\n"))
    cfg = parse_config(path)
    assert cfg.config_hash == SHIPPED_HASHES["meyer"]
    assert "algebra.backend=matrix" in cfg.canonical().splitlines()


def test_cli_missing_baseline(tmp_path, capsys):
    path = tmp_path / "b.ini"
    path.write_text("[experiment]\nkind = besov-equivalence\nensemble = 2\n"
                    "[algebra]\nn = 8\n[besov]\ns = 0.5\nn_der = 0\n")
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    rc = main(["run", str(path), "--out", str(tmp_path / "o"), "--baseline", str(empty)])
    assert rc == 3
    assert "baseline" in capsys.readouterr().err


def test_cli_seed_without_baseline_says_how_to_capture_one(tmp_path, capsys):
    # the seed is part of the config hash, so --seed needs baselines of its own
    text = ("[experiment]\nkind = besov-equivalence\nseed = 3\nensemble = 2\n"
            "[algebra]\nn = 8\n[besov]\ns = 0.5\nn_der = 0\n")
    path, copy, store = tmp_path / "b.ini", tmp_path / "copy.ini", tmp_path / "constants.json"
    path.write_text(text)
    assert main(["baseline", str(path), "--baseline", str(store)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--baseline", str(store),
                 "--seed", "5"]) == 3
    err = capsys.readouterr().err
    assert "--seed changes the config hash" in err and "[experiment] seed = 5" in err
    # the advice works: capture for a copy at seed 5, then run the copy, or the config at --seed 5
    copy.write_text(text.replace("seed = 3", "seed = 5"))
    assert main(["baseline", str(copy), "--baseline", str(store)]) == 0
    for args in ([str(copy)], [str(path), "--seed", "5"]):
        assert main(["run", *args, "--out", str(tmp_path / "o"), "--baseline", str(store)]) == 0


def test_cli_baseline_capture_and_refusal(tmp_path, capsys):
    path = tmp_path / "b.ini"
    path.write_text("[experiment]\nkind = besov-equivalence\nensemble = 3\nband = 2\n"
                    "[algebra]\nn = 8\n[besov]\ns = 1.5\nn_der = 1\n")
    store_path = tmp_path / "constants.json"
    assert main(["baseline", str(path), "--baseline", str(store_path)]) == 0
    data = json.loads(store_path.read_text())
    assert any(k.endswith("ratio_md_max") for k in data)
    # refuse overwrite without force
    assert main(["baseline", str(path), "--baseline", str(store_path)]) == 2
    assert "force" in capsys.readouterr().err
    # forced overwrite leaves an audit line
    assert main(["baseline", str(path), "--baseline", str(store_path), "--force"]) == 0
    data = json.loads(store_path.read_text())
    assert any("overwrote" in line for line in data.get("_audit", []))
    # run succeeds against the captured baseline
    rc = main(["run", str(path), "--out", str(tmp_path / "o"), "--baseline", str(store_path)])
    assert rc == 0


@pytest.mark.parametrize("q", ["2", "inf"])
@pytest.mark.parametrize("p", ["1", "inf"])
def test_cli_jobs_leave_summary_unchanged(tmp_path, p, q):
    path = tmp_path / "b.ini"
    path.write_text("[experiment]\nkind = besov-equivalence\nseed = 3\nensemble = 4\n"
                    f"[algebra]\nn = 8\n[besov]\np = {p}\nq = {q}\n")
    _assert_jobs_leave_outputs_unchanged(tmp_path, path)


def test_cli_jobs_leave_nonlinear_summary_unchanged(tmp_path):
    path = tmp_path / "nl.ini"
    path.write_text("[experiment]\nkind = nonlinear-estimate\nseed = 3\nensemble = 4\n"
                    "[algebra]\nn = 8\n[besov]\ns = 0.5\nn_der = 0\n")
    _assert_jobs_leave_outputs_unchanged(tmp_path, path)


@pytest.mark.parametrize("jobs", ["0", "-4", "two"])
def test_cli_jobs_below_one_is_a_usage_error(core_config, tmp_path, capsys, jobs):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["run", str(core_config), "--out", str(out), "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def _assert_jobs_leave_outputs_unchanged(tmp_path, path):
    store_path = tmp_path / "constants.json"
    assert main(["baseline", str(path), "--baseline", str(store_path)]) == 0
    outputs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", str(path), "--out", str(out), "--baseline", str(store_path),
                     "--jobs", jobs]) == 0
        outputs.append({f.name: f.read_bytes() for f in next(out.glob("*/summary.txt")).parent.iterdir()})
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_run_writes_rfc4180_csv(core_config, tmp_path):
    out = tmp_path / "csvout"
    assert main(["run", str(core_config), "--out", str(out)]) == 0
    report = next(out.glob("*/report.csv")).read_text()
    header = report.splitlines()[0]
    assert header == "name,value,bound,pass,note"


def test_baseline_store_missing_key():
    store = BaselineStore(data={})
    with pytest.raises(MissingBaseline):
        store.get("abc", "metric")


def test_readme_library_example_runs():
    # the documented public API: README's "Library example" block must run
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2
