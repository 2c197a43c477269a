"""Experiment configuration: INI-style files with flat sections.

Sections and keys::

    [experiment]
    kind = verify-core | moi | chain-rule | besov-equivalence |
           nonlinear-estimate | meyer | allen-cahn
    seed = 7                 ; base seed; members derive by counted splitting
    ensemble = 50            ; seeded ensemble size
    band = 3                 ; working band |k|_inf of random elements

    [algebra]
    d = 2
    n = 16                   ; modes per axis (even)
    theta_num = 1            ; theta_12 = theta_num / n (0 = commutative)
    backend = matrix | commutative

    [symbol]
    expr = tanh(x)           ; expression grammar, see opcalc.expr

    [besov]
    s = 1.5
    p = 2                    ; inf accepted
    q = 2
    m = 1                    ; difference order
    n_der = 1                ; derivative order in the difference form

    [allen-cahn]             ; only read by kind = allen-cahn
    t_max = 1.0
    dt = 0.001
    delta = 1.0

The config hash is the SHA-256 (12 hex digits) of the canonicalized
"section.key=value" lines, so key order never matters.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

from .errors import ConfigError

KINDS = ("verify-core", "moi", "chain-rule", "besov-equivalence",
         "nonlinear-estimate", "meyer", "allen-cahn")

_SCHEMA = {
    "experiment": {"kind", "seed", "ensemble", "band"},
    "algebra": {"d", "n", "theta_num", "backend"},
    "symbol": {"expr"},
    "besov": {"s", "p", "q", "m", "n_der"},
    "allen-cahn": {"t_max", "dt", "delta"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "verify-core"
    seed: int = 7
    ensemble: int = 50
    band: int = 3
    d: int = 2
    n_modes: int = 16
    theta_num: int = 1
    backend: str = "matrix"
    expr: str = "tanh(x)"
    s: float = 1.5
    p: float = 2.0
    q: float = 2.0
    m: int = 1
    n_der: int = 1
    t_max: float = 1.0
    dt: float = 1e-3
    delta: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; choose from {KINDS}")

    def canonical(self) -> str:
        rows = {
            "experiment.kind": self.kind,
            "experiment.seed": str(self.seed),
            "experiment.ensemble": str(self.ensemble),
            "experiment.band": str(self.band),
            "algebra.d": str(self.d),
            "algebra.n": str(self.n_modes),
            "algebra.theta_num": str(self.theta_num),
            "algebra.backend": self.backend,
            "symbol.expr": self.expr,
            "besov.s": _fmt(self.s),
            "besov.p": _fmt(self.p),
            "besov.q": _fmt(self.q),
            "besov.m": str(self.m),
            "besov.n_der": str(self.n_der),
            "allen-cahn.t_max": _fmt(self.t_max),
            "allen-cahn.dt": _fmt(self.dt),
            "allen-cahn.delta": _fmt(self.delta),
        }
        return "\n".join(f"{k}={v}" for k, v in sorted(rows.items()))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]


def _fmt(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return f"{float(v):.12g}"


def _parse_float(section: str, key: str, raw: str) -> float:
    raw = raw.strip().lower()
    if raw in ("inf", "infinity"):
        return math.inf
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def parse_config(path) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
    kw = {}
    if cp.has_section("experiment"):
        sec = cp["experiment"]
        if "kind" in sec:
            kw["kind"] = sec["kind"].strip()
        if "seed" in sec:
            kw["seed"] = _parse_int("experiment", "seed", sec["seed"])
        if "ensemble" in sec:
            kw["ensemble"] = _parse_int("experiment", "ensemble", sec["ensemble"])
        if "band" in sec:
            kw["band"] = _parse_int("experiment", "band", sec["band"])
    if cp.has_section("algebra"):
        sec = cp["algebra"]
        if "d" in sec:
            kw["d"] = _parse_int("algebra", "d", sec["d"])
        if "n" in sec:
            kw["n_modes"] = _parse_int("algebra", "n", sec["n"])
        if "theta_num" in sec:
            kw["theta_num"] = _parse_int("algebra", "theta_num", sec["theta_num"])
        if "backend" in sec:
            kw["backend"] = sec["backend"].strip()
    if cp.has_section("symbol") and "expr" in cp["symbol"]:
        kw["expr"] = cp["symbol"]["expr"].strip()
    if cp.has_section("besov"):
        sec = cp["besov"]
        for key, name, parser in (("s", "s", _parse_float), ("p", "p", _parse_float),
                                  ("q", "q", _parse_float), ("m", "m", _parse_int),
                                  ("n_der", "n_der", _parse_int)):
            if key in sec:
                kw[name] = parser("besov", key, sec[key])
    if cp.has_section("allen-cahn"):
        sec = cp["allen-cahn"]
        for key, parser in (("t_max", _parse_float), ("dt", _parse_float), ("delta", _parse_float)):
            if key in sec:
                kw[key] = parser("allen-cahn", key, sec[key])
    return ExperimentConfig(**kw)
