"""Experiment configuration: INI-style files with flat sections.

Sections and keys::

    [experiment]
    kind = verify-core | moi | chain-rule | besov-equivalence |
           nonlinear-estimate | meyer | allen-cahn
    seed = 7                 ; base seed >= 0; members derive by counted splitting
    ensemble = 50            ; seeded ensemble size >= 1
    band = 3                 ; working band |k|_inf of random elements (>= 0)

    [algebra]
    d = 2
    n = 16                   ; modes per axis (even)
    theta_num = 1            ; theta_12 = theta_num / n (0 = commutative)
    backend = matrix         ; the only value; optional, kept for old configs

    [symbol]
    expr = tanh(x)           ; expression grammar, see opcalc.expr

    [besov]
    s = 1.5
    p = 2                    ; inf accepted
    q = 2
    m = 1                    ; difference order
    n_der = 1                ; derivative order in the difference form

    [allen-cahn]
    t_max = 1.0
    dt = 0.001
    delta = 1.0              ; finite, >= 0

[experiment] and [algebra] are read by every kind; [symbol] only by moi,
nonlinear-estimate and allen-cahn, [besov] only by besov-equivalence,
nonlinear-estimate and allen-cahn, and [allen-cahn] only by allen-cahn.  A
key in a section that its kind never reads is a config error.

The config hash is the SHA-256 (12 hex digits) of the canonicalized
"section.key=value" lines, so key order never matters.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

from .errors import BackendMismatch, ConfigError
from .torus import TorusAlgebra

KINDS = ("verify-core", "moi", "chain-rule", "besov-equivalence",
         "nonlinear-estimate", "meyer", "allen-cahn")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "verify-core"
    seed: int = 7
    ensemble: int = 50
    band: int = 3
    d: int = 2
    n_modes: int = 16
    theta_num: int = 1
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
        if self.seed < 0:
            raise ConfigError(f"[experiment] seed must be >= 0, got {self.seed}")
        if self.ensemble < 1:
            raise ConfigError(f"[experiment] ensemble must be >= 1, got {self.ensemble}")
        if self.band < 0:
            raise ConfigError(f"[experiment] band must be >= 0, got {self.band}")
        self.algebra()
        for key, least in (("t_max", "> 0"), ("dt", "> 0"), ("delta", ">= 0")):
            value = getattr(self, key)
            if not (math.isfinite(value) and (value >= 0 if least == ">= 0" else value > 0)):
                raise ConfigError(f"[allen-cahn] {key} must be finite and {least}, got {value}")

    def algebra(self) -> TorusAlgebra:
        """The [algebra] lattice; a value it rejects raises ConfigError.

        Every kind validates it, including those that build their own lattices.
        """
        try:
            return TorusAlgebra(d=self.d, N=self.n_modes, theta_num=self.theta_num)
        except (ValueError, BackendMismatch) as exc:
            raise ConfigError(f"[algebra] {exc}") from None

    def canonical(self) -> str:
        rows = {f"{section}.{key}": _FORMAT[typ](getattr(self, attr))
                for (section, key), (attr, typ) in _FIELDS.items()}
        rows.update((f"{section}.{key}", value) for (section, key), value in _FIXED.items())
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


def _parse_str(section: str, key: str, raw: str) -> str:
    return raw.strip()


# Every settable config key: (section, key) -> (ExperimentConfig field, value type).
# The parser, the unknown-key check and the canonical form behind the config
# hash all read this one table.
_FIELDS = {
    ("experiment", "kind"): ("kind", str),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "ensemble"): ("ensemble", int),
    ("experiment", "band"): ("band", int),
    ("algebra", "d"): ("d", int),
    ("algebra", "n"): ("n_modes", int),
    ("algebra", "theta_num"): ("theta_num", int),
    ("symbol", "expr"): ("expr", str),
    ("besov", "s"): ("s", float),
    ("besov", "p"): ("p", float),
    ("besov", "q"): ("q", float),
    ("besov", "m"): ("m", int),
    ("besov", "n_der"): ("n_der", int),
    ("allen-cahn", "t_max"): ("t_max", float),
    ("allen-cahn", "dt"): ("dt", float),
    ("allen-cahn", "delta"): ("delta", float),
}
# Keys that admit one value, canonical whether set or not (hashes keep them).
_FIXED = {("algebra", "backend"): "matrix"}
_SECTIONS = {section for section, _ in _FIELDS}
# The sections each kind's runner reads besides [experiment] and [algebra]
# (every kind validates [algebra], even those that build their own lattices).
# A key in any other section would be ignored, so it is a config error.
_READS = {
    "verify-core": (),
    "moi": ("symbol",),
    "chain-rule": (),
    "besov-equivalence": ("besov",),
    "nonlinear-estimate": ("symbol", "besov"),
    "meyer": (),
    "allen-cahn": ("symbol", "besov", "allen-cahn"),
}
_PARSE = {str: _parse_str, int: _parse_int, float: _parse_float}
_FORMAT = {str: str, int: str, float: _fmt}


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
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in cp[section]:
            fixed = _FIXED.get((section, key))
            if fixed is not None and cp[section][key].strip() != fixed:
                raise ConfigError(f"[{section}] {key} must be {fixed!r}, got {cp[section][key]!r}")
            if fixed is None and (section, key) not in _FIELDS:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
    kind = cp.get("experiment", "kind", fallback=ExperimentConfig.kind).strip()
    for section in cp.sections():
        if (kind in _READS and section not in ("experiment", "algebra") + _READS[kind]
                and len(cp[section])):
            raise ConfigError(f"{path}: kind = {kind} never reads section [{section}]")
    kw = {}
    for (section, key), (attr, typ) in _FIELDS.items():
        if cp.has_section(section) and key in cp[section]:
            kw[attr] = _PARSE[typ](section, key, cp[section][key])
    return ExperimentConfig(**kw)
