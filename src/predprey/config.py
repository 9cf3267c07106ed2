"""Scenario configuration: flat key-value INI with one section per concern.

    [model]            a1 a2 b1 w0 w1 d m1 m2 [r]
    [integrator]       rel_tol abs_tol max_step min_step horizon extinction_threshold
    [simulate]         x1 x2 [horizon]
    [equilibria]       [scan_points]
    [sweep]            param lo hi [n] [scan_points]
    [separatrix]       [probes] [horizon] [probe_lo] [probe_hi] [bisect_rel_tol]
    [extinction]       x1 x2
    [refuge]           x1 [eps1] [k2]

[integrator] holds the integration options of every command.  Two
sections replace only its horizon: [simulate] horizon, when given, for the
simulation, and [separatrix] horizon (default 500) for both traced curves
of the separatrix command.  [equilibria] and the scan_points keys (both
sections) are accepted, type-checked and ignored: interior equilibria are
isolated exactly, with no scan grid to size, and old configs still parse.
Unknown sections and keys are rejected; every problem is collected and
reported together with its section.key context rather than one at a time.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

from .integrate import IntegratorOptions
from .model import ModelParams, ParameterError, State, validate_params

__all__ = [
    "ConfigError",
    "SimulateSpec",
    "SweepSpec",
    "SeparatrixSpec",
    "ExtinctionSpec",
    "RefugeSpec",
    "ScenarioConfig",
    "parse_config",
    "load_config",
]


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class SimulateSpec:
    ic: State
    horizon: float | None = None


@dataclass(frozen=True)
class SweepSpec:
    param: str
    lo: float
    hi: float
    n: int = 200


@dataclass(frozen=True)
class SeparatrixSpec:
    probes: int = 12
    horizon: float = 500.0
    probe_lo: float = 0.05
    probe_hi: float = 0.95
    bisect_rel_tol: float = 1e-8


@dataclass(frozen=True)
class ExtinctionSpec:
    ic: State


@dataclass(frozen=True)
class RefugeSpec:
    x1_0: float
    eps1: float | None = None
    k2: float | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    params: ModelParams
    integrator: IntegratorOptions
    simulate: SimulateSpec | None = None
    sweep: SweepSpec | None = None
    separatrix: SeparatrixSpec | None = None
    extinction: ExtinctionSpec | None = None
    refuge: RefugeSpec | None = None


_MODEL_KEYS = {"a1", "a2", "b1", "w0", "w1", "d", "m1", "m2", "r"}
_SCHEMA: dict[str, dict[str, type]] = {
    "model": {k: float for k in _MODEL_KEYS},
    "integrator": {
        "rel_tol": float, "abs_tol": float, "max_step": float,
        "min_step": float, "horizon": float, "extinction_threshold": float,
    },
    "simulate": {"x1": float, "x2": float, "horizon": float},
    "equilibria": {"scan_points": int},
    "sweep": {"param": str, "lo": float, "hi": float, "n": int, "scan_points": int},
    "separatrix": {
        "probes": int, "horizon": float, "probe_lo": float,
        "probe_hi": float, "bisect_rel_tol": float,
    },
    "extinction": {"x1": float, "x2": float},
    "refuge": {"x1": float, "eps1": float, "k2": float},
}
# Keys that parse (type-checked) but configure nothing.
_IGNORED = {"equilibria": ("scan_points",), "sweep": ("scan_points",)}
_REQUIRED: dict[str, tuple[str, ...]] = {
    "simulate": ("x1", "x2"),
    "sweep": ("param", "lo", "hi"),
    "extinction": ("x1", "x2"),
    "refuge": ("x1",),
}


def _typed(section: str, raw: dict[str, str], errors: list[str]) -> dict:
    """Convert one section's strings per the schema, collecting problems."""
    out: dict = {}
    schema = _SCHEMA[section]
    for key, sval in raw.items():
        if key not in schema:
            errors.append(f"{section}.{key}: unknown key")
            continue
        typ = schema[key]
        if typ is str:
            out[key] = sval
            continue
        try:
            out[key] = typ(sval)
        except ValueError:
            errors.append(f"{section}.{key}: cannot parse {sval!r} as {typ.__name__}")
    for key in _REQUIRED.get(section, ()):
        if key not in raw:
            errors.append(f"{section}.{key}: missing required key")
    for key in _IGNORED.get(section, ()):
        out.pop(key, None)
    return out


def parse_config(text: str, origin: str = "<config>") -> ScenarioConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse config: {exc}"]) from exc

    errors: list[str] = []
    sections = {name.lower(): dict(cp.items(name)) for name in cp.sections()}
    for name in sections:
        if name not in _SCHEMA:
            errors.append(f"[{name}]: unknown section")
    if "model" not in sections:
        errors.append("[model]: required section missing")
    if errors:
        raise ConfigError(errors)

    typed = {name: _typed(name, raw, errors)
             for name, raw in sections.items() if name in _SCHEMA}
    if errors:
        raise ConfigError(errors)

    try:
        params = validate_params(typed["model"])
    except ParameterError as exc:
        raise ConfigError([f"model: {e}" for e in exc.errors]) from exc

    try:
        integrator = IntegratorOptions(**typed.get("integrator", {}))
    except (ValueError, TypeError) as exc:
        raise ConfigError([f"integrator: {exc}"]) from exc

    cfg = ScenarioConfig(params=params, integrator=integrator)

    if "simulate" in typed:
        t = typed["simulate"]
        cfg = replace(cfg, simulate=SimulateSpec(
            State(t["x1"], t["x2"]), t.get("horizon")))
    if "sweep" in typed:
        cfg = replace(cfg, sweep=SweepSpec(**typed["sweep"]))
    if "separatrix" in typed:
        cfg = replace(cfg, separatrix=SeparatrixSpec(**typed["separatrix"]))
    if "extinction" in typed:
        t = typed["extinction"]
        cfg = replace(cfg, extinction=ExtinctionSpec(State(t["x1"], t["x2"])))
    if "refuge" in typed:
        t = typed["refuge"]
        cfg = replace(cfg, refuge=RefugeSpec(t["x1"], t.get("eps1"), t.get("k2")))
    return cfg


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path!r}: {exc}"]) from exc
    return parse_config(text, origin=path)
