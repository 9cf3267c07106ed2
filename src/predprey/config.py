"""Scenario configuration: flat key-value INI with one section per concern.

    [model]            a1 a2 b1 w0 w1 d m1 m2 [r]
    [integrator]       [rel_tol] [abs_tol] [max_step] [min_step] [horizon]
                       [extinction_threshold]
    [simulate]         x1 x2 [horizon]
    [sweep]            param lo hi [n]
    [separatrix]       [probes] [horizon] [probe_lo] [probe_hi]
    [extinction]       x1 x2
    [refuge]           x1 [eps1 | k2]

Each section is parsed straight into the library object it configures, so
every setting keeps its one home there: the [model] and [integrator] keys
are the fields of ModelParams and IntegratorOptions; SimulateSpec carries
[integrator] with the [simulate] horizon applied; ScenarioConfig.separatrix
is the SeparatrixOptions built from [separatrix] (or its defaults: 12
probes, at least 2) plus [integrator] at the [separatrix] horizon (default
500), whose integrator also traces the unstable manifold; its rel_tol sets
both the launches' accuracy and the bisection width (rel_tol / 10).  The
objects' own checks, and those of branch_sweep, dissipative_bound_K2 and
refuge_threshold, judge the values, so an invalid option value is a config
error (exit 2) filed under its section.key; a [refuge] x1 outside (0, a1/b1)
stays a domain error (exit 1).  [refuge] takes k2 or eps1 (the margin K2
is derived with), not both.  Unknown sections and keys are rejected; every
problem is collected and reported together.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace
from typing import Callable

from .bifurcation import SWEEP_SAMPLES, SWEEPABLE, check_sweep
from .extinction import check_positive_finite
from .geometry import SeparatrixOptions
from .integrate import IntegratorOptions
from .model import DomainError, ModelParams, ParameterError, State, validate_params

__all__ = [
    "ConfigError",
    "SimulateSpec",
    "SweepSpec",
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
    integrator: IntegratorOptions  # [integrator] with the [simulate] horizon


@dataclass(frozen=True)
class SweepSpec:
    param: str
    lo: float
    hi: float
    n: int = SWEEP_SAMPLES

    def __post_init__(self):
        check_sweep(self.param, self.lo, self.hi, self.n)


@dataclass(frozen=True)
class ExtinctionSpec:
    ic: State


@dataclass(frozen=True)
class RefugeSpec:
    x1_0: float
    eps1: float | None = None
    k2: float | None = None

    def __post_init__(self):
        if self.eps1 is not None and self.k2 is not None:
            raise DomainError("give one of them; K2 is derived with eps1 only when k2 is absent")
        for name, v in (("eps1", self.eps1), ("K2", self.k2)):
            if v is not None:
                check_positive_finite(name, v)


@dataclass(frozen=True)
class ScenarioConfig:
    params: ModelParams
    integrator: IntegratorOptions
    separatrix: SeparatrixOptions  # [separatrix] or its defaults, plus [integrator]
    simulate: SimulateSpec | None = None
    sweep: SweepSpec | None = None
    extinction: ExtinctionSpec | None = None
    refuge: RefugeSpec | None = None


_SCHEMA: dict[str, dict[str, type]] = {
    "model": {f.name: float for f in fields(ModelParams)},
    "integrator": {f.name: float for f in fields(IntegratorOptions)},
    "simulate": {"x1": float, "x2": float, "horizon": float},
    "sweep": {"param": str, "lo": float, "hi": float, "n": int},
    "separatrix": {"probes": int, "horizon": float, "probe_lo": float, "probe_hi": float},
    "extinction": {"x1": float, "x2": float},
    "refuge": {"x1": float, "eps1": float, "k2": float},
}
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
        try:
            out[key] = typ(sval)
        except ValueError:
            errors.append(f"{section}.{key}: cannot parse {sval!r} as {typ.__name__}")
    for key in _REQUIRED.get(section, ()):
        if key not in raw:
            errors.append(f"{section}.{key}: missing required key")
    return out


def _build(section: str, make: Callable[[dict], object], values: dict,
           errors: list[str] | None = None):
    """make(values), the library object the section's keys configure, or
    None if the object rejects them.  Its message then goes to errors, filed
    under the keys it rejects on their own, or, if only their combination
    fails, under the keys without which the other values pass (all the
    given keys if there are none)."""
    try:
        return make(values)
    except DomainError as exc:
        if errors is not None:
            keys = ([k for k in values if _build(section, make, {k: values[k]}) is None]
                    or [k for k in values if _build(section, make, {
                        j: v for j, v in values.items() if j != k}) is not None]
                    or list(values))
            errors.append(", ".join(f"{section}.{k}" for k in keys) + f": {exc}")
        return None


# A [sweep] key judged alone meets these partners, the widest finite range,
# so lo >= hi is no one key's fault.
_SWEEP_PARTNERS = {"param": SWEEPABLE[0], "lo": -1e308, "hi": 1e308}


def _separatrix(t: dict, integrator: IntegratorOptions) -> SeparatrixOptions:
    d = SeparatrixOptions()
    return replace(
        d, probes=t.get("probes", d.probes),
        probe_span=(t.get("probe_lo", d.probe_span[0]), t.get("probe_hi", d.probe_span[1])),
        integrator=replace(integrator, horizon=t.get("horizon", d.integrator.horizon)))


def parse_config(text: str, origin: str = "<config>") -> ScenarioConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse config: {exc}"]) from exc

    sections = {name.lower(): dict(cp.items(name)) for name in cp.sections()}
    errors = [f"[{name}]: unknown section" for name in sections if name not in _SCHEMA]
    if "model" not in sections:
        errors.append("[model]: required section missing")
    typed = {name: _typed(name, raw, errors)
             for name, raw in sections.items() if name in _SCHEMA}
    if errors:
        raise ConfigError(errors)

    try:
        params = validate_params(typed["model"])
    except ParameterError as exc:
        errors += [f"model: {e}" for e in exc.errors]
    integrator = _build("integrator", lambda v: IntegratorOptions(**v),
                        typed.get("integrator", {}), errors)
    base = integrator or IntegratorOptions()  # judges the other sections alone
    separatrix = _build("separatrix", lambda v: _separatrix(v, base),
                        typed.get("separatrix", {}), errors)
    simulate = sweep = extinction = refuge = None
    if "simulate" in typed:
        t = typed["simulate"]
        horizon = {"horizon": t["horizon"]} if "horizon" in t else {}
        simulate = SimulateSpec(State(t["x1"], t["x2"]), _build(
            "simulate", lambda v: replace(base, **v), horizon, errors))
    if "sweep" in typed:
        sweep = _build("sweep", lambda v: SweepSpec(**{**_SWEEP_PARTNERS, **v}),
                       typed["sweep"], errors)
    if "extinction" in typed:
        t = typed["extinction"]
        extinction = ExtinctionSpec(State(t["x1"], t["x2"]))
    if "refuge" in typed:
        t = typed["refuge"]
        refuge = _build("refuge", lambda v: RefugeSpec(t["x1"], **v),
                        {k: v for k, v in t.items() if k != "x1"}, errors)
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(params, integrator, separatrix, simulate, sweep,
                          extinction, refuge)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config file {path!r}: {exc}"]) from exc
    return parse_config(text, origin=path)
