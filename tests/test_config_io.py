from __future__ import annotations

import math
import textwrap
from dataclasses import fields

import pytest

from predprey import (
    BifurcationEvent,
    BifurcationKind,
    CurveLabel,
    IntegratorOptions,
    ModelParams,
    PlanarCurve,
    SeparatrixOptions,
    State,
    Trajectory,
    integrate,
)
from predprey import csvio
from predprey.config import ConfigError, SweepSpec, parse_config

BASE_CFG = textwrap.dedent("""\
    [model]
    a1 = 0.6
    a2 = 1.0
    b1 = 0.063
    w0 = 1.0
    w1 = 2.0
    d = 2.0
    m1 = 0.8
    m2 = 1.0

    [simulate]
    x1 = 0.5
    x2 = 2.0
    """)


def test_parse_config_minimal(osc_params):
    cfg = parse_config(BASE_CFG)
    assert cfg.params == osc_params
    assert cfg.simulate.ic == State(0.5, 2.0)
    assert cfg.integrator == IntegratorOptions()


def test_parse_config_integrator_overrides():
    cfg = parse_config(BASE_CFG + "\n[integrator]\nhorizon = 42.0\nrel_tol = 1e-9\n")
    assert cfg.integrator.horizon == 42.0
    assert cfg.integrator.rel_tol == 1e-9
    assert cfg.integrator.abs_tol == IntegratorOptions().abs_tol


def test_parse_config_rejects_unknown_section():
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE_CFG + "\n[misc]\nx = 1\n")
    assert "misc" in " ".join(exc.value.errors)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE_CFG + "\n[integrator]\nstep = 0.1\n")
    assert any("integrator.step" in e for e in exc.value.errors)


def test_parse_config_collects_model_errors():
    broken = BASE_CFG.replace("a1 = 0.6\n", "").replace("m1 = 0.8", "m1 = 3.0")
    with pytest.raises(ConfigError) as exc:
        parse_config(broken)
    joined = " ".join(exc.value.errors)
    assert "a1" in joined and "m1" in joined


def test_parse_config_bad_float_reports_location():
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE_CFG.replace("x2 = 2.0", "x2 = two"))
    assert any("simulate.x2" in e for e in exc.value.errors)


def test_parse_config_rejects_scan_points_and_equilibria():
    # interior equilibria are isolated exactly: there is no scan grid to size
    sweep = "\n[sweep]\nparam = a1\nlo = 0.2\nhi = 0.4\n"
    assert parse_config(BASE_CFG + sweep).sweep == SweepSpec("a1", 0.2, 0.4)
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE_CFG + "\n[equilibria]\nscan_points = 400\n"
                     + sweep + "scan_points = 600\n")
    assert exc.value.errors == ["[equilibria]: unknown section",
                                "sweep.scan_points: unknown key"]


def test_parse_config_keys_are_the_option_fields():
    # every field of ModelParams and of IntegratorOptions is a key of its section
    params = ModelParams(a1=0.5, a2=0.7, b1=0.05, w0=0.2, w1=4.0,
                         d=0.2, m1=0.5, m2=0.5, r=0.3)
    opts = IntegratorOptions(rel_tol=1e-6, abs_tol=1e-8, max_step=2.0,
                             min_step=1e-10, horizon=9.0, extinction_threshold=1e-8)
    text = "".join(f"[{sec}]\n" + "".join(f"{f.name} = {getattr(obj, f.name)!r}\n"
                                          for f in fields(obj))
                   for sec, obj in (("model", params), ("integrator", opts)))
    cfg = parse_config(text)
    assert (cfg.params, cfg.integrator) == (params, opts)


def test_parse_config_builds_the_library_options():
    cfg = parse_config(BASE_CFG + "\n[integrator]\nrel_tol = 1e-9\nhorizon = 42.0\n")
    assert cfg.simulate.integrator == cfg.integrator == IntegratorOptions(rel_tol=1e-9,
                                                                          horizon=42.0)
    # no [separatrix]: its defaults, with [integrator] at the default horizon 500
    assert cfg.separatrix == SeparatrixOptions(
        integrator=IntegratorOptions(rel_tol=1e-9, horizon=500.0))
    cfg = parse_config(BASE_CFG + "horizon = 7.5\n\n[separatrix]\nprobes = 3\nhorizon = 60\n"
                       "probe_lo = 0.1\nprobe_hi = 0.9\nbisect_rel_tol = 1e-5\n")
    assert cfg.simulate.integrator == IntegratorOptions(horizon=7.5)
    assert cfg.integrator == IntegratorOptions()
    assert cfg.separatrix == SeparatrixOptions(
        probes=3, probe_span=(0.1, 0.9), bisect_rel_tol=1e-5,
        integrator=IntegratorOptions(horizon=60.0))


@pytest.mark.parametrize("section, keys", [
    ("[integrator]\nmin_step = 0.5\nmax_step = 0.25\nrel_tol = 1e-9\n",
     "integrator.min_step, integrator.max_step, integrator.rel_tol"),
    ("[integrator]\nmin_step = 2\nrel_tol = 1e-9\n", "integrator.min_step"),
    ("[separatrix]\nprobe_lo = 0.5\nprobe_hi = 0.25\n",
     "separatrix.probe_lo, separatrix.probe_hi"),
    ("[separatrix]\nprobe_hi = 1.5\nprobes = 3\n", "separatrix.probe_hi"),
])
def test_parse_config_files_an_option_error_under_its_keys(section, keys):
    # the keys the options reject on their own, or every given key when only
    # their combination fails
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE_CFG + "\n" + section)
    [err] = exc.value.errors
    assert err.startswith(keys + ": ")


def test_parse_config_collects_every_section_problem():
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE_CFG.replace("a1 = 0.6", "a1 = -1") + "horizon = 0\n"
                     "\n[integrator]\nabs_tol = 0\n\n[separatrix]\nprobes = 1\n")
    assert [e.split(":")[0] for e in exc.value.errors] == [
        "model", "integrator.abs_tol", "separatrix.probes", "simulate.horizon"]


@pytest.mark.parametrize("x", [0.1, 1.0 / 3.0, 2.0 ** -52, 12345.678901234567,
                               1e300, 1e-300, 9.523809523809524])
def test_fmt_float_round_trips(x):
    assert float(csvio.fmt_float(x)) == x


def test_fmt_float_none_is_empty():
    assert csvio.fmt_float(None) == ""


def _fmt_float_reference(x):
    # fmt_float as it was, with an explicit branch for non-finite values
    if x is None:
        return ""
    if not math.isfinite(x):
        return repr(x) if x == x else "nan"
    return f"{x:.17g}"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, -math.nan,
                1.0 / 3.0, 1e300]


def test_trajectory_writer_bytes_match_the_per_field_formatter(tmp_path):
    # write_trajectory inlines fmt_float's format in one f-string per row;
    # the bytes must be those of three fmt_float calls joined by commas
    vals = _EDGE_FLOATS
    rows = [(vals[i], vals[(i + 3) % len(vals)], vals[(i + 7) % len(vals)])
            for i in range(len(vals))]
    traj = Trajectory([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
    path = tmp_path / "traj.csv"
    csvio.write_trajectory(traj, str(path))
    expected = "t,x1,x2\n" + "".join(
        ",".join(_fmt_float_reference(v) for v in r) + "\n" for r in rows)
    assert path.read_bytes() == expected.encode()
    for x in vals + [None]:
        assert csvio.fmt_float(x) == _fmt_float_reference(x)


def test_trajectory_round_trip(tmp_path, osc_params):
    traj = integrate(osc_params, State(5.0, 1.0), IntegratorOptions(horizon=3.0))
    path = str(tmp_path / "traj.csv")
    csvio.write_trajectory(traj, path)
    times, states = csvio.read_trajectory(path)
    assert times == traj.times
    assert states == traj.states


def test_curve_round_trip_keeps_label_comment(tmp_path):
    curve = PlanarCurve(CurveLabel.PREY_NULLCLINE,
                        (State(1.0, 2.0), State(3.0, 1.0 / 3.0)))
    path = str(tmp_path / "curve.csv")
    csvio.write_curve(curve, path)
    with open(path) as fh:
        first = fh.readline()
    assert first == "# prey_nullcline\n"
    assert csvio.read_curve(path) == list(curve.points)


def test_events_round_trip(tmp_path):
    events = [
        BifurcationEvent(BifurcationKind.HOPF, "a1", 0.26183527931152617,
                         State(1.45094, 0.49456),
                         {"tr": -1e-13, "det": 0.0625, "lyapunov": -0.00375}),
        BifurcationEvent(BifurcationKind.SADDLE_NODE, "w1", 4.55175,
                         State(4.7, 31.0), {}),
    ]
    path = str(tmp_path / "events.csv")
    csvio.write_events(events, path)
    rows = csvio.read_events(path)
    assert len(rows) == 2
    kind, pname, crit, x1, x2, diag = rows[0]
    assert (kind, pname) == ("hopf", "a1")
    assert crit == events[0].critical_value
    assert (x1, x2) == (events[0].point.x1, events[0].point.x2)
    assert diag == events[0].diagnostics
    assert rows[1][5] == {}


def test_report_writer(tmp_path):
    path = str(tmp_path / "report.txt")
    csvio.write_report(["a: 1", "b: two"], path)
    with open(path) as fh:
        assert fh.read() == "a: 1\nb: two\n"
