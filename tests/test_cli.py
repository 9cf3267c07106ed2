from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predprey
from predprey import IntegratorOptions, cli, csvio, trace_unstable_manifold_E1
from predprey.bifurcation import SWEEPABLE
from predprey.config import load_config

MODEL = textwrap.dedent("""\
    [model]
    a1 = 0.6
    a2 = 1.0
    b1 = 0.063
    w0 = 1.0
    w1 = 2.0
    d = 2.0
    m1 = 0.8
    m2 = 1.0
    """)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "predprey", *args],
                          capture_output=True, text=True)


def write(path, text):
    path.write_text(text)
    return str(path)


def test_simulate_outputs_and_determinism(tmp_path):
    cfg = write(tmp_path / "sim.ini", MODEL + textwrap.dedent("""\

        [simulate]
        x1 = 0.5
        x2 = 2.0
        horizon = 25.0
        """))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        res = run_cli("simulate", "--config", cfg, "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert (out / "trajectory.csv").exists()
        assert (out / "report.txt").exists()
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    head = (out1 / "trajectory.csv").read_text().splitlines()[:2]
    assert head[0] == "t,x1,x2"
    assert head[1].startswith("0,0.5,2")


def test_equilibria_reports_classification(tmp_path):
    cfg = write(tmp_path / "eq.ini", MODEL)
    out = tmp_path / "out"
    res = run_cli("equilibria", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    body = (out / "equilibria.csv").read_text()
    assert "unstable_focus" in body
    assert "non_linearizable" in body  # the origin, m1 < 1
    assert "saddle" in body            # predator-free point


def test_sweep_writes_branch_and_hopf_event(tmp_path):
    cfg = write(tmp_path / "sweep.ini", MODEL + textwrap.dedent("""\

        [sweep]
        param = a1
        lo = 0.24
        hi = 0.29
        n = 11
        """))
    out = tmp_path / "out"
    res = run_cli("sweep", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    events = (out / "events.csv").read_text().splitlines()
    assert events[0].startswith("kind,param_name,critical_value")
    hopf = [ln for ln in events[1:] if ln.startswith("hopf,a1,")]
    assert len(hopf) == 1
    assert hopf[0].split(",")[2].startswith("0.2618")
    assert (out / "branch.csv").exists()


def test_refuge_sweep_reports_transcritical(tmp_path):
    cfg = write(tmp_path / "rsweep.ini", MODEL + textwrap.dedent("""\

        [sweep]
        param = r
        lo = 0.12
        hi = 0.20
        n = 9
        """))
    out = tmp_path / "out"
    res = run_cli("sweep", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    events = (out / "events.csv").read_text()
    assert "transcritical,r,0.15234897857893" in events
    report = (out / "report.txt").read_text()
    assert "as_derived" in report and "as_printed" in report


def test_separatrix_command(tmp_path):
    # Default probe fan; fewer probes coarsen the polyline enough to blur
    # the ws/wu ordering where the two curves run close.
    cfg = write(tmp_path / "sep.ini", MODEL)
    out = tmp_path / "out"
    res = run_cli("separatrix", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = (out / "report.txt").read_text()
    assert "verdict: ws_above_wu" in report
    assert "extinction_threshold: 1.0000000000000001e-09" in report
    ws = (out / "separatrix_ws.csv").read_text().splitlines()
    assert ws[0] == "# stable_separatrix_E0"
    assert ws[1] == "x1,x2"
    assert (out / "manifold_wu.csv").exists()


def test_separatrix_refuses_m2_below_1_before_any_launch(tmp_path, capsys, monkeypatch):
    # E1 is not linearizable for m2 < 1, so the manifold refuses BISTABLE:
    # the command exits 1 before a single separatrix launch or probe
    geo = sys.modules["predprey.geometry"]
    launches = []
    monkeypatch.setattr(geo, "integrate", lambda *a, **k: launches.append(a))
    cfg = write(tmp_path / "bistable.ini", textwrap.dedent("""\
        [model]
        a1 = 0.5
        a2 = 0.7
        b1 = 0.05
        w0 = 0.2
        w1 = 4.0
        d = 0.2
        m1 = 0.5
        m2 = 0.5
        """))
    assert cli.main(["separatrix", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "E1 is not linearizable" in capsys.readouterr().err
    assert launches == []


def test_separatrix_traces_the_manifold_with_the_integrator_section(tmp_path):
    # W^u(E1) follows [integrator] as W^s(E0) does, at the separatrix horizon
    cfg = write(tmp_path / "sep.ini", MODEL + textwrap.dedent("""\

        [integrator]
        rel_tol = 1e-10
        abs_tol = 1e-12

        [separatrix]
        probes = 3
        """))
    out = tmp_path / "out"
    assert cli.main(["separatrix", "--config", cfg, "--out", str(out)]) == 0
    p = load_config(cfg).params
    tight = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12, horizon=500.0)
    for wu, path in ((trace_unstable_manifold_E1(p, tight), "tight"),
                     (trace_unstable_manifold_E1(p), "default")):
        csvio.write_curve(wu, str(tmp_path / path))
    got = (out / "manifold_wu.csv").read_bytes()
    assert got == (tmp_path / "tight").read_bytes()
    assert got != (tmp_path / "default").read_bytes()


def test_extinction_command(tmp_path):
    cfg = write(tmp_path / "ext.ini", MODEL + textwrap.dedent("""\

        [extinction]
        x1 = 0.3
        x2 = 50.0
        """))
    out = tmp_path / "out"
    res = run_cli("extinction", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = (out / "report.txt").read_text()
    assert "criterion_met: true" in report
    assert "termination: prey_extinct" in report
    assert "chart_agreement_rel_gap:" in report
    u_head = (out / "u_trajectory.csv").read_text().splitlines()[0]
    assert u_head == "t,u,x2"


def test_extinction_below_the_threshold_exits_1(tmp_path):
    # the prey event cannot arm from here: the run would end at the horizon
    # over x1 = 0 and read as a surviving prey
    cfg = write(tmp_path / "ext.ini", MODEL + "\n[extinction]\nx1 = 5e-10\nx2 = 50.0\n")
    res = run_cli("extinction", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "extinction threshold" in res.stderr


def test_refuge_threshold_command(tmp_path):
    cfg = write(tmp_path / "ref.ini", MODEL + textwrap.dedent("""\

        [refuge]
        x1 = 0.3
        """))
    out = tmp_path / "out"
    res = run_cli("refuge-threshold", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = (out / "report.txt").read_text()
    assert "r_star: 0.010357891021240" in report
    assert "K2: 30.78095238" in report


def test_verify_assumptions_command(tmp_path):
    cfg = write(tmp_path / "chk.ini", MODEL)
    out = tmp_path / "out"
    res = run_cli("verify-assumptions", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = (out / "report.txt").read_text().splitlines()
    checks = [ln for ln in lines if ": pass" in ln]
    assert len(checks) == 7


def test_config_error_exits_2(tmp_path):
    cfg = write(tmp_path / "bad.ini", "[model]\na1 = 0.6\n")
    res = run_cli("equilibria", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "config error:" in res.stderr


def test_domain_error_exits_1(tmp_path):
    cfg = write(tmp_path / "dom.ini", MODEL + "\n[refuge]\nx1 = 20.0\n")
    res = run_cli("refuge-threshold", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


@pytest.mark.parametrize("key, name", [("eps1", "eps1"), ("k2", "K2")])
def test_refuge_non_finite_bound_exits_2(tmp_path, capsys, key, name):
    # a NaN margin or K2 passed both positivity checks and reported r_star: nan;
    # the checks that now refuse it judge the config when it is parsed
    cfg = write(tmp_path / "ref.ini", MODEL + f"\n[refuge]\nx1 = 0.3\n{key} = nan\n")
    assert cli.main(["refuge-threshold", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert (f"config error: refuge.{key}: {name} must be positive and finite"
            in capsys.readouterr().err)


def test_transcritical_edge_root_exits_0(tmp_path, capsys, transcritical_edge_params):
    # the closed-form root one ulp below the last point of a dense scan
    cfg = write(tmp_path / "edge.ini", "[model]\n" + "".join(
        f"{k} = {v!r}\n" for k, v in vars(transcritical_edge_params).items()))
    assert cli.main(["equilibria", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "equilibria.csv").read_text().splitlines()
    assert len([r for r in rows if r.startswith("interior,")]) == 1
    assert capsys.readouterr().out.startswith("1 interior equilibria")


@pytest.mark.parametrize("m2", ["0.5", "5e-324"])
def test_underflowing_refuge_has_no_interior_equilibria(tmp_path, capsys, m2):
    # at r = 5e-324, r*x1 is subnormal or 0 on the whole window: the scan
    # function jumped across x1 = 0.5 and the quadratic's leading term
    # 2*r*b1*(1 - m2) underflowed to 0, a division by zero
    cfg = write(tmp_path / "tiny.ini", textwrap.dedent(f"""\
        [model]
        a1 = 0.1
        a2 = 0.1
        b1 = 0.1
        w0 = 0.1
        w1 = 0.1
        d = 0.1
        m1 = 1e-10
        m2 = {m2}
        r = 5e-324

        [sweep]
        param = a1
        lo = 0.05
        hi = 0.2
        n = 11
        """))
    for cmd in ("equilibria", "sweep"):
        out = tmp_path / cmd
        assert cli.main([cmd, "--config", cfg, "--out", str(out)]) == 0, capsys.readouterr().err
        report = (out / "report.txt").read_text().splitlines()
        assert ("interior_count: 0" if cmd == "equilibria" else "events: 0") in report


@pytest.mark.parametrize("taken", ["out", "report"])
def test_unusable_output_exits_2(tmp_path, capsys, taken):
    # --out names an existing file, or an output name is taken by a
    # directory: one error line and exit 2, as for an unreadable config
    cfg = write(tmp_path / "chk.ini", MODEL)
    out = tmp_path / "o"
    if taken == "out":
        out.write_text("")
    else:
        (out / "report.txt").mkdir(parents=True)
    assert cli.main(["verify-assumptions", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_main_builds_its_parser_once_and_usage_errors_change_nothing(tmp_path, capsys):
    cfg = write(tmp_path / "sim.ini", MODEL + "\n[simulate]\nx1 = 0.5\nx2 = 2.0\nhorizon = 5\n")
    cli._build_parser.cache_clear()
    files = []
    try:
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            files.append({n.name: n.read_bytes() for n in sorted(out.iterdir())})
            if run == "a":
                with pytest.raises(SystemExit) as exc:
                    cli.main(["simulate", "--config", cfg, "--bogus"])
                assert exc.value.code == 2
                assert "usage: predprey simulate" in capsys.readouterr().err
        assert cli._build_parser.cache_info().misses == 1
    finally:
        cli._build_parser.cache_clear()
    assert files[0] == files[1] and set(files[0]) == {"report.txt", "trajectory.csv"}


def test_missing_config_file_exits_2(tmp_path):
    res = run_cli("simulate", "--config", str(tmp_path / "nope.ini"),
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 2


def test_non_finite_tolerances_are_rejected(tmp_path):
    # a tolerance the integrator or the separatrix options reject is a
    # config error (exit 2)
    cfg = write(tmp_path / "int.ini", MODEL + textwrap.dedent("""\

        [integrator]
        rel_tol = inf

        [simulate]
        x1 = 0.5
        x2 = 2.0
        """))
    res = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "a"))
    assert res.returncode == 2
    assert "tolerances must be positive and finite" in res.stderr
    # the separatrix bisects to the launches' own tolerance: it has no other
    cfg = write(tmp_path / "sep.ini", MODEL + "\n[separatrix]\nbisect_rel_tol = nan\n")
    res = run_cli("separatrix", "--config", cfg, "--out", str(tmp_path / "b"))
    assert res.returncode == 2
    assert "separatrix.bisect_rel_tol: unknown key" in res.stderr


@pytest.mark.parametrize("command, section, where", [
    ("simulate", "[integrator]\nrel_tol = 0", "integrator.rel_tol"),
    ("simulate", "[integrator]\nabs_tol = nan", "integrator.abs_tol"),
    ("simulate", "[integrator]\nmax_step = 1e-13", "integrator.max_step"),
    ("simulate", "[integrator]\nmin_step = -1", "integrator.min_step"),
    ("simulate", "[integrator]\nhorizon = inf", "integrator.horizon"),
    ("simulate", "[integrator]\nextinction_threshold = 1", "integrator.extinction_threshold"),
    ("simulate", "[simulate]\nx1 = 0.5\nx2 = 2.0\nhorizon = nan", "simulate.horizon"),
    ("separatrix", "[separatrix]\nprobes = 1", "separatrix.probes"),
    ("separatrix", "[separatrix]\nhorizon = -5", "separatrix.horizon"),
    ("separatrix", "[separatrix]\nprobe_lo = 0", "separatrix.probe_lo"),
    ("separatrix", "[separatrix]\nprobe_hi = 1", "separatrix.probe_hi"),
    ("separatrix", "[separatrix]\nbisect_rel_tol = nan", "separatrix.bisect_rel_tol: unknown key"),
    ("equilibria", "[equilibria]\nscan_points = 400", "[equilibria]: unknown section"),
    ("sweep", "[sweep]\nparam = a1\nlo = 0.2\nhi = 0.4\nscan_points = 600",
     "sweep.scan_points: unknown key"),
    ("sweep", "[sweep]\nparam = a1\nlo = 0.2\nhi = 0.4\nn = 1", "sweep.n"),
    ("sweep", "[sweep]\nparam = a1\nlo = 0.3\nhi = 0.2", "sweep.lo"),
    ("sweep", "[sweep]\nparam = a1\nlo = nan\nhi = 0.4", "sweep.lo"),
    ("sweep", "[sweep]\nparam = m1\nlo = 0.2\nhi = 0.4", "sweep.param"),
    ("refuge-threshold", "[refuge]\nx1 = 0.3\neps1 = -1", "refuge.eps1"),
    ("refuge-threshold", "[refuge]\nx1 = 0.3\nk2 = -3", "refuge.k2"),
])
def test_invalid_option_value_exits_2(tmp_path, capsys, command, section, where):
    # the options are built, and judged, when the config is parsed
    sim = "" if section.startswith("[simulate]") else "\n[simulate]\nx1 = 0.5\nx2 = 2.0\n"
    cfg = write(tmp_path / "bad.ini", MODEL + sim + "\n" + section + "\n")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and where in err
    assert not (tmp_path / "o").exists()


def test_refuge_k2_with_eps1_exits_2(tmp_path, capsys):
    # given k2, the command never derived K2 and so ignored eps1
    cfg = write(tmp_path / "ref.ini", MODEL + "\n[refuge]\nx1 = 0.3\neps1 = 0.01\nk2 = 30\n")
    assert cli.main(["refuge-threshold", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: refuge.eps1, refuge.k2:")


_RATE = st.floats(0.0, 1.0).map(lambda u: 0.1 * 100.0 ** u)  # log-uniform on [0.1, 10]
_EXPONENT = st.floats(0.0, 1.0, exclude_min=True)


def _run_twice(command: str, cfg: str, root: str) -> int:
    """Run the command into two fresh directories; both runs must exit 0
    or 1 alike and write the same files byte for byte."""
    codes, files = [], []
    for run in ("a", "b"):
        out = os.path.join(root, command, run)
        codes.append(cli.main([command, "--config", cfg, "--out", out]))
        names = sorted(os.listdir(out)) if os.path.isdir(out) else []
        files.append({n: pathlib.Path(out, n).read_bytes() for n in names})
    assert codes[0] in (0, 1) and codes[0] == codes[1]
    assert files[0] == files[1]
    return codes[0]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(rates=st.lists(_RATE, min_size=6, max_size=6), m1=_EXPONENT,
       m2=st.one_of(st.just(1.0), _EXPONENT), r=st.one_of(st.just(1.0), _EXPONENT),
       ic=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 10.0)),
       sweep=st.tuples(st.sampled_from(SWEEPABLE), st.floats(1.1, 10.0)))
def test_cli_is_total_and_deterministic_over_the_domain(rates, m1, m2, r, ic, sweep):
    # over the documented domain these commands exit 0 or 1, never raise,
    # and write the same bytes on a second run.  m2 and r are 1, as in the
    # bundled sets, or fractional.  The sweep runs over v/factor..v*factor
    # (r at most 1).  separatrix is left out on m2 = 1, where the property
    # below covers it.
    p = dict(zip(("a1", "a2", "b1", "w0", "w1", "d"), rates), m1=m1, m2=m2, r=r)
    cap = p["a1"] / p["b1"]
    name, factor = sweep
    lo, hi = p[name] / factor, p[name] * factor
    if name == "r":
        hi = min(hi, 1.0)
    text = "[model]\n" + "".join(f"{k} = {v!r}\n" for k, v in p.items()) + (
        f"\n[simulate]\nx1 = {ic[0] * cap!r}\nx2 = {ic[1]!r}\nhorizon = 5.0\n"
        f"\n[refuge]\nx1 = {ic[0] * cap!r}\n"
        f"\n[extinction]\nx1 = {ic[0] * cap!r}\nx2 = {ic[1]!r}\n"
        f"\n[sweep]\nparam = {name}\nlo = {lo!r}\nhi = {hi!r}\nn = 11\n")
    with tempfile.TemporaryDirectory() as root:
        cfg = os.path.join(root, "cfg.ini")
        with open(cfg, "w") as fh:
            fh.write(text)
        for command in ("equilibria", "refuge-threshold", "verify-assumptions", "simulate",
                        "extinction", "sweep", "separatrix"):
            if command != "separatrix" or m2 != 1.0:
                _run_twice(command, cfg, root)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(rates=st.lists(_RATE, min_size=6, max_size=6),
       m1=st.floats(0.05, 0.99), r=st.floats(0.05, 1.0))
def test_separatrix_is_total_and_deterministic_where_E1_is_a_saddle(rates, m1, r):
    # the property above runs separatrix only on m2 < 1, where the manifold
    # refuses at once; here m2 = 1 and w1 puts E1's predator eigenvalue
    # -a2 + w1*g(r*a1/b1) at a2*k (the sixth rate), so the probe fan runs
    a1, a2, b1, w0, k, d = rates
    s = r * a1 / b1
    p = dict(a1=a1, a2=a2, b1=b1, w0=w0, w1=a2 * (1.0 + k) / (s / (s + d)) ** m1,
             d=d, m1=m1, m2=1.0, r=r)
    with tempfile.TemporaryDirectory() as root:
        cfg = os.path.join(root, "cfg.ini")
        with open(cfg, "w") as fh:
            fh.write("[model]\n" + "".join(f"{k} = {v!r}\n" for k, v in p.items()))
        _run_twice("separatrix", cfg, root)


def test_imports_only_the_standard_library():
    # zero runtime dependencies: importing the package and its CLI in a
    # fresh interpreter adds no module from outside the standard library
    # (the interpreter's own site hooks may load some before the import)
    code = textwrap.dedent("""\
        import sys
        sys.path.insert(0, sys.argv[1])
        before = set(sys.modules)
        import predprey, predprey.cli
        added = {name.split(".")[0] for name in set(sys.modules) - before}
        print(sorted(added - set(sys.stdlib_module_names) - {"predprey"}))
        """)
    root = os.path.dirname(os.path.dirname(predprey.__file__))
    res = subprocess.run([sys.executable, "-c", code, root], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
