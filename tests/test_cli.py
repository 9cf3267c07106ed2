from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import predprey
from predprey import IntegratorOptions, cli, csvio, trace_unstable_manifold_E1
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
        scan_points = 600
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
        scan_points = 400
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
    ws = (out / "separatrix_ws.csv").read_text().splitlines()
    assert ws[0] == "# stable_separatrix_E0"
    assert ws[1] == "x1,x2"
    assert (out / "manifold_wu.csv").exists()


def test_separatrix_traces_the_manifold_with_the_integrator_section(tmp_path):
    # W^u(E1) follows [integrator] as W^s(E0) does, at the separatrix horizon
    cfg = write(tmp_path / "sep.ini", MODEL + textwrap.dedent("""\

        [integrator]
        rel_tol = 1e-10
        abs_tol = 1e-12

        [separatrix]
        probes = 3
        bisect_rel_tol = 1e-4
        """))
    out = tmp_path / "out"
    assert cli.main(["separatrix", "--config", cfg, "--out", str(out)]) == 0
    p = load_config(cfg).params
    for opts, path in ((IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12, horizon=500.0), "tight"),
                       (None, "default")):
        csvio.write_curve(trace_unstable_manifold_E1(p, opts), str(tmp_path / path))
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


def test_transcritical_edge_root_exits_0(tmp_path, capsys, transcritical_edge_params):
    # the closed-form root one ulp below the last point of a dense scan
    cfg = write(tmp_path / "edge.ini", "[model]\n" + "".join(
        f"{k} = {v!r}\n" for k, v in vars(transcritical_edge_params).items()))
    assert cli.main(["equilibria", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "equilibria.csv").read_text().splitlines()
    assert len([r for r in rows if r.startswith("interior,")]) == 1
    assert capsys.readouterr().out.startswith("1 interior equilibria")


def test_missing_config_file_exits_2(tmp_path):
    res = run_cli("simulate", "--config", str(tmp_path / "nope.ini"),
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 2


def test_non_finite_tolerances_are_rejected(tmp_path):
    # [integrator] problems are config errors (exit 2); SeparatrixOptions
    # rejects its tolerance as a domain error (exit 1)
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
    cfg = write(tmp_path / "sep.ini", MODEL + "\n[separatrix]\nbisect_rel_tol = nan\n")
    res = run_cli("separatrix", "--config", cfg, "--out", str(tmp_path / "b"))
    assert res.returncode == 1
    assert "bad separatrix tolerances" in res.stderr


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
