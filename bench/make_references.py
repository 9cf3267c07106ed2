"""Rebuild bench/references.json: tight-tolerance scipy reference values.

One-off and offline: the benchmark only reads the JSON, and nothing here
runs at benchmark time.  Needs numpy and scipy (test-only dependencies of
the repository); the field comes from oracle.py, not from predprey.

    python3 bench/make_references.py
"""
from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np
import scipy
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracle as o  # noqa: E402

OSC = o.params(a1=0.6, a2=1.0, b1=0.063, w0=1.0, w1=2.0, d=2.0, m1=0.8, m2=1.0)
BISTABLE = o.params(a1=0.5, a2=0.7, b1=0.05, w0=0.2, w1=4.0, d=0.2, m1=0.5, m2=0.5)
ENRICHED = o.replaced(OSC, a1=2.0, b1=0.21)

RTOL = 1e-13
SWITCH_X1 = 1e-3   # hand the touchdown over to the u = 1/x1 chart below this

# (label, params, initial state); the CLI default horizon is 200.
EXTINCTION_CASES = [
    ("osc", OSC, (0.3, 50.0)),
    ("osc", OSC, (0.3, 100.0)),
    ("osc", OSC, (0.2, 30.0)),
    ("osc", OSC, (0.1, 20.0)),
    ("osc_m1_0.6", o.replaced(OSC, m1=0.6), (0.3, 50.0)),
    ("osc_r_0.5", o.replaced(OSC, r=0.5), (0.3, 80.0)),
    ("osc_d_1.5", o.replaced(OSC, d=1.5), (0.4, 60.0)),
    ("enriched", ENRICHED, (0.5, 200.0)),
]


def touchdown(p, ic, depths=(1e-9, 1e-12)):
    """Times at which x1 first falls to each depth (DOP853, rtol 1e-13):
    x-chart down to SWITCH_X1, then the u-chart to the deepest level."""
    def fx(t, y):
        return o.field(p, max(y[0], 0.0), max(y[1], 0.0))

    def hit(t, y):
        return y[0] - SWITCH_X1
    hit.terminal, hit.direction = True, -1
    a = solve_ivp(fx, (0.0, 200.0), ic, method="DOP853", rtol=RTOL,
                  atol=[1e-16, 1e-12], events=hit)
    if not a.t_events[0].size:
        return None
    t0, (x1, x2) = a.t_events[0][0], a.y_events[0][0]

    def fu(t, y):
        return o.u_field(p, y[0], max(y[1], 0.0))

    events = []
    for depth in depths:
        def ev(t, y, level=1.0 / depth):
            return y[0] - level
        ev.direction = 1
        events.append(ev)
    events[-1].terminal = True
    b = solve_ivp(fu, (t0, 200.0), (1.0 / x1, x2), method="DOP853",
                  rtol=RTOL, atol=[1e-12, 1e-12], events=events)
    return [float(e[0]) for e in b.t_events]


def launch_above(p, x1_0, x2_0, threshold=1e-9, horizon=500.0):
    """Fate of a launch: True iff x1 decreases monotonically into the
    x1 = threshold level (the package's ABOVE)."""
    if o.field(p, x1_0, x2_0)[0] > 0.0:
        return False

    def f(t, y):
        return o.field(p, max(y[0], 0.0), max(y[1], 0.0))

    def turn(t, y):
        return f(t, y)[0]
    turn.terminal, turn.direction = True, 1

    def low(t, y):
        return y[0] - threshold
    low.terminal, low.direction = True, -1
    sol = solve_ivp(f, (0.0, horizon), (x1_0, x2_0), method="DOP853",
                    rtol=1e-12, atol=[1e-16, 1e-12], events=(turn, low))
    return bool(sol.t_events[1].size)


def boundary(p, x1_0, rel=1e-10):
    lo = 0.5 * o.psi(x1_0, p)
    hi = max(2.0 * o.psi(x1_0, p), 1.0)
    while not launch_above(p, x1_0, hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > rel * hi:
        mid = 0.5 * (lo + hi)
        if launch_above(p, x1_0, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def interior_roots(p, n=200000):
    cap = o.carrying_capacity(p)
    xs = np.linspace(1e-9 * cap, (1 - 1e-9) * cap, n)
    vs = [o.scan_F(p, x) for x in xs]
    roots = []
    for i in range(n - 1):
        if vs[i] * vs[i + 1] < 0.0:
            x = brentq(lambda z: o.scan_F(p, z), xs[i], xs[i + 1], xtol=1e-15, rtol=1e-15)
            roots.append([x, o.prey_nullcline_x2(x, p)])
    return roots


def main():
    out = {
        "provenance": {
            "script": "bench/make_references.py",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "host": f"{platform.machine()} Linux, {os.cpu_count()} vCPU",
            "method": {
                "extinction": "solve_ivp DOP853 rtol 1e-13 in (x1, x2) down to "
                              "x1 = 1e-3, then in u = 1/x1 to u = 1e12; event "
                              "times at x1 = 1e-9 and 1e-12",
                "separatrix": "bisection of launch fates to rel 1e-10; each launch "
                              "solve_ivp DOP853 rtol 1e-12 with located events "
                              "dx1/dt = 0 (upward, below) and x1 = 1e-9 (above), "
                              "horizon 500",
                "interior_equilibria": "sign scan of F on 2e5 points, brentq "
                                       "xtol 1e-15",
                "folds": "oracle.fold: Newton on F = dF/dx1 = 0",
            },
        },
        "extinction": [],
        "separatrix": [],
        "interior_equilibria": [],
        "folds": [],
    }
    for label, p, ic in EXTINCTION_CASES:
        t = touchdown(p, ic)
        if t is None:
            print("no touchdown", label, ic)
            continue
        out["extinction"].append({"label": label, "params": o.as_dict(p), "ic": list(ic),
                                  "T_x1_1e-9": t[0], "T_x1_1e-12": t[1]})
        print("extinction", label, ic, t)
    for label, p in (("osc", OSC), ("enriched", ENRICHED),
                     ("enriched_r_0.3", o.replaced(ENRICHED, r=0.3))):
        xs = o.fan(p)
        ys = [boundary(p, x) for x in xs]
        out["separatrix"].append({"label": label, "params": o.as_dict(p),
                                  "probe_x1": xs, "boundary_x2": ys})
        print("separatrix", label, ys)
    for label, p in (("bistable", BISTABLE), ("bistable_r_0.3", o.replaced(BISTABLE, r=0.3)),
                     ("osc", OSC)):
        out["interior_equilibria"].append({"label": label, "params": o.as_dict(p),
                                           "points": interior_roots(p)})
    for label, p in (("bistable", BISTABLE), ("bistable_r_0.3", o.replaced(BISTABLE, r=0.3))):
        for name, (v0, x0) in {"a1": (0.468, 4.6), "a2": (0.615, 4.9), "w0": (0.2276, 4.9),
                               "w1": (4.55, 4.9), "b1": (0.0572, 4.3)}.items():
            v, x1, x2 = o.fold(p, name, x0, v0)
            out["folds"].append({"label": label, "params": o.as_dict(p), "param": name,
                                 "value": v, "x1": x1, "x2": x2})
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print("wrote", path)


if __name__ == "__main__":
    main()
