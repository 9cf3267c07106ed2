"""Small-size smoke test of the benchmark itself (about half a minute).

    python3 bench/smoke.py

Runs every workload briefly untraced and one workload traced, and checks
the result line against BENCHMARK.json: exactly the keys correct,
attempted, failed and metrics; every end-to-end (untraced) or per-layer
(traced) metric present with its unit; a correct run with no failed
task.  Then checks that the benchmark fails without printing a result
where the package sources are missing.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(done, expected: dict[str, str]) -> None:
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], sorted(res)
    assert res["correct"] is True, done.stdout
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert res["failed"] == 0, done.stdout
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    assert got == expected, (set(got) ^ set(expected), got)
    for name, m in res["metrics"].items():
        assert sorted(m) == ["unit", "value"] and isinstance(m["value"], (int, float)), name


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        check_result(run(ROOT, w["name"], 0), e2e)
        print(f"ok: {w['name']} untraced")
    check_result(run(ROOT, "cli", 1, "2"), layers)
    print("ok: cli traced")

    bare = os.path.join(ROOT, ".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "sweep", 0)
        assert done.returncode != 0 and '"metrics"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: no result without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
