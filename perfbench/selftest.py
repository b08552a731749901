"""Self-test of the benchmark harness at reduced size (a few steps per unit).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, in both modes, it checks that the
result line has exactly the contract's keys, that every declared metric is
printed with its declared unit (or marked absent in the report), that the
checks pass, and that the report carries the environment.  It also checks
that a traced target the code no longer has is reported absent, and that
the benchmark fails without a result in a directory with no bll sources.
Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

ENV_KEYS = {"nproc", "cpu_model", "caches", "python", "numpy", "scipy", "blas", "blas_threads", "sweep_threads", "seed"}
FIGURES = {"sweep-c8": "err_theta", "ob-ramp-4x32": "balance_residual", "nsf-radiation": "mass_drift"}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(bench, workload, trace):
    tag = f"{workload} trace={trace}"
    proc = run_bench(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and bool(lines), f"{tag}: exits 0 with output ({proc.stderr.strip()[-300:]})")
    if proc.returncode != 0 or not lines:
        return
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(result["correct"] is True and result["failed"] == 0, f"{tag}: outputs correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{tag}: attempted >= 1")
    declared = bench["per_layer" if trace else "end_to_end"]
    check(list(result["metrics"]) == [m["name"] for m in declared], f"{tag}: metric names match BENCHMARK.json")
    report = "\n".join(lines[:-1])
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        number = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
        check(number and got.get("unit") == m["unit"], f"{tag}: {m['name']} is a number in {m['unit']}")
        line = next((x for x in lines if x.startswith(f"{workload} {m['name']} = ")), "")
        check(f" {m['unit']}  [" in line or "(absent" in line, f"{tag}: {m['name']} reported with its unit or marked absent")
    env = json.loads(next(line for line in lines if line.startswith("environment "))[len("environment "):])
    check(ENV_KEYS <= set(env), f"{tag}: environment has {sorted(ENV_KEYS - set(env)) or 'every key'}")
    check(f"{workload} failed_ratio = " in report, f"{tag}: failed_ratio reported")
    check(f"{workload} {FIGURES[workload]} = " in report, f"{tag}: {FIGURES[workload]} reported")


def check_absent_target():
    sys.path.insert(0, str(ROOT / "src"))
    saved = tracer.TARGETS
    tracer.TARGETS = saved + (("grid.zsolve", "bll.grid", "_no_such_solver", None),
                              ("cli.gone", "bll.no_such_module", "main", None))
    try:
        t = tracer.Tracer()
        t.install()
    finally:
        tracer.TARGETS = saved
    check({"grid.zsolve", "cli.gone"} <= set(t.absent), "a removed function or module is recorded absent")
    check("grid.zsolve.self_s" in tracer.absent_metrics(t.absent), "its metrics are marked absent")


def check_bare_directory():
    base = ROOT / ".bench_out"
    base.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=base))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "ob-ramp-4x32", 0)
        lines = proc.stdout.strip().splitlines()
        check(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
              f"without bll sources: exit {proc.returncode} and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in bench["workloads"]] == list(FIGURES), "BENCHMARK.json names the three workloads")
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    check_absent_target()
    check_bare_directory()
    print(f"{len(failures)} failure(s)" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
