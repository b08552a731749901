"""bll benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; bll is imported from its ``src``.
Every measurement runs in a fresh interpreter (``perfbench/worker.py``):

- ``--trace 0``: seven set-up-only interpreters plus one that sets up and
  then runs units of the workload for about ``--seconds`` seconds.  Prints
  the end-to-end metrics.
- ``--trace 1``: one untraced interpreter for about half of ``--seconds``,
  then one traced interpreter running the same number of units.  Prints the
  per-layer metrics and checks that the traced artifacts are byte-identical
  to the untraced ones.

Every unit's outputs are checked, and all units of a run (one seed) must
produce byte-identical artifacts.  The last line of standard output is the
result as one JSON object; the lines before it are a readable report and the
environment.  Exits 2 without a result when the checkout has no bll sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import PER_LAYER, absent_metrics  # noqa: E402

# Per-layer metrics read from the spans; trace.overhead_s compares two workers.
LAYER_METRICS = [name for name, _ in PER_LAYER if name != "trace.overhead_s"]

SETUP_SAMPLES = 7
# A run must end within 180 s; workers are stopped at this deadline.
RUN_DEADLINE_S = 170.0
# BLAS stays single-threaded: every array here is small, and the sweep's
# own threads would otherwise compete with BLAS threads for the cores.
BLAS_THREADS = 1

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("steps", "count"),
    ("ms_per_step", "ms"),
    ("peak_rss_mb", "MiB"),
)


class WorkerError(RuntimeError):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return caches


def _library_versions(env):
    probe = (
        "import json, sys, numpy, scipy; "
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
        "'scipy': scipy.__version__, 'blas': blas.get('name', '?') + ' ' + str(blas.get('version', '?'))}))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    if out.returncode != 0:
        return {"python": platform.python_version(), "numpy": "?", "scipy": "?", "blas": "?"}
    return json.loads(out.stdout)


def environment(args, env, threads):
    info = {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "platform": platform.platform(),
    }
    info.update(_library_versions(env))
    info.update({
        "blas_threads": min(BLAS_THREADS, nproc()),
        "sweep_threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    })
    return info


def worker_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, nproc()))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args, env, deadline, outdir, mode, **extra):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--mode", mode, "--nproc", str(nproc()), "--outdir", str(outdir),
    ]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("run deadline reached before a worker could start")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker overran the {RUN_DEADLINE_S:g} s run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _first_digest(units):
    return next((u["digest"] for u in units if u.get("digest")), None)


def judge(units, reference=None, reference_name="the run's first unit"):
    """Count failed units: a failed check, or artifacts that differ from the
    reference digest (by default the first unit's)."""
    reference = reference or _first_digest(units)
    failed = 0
    notes = []
    for i, unit in enumerate(units):
        bad = [f"{name}: {detail}" for name, ok, detail in unit["checks"] if not ok]
        if unit.get("digest") != reference:
            bad.append(f"artifacts differ from {reference_name}'s")
        if bad:
            failed += 1
            notes.append(f"unit {i} FAILED: " + "; ".join(bad))
    return failed, notes


def _median(units, key):
    return statistics.median(u[key] for u in units)


@dataclass
class Measured:
    metrics: dict
    samples: dict  # metric name -> sample count
    units: list  # every unit run, traced or not
    failed: int
    notes: list
    absent: list = field(default_factory=list)


def end_to_end(args, env, deadline, workdir):
    setups = [run_worker(args, env, deadline, workdir / f"setup{i}", "setup")["setup_s"] for i in range(SETUP_SAMPLES)]
    main = run_worker(args, env, deadline, workdir / "run", "run", budget=args.seconds)
    units = main["units"]
    setups.append(main["setup_s"])
    failed, notes = judge(units)
    good = [u for u in units if u["steps"] > 0] or units
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": _median(good, "wall_s"),
        "steps": _median(good, "steps"),
        "ms_per_step": statistics.median(1e3 * u["wall_s"] / max(u["steps"], 1) for u in good),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    samples = {name: len(good) for name in metrics} | {"setup_s": len(setups), "peak_rss_mb": 1}
    return Measured(metrics, samples, units, failed, notes)


def per_layer(args, env, deadline, workdir):
    plain = run_worker(args, env, deadline, workdir / "plain", "run", budget=args.seconds / 2.0)
    spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv"
    traced = run_worker(
        args, env, deadline, workdir / "traced", "run", units=len(plain["units"]), trace=1, spans=spans
    )
    failed_plain, notes = judge(plain["units"])
    failed_traced, traced_notes = judge(traced["units"], _first_digest(plain["units"]), "the untraced run")
    notes += traced_notes
    units = traced["units"]
    metrics = {name: statistics.median(u["layers"][name] for u in units) for name in LAYER_METRICS}
    metrics["trace.overhead_s"] = _median(units, "wall_s") - _median(plain["units"], "wall_s")
    return Measured(
        metrics, {name: len(units) for name in metrics}, plain["units"] + units,
        failed_plain + failed_traced, notes, absent_metrics(traced["absent"]),
    )


def report(args, measured, env_info):
    print("environment " + json.dumps(env_info, sort_keys=True))
    units = measured.units
    unit_of = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in measured.metrics.items():
        tag = "  (absent: the traced function no longer exists)" if name in measured.absent else ""
        print(f"{args.workload} {name} = {value:.6g} {unit_of[name]}  [median of {measured.samples[name]}]{tag}")
    figures = {k: v for u in units for k, v in u.get("figures", {}).items()}
    for key, value in figures.items():
        print(f"{args.workload} {key} = {value:.6g} 1")
    n = len(units)
    print(f"{args.workload} failed_ratio = {measured.failed / n:.6g} 1  [{measured.failed} of {n} units]")
    digests = sorted({u.get("digest") for u in units if u.get("digest")})
    print(f"{args.workload} artifact digest(s): {', '.join(d[:16] for d in digests) or 'none'}")
    for note in measured.notes:
        print(f"{args.workload} {note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' runs a few steps per unit (harness self-test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "bll" / "__init__.py").is_file():
        print(f"error: no bll sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = worker_env()
    threads = getattr(workloads.make(args.workload, args.seed, args.size, nproc()), "threads", None)
    workdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env_info = environment(args, env, threads)
        measured = (per_layer if args.trace else end_to_end)(args, env, deadline, workdir)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, measured, env_info)
    print(json.dumps({
        "correct": measured.failed == 0,
        "attempted": len(measured.units),
        "failed": measured.failed,
        "metrics": {
            name: {"value": measured.metrics[name], "unit": unit}
            for name, unit in (PER_LAYER if args.trace else END_TO_END)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
