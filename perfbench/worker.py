"""One fresh interpreter of the benchmark: import bll from the checkout, set
up a workload, then run and check its units.  Prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run
        --nproc N --outdir DIR [--size full|small] [--budget S | --units N]
        [--trace 0|1 --spans FILE]

Setup time runs from the first line of this file to the constructed
scenario, so it covers ``import bll``, config parsing and scenario
construction.  In ``run`` mode the worker runs units until the next one
would overrun the budget (at least one), or exactly ``--units`` units.
A traced worker writes every span to ``--spans`` as CSV when it ends.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _unit_dir(base, index):
    path = Path(base) / f"unit{index}"
    path.mkdir(parents=True)
    return path


def _run_unit(workload, outdir):
    try:
        return workload.run(outdir)
    except Exception:  # a unit that raises is a failed unit, not a failed run
        return {"wall_s": 0.0, "steps": 0, "checks": [("raised", False, traceback.format_exc(limit=3))]}


def _write_spans(path, spans_per_unit):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["unit", "name", "thread", "start_s", "end_s", "self_s", "arg"])
        for unit, spans in enumerate(spans_per_unit):
            for name, thread, start, end, own, arg in spans:
                out.writerow([unit, name, thread, repr(start), repr(end), repr(own), "" if arg is None else arg])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--units", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nproc", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import bll

    if not Path(bll.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: bll imported from {bll.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, args.size, args.nproc)
    workload.setup()
    setup_s = time.perf_counter() - _START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    units = []
    spans = []
    spent = []
    while True:
        t0 = time.perf_counter()
        unit = _run_unit(workload, _unit_dir(args.outdir, len(units)))
        spent.append(time.perf_counter() - t0)
        if tracer is not None:
            spans.append(tracer.take())
            unit["layers"] = layer_metrics(spans[-1], unit)
        units.append(unit)
        if args.units:
            if len(units) >= args.units:
                break
        elif sum(spent) + statistics.median(spent) > args.budget:
            break
    if tracer is not None and args.spans:
        _write_spans(args.spans, spans)
    print(json.dumps({
        "setup_s": setup_s,
        "units": units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "absent": tracer.absent if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
