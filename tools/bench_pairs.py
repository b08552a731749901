"""Alternating paired benchmark runs of two checkouts (a parent and a change).

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        [--pairs N] [--seeds 11-20 | --seeds 0,1,2,3] [--seconds S] [--out FILE.json]

Pair i runs ``python3 perfbench/run.py --workload NAME --seed SEED_i
--seconds S --trace 0`` once in each checkout, one run at a time, the parent
first when i is even and the change first when i is odd, so that a drift of
the host's load hits both sides alike.  The seeds default to 11, 12, ...,
one per pair; --seeds sets them, one pair each.  Nothing under either
checkout's perfbench is edited; each run writes only its own .bench_out
scratch there.

The result, printed and written to --out, is one JSON object: per side the
per-run end-to-end metrics, their medians and inclusive quartiles (q1, q3,
iqr) and the artifact digests; per metric the change/parent ratio of every
pair, the number of pairs the change wins (better in the direction that the
change checkout's BENCHMARK.json declares, lower by default), the median gap
and the parent's interquartile spread; whether the two sides' digests
agree seed by seed; and src_lines, the raw and code line totals of each
side's src/ by that checkout's own tools/src_lines.py (read before the
first pair; null for a side whose script is missing or fails).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

_DIGESTS = re.compile(r"artifact digest\(s\): (.*)$", re.M)


def _seeds(text, pairs):
    """The seeds of --seeds ('A-B' or a comma list), else 11 .. 10 + pairs."""
    if text is None:
        return list(range(11, 11 + pairs))
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def run_once(checkout, workload, seed, seconds):
    """The end-to-end metrics and artifact digests of one perfbench run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    found = _DIGESTS.search(proc.stdout)
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digests": found.group(1).split(", ") if found else [],
    }


def src_lines(checkout):
    """{raw, code}: the line totals that checkout's tools/src_lines.py prints,
    or None when it has no such script, the script fails or its last line
    is not 'total RAW CODE'."""
    script = Path(checkout) / "tools" / "src_lines.py"
    if not script.is_file():
        return None
    proc = subprocess.run([sys.executable, str(script)], cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        _, raw, code = lines[-1].split()
        return {"raw": int(raw.replace(",", "")), "code": int(code.replace(",", ""))}
    except (IndexError, ValueError):
        return None


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def _better(change):
    """Metric name -> 'lower' or 'higher', from the change checkout's BENCHMARK.json."""
    path = Path(change) / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m.get("better", "lower") for m in json.loads(path.read_text()).get("end_to_end", [])}


def summarize(workload, runs, better):
    sides = {}
    for side in ("parent", "change"):
        rows = [r[side] for r in runs]
        names = list(rows[0]["metrics"])
        sides[side] = {
            "runs": rows,
            "failed_units": sum(r["failed"] for r in rows),
            "units": sum(r["attempted"] for r in rows),
            "digests": sorted({d for r in rows for d in r["digests"]}),
            "metrics": {n: _spread([r["metrics"][n] for r in rows]) for n in names},
        }
    compare = {}
    for name in sides["parent"]["metrics"]:
        ratios, wins = [], 0
        for r in runs:
            old, new = r["parent"]["metrics"][name], r["change"]["metrics"][name]
            ratios.append(new / old if old else None)
            wins += (new > old) if better.get(name, "lower") == "higher" else (new < old)
        p, c = sides["parent"]["metrics"][name], sides["change"]["metrics"][name]
        compare[name] = {
            "ratios": ratios,
            "wins": wins,
            "median_ratio": c["median"] / p["median"] if p["median"] else None,
            "median_gap": p["median"] - c["median"],
            "parent_iqr": p["iqr"],
        }
    same = all(r["parent"]["digests"] == r["change"]["digests"] for r in runs)
    return {"workload": workload, "pairs": len(runs), "seeds": [r["parent"]["seed"] for r in runs],
            "order": "pair i: parent first when i is even, change first when i is odd",
            "digests_equal_per_seed": same, "sides": sides, "compare": compare}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10, help="pairs to run when --seeds is not given")
    parser.add_argument("--seeds", help="'A-B' or a comma list, one pair per seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", help="JSON file to write")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds, args.pairs)
    lines = {side: src_lines(getattr(args, side)) for side in ("parent", "change")}
    runs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run_once(getattr(args, side), args.workload, seed, args.seconds) for side in order}
        runs.append(pair)
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{side} ms_per_step={pair[side]['metrics'].get('ms_per_step', float('nan')):.4g}" for side in ("parent", "change")
        ), file=sys.stderr)
    result = summarize(args.workload, runs, _better(args.change))
    result["src_lines"] = lines
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
