#!/usr/bin/env python3
"""Append one table1 --json run to an accumulating trend file (JSONL).

Usage:
    append_trend.py --run fresh.json --trend bench_trend.jsonl
                    [--commit SHA] [--max-lines 500]

Each invocation appends exactly one line: a compact JSON object with the
run's configuration, its per-engine solve/timeout/wall-clock numbers, and
every stage counter the run carries (memo effectiveness, SAT effort, the
sweep_* series, ...).  CI keeps the
trend file in an `actions/cache` slot keyed per branch, so every push
extends the same file and the artifact that gets uploaded is the whole
history, not one point — a perf cliff shows up as a kink in a series
instead of a single red build that someone re-runs until it is green.

The file is bounded: once it exceeds --max-lines the oldest lines are
dropped (the committed BENCH_*.json baselines are the durable record;
the trend is a rolling window for plotting).
"""

import argparse
import json
import os
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run", required=True,
                        help="fresh table1 --json output to record")
    parser.add_argument("--trend", required=True,
                        help="JSONL trend file to append to (created if "
                             "missing)")
    parser.add_argument("--commit", default=os.environ.get("GITHUB_SHA", ""),
                        help="commit identifier for this point (defaults "
                             "to $GITHUB_SHA)")
    parser.add_argument("--max-lines", type=int, default=500,
                        help="rolling-window bound; oldest points beyond "
                             "it are dropped")
    args = parser.parse_args()

    with open(args.run, "r", encoding="utf-8") as fh:
        run = json.load(fh)

    point = {
        "commit": args.commit,
        "collection": run.get("collection"),
        "instances": run.get("instances"),
        "timeout_s": run.get("timeout_s"),
        "seed": run.get("seed"),
        "threads": run.get("threads"),
        "disagreements": run.get("disagreements"),
        "engines": [],
    }
    for engine in run.get("engines", []):
        entry = {
            "engine": engine.get("engine"),
            "solved": engine.get("solved"),
            "solved_partial": engine.get("solved_partial"),
            "timeouts": engine.get("timeouts"),
            "mean_seconds": engine.get("mean_seconds"),
            "wall_seconds": engine.get("wall_seconds"),
        }
        # Every stage counter the run carries is exported: the counter set
        # grows with the engine (the sweep_* members arrived with the
        # SAT-sweeping subsystem) and the trend plotter filters by key, so
        # a hand-maintained allowlist here just loses new series.
        for key, value in sorted(engine.get("counters", {}).items()):
            entry[key] = value
        point["engines"].append(entry)

    append_point(point, args)
    return 0


def append_point(point, args):
    lines = []
    if os.path.exists(args.trend):
        with open(args.trend, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    lines.append(json.dumps(point, separators=(",", ":"), sort_keys=True))
    if args.max_lines > 0:
        lines = lines[-args.max_lines:]

    with open(args.trend, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    print(f"trend: {args.trend} now holds {len(lines)} point(s)")


if __name__ == "__main__":
    sys.exit(main())
