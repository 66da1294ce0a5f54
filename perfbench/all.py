"""Run every workload, untraced and traced, and print all metrics by name.

    python3 perfbench/all.py --seed 1 --seconds 15 [--out perfbench/baseline.json]

Each run is a separate ``run.py`` process, one after another, so runs do
not share a core.  With ``--out`` the results are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads as W

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    results = {}
    for workload in W.WORKLOAD_NAMES:
        for trace in (0, 1):
            info, result = run(workload, args.seed, args.seconds, trace)
            results[f"{workload}/trace{trace}"] = {"info": info, "result": result}
            for name, metric in result["metrics"].items():
                print(f"{workload:15s} {name:40s} {metric['value']:14.6f} {metric['unit']}")
            print(f"{workload:15s} {'correct':40s} {str(result['correct']):>14s} "
                  f"(failed {result['failed']} of {result['attempted']} ops)")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
