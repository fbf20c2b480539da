#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and summarise their spread.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--trace 1] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For every metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median; for an end-to-end metric also its bound.  With
``--out`` it writes every result line and the summary as JSON: that is how
``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results, details = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                                   text=True).stdout.splitlines()
            results.append(json.loads(lines[-1]))
            details.append(json.loads(lines[-2].split(" ", 1)[1]))
            print(workload, seed, lines[-1], file=sys.stderr, flush=True)
        names = results[0]["metrics"]
        summary = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            summary[name] = spread(values) if len(values) >= 2 else {"values": values}
            summary[name]["unit"] = results[0]["metrics"][name]["unit"]
            if name in bounds:
                summary[name]["bound"] = bounds[name]
        probes = [statistics.median(d["samples"]["probe_s"]) for d in details
                  if "probe_s" in d.get("samples", {})]
        report[workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summary,
            "probe_s": spread(probes) if len(probes) >= 2 else probes,
            "machine": details[0]["machine"],
            "results": results,
            "details": [{"metrics": d["metrics"], "samples": d.get("samples"),
                         "failures": d["failures"]} for d in details],
        }
        print(f"{workload}: correct={report[workload]['correct']} "
              f"attempted={report[workload]['attempted']} failed={report[workload]['failed']}")
        for name, s in summary.items():
            if "spread" in s:
                bound = f"  bound {s['bound']}" if "bound" in s else ""
                print(f"  {name:40s} median {s['median']:.6g} {s['unit']}  "
                      f"spread {s['spread']:.4f}{bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
