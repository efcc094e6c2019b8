#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, over different seeds.

Runs ``run.py`` once per seed for each workload and reports, per metric,
the median and the distance between the first and third quartiles as a
share of the median -- the steadiness test a benchmark bound must pass.
With ``--write`` the figures, plus one run set on a held-out seed, go to
``layerbench/evidence.json``::

    python3 layerbench/steadiness.py --runs 10 --held-out-seed 1009 --write
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from datetime import date
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if not report["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n"
                         f"{done.stderr}")
    values = {name: metric["value"]
              for name, metric in report["metrics"].items()}
    print(f"{workload} seed {seed}: " + "  ".join(
        f"{name} {value:.6g}" for name, value in values.items()),
        flush=True)
    return values


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {"median": middle, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / middle if middle else 0.0,
            "n": len(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    names = [workload["name"] for workload in benchmark["workloads"]]
    bounds = {metric["name"]: metric["bound"]
              for metric in benchmark["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--held-out-seed", type=int)
    parser.add_argument("--write", action="store_true",
                        help="record the figures in layerbench/evidence.json")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be >= 2")

    seconds = benchmark["run_seconds"]
    evidence = {"date": date.today().isoformat(),
                "host": {"cpu": cpu_model(),
                         "python": platform.python_version()},
                "run_seconds": seconds,
                "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                "spread": {}, "held_out": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, args.first_seed + offset, seconds)
                for offset in range(args.runs)]
        figures = {name: spread([run[name] for run in runs])
                   for name in bounds}
        evidence["spread"][workload] = figures
        for name, figure in figures.items():
            # setup_s is held to its bound between run sets, not within.
            ok = figure["iqr_frac"] <= bounds[name] / 3
            verdict = "exempt" if name == "setup_s" else (
                "ok" if ok else "WIDE")
            steady &= ok or name == "setup_s"
            print(f"{workload:<18} {name:<18} median {figure['median']:12.4f}"
                  f"  iqr/median {figure['iqr_frac']:7.2%}  bound "
                  f"{bounds[name]:5.0%}  {verdict}", flush=True)
        if args.held_out_seed is not None:
            evidence["held_out"][workload] = {
                "seed": args.held_out_seed,
                "metrics": run_once(workload, args.held_out_seed, seconds)}
    if args.write:
        path = BENCH_DIR / "evidence.json"
        with open(path, "w") as handle:
            json.dump(evidence, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"written {path.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
