"""Run-to-run steadiness: run one workload on several seeds and report,
per end-to-end metric, the median and the inter-quartile spread as a
share of the median next to the metric's bound.

    python3 perfbench/spread.py --workload bulk --seeds 10 [--first-seed 100] [--sets 2]

Every metric but ``setup_s`` must spread by no more than its bound (a
third of it leaves room for a slower or busier machine).  ``setup_s``
is exempt from the spread rule; like every other metric, its median may
not get worse from one set of runs to the next by more than its bound.
``--sets 2`` runs the same seeds twice and prints that change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.stats import quartile_spread  # noqa: E402

#: The one metric whose spread is not bounded.
SPREAD_EXEMPT = "setup_s"


def run_set(spec: dict, workload: str, seeds, trace: int) -> dict | None:
    """One run per seed; each metric's values, or ``None`` when a run
    failed."""
    values: dict[str, list[float]] = {}
    walls = []
    for seed in seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", str(trace)]
        started = time.monotonic()
        completed = subprocess.run(command, capture_output=True, text=True,
                                   check=False)
        walls.append(time.monotonic() - started)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            print(f"seed {seed}: exit {completed.returncode}")
            return None
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: {walls[-1]:.1f}s  " + "  ".join(
            f"{name}={entry['value']:.4g}"
            for name, entry in result["metrics"].items()), flush=True)
    print(f"wall per run: median {statistics.median(walls):.1f}s, "
          f"max {max(walls):.1f}s")
    return values


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    specs = {entry["name"]: entry for entry in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    medians = []
    for number in range(1, args.sets + 1):
        print(f"set {number}:")
        values = run_set(spec, args.workload, seeds, args.trace)
        if values is None:
            return 1
        medians.append({name: statistics.median(series)
                        for name, series in values.items()})
        for name, series in values.items():
            spread = quartile_spread(series) if len(series) >= 2 else 0.0
            bound = specs.get(name, {}).get("bound")
            flag = "" if bound is None else (
                "  exempt" if name == SPREAD_EXEMPT else
                "  ok" if spread < bound / 3 else
                "  within bound" if spread <= bound else "  OVER BOUND")
            print(f"{name:40s} median {medians[-1][name]:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}{flag}")
    for number, later in enumerate(medians[1:], start=2):
        print(f"set {number} against set 1 (median worse by):")
        for name, median in later.items():
            if name not in specs:
                continue
            worse = worsening(medians[0][name], median,
                              specs[name]["better"])
            bound = specs[name]["bound"]
            flag = "  ok" if worse <= bound else "  OVER BOUND"
            print(f"{name:40s} {worse:+8.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
