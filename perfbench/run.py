"""Run the serving benchmark: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``.

Prints the run's environment record and a table of its metrics, then,
as the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exits 1 when an answer was wrong or a
committed document could not be found, 2 when the program cannot be
imported.  ``--workload all`` runs every workload, one process each.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

SPEC_FILE = ROOT / "BENCHMARK.json"


def _spec() -> dict:
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


def _parser() -> argparse.ArgumentParser:
    run_seconds = _spec()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="bulk, hybrid, or all")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--seconds", type=int, default=run_seconds,
                        help="length of the timed phase (default "
                             f"{run_seconds}, BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb one reference score: the run must "
                             "then report correct=false (checks the check)")
    return parser


def _metric_specs(trace: bool) -> list[dict]:
    return _spec()["per_layer" if trace else "end_to_end"]


def _print_table(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"  {name:42s} {entry['value']:14.6g} {entry['unit']}")


def _run_one(args) -> int:
    from perfbench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    report = asyncio.run(harness.run(args.workload, args.seed, args.seconds,
                                     bool(args.trace),
                                     args.corrupt_reference))
    values = dict(report["end_to_end"])
    values["setup_s"] = report["setup"]["setup_s"]
    if args.trace:
        values = report["trace"]
    metrics = {spec["name"]: {"value": values[spec["name"]],
                              "unit": spec["unit"]}
               for spec in _metric_specs(bool(args.trace))}
    record = {"environment": report["environment"],
              "errors": report["errors"], "setup": report["setup"]}
    harness.OUT.mkdir(exist_ok=True)
    (harness.OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps({**record, "metrics": metrics},
                                    indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(f"{args.workload} (seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}):")
    _print_table(metrics)
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    if not report["correct"]:
        print(f"answer check failed: {json.dumps(report['errors'])}",
              file=sys.stderr)
        return 1
    return 0


def _run_all(args) -> int:
    from perfbench import workloads

    status = 0
    results = {}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.corrupt_reference:
            command.append("--corrupt-reference")
        completed = subprocess.run(command, capture_output=True, text=True,
                                   check=False)
        status = max(status, completed.returncode)
        lines = completed.stdout.strip().splitlines()
        if not lines:
            sys.stderr.write(completed.stderr)
            print(f"{name}: no result (exit {completed.returncode})")
            continue
        results[name] = json.loads(lines[-1])
        print("\n".join(lines[1:-1]))
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program under {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
