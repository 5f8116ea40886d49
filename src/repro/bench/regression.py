"""Benchmark regression checking over ``BENCH_*.json`` reports.

The perf benchmarks (``benchmarks/bench_perf_scaling.py``) write their
measurements as JSON artifacts; committed full-scale runs live in
``benchmarks/baselines/``.  This module compares a fresh run against
those baselines and flags any *tracked* metric that regressed by more
than a threshold (25% by default) — the guard the nightly CI job
(``.github/workflows/nightly-bench.yml``) runs so a perf regression
cannot land silently.  ``repro bench-diff <old> <new>`` prints the same
comparison as a table.

Only explicitly tracked metrics participate (:data:`TRACKED_METRICS`):
raw timings jitter with machine load, so the tracked set names the
headline numbers each report exists to defend, each with a direction
(``"lower"`` for timings and size ratios, ``"higher"`` for speedups).
Reports carry their inputs (scale, document/query counts) next to their
timings, so a comparison across runs is apples-to-apples as long as the
benchmark configuration is unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.utils.tables import ascii_table

__all__ = [
    "DEFAULT_THRESHOLD",
    "TRACKED_METRICS",
    "MetricComparison",
    "metric_value",
    "compare_reports",
    "compare_dirs",
    "render_comparison",
    "main",
]

#: Allowed relative change before a tracked metric counts as regressed.
DEFAULT_THRESHOLD = 0.25

#: ``file name -> {dotted metric path -> direction}``.  Direction
#: ``"lower"`` means lower is better (timings, size ratios): the metric
#: regresses when ``current > baseline * (1 + threshold)``.  ``"higher"``
#: means higher is better (speedups): regression when
#: ``current < baseline / (1 + threshold)``.
TRACKED_METRICS: dict[str, dict[str, str]] = {
    "BENCH_cold_start.json": {
        "cold_start_s": "lower",
        "cold_start_speedup": "higher",
        "load_v3_s": "lower",
    },
    "BENCH_sharded_scaling.json": {
        "sharded_cold_s": "lower",
        "sharded_warm_s": "lower",
    },
    "BENCH_snapshot_v2.json": {
        "v3_dedup_ratio": "lower",
        "routing.routed_s": "lower",
    },
    "BENCH_wand.json": {
        "long.maxscore_s": "lower",
        "long.wand_s": "lower",
        "long.blockmax_s": "lower",
        "long.wand_speedup": "higher",
    },
    "BENCH_pipeline.json": {
        # Cold passes are dominated by per-engine one-time builds and
        # jitter with run order; the steady state is the guarded number.
        "batched_warm_s": "lower",
        # The staged pipeline's reason to exist: batched serving must
        # keep beating the sequential per-query loop.
        "speedup_warm": "higher",
    },
    "perf_topk_fastpath.json": {
        "fastpath_cold_s": "lower",
        # The warm path is sub-millisecond — absolute wall-clock at that
        # scale is pure noise across machines; the cache-effectiveness
        # *ratio* is the stable, meaningful guard.
        "speedup_warm": "higher",
    },
    "BENCH_serving.json": {
        # The serving front end's reason to exist: micro-batching over
        # HTTP must keep beating per-request serving.  Both arms run on
        # the same host in the same process, so the ratio is stable
        # where absolute QPS is machine-bound.
        "speedup_batched_qps": "higher",
        "batched.qps": "higher",
        # The prefork worker tier: absolute 4-worker throughput and its
        # ratio over one worker.  The ratio only expresses parallelism
        # on a >= 4-core runner; on fewer cores it hovers near (or
        # below) 1.0, which the baseline then honestly records.
        "qps_workers_4": "higher",
        "worker_scaling_4x": "higher",
    },
    "BENCH_hybrid.json": {
        # The hybrid strategy's reason to exist: rank fusion must keep
        # recovering what lexical retrieval loses on paraphrased
        # queries.  The eval set is deterministic, so nDCG moves only
        # when retrieval behaviour does.
        "ndcg_hybrid": "higher",
        "ndcg_delta": "higher",
        # And it must stay affordable at steady state: warm wall-clock
        # absolute and relative to the pure-lexical arm.
        "hybrid_warm_s": "lower",
        "latency_ratio": "lower",
    },
    "BENCH_ingest.json": {
        # The collection journal's reason to exist: appending a small
        # batch must keep beating a full generation rewrite.  A ratio
        # of two save paths on the same host, so stable where absolute
        # wall-clock is machine-bound.
        "delta_save_speedup": "higher",
        # Lazy cold starts must keep pinning nothing up front; this is
        # a file count, so any drift is a behavior change, not noise.
        # (The read p99s in this file are deliberately not gated —
        # cross-thread scheduling jitter on shared runners swamps the
        # regression threshold.)
        "lazy_cold_pins": "lower",
    },
}


@dataclass(frozen=True)
class MetricComparison:
    """One tracked metric's baseline-vs-current verdict."""

    file: str
    metric: str
    direction: str
    baseline: float | None
    current: float | None
    #: Relative change in the *bad* direction (0.30 = 30% worse); 0 or
    #: negative when the metric held or improved; ``None`` when a value
    #: was missing.
    change: float | None
    regressed: bool
    note: str = ""


def metric_value(report: dict, dotted: str) -> float:
    """Resolve a dotted metric path (``"routing.routed_s"``) in a report.

    Raises:
        KeyError: when any path segment is missing or the leaf is not a
            number.
    """
    value: object = report
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError(f"metric {dotted!r} not found (missing {part!r})")
        value = value[part]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise KeyError(f"metric {dotted!r} is not a number: {value!r}")
    return float(value)


def _relative_change(direction: str, baseline: float, current: float) -> float:
    """How much worse ``current`` is than ``baseline`` (negative =
    improved), scaled so that ``change > threshold`` is exactly the
    documented trip point for either direction: ``current > baseline *
    (1 + threshold)`` when lower is better, ``current < baseline /
    (1 + threshold)`` when higher is better.  A zero/negative baseline
    cannot anchor a relative comparison and counts as no change."""
    if baseline <= 0:
        return 0.0
    if direction == "lower":
        return current / baseline - 1.0
    if current <= 0:
        return float("inf")
    return baseline / current - 1.0


def compare_reports(file_name: str, baseline: dict, current: dict,
                    metrics: dict[str, str],
                    threshold: float = DEFAULT_THRESHOLD,
                    ) -> list[MetricComparison]:
    """Compare one report's tracked ``metrics`` between two parsed runs.

    A metric missing from the *baseline* is skipped (new benchmarks have
    no history yet); one missing from the *current* run is itself a
    regression — the benchmark stopped reporting a guarded number.
    """
    comparisons = []
    for metric, direction in sorted(metrics.items()):
        try:
            base_value = metric_value(baseline, metric)
        except KeyError:
            comparisons.append(MetricComparison(
                file_name, metric, direction, None, None, None,
                regressed=False, note="no baseline value; skipped"))
            continue
        try:
            current_value = metric_value(current, metric)
        except KeyError as exc:
            comparisons.append(MetricComparison(
                file_name, metric, direction, base_value, None, None,
                regressed=True, note=f"missing from current run: {exc}"))
            continue
        change = _relative_change(direction, base_value, current_value)
        comparisons.append(MetricComparison(
            file_name, metric, direction, base_value, current_value,
            round(change, 4), regressed=change > threshold))
    return comparisons


def compare_dirs(baseline_dir: str | Path, current_dir: str | Path,
                 threshold: float = DEFAULT_THRESHOLD,
                 ) -> list[MetricComparison]:
    """Compare every tracked report present in ``baseline_dir`` against
    ``current_dir``.

    A tracked file absent from the baseline directory is skipped (nothing
    to regress against); a baseline file whose counterpart is missing
    from the current directory is a regression — the run stopped
    producing a guarded report.  Unparseable JSON on either side is a
    regression too (never silently passed over).
    """
    baseline_dir = Path(baseline_dir)
    current_dir = Path(current_dir)
    comparisons: list[MetricComparison] = []
    for file_name, metrics in sorted(TRACKED_METRICS.items()):
        baseline_path = baseline_dir / file_name
        if not baseline_path.exists():
            continue
        current_path = current_dir / file_name
        try:
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            comparisons.append(MetricComparison(
                file_name, "*", "-", None, None, None, regressed=True,
                note=f"baseline is not valid JSON: {exc}"))
            continue
        if not current_path.exists():
            comparisons.append(MetricComparison(
                file_name, "*", "-", None, None, None, regressed=True,
                note="report missing from current run"))
            continue
        try:
            current = json.loads(current_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            comparisons.append(MetricComparison(
                file_name, "*", "-", None, None, None, regressed=True,
                note=f"current report is not valid JSON: {exc}"))
            continue
        comparisons.extend(compare_reports(file_name, baseline, current,
                                           metrics, threshold))
    return comparisons


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


def render_comparison(comparisons: list[MetricComparison],
                      threshold: float = DEFAULT_THRESHOLD) -> str:
    """The comparison as an ASCII table plus a one-line verdict."""
    rows = []
    for comparison in comparisons:
        if comparison.change is None:
            delta = "-"
        else:
            delta = f"{comparison.change * 100:+.1f}%"
        status = "REGRESSED" if comparison.regressed else "ok"
        rows.append([comparison.file, comparison.metric,
                     comparison.direction, _fmt(comparison.baseline),
                     _fmt(comparison.current), delta, status,
                     comparison.note])
    table = ascii_table(
        ("report", "metric", "better", "baseline", "current", "worse by",
         "status", "note"),
        rows,
        title=f"Benchmark regression check (threshold "
              f"{threshold * 100:.0f}%)",
    )
    regressed = [c for c in comparisons if c.regressed]
    if not comparisons:
        verdict = "no tracked reports found in the baseline directory"
    elif regressed:
        verdict = (f"FAIL: {len(regressed)} tracked metric(s) regressed "
                   f"beyond {threshold * 100:.0f}%")
    else:
        verdict = "PASS: no tracked metric regressed"
    return f"{table}\n{verdict}"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``benchmarks/check_regression.py`` and ``repro
    bench-diff`` both land here): prints the comparison table and returns
    1 when any tracked metric regressed, 0 otherwise."""
    parser = argparse.ArgumentParser(
        description="Compare BENCH_*.json benchmark reports against "
                    "committed baselines; exit nonzero on a regression.",
    )
    parser.add_argument("baseline_dir",
                        help="directory holding the baseline BENCH_*.json "
                             "reports (e.g. benchmarks/baselines)")
    parser.add_argument("current_dir",
                        help="directory holding the run to check "
                             "(e.g. benchmarks/results)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed relative regression before failing "
                             f"(default {DEFAULT_THRESHOLD})")
    args = parser.parse_args(argv)
    comparisons = compare_dirs(args.baseline_dir, args.current_dir,
                               args.threshold)
    print(render_comparison(comparisons, args.threshold))
    return 1 if any(c.regressed for c in comparisons) else 0


if __name__ == "__main__":
    sys.exit(main())
