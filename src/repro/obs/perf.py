"""Benchmark history and continuous perf-regression gating.

One honest benchmark run proves little: machines differ, CI hosts are
noisy, and a 2x slowdown introduced on Tuesday is invisible by Friday
if nobody kept Tuesday's numbers.  This module keeps them:

* benchmarks append :class:`BenchRecord` rows — name, measured value,
  unit, a run id shared by every record of one invocation, a wall-clock
  stamp, and an environment fingerprint (Python version/implementation,
  platform, machine, CPU count) — to a ``BENCH_history.jsonl`` ledger
  via :func:`append_records`;
* ``python -m repro.obs.perf compare`` groups the ledger by run id,
  takes the *median of prior runs* as the per-benchmark baseline (the
  median absorbs one-off CI hiccups that a mean would average in), and
  fails (exit 1) when the latest run is slower than baseline by more
  than the noise tolerance (default 25%).

The first run of a fresh ledger has no baseline, so ``compare`` warns
and passes — CI can enable the gate unconditionally and it arms itself
once history exists.  Records from a *different environment fingerprint*
than the latest run are excluded from the baseline: comparing a laptop
against a CI container is noise, not signal.

Every row is validated against ``bench_record.schema.json`` on both
write and read, so the ledger cannot drift silently.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.schema import validate_bench_records

__all__ = [
    "BenchRecord",
    "CompareResult",
    "append_records",
    "compare",
    "environment_fingerprint",
    "load_history",
    "main",
    "new_run_id",
]

#: Baseline window: at most this many prior runs feed the median.
BASELINE_WINDOW = 20

#: Default slowdown tolerance (fraction above baseline that still passes).
DEFAULT_TOLERANCE = 0.25


def environment_fingerprint() -> dict:
    """The environment facts that make benchmark numbers comparable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def new_run_id() -> str:
    """A fresh run id shared by every record of one benchmark invocation."""
    return uuid.uuid4().hex[:12]


@dataclass
class BenchRecord:
    """One measured benchmark value, ready for the history ledger."""

    name: str
    value: float
    unit: str = "seconds"
    run: str = field(default_factory=new_run_id)
    recorded_unix: float = field(default_factory=time.time)
    env: dict = field(default_factory=environment_fingerprint)
    extra: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        record = {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "run": self.run,
            "recorded_unix": self.recorded_unix,
            "env": self.env,
        }
        if self.extra:
            record["extra"] = self.extra
        return record

    @classmethod
    def from_record(cls, record: dict) -> "BenchRecord":
        return cls(
            name=record["name"],
            value=record["value"],
            unit=record["unit"],
            run=record["run"],
            recorded_unix=record["recorded_unix"],
            env=record["env"],
            extra=record.get("extra", {}),
        )


def append_records(
    path: str | Path, records: list[BenchRecord | dict]
) -> int:
    """Validate and append rows to the history ledger; returns the count."""
    rows = [
        record.to_record() if isinstance(record, BenchRecord) else record
        for record in records
    ]
    validate_bench_records(rows)
    with open(path, "a", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return len(rows)


def load_history(path: str | Path) -> list[BenchRecord]:
    """Read and validate the ledger (missing file = empty history)."""
    path = Path(path)
    if not path.exists():
        return []
    rows = [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    validate_bench_records(rows)
    return [BenchRecord.from_record(row) for row in rows]


@dataclass
class BenchVerdict:
    """The comparison outcome for one benchmark name."""

    name: str
    latest: float
    baseline: float | None
    ratio: float | None
    unit: str
    regressed: bool
    prior_runs: int
    gated: bool = True

    def describe(self, tolerance: float) -> str:
        if self.baseline is None or not self.gated:
            reason = "no baseline yet" if self.gated else "informational"
            return (
                f"  ~ {self.name}: {self.latest:.6g} {self.unit} "
                f"({reason} — recorded, not gated)"
            )
        mark = "FAIL" if self.regressed else "ok"
        return (
            f"  {mark:>4} {self.name}: {self.latest:.6g} {self.unit} "
            f"vs baseline {self.baseline:.6g} "
            f"(x{self.ratio:.2f}, median of {self.prior_runs} prior run(s), "
            f"tolerance x{1 + tolerance:.2f})"
        )


@dataclass
class CompareResult:
    """Aggregate verdict for the latest run against history."""

    run: str
    verdicts: list[BenchVerdict]
    tolerance: float

    @property
    def regressions(self) -> list[BenchVerdict]:
        return [verdict for verdict in self.verdicts if verdict.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"perf compare: run {self.run} "
            f"({len(self.verdicts)} benchmark(s), "
            f"tolerance {self.tolerance:.0%})"
        ]
        lines.extend(
            verdict.describe(self.tolerance) for verdict in self.verdicts
        )
        if self.regressions:
            lines.append(
                f"REGRESSION: {len(self.regressions)} benchmark(s) exceeded "
                f"the {self.tolerance:.0%} tolerance"
            )
        else:
            lines.append("no regressions detected")
        return "\n".join(lines)


def _run_order(history: list[BenchRecord]) -> list[str]:
    """Run ids in first-appearance order (the ledger is append-only)."""
    order: list[str] = []
    seen: set[str] = set()
    for record in history:
        if record.run not in seen:
            seen.add(record.run)
            order.append(record.run)
    return order


def compare(
    history: list[BenchRecord],
    tolerance: float = DEFAULT_TOLERANCE,
    run: str | None = None,
) -> CompareResult:
    """Gate the latest run (or ``run``) against the rolling baseline.

    The baseline per benchmark name is the median of that benchmark's
    values over the last :data:`BASELINE_WINDOW` prior runs with the
    same environment fingerprint.  A benchmark with no usable baseline
    (first run, new benchmark, or environment change) is reported but
    never fails the gate, and neither is a record whose ``extra`` says
    ``"gate": false`` (an informational series, kept for its trend).
    """
    if not history:
        return CompareResult(run="(empty history)", verdicts=[], tolerance=tolerance)
    order = _run_order(history)
    latest_run = run if run is not None else order[-1]
    if latest_run not in order:
        raise ValueError(f"run {latest_run!r} not present in history")
    prior_runs = order[: order.index(latest_run)]

    by_run: dict[str, dict[str, BenchRecord]] = {}
    for record in history:
        by_run.setdefault(record.run, {})[record.name] = record

    latest = by_run[latest_run]
    verdicts: list[BenchVerdict] = []
    for name in sorted(latest):
        record = latest[name]
        samples = [
            by_run[prior][name].value
            for prior in prior_runs[-BASELINE_WINDOW:]
            if name in by_run[prior]
            and by_run[prior][name].env == record.env
        ]
        if not samples:
            verdicts.append(
                BenchVerdict(
                    name=name,
                    latest=record.value,
                    baseline=None,
                    ratio=None,
                    unit=record.unit,
                    regressed=False,
                    prior_runs=0,
                )
            )
            continue
        baseline = statistics.median(samples)
        ratio = record.value / baseline if baseline > 0 else float("inf")
        gated = record.extra.get("gate", True) is not False
        verdicts.append(
            BenchVerdict(
                name=name,
                latest=record.value,
                baseline=baseline,
                ratio=ratio,
                unit=record.unit,
                regressed=gated and baseline > 0 and ratio > 1.0 + tolerance,
                prior_runs=len(samples),
                gated=gated,
            )
        )
    return CompareResult(run=latest_run, verdicts=verdicts, tolerance=tolerance)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.perf`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.perf",
        description="benchmark-history tools (continuous perf gating)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd_compare = sub.add_parser(
        "compare", help="gate the latest run against the rolling baseline"
    )
    cmd_compare.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        metavar="FILE",
        help="history ledger (default BENCH_history.jsonl)",
    )
    cmd_compare.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="FRACTION",
        help=f"allowed slowdown fraction (default {DEFAULT_TOLERANCE})",
    )
    cmd_compare.add_argument(
        "--run",
        default=None,
        metavar="ID",
        help="run id to gate (default: last run in the ledger)",
    )

    cmd_show = sub.add_parser("show", help="print the ledger grouped by run")
    cmd_show.add_argument(
        "--history", default="BENCH_history.jsonl", metavar="FILE"
    )

    args = parser.parse_args(argv)
    history = load_history(args.history)

    if args.command == "show":
        if not history:
            print(f"{args.history}: empty history")
            return 0
        by_run: dict[str, list[BenchRecord]] = {}
        for record in history:
            by_run.setdefault(record.run, []).append(record)
        for run_id in _run_order(history):
            records = by_run[run_id]
            stamp = time.strftime(
                "%Y-%m-%d %H:%M:%S",
                time.gmtime(min(r.recorded_unix for r in records)),
            )
            print(f"run {run_id} ({stamp} UTC, {len(records)} record(s))")
            for record in sorted(records, key=lambda r: r.name):
                print(f"  {record.name}: {record.value:.6g} {record.unit}")
        return 0

    if not history:
        print(
            f"perf compare: {args.history} has no history yet — "
            "nothing to gate (pass)"
        )
        return 0
    result = compare(history, tolerance=args.tolerance, run=args.run)
    print(result.render())
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
