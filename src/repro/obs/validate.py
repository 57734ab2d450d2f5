"""Validate exported observability artifacts against the checked-in
schemas.

Usage::

    python -m repro.obs.validate FILE [FILE ...]

``*.jsonl`` files hold JSON-lines records whose kind is sniffed from
the first record — access logs (``request_id``/``route`` keys), trace
logs (``type`` key), slow-query logs (``retained``/``elapsed_ms``
keys), search audit logs (``kind``/``seq`` keys), or benchmark-history
rows (``run``/``value`` keys).  ``*.json`` documents are SLO status
payloads when they carry ``objectives``/``state`` keys, kernel bench
reports when they carry a ``batch`` key, metrics summaries
otherwise.  Exit status 0 when every file conforms, 1
otherwise — CI runs this over the quick-bench exports so a format
drift fails the build until the schema files are updated deliberately.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.schema import (
    SchemaValidationError,
    validate_access_records,
    validate_audit_records,
    validate_bench_records,
    validate_kernel_bench,
    validate_metrics_summary,
    validate_slo_status,
    validate_slowlog_entries,
    validate_trace_events,
)

__all__ = ["main"]


def _jsonl_kind(records: list) -> str:
    """Sniff which JSON-lines format a record list is."""
    first = records[0] if records else {}
    if isinstance(first, dict):
        if "request_id" in first and "route" in first:
            return "access log"
        if "retained" in first and "elapsed_ms" in first:
            return "slow-query log"
        if "kind" in first and "seq" in first:
            return "search audit log"
        if "run" in first and "value" in first:
            return "benchmark history"
    return "trace log"


_JSONL_VALIDATORS = {
    "access log": validate_access_records,
    "slow-query log": validate_slowlog_entries,
    "search audit log": validate_audit_records,
    "benchmark history": validate_bench_records,
    "trace log": validate_trace_events,
}


def _validate_file(path: str) -> tuple[str, list[str]]:
    """(detected kind, problems found) for one file (empty = valid)."""
    kind = "metrics summary"
    try:
        with open(path, encoding="utf-8") as handle:
            if path.endswith(".jsonl"):
                records = [
                    json.loads(line)
                    for line in handle
                    if line.strip()
                ]
                kind = _jsonl_kind(records)
                _JSONL_VALIDATORS[kind](records)
            else:
                document = json.load(handle)
                if isinstance(document, dict) and (
                    "objectives" in document and "state" in document
                ):
                    kind = "slo status"
                    validate_slo_status(document)
                elif isinstance(document, dict) and "batch" in document:
                    kind = "kernel bench report"
                    validate_kernel_bench(document)
                else:
                    validate_metrics_summary(document)
    except FileNotFoundError:
        return kind, [f"{path}: file not found"]
    except json.JSONDecodeError as error:
        return kind, [f"{path}: not valid JSON ({error})"]
    except SchemaValidationError as error:
        return kind, [f"{path}: {problem}" for problem in error.problems]
    return kind, []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help="metrics summary (.json) or trace log (.jsonl) to validate",
    )
    args = parser.parse_args(argv)
    failed = False
    for path in args.files:
        kind, problems = _validate_file(path)
        if problems:
            failed = True
            for problem in problems:
                print(problem, file=sys.stderr)
        else:
            print(f"{path}: valid {kind}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
