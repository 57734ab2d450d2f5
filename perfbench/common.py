"""Shared helpers: environment, statistics, process memory, tallies."""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

#: Environment knobs that select program behaviour; cleared so every
#: run measures the shipped defaults.
KNOBS = ("REPRO_PRUNING", "REPRO_KERNEL", "REPRO_EXECUTOR", "REPRO_DELTA")

SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text())


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env


def resolved_knobs() -> dict[str, str]:
    from repro.core.closure import resolve_pruning
    from repro.core.compiled import resolve_delta_mode
    from repro.core.kernel import resolve_kernel
    from repro.core.procpool import resolve_executor

    return {
        "REPRO_PRUNING": resolve_pruning(None),
        "REPRO_KERNEL": resolve_kernel(None),
        "REPRO_EXECUTOR": resolve_executor(None),
        "REPRO_DELTA": resolve_delta_mode(None),
    }


def cold_registries() -> None:
    """Drop the process-wide compiled-artifact and closure caches."""
    from repro.core.closure import SchemaClosure
    from repro.core.compiled import invalidate

    invalidate()
    SchemaClosure.clear_cache()


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


class Tally:
    """Ops sent, succeeded, partial, shed and failed in one phase."""

    def __init__(self, phase: str) -> None:
        self.phase = phase
        self.sent = self.ok = self.partial = self.shed = self.failed = 0

    def add(self, status: str) -> None:
        self.sent += 1
        setattr(self, status, getattr(self, status) + 1)

    def line(self) -> str:
        return (
            f"phase={self.phase} sent={self.sent} ok={self.ok} "
            f"partial={self.partial} shed={self.shed} failed={self.failed}"
        )


def canon(paths, labels, exhausted, truncation_reason) -> str:
    """The byte-compared form of one answer."""
    return json.dumps(
        [[str(p) for p in paths], [str(l) for l in labels], exhausted,
         truncation_reason]
    )


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
