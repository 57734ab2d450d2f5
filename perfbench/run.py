"""Run one workload of the repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0

Workloads: ``serve-warm``, ``serve-cold``, ``designer-evolve`` (see
``perfbench/NOTES.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of the traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every answer matched its reference (and, traced, the spans tile).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("serve-warm", "serve-cold", "designer-evolve")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import common

    for knob in common.KNOBS:
        os.environ.pop(knob, None)
    # One CPU for the benchmark and every process it starts: a server and
    # its load generator then hand off on one CPU, which on a shared 2-core
    # host cut the run-to-run spread of warm p90 from 0.16-0.46 to 0.06-0.08.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from perfbench import designer, serving

    for knob, value in common.resolved_knobs().items():
        print(f"{knob}={value} (resolved default)")
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    module = designer if args.workload == "designer-evolve" else serving
    result = module.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), root, out)
    result["metrics"] = {
        name: common.metric(value, unit)
        for name, (value, unit) in sorted(result["metrics"].items())
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
