"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench``).

The exact-repeat tests run the benchmark twice per workload on one seed
with short phases; the op-prefix floor in ``spec.json`` keeps the
counted work identical, so every count must match exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, gen, tracing  # noqa: E402
from perfbench.designer import _delta  # noqa: E402

COUNTERS = (
    "core.completion.calls",
    "core.completion.edges",
    "core.completion.budget_trips",
    "core.completion.degrades",
    "core.compiled.hit_share",
    "core.compiled.adopted_entries",
    "core.compiled.evicted_entries",
    "core.closure.tables_built",
    "serve.tenants.evicted_entries",
    "model.delta.commands",
)


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _metrics(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_generators_repeat_per_seed_and_differ_across_seeds():
    assert gen.warm_pool(1, 200) == gen.warm_pool(1, 200)
    assert gen.warm_pool(1, 200) != gen.warm_pool(2, 200)
    assert len(set(gen.warm_pool(3, 200))) == 200
    mix = common.SPEC["workloads"]["serve-cold"]["generator"]["e_mix"]
    first = [x for _, x in zip(range(300), gen.cold_stream(1, mix))]
    assert first == [x for _, x in zip(range(300), gen.cold_stream(1, mix))]
    assert len(set(first)) == 300  # never repeated
    e3 = sum(1 for _, e in first[:270] if e == 3)
    assert e3 == 5 * round(0.15 * 54)  # exact E mix per block of 54


def test_edit_stream_is_valid_and_keeps_its_mix():
    from repro.schemas.cupid import build_cupid_schema

    g = common.SPEC["workloads"]["designer-evolve"]["generator"]
    stream = gen.EditStream(5, g["edit_block"], g["attribute_names"])
    schema = build_cupid_schema()
    previous, kinds = None, []
    for _ in range(200):
        edit = stream.next_edit()
        delta = _delta(edit, previous)
        schema.apply(delta)
        schema.validate()
        previous = delta
        kinds.append(edit[0])
    assert kinds.count("wire") / len(kinds) >= 0.15
    for query in stream.sweep_roots(g["new_class_queries"]):
        root, attribute = (part.strip() for part in query.split("~"))
        assert schema.has_relationship(root, attribute)


def test_edit_stream_sessions_start_from_the_unedited_schema():
    from repro.schemas.cupid import build_cupid_schema

    g = common.SPEC["workloads"]["designer-evolve"]["generator"]
    stream = gen.EditStream(6, g["edit_block"], g["attribute_names"])
    for _ in range(3):
        schema, previous = build_cupid_schema(), None
        for _ in range(g["session_edits"]):
            edit = stream.next_edit()
            delta = _delta(edit, previous)
            schema.apply(delta)
            schema.validate()
            previous = delta
        stream.new_session()
        assert stream.next_edit()[0] == "add_class"  # a new module first
        stream.new_session()


def _recorder(spans):
    rec = tracing.Recorder()
    for sid, name, start, end, parent in spans:
        rec.spans.append((sid, name, start, end, parent, "b0", None))
    return rec


def test_tiling_holds_for_nested_spans_and_fails_for_overlap_or_orphans():
    nested = [(1, "bench.op", 0.0, 10.0, 0), (2, "serve.app.dispatch", 1.0, 9.0, 1),
              (3, "core.parser.parse", 2.0, 3.0, 2), (4, "obs.slo", 4.0, 5.0, 2)]
    metrics = tracing.layer_metrics(_recorder(nested), "b", 1)
    assert metrics["trace.tiling_error_share"][0] < 1e-12
    assert metrics["serve.app.server_ms"][0] == pytest.approx(8000.0)
    overlap = nested + [(5, "obs.metrics", 2.5, 3.5, 2)]
    assert tracing.layer_metrics(_recorder(overlap), "b", 1)[
        "trace.tiling_error_share"][0] > tracing.TILING_TOLERANCE
    orphan = nested + [(6, "obs.metrics", 6.0, 7.0, 0)]
    assert tracing.layer_metrics(_recorder(orphan), "b", 1)[
        "trace.tiling_error_share"][0] > tracing.TILING_TOLERANCE


def test_trace_run_reports_exactly_the_declared_per_layer_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    assert set(_metrics(_run("designer-evolve", 1))) == names


@pytest.mark.parametrize("workload", ["serve-warm", "serve-cold", "designer-evolve"])
def test_counters_repeat_exactly_on_one_seed(workload):
    first, second = (_metrics(_run(workload, 1)) for _ in range(2))
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}
    first, second = (_metrics(_run(workload, 0)) for _ in range(2))
    assert first["exhaustive_share"] == second["exhaustive_share"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("serve-warm", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
