"""The ``designer-evolve`` workload.

The edit stream runs in a child process (``python -m
perfbench.designer``) so every run starts with cold registries.  One op
is one edit applied through ``Disambiguator.evolved`` plus a
revalidation sweep at the workload's E.  The parent times set-up from
spawn to the child's ``ready`` line, repeated in fresh children.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import select
import subprocess
import sys
import time
from pathlib import Path

from perfbench import common, gen, tracing

WORKLOAD = "designer-evolve"


def _delta(edit: tuple, previous):
    from repro.model.delta import (
        AddClass, AddRelationship, RemoveRelationship, SchemaDelta,
        relationship_pair,
    )
    from repro.model.kinds import RelationshipKind
    from repro.model.relationships import Relationship

    kind, *args = edit
    if kind == "add_class":
        return SchemaDelta.of(AddClass(args[0]))
    if kind in ("add_attr", "remove_attr"):
        owner, name, primitive = args
        rel = Relationship(owner, primitive, RelationshipKind.IS_ASSOCIATED_WITH,
                           name=name)
        command = AddRelationship if kind == "add_attr" else RemoveRelationship
        return SchemaDelta.of(command(rel))
    if kind in ("add_part", "wire"):
        source, target, name = args
        relation = (RelationshipKind.HAS_PART if kind == "add_part"
                    else RelationshipKind.IS_ASSOCIATED_WITH)
        return relationship_pair(source, target, relation, name=name,
                                 inverse_name=f"{name}_of")
    if kind == "remove_part":
        whole, part, name = args
        rel = Relationship(whole, part, RelationshipKind.HAS_PART, name=name)
        return SchemaDelta.of(RemoveRelationship(rel),
                              RemoveRelationship(rel.make_inverse(f"{name}_of")))
    return previous.invert()


def _setup(e: int):
    from repro.core.compiled import compile_schema
    from repro.core.engine import Disambiguator
    from repro.schemas.cupid import build_cupid_schema

    engine = Disambiguator(compile_schema(build_cupid_schema()), e=e)
    answered = sum(1 for q in gen.section5_queries() if engine.complete(q).paths)
    return engine, answered


def _phase(engine, seed: int, seconds: float, rec: tracing.Recorder | None,
           prefix: str):
    """Run the edit stream; returns (engine, ops, last sweep answers, seconds).

    Every ``session_edits`` ops the session ends: the stream and the
    engine return to the unedited schema, and the registries drop the
    session's evolved artifacts (the base engine keeps its own).
    """
    from repro.errors import ReproError

    wl = common.SPEC["workloads"][WORKLOAD]
    g = wl["generator"]
    stream = gen.EditStream(seed, g["edit_block"], g["attribute_names"])
    section5 = gen.section5_queries()
    ops, answers, previous = [], [], None
    base = engine
    slo = common.SPEC["slo_latency_ms"]
    began = time.perf_counter()
    deadline = began + seconds
    while time.perf_counter() < deadline or len(ops) < wl["min_ops"]:
        if ops and len(ops) % g["session_edits"] == 0:
            stream.new_session()
            common.cold_registries()
            engine, previous = base, None
        edit = stream.next_edit()
        sweep = section5 + stream.sweep_roots(g["new_class_queries"])
        op_id = f"{prefix}{len(ops)}"
        token = tracing.OP.set(op_id)
        started = time.perf_counter()
        try:
            with rec.span("bench.op", op_id) if rec else contextlib.nullcontext():
                delta = _delta(edit, previous)
                engine = engine.evolved(delta)
                answers = [(q, engine.complete(q)) for q in sweep]
            previous, ok = delta, True
        except ReproError as error:
            print(f"op {op_id} {edit} failed: {error!r}", file=sys.stderr)
            ok = False
        finally:
            tracing.OP.reset(token)
        latency = (time.perf_counter() - started) * 1000.0
        exhaustive = ok and all(r.exhausted for _, r in answers)
        ops.append({"ms": latency, "ok": ok, "exhaustive": exhaustive,
                    "slo": ok and exhaustive and latency <= slo, "kind": edit[0]})
    return engine, ops, answers, time.perf_counter() - began


def _check(engine, answers, seed: int) -> tuple[int, int]:
    """(mismatches, answers checked): a seeded subset of the last sweep
    against a cold artifact compiled on the final schema, two of them
    also against the ``pruning="none"`` oracle."""
    from repro.core.compiled import CompiledSchema
    from repro.core.engine import Disambiguator

    rng = random.Random(f"designer-check:{seed}")
    picks = rng.sample(answers, min(6, len(answers)))
    cold = CompiledSchema(engine.schema.copy())
    wrong = 0
    for i, (query, served) in enumerate(picks):
        engines = [Disambiguator(cold, e=engine.e)]
        if i < 2:
            engines.append(Disambiguator(cold, e=engine.e, pruning="none"))
        for ref_engine in engines:
            ref = ref_engine.complete(query)
            if common.canon(ref.paths, ref.labels, ref.exhausted,
                            ref.truncation_reason) != common.canon(
                    served.paths, served.labels, served.exhausted,
                    served.truncation_reason):
                wrong += 1
    return wrong, len(picks)


def child(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    wl = common.SPEC["workloads"][WORKLOAD]
    e = wl["generator"]["e"]
    engine, answered = _setup(e)
    print(f"ready {answered}", flush=True)
    if args.setup_only:
        return 0
    result: dict = {}
    if not args.trace:
        engine, ops, answers, elapsed = _phase(
            engine, args.seed, args.seconds, None, "t")
    else:
        _, bare, _, _ = _phase(engine, args.seed, args.seconds / 2, None, "a")
        common.cold_registries()
        rec = tracing.Recorder()
        with tracing.patched(rec):
            engine, _ = _setup(e)
            rec.default_op = "-"
            engine, ops, answers, elapsed = _phase(
                engine, args.seed, args.seconds / 2, rec, "b")
        result["bare"] = bare
        result["layers"] = tracing.layer_metrics(rec, "b", wl["min_ops"])
        if args.spans:
            rec.write_jsonl(args.spans)
    wrong, checked = _check(engine, answers, args.seed)
    result.update(ops=ops, elapsed=elapsed, wrong=wrong, checked=checked,
                  rss_mb=common.vm_hwm_mb(),
                  cache_bytes=engine.compiled.cache.estimated_bytes())
    print(json.dumps(result), flush=True)
    return 0


def _spawn(root: Path, extra: list[str]) -> tuple[subprocess.Popen, float, int]:
    """Start a child; returns (process, seconds to ready, queries answered)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.designer", *extra],
        cwd=root, env=common.child_env(root), stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], 120)
    line = proc.stdout.readline() if ready else ""
    if not line.startswith("ready"):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"designer child did not get ready: {line!r}")
    return proc, time.perf_counter() - started, int(line.split()[1])


def _finish(proc: subprocess.Popen) -> dict:
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"designer child exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        out: Path) -> dict:
    wl = common.SPEC["workloads"][WORKLOAD]
    base = ["--seed", str(seed), "--seconds", str(seconds)]
    setup = common.Tally("setup")
    queries = len(gen.section5_queries())
    setups = []
    repeats = 1 if trace else wl["setup_repeats"]
    for repeat in range(repeats):
        last = repeat == repeats - 1
        extra = base + (["--trace", "1", "--spans",
                         str(out / f"spans-{name}-{seed}.jsonl")] if trace else [])
        proc, seconds_to_ready, answered = _spawn(
            root, extra if last else base + ["--setup-only"])
        setups.append(seconds_to_ready)
        for i in range(queries):
            setup.add("ok" if i < answered else "failed")
        if not last:
            proc.communicate(timeout=60)
    result = _finish(proc)
    ops = result["ops"]
    print(setup.line())
    phases = [("untraced", result["bare"]), ("traced", ops)] if trace else [
        ("timed", ops)]
    for phase, phase_ops in phases:
        tally = common.Tally(phase)
        for op in phase_ops:
            tally.add("ok" if op["ok"] else "failed")
        print(tally.line())
    print(f"final-schema check: {result['checked']} sweep answers against a "
          f"cold compile, {result['wrong']} mismatched")
    failed = sum(1 for op in ops if not op["ok"])
    correct = (failed == 0 and result["wrong"] == 0
               and all(op["ok"] for op in result.get("bare", [])))
    if trace:
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
        p50_a = common.quantile([op["ms"] for op in result["bare"]], 50)
        p50_b = common.quantile([op["ms"] for op in ops], 50)
        metrics["trace.overhead_p50_ms"] = (p50_b - p50_a, "ms")
        metrics["trace.overhead_share"] = (p50_b / p50_a - 1.0, "share")
        metrics["serve.app.shed"] = (0.0, "count")
        metrics["core.compiled.cache_bytes"] = (float(result["cache_bytes"]), "bytes")
        tiling = metrics["trace.tiling_error_share"][0]
        print(f"tiling: worst op error {tiling:.2e} "
              f"(tolerance {tracing.TILING_TOLERANCE})")
        correct = correct and tiling <= tracing.TILING_TOLERANCE
        return dict(correct=correct, attempted=len(ops), failed=failed,
                    metrics=metrics)
    lat = [op["ms"] for op in ops]
    prefix = ops[: wl["min_ops"]]
    elapsed = result["elapsed"]
    metrics = {
        "setup_s": (common.quantile(setups, 50), "s"),
        "throughput_ops_s": (len(ops) / elapsed, "1/s"),
        "latency_p50_ms": (common.quantile(lat, 50), "ms"),
        "latency_p90_ms": (common.quantile(lat, 90), "ms"),
        "within_slo_share": (sum(op["slo"] for op in ops) / len(ops), "share"),
        "exhaustive_share": (
            sum(op["exhaustive"] for op in prefix) / len(prefix), "share"),
        "correct_share": ((len(ops) - failed) / len(ops), "share"),
        "peak_rss_mb": (result["rss_mb"], "MiB"),
    }
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    return dict(correct=correct, attempted=len(ops), failed=failed,
                metrics=metrics)


if __name__ == "__main__":
    raise SystemExit(child(sys.argv[1:]))
