"""The ``serve-warm`` and ``serve-cold`` workloads.

Untraced runs drive ``python -m repro.serve`` in its own process.  The
traced run drives the same tier in-process (``ServingTier.run_in_thread``)
twice from a cold registry: once bare and once with every layer's entry
points wrapped, so the difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from perfbench import common, gen, tracing
from perfbench.loadgen import closed_loop

SERVER = ["--builtin", "cupid", "--port", "0"]


def _server_args(name: str, wl: dict, seed: int) -> tuple[list[str], list[str]]:
    """(server arguments, warm pool) for one workload."""
    if name == "serve-warm":
        pool = gen.warm_pool(seed, wl["generator"]["pool_size"])
        return SERVER + [f"--prewarm=cupid={x}" for x in pool], pool
    return list(SERVER), []


def _inputs(name: str, wl: dict, seed: int, pool: list[str]):
    g = wl["generator"]
    if name == "serve-warm":
        ranks = gen.zipf_indices(seed, len(pool), g["zipf_exponent"])
        return ((pool[rank], g["e"]) for rank in ranks)
    return gen.cold_stream(seed, g["e_mix"])


def _tally_prewarm(tally: common.Tally, stderr_text: str, pool: list[str]) -> None:
    """Count the pool's prewarm outcomes from the server's report."""
    match = re.search(r"prewarmed (\d+)/", stderr_text)
    warmed = int(match.group(1)) if match else 0
    for i in range(len(pool)):
        tally.add("ok" if i < warmed else "failed")


class _Server:
    """``python -m repro.serve`` as a child process."""

    def __init__(self, root: Path, args: list[str], log: Path) -> None:
        self.log = log
        started = time.perf_counter()
        with open(log, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", *args],
                cwd=root, env=common.child_env(root),
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"serving on http://([^:]+):(\d+)", line)
            if match is None:
                raise RuntimeError(
                    f"server did not start: {line!r} {log.read_text()[-2000:]}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        self.address = (match.group(1), int(match.group(2)))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _boot_inprocess(args: list[str]):
    from repro.serve.__main__ import build_parser, build_tier

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        tier = build_tier(build_parser().parse_args(args))
    tier.run_in_thread()
    return tier, err.getvalue()


class _Checker:
    """Served answers against direct ``Disambiguator.complete`` calls."""

    def __init__(self, max_nodes: int | None) -> None:
        from repro.core.compiled import CompiledSchema
        from repro.schemas.cupid import build_cupid_schema

        # Unshared, so no served request can warm the reference cache.
        self.compiled = CompiledSchema(build_cupid_schema())
        self.max_nodes = max_nodes
        self.refs: dict[tuple[str, int], str] = {}

    def reference(self, expression: str, e: int) -> str:
        key = (expression, e)
        if key not in self.refs:
            from repro.core.engine import Disambiguator
            from repro.resilience.budget import Budget

            budget = (
                Budget(max_nodes=self.max_nodes, partial_ok=True)
                if self.max_nodes is not None else None
            )
            r = Disambiguator(self.compiled, e=e).complete(expression, budget=budget)
            self.refs[key] = common.canon(
                r.paths, r.labels, r.exhausted, r.truncation_reason)
        return self.refs[key]

    def check(self, ops, tally: common.Tally) -> set[int]:
        """Indices of ops whose answer is wrong or missing."""
        bad = set()
        for op in ops:
            if op.status == 429:
                tally.add("shed")
                continue
            if op.status not in (200, 206):
                tally.add("failed")
                bad.add(op.index)
                continue
            body = json.loads(op.body)
            served = common.canon(
                body["paths"], body["labels"], body["exhausted"],
                body.get("truncation_reason"))
            if served != self.reference(op.expression, op.e):
                tally.add("failed")
                bad.add(op.index)
            else:
                tally.add("ok" if op.status == 200 else "partial")
        return bad

    def oracle(self, ops, count: int, seed: int) -> int:
        """Mismatches of a seeded subset of exhaustive E=1 answers
        against the ``pruning="none"`` Algorithm 2 oracle."""
        from repro.core.engine import Disambiguator

        exhaustive = sorted({(op.expression, op.e) for op in ops
                             if op.status == 200 and op.e == 1})
        picks = random.Random(f"oracle:{seed}").sample(
            exhaustive, min(count, len(exhaustive)))
        wrong = 0
        for expression, e in picks:
            r = Disambiguator(self.compiled, e=e, pruning="none").complete(expression)
            oracle = common.canon(r.paths, r.labels, True, None)
            served = json.loads(self.reference(expression, e))
            if oracle != common.canon(served[0], served[1], True, None):
                wrong += 1
        print(f"oracle: {len(picks)} exhaustive answers checked against "
              f"pruning=none, {wrong} mismatched")
        return wrong


def _e2e(ops, elapsed, bad, prefix, slo_ms) -> dict:
    n = len(ops)
    lat = [op.latency_ms for op in ops]
    good = [op for op in ops if op.index not in bad]
    head = ops[:prefix]
    return {
        "throughput_ops_s": (n / elapsed, "1/s"),
        "latency_p50_ms": (common.quantile(lat, 50), "ms"),
        "latency_p90_ms": (common.quantile(lat, 90), "ms"),
        "within_slo_share": (
            sum(1 for op in good if op.status == 200 and op.latency_ms <= slo_ms)
            / n, "share"),
        "exhaustive_share": (
            sum(1 for op in head if op.status == 200) / len(head), "share"),
        "correct_share": (
            sum(1 for op in good if op.status in (200, 206)) / n, "share"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        out: Path) -> dict:
    wl = common.SPEC["workloads"][name]
    g = wl["generator"]
    args, pool = _server_args(name, wl, seed)
    loop = dict(connections=g["connections"], min_ops=wl["min_ops"],
                max_nodes=g["max_nodes"])
    slo = common.SPEC["slo_latency_ms"]
    setup = common.Tally("setup")
    if not trace:
        setups = []
        for repeat in range(wl["setup_repeats"]):
            server = _Server(root, args, out / f"server-{name}-{seed}.log")
            setups.append(server.setup_s)
            _tally_prewarm(setup, server.log.read_text(), pool)
            if repeat < wl["setup_repeats"] - 1:
                server.stop()
        try:
            ops, elapsed = closed_loop(
                server.address, inputs=_inputs(name, wl, seed, pool),
                seconds=seconds, op_prefix="t", pause_gc=True, **loop)
            rss = common.vm_hwm_mb(server.proc.pid)
        finally:
            server.stop()
        timed = common.Tally("timed")
        checker = _Checker(g["max_nodes"])
        bad = checker.check(ops, timed)
        wrong = checker.oracle(ops, common.SPEC["oracle_checks"], seed)
        print(setup.line())
        print(timed.line())
        metrics = _e2e(ops, elapsed, bad, wl["min_ops"], slo)
        metrics["setup_s"] = (common.quantile(setups, 50), "s")
        metrics["peak_rss_mb"] = (rss, "MiB")
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        return dict(correct=not bad and not wrong, attempted=len(ops),
                    failed=len(bad), metrics=metrics)

    # Phase A: bare in-process tier.
    tier, _ = _boot_inprocess(args)
    try:
        bare, _ = closed_loop(tier.address, inputs=_inputs(name, wl, seed, pool),
                              seconds=seconds / 2, op_prefix="a", **loop)
    finally:
        tier.stop()
    common.cold_registries()
    # Phase B: the same from a cold registry, every layer wrapped.
    rec = tracing.Recorder()
    roots: dict[str, tuple[int, int]] = {}

    def on_send(op_id: str) -> None:
        roots[op_id] = rec.begin(op_id)

    def on_done(op_id: str, sent: float, done: float) -> None:
        sid, parent = roots.pop(op_id)
        rec.end(op_id, sid, parent, "bench.op", sent, done)

    with tracing.patched(rec):
        tier, err = _boot_inprocess(args)
        rec.default_op = "-"
        try:
            traced, _ = closed_loop(
                tier.address, inputs=_inputs(name, wl, seed, pool),
                seconds=seconds / 2, op_prefix="b", on_send=on_send,
                on_done=on_done, **loop)
            cache_bytes = tier.tenants.tenants()[0].compiled.cache.estimated_bytes()
        finally:
            tier.stop()
    _tally_prewarm(setup, err, pool)
    phase_a, phase_b = common.Tally("untraced"), common.Tally("traced")
    checker = _Checker(g["max_nodes"])
    bad = checker.check(bare, phase_a) | checker.check(traced, phase_b)
    wrong = checker.oracle(traced, common.SPEC["oracle_checks"], seed)
    for tally in (setup, phase_a, phase_b):
        print(tally.line())
    metrics = tracing.layer_metrics(rec, "b", wl["min_ops"])
    metrics["serve.app.shed"] = (
        float(sum(1 for op in traced if op.status == 429)), "count")
    metrics["core.compiled.cache_bytes"] = (float(cache_bytes), "bytes")
    p50_a = common.quantile([op.latency_ms for op in bare], 50)
    p50_b = common.quantile([op.latency_ms for op in traced], 50)
    metrics["trace.overhead_p50_ms"] = (p50_b - p50_a, "ms")
    metrics["trace.overhead_share"] = (p50_b / p50_a - 1.0, "share")
    rec.write_jsonl(out / f"spans-{name}-{seed}.jsonl")
    tiling_ok = metrics["trace.tiling_error_share"][0] <= tracing.TILING_TOLERANCE
    print(f"tiling: worst op error {metrics['trace.tiling_error_share'][0]:.2e} "
          f"(tolerance {tracing.TILING_TOLERANCE})")
    return dict(correct=not bad and not wrong and tiling_ok,
                attempted=len(traced), failed=len(bad), metrics=metrics)
