"""Tests for the benchmark-history ledger and perf gate (repro.obs.perf)."""

import json

import pytest

from repro.obs.perf import (
    BenchRecord,
    append_records,
    compare,
    environment_fingerprint,
    load_history,
    main,
    new_run_id,
)
from repro.obs.schema import SchemaValidationError


def _seed(path, runs):
    """Append one record per (run_id, name, value) triple."""
    for run_id, name, value in runs:
        append_records(
            path, [BenchRecord(name=name, value=value, run=run_id)]
        )


class TestLedger:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        record = BenchRecord(
            name="bench.cold", value=1.25, extra={"e": 3, "quick": False}
        )
        assert append_records(path, [record]) == 1
        (loaded,) = load_history(path)
        assert loaded.name == "bench.cold"
        assert loaded.value == 1.25
        assert loaded.run == record.run
        assert loaded.extra == {"e": 3, "quick": False}
        assert loaded.env == environment_fingerprint()

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_rows_are_schema_validated_on_write_and_read(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        with pytest.raises(SchemaValidationError):
            append_records(path, [{"name": "x"}])  # missing keys
        path.write_text(json.dumps({"name": "x", "value": -1}) + "\n")
        with pytest.raises(SchemaValidationError):
            load_history(path)

    def test_run_ids_are_unique(self):
        assert new_run_id() != new_run_id()


class TestCompare:
    def test_injected_2x_slowdown_fails(self, tmp_path):
        # Acceptance: a 2x slowdown against a flat baseline must gate.
        path = tmp_path / "h.jsonl"
        _seed(
            path,
            [
                ("r0", "bench.cold", 1.0),
                ("r1", "bench.cold", 1.0),
                ("r2", "bench.cold", 1.0),
                ("r3", "bench.cold", 2.0),
            ],
        )
        result = compare(load_history(path))
        assert not result.ok
        (verdict,) = result.regressions
        assert verdict.name == "bench.cold"
        assert verdict.ratio == pytest.approx(2.0)

    def test_informational_series_is_reported_not_gated(self, tmp_path):
        path = tmp_path / "h.jsonl"
        for run_id, value in [("r0", 1.0), ("r1", 1.0), ("r2", 3.0)]:
            append_records(
                path,
                [
                    BenchRecord(
                        name="bench.info",
                        value=value,
                        run=run_id,
                        extra={"gate": False},
                    ),
                    BenchRecord(name="bench.cold", value=value, run=run_id),
                ],
            )
        result = compare(load_history(path))
        assert [v.name for v in result.regressions] == ["bench.cold"]
        (info,) = [v for v in result.verdicts if v.name == "bench.info"]
        assert info.ratio == pytest.approx(3.0) and not info.gated
        assert "informational" in result.render()

    def test_noisy_flat_history_passes(self, tmp_path):
        # Acceptance: +-10% noise around a flat trend must NOT gate.
        path = tmp_path / "h.jsonl"
        values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.08]
        _seed(
            path,
            [(f"r{i}", "bench.warm", v) for i, v in enumerate(values)],
        )
        result = compare(load_history(path))
        assert result.ok
        (verdict,) = result.verdicts
        assert not verdict.regressed
        assert verdict.baseline == pytest.approx(1.0)

    def test_first_run_warns_but_passes(self, tmp_path):
        path = tmp_path / "h.jsonl"
        _seed(path, [("r0", "bench.cold", 1.0)])
        result = compare(load_history(path))
        assert result.ok
        (verdict,) = result.verdicts
        assert verdict.baseline is None and verdict.prior_runs == 0
        assert "no baseline yet" in verdict.describe(0.25)

    def test_new_benchmark_in_old_history_is_not_gated(self, tmp_path):
        path = tmp_path / "h.jsonl"
        _seed(
            path,
            [
                ("r0", "bench.cold", 1.0),
                ("r1", "bench.cold", 1.0),
                ("r1", "bench.new", 9.9),
            ],
        )
        result = compare(load_history(path))
        assert result.ok
        by_name = {verdict.name: verdict for verdict in result.verdicts}
        assert by_name["bench.new"].baseline is None
        assert by_name["bench.cold"].baseline == 1.0

    def test_baseline_is_median_not_mean(self, tmp_path):
        # One catastrophic CI hiccup in history must not drag the
        # baseline up (a mean would).
        path = tmp_path / "h.jsonl"
        _seed(
            path,
            [
                ("r0", "b", 1.0),
                ("r1", "b", 1.0),
                ("r2", "b", 50.0),  # the hiccup
                ("r3", "b", 1.0),
                ("r4", "b", 1.3),
            ],
        )
        result = compare(load_history(path))
        (verdict,) = result.verdicts
        assert verdict.baseline == pytest.approx(1.0)
        assert verdict.regressed  # 1.3 vs median 1.0 exceeds 25%

    def test_different_environment_is_excluded_from_baseline(self, tmp_path):
        path = tmp_path / "h.jsonl"
        other_env = dict(environment_fingerprint(), machine="emulated-arch")
        append_records(
            path,
            [BenchRecord(name="b", value=0.1, run="r0", env=other_env)],
        )
        _seed(path, [("r1", "b", 1.0), ("r2", "b", 1.05)])
        result = compare(load_history(path))
        (verdict,) = result.verdicts
        # r0's 0.1 (other machine) is ignored; baseline is r1's 1.0.
        assert verdict.baseline == pytest.approx(1.0)
        assert not verdict.regressed

    def test_explicit_run_selection(self, tmp_path):
        path = tmp_path / "h.jsonl"
        _seed(path, [("r0", "b", 1.0), ("r1", "b", 3.0), ("r2", "b", 1.0)])
        assert not compare(load_history(path), run="r1").ok
        assert compare(load_history(path), run="r2").ok
        with pytest.raises(ValueError):
            compare(load_history(path), run="nope")

    def test_empty_history_compares_ok(self):
        assert compare([]).ok


class TestCli:
    def test_compare_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        _seed(path, [("r0", "b", 1.0), ("r1", "b", 1.0)])
        assert main(["compare", "--history", str(path)]) == 0
        assert "no regressions" in capsys.readouterr().out
        _seed(path, [("r2", "b", 2.0)])
        assert main(["compare", "--history", str(path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_missing_history_passes(self, tmp_path, capsys):
        absent = tmp_path / "absent.jsonl"
        assert main(["compare", "--history", str(absent)]) == 0
        assert "no history yet" in capsys.readouterr().out

    def test_tolerance_flag(self, tmp_path):
        path = tmp_path / "h.jsonl"
        _seed(path, [("r0", "b", 1.0), ("r1", "b", 1.2)])
        assert main(["compare", "--history", str(path)]) == 0
        assert (
            main(
                ["compare", "--history", str(path), "--tolerance", "0.1"]
            )
            == 1
        )

    def test_show_lists_runs(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        _seed(path, [("r0", "b", 1.0), ("r1", "b", 1.5)])
        assert main(["show", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run r0" in out and "run r1" in out
        assert "b: 1.5" in out
