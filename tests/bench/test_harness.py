"""Unit tests for the benchmark harness (``repro.bench``)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    TABLE_SCHEMA,
    BenchResult,
    bench,
    load_results,
    repo_root,
    validate_results,
    write_results,
    write_table,
)


class TestBench:
    def test_runs_warmup_and_repeats(self):
        calls = []
        result = bench(
            lambda: calls.append(1), name="t", ops=10, warmup=2, repeats=3
        )
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert result.name == "t"
        assert result.ops == 10
        assert result.repeats == 3
        assert result.seconds <= result.mean_seconds
        assert result.ops_per_sec > 0

    def test_rejects_bad_arguments(self):
        fn = lambda: None  # noqa: E731
        with pytest.raises(ValueError):
            bench(fn, name="t", ops=0)
        with pytest.raises(ValueError):
            bench(fn, name="t", ops=1, repeats=0)
        with pytest.raises(ValueError):
            bench(fn, name="t", ops=1, warmup=-1)

    def test_metadata_is_copied(self):
        meta = {"case": "x"}
        result = bench(lambda: None, name="t", ops=1, metadata=meta)
        meta["case"] = "mutated"
        assert result.metadata == {"case": "x"}


class TestPersistence:
    def make_result(self, name="case/scalar"):
        return BenchResult(
            name=name, ops=1000, seconds=0.5, mean_seconds=0.6, repeats=3
        )

    def test_write_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        write_results(path, [self.make_result()], extra={"note": "hi"})
        payload = load_results(path)
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["extra"] == {"note": "hi"}
        row = payload["results"][0]
        assert row["ops_per_sec"] == pytest.approx(2000.0)
        assert validate_results(payload) == []
        assert validate_results(path) == []

    def test_validate_flags_problems(self, tmp_path):
        assert validate_results({"schema": "wrong", "results": []})
        bad_row = {"name": "", "ops": -1, "repeats": 1, "seconds": 0.1,
                   "mean_seconds": 0.1, "ops_per_sec": 1.0}
        problems = validate_results({"schema": BENCH_SCHEMA, "results": [bad_row]})
        assert any("name" in p for p in problems)
        assert any("ops" in p for p in problems)
        missing = tmp_path / "nope.json"
        assert validate_results(missing)
        garbled = tmp_path / "bad.json"
        garbled.write_text("{not json")
        assert validate_results(garbled)

    def test_write_table(self, tmp_path):
        path = tmp_path / "fig5.json"
        rows = [{"tau": 1.0, "mpps": 1.5}]
        write_table(path, rows, extra={"scale": 1.0})
        payload = json.loads(path.read_text())
        assert payload["schema"] == TABLE_SCHEMA
        assert payload["rows"] == rows

    def test_repo_root_finds_pyproject(self):
        root = repo_root()
        assert (root / "pyproject.toml").exists()


class TestMicroUpdatesBench:
    """End-to-end smoke of the standalone bench script + schema check."""

    def test_smoke_run_writes_valid_json(self, tmp_path):
        import importlib.util
        from pathlib import Path

        script = (
            Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "bench_micro_updates.py"
        )
        spec = importlib.util.spec_from_file_location("bench_micro", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        out = tmp_path / "BENCH_micro_updates.json"
        status = module.main(["--smoke", "--out", str(out)])
        assert status == 0
        assert validate_results(out) == []
        payload = load_results(out)
        names = {row["name"] for row in payload["results"]}
        assert "memento_tau0.1/scalar" in names
        assert "memento_tau0.1/batch" in names
        assert "space_saving/batch" in names
        assert {"hhh_output/scan", "hhh_output/reference"} <= names
        (controller,) = (
            row
            for row in payload["results"]
            if row["name"] == "hmemento_controller/receive_many"
        )
        assert controller["metadata"]["ns_per_sample"] > 0
        assert all(
            len(collections) == 3
            for collections in controller["metadata"]["gc_collections_per_pass"]
        )
        assert "speedups" in payload["extra"]
