import os

import numpy as np
import pytest

from zksplit.bench import (
    BenchError,
    BenchRecord,
    _measure_one_round,
    emit,
    format_summary,
    median_of,
    read_csv,
    run_benchmark,
    summarize,
)
from zksplit.config import SimConfig

FAST = dict(
    m=24,
    reps=3,
    client_grid=[1, 2],
    m_grid=[16, 24],
    mode_grid=["zk-mock", "blockchain", "none"],
    real_epoch_clients=[1, 2],
    real_epoch_batches=2,
    batches_per_epoch=4,
    batch_size=16,
    samples_per_client=64,
    seed=1,
)


@pytest.fixture(scope="module")
def records():
    return run_benchmark(SimConfig(**FAST))


class TestRecords:
    def test_negative_value_rejected(self):
        with pytest.raises(BenchError):
            BenchRecord("batch_time", "none", 1, 16, 0, -1.0, "s")

    def test_unit_must_match_metric(self):
        with pytest.raises(BenchError):
            BenchRecord("batch_time", "none", 1, 16, 0, 1.0, "bytes")


class TestRunBenchmark:
    def test_expected_cells_present(self, records):
        cells = {(r.metric, r.mode, r.clients, r.m) for r in records}
        for mode in ("zk-mock", "blockchain", "none"):
            for m in (16, 24):
                for c in (1, 2):
                    assert ("batch_time", mode, c, m) in cells
                    assert ("epoch_estimate", mode, c, m) in cells

    def test_proof_records_only_in_zk_modes(self, records):
        modes_with_proofs = {r.mode for r in records if r.metric == "proof_time"}
        assert modes_with_proofs == {"zk-mock"}
        assert not [r for r in records if r.metric == "proof_time" and r.mode == "none"]

    def test_epoch_estimate_is_batch_times_count(self, records):
        batches = {(r.mode, r.clients, r.m, r.rep): r.value
                   for r in records if r.metric == "batch_time"}
        for r in records:
            if r.metric == "epoch_estimate":
                base = batches[(r.mode, r.clients, r.m, r.rep)]
                assert r.value == pytest.approx(base * FAST["batches_per_epoch"])

    def test_rep_counts(self, records):
        from zksplit.bench import CHEAP_MODE_INNER_REPS

        cheap = [r for r in records
                 if (r.metric, r.mode, r.clients, r.m) == ("batch_time", "none", 1, 16)]
        assert len(cheap) == FAST["reps"] * CHEAP_MODE_INNER_REPS
        assert sorted(r.rep for r in cheap) == list(range(len(cheap)))
        zk = [r for r in records
              if (r.metric, r.mode, r.clients, r.m) == ("batch_time", "zk-mock", 1, 16)]
        assert len(zk) == FAST["reps"]

    def test_real_epoch_cells(self, records):
        cells = {(r.mode, r.clients) for r in records if r.metric == "real_epoch"}
        assert ("zk-mock", 1) in cells and ("zk-mock", 2) in cells
        assert ("blockchain", 1) in cells

    def test_values_positive_and_ordered_output(self, records):
        assert all(r.value >= 0 for r in records)
        keys = [(r.metric, r.mode, r.clients, r.m, r.rep) for r in records]
        assert keys == sorted(keys)

    @pytest.mark.skipif((os.cpu_count() or 1) < 8,
                        reason="parallel speedup needs >= 8 hardware threads")
    def test_real_epoch_parallel_not_slower(self, records):
        r1 = median_of(records, "real_epoch", "zk-mock", 1, FAST["m"])
        rn = median_of(records, "real_epoch", "zk-mock", 2, FAST["m"])
        assert rn <= r1


class TestSummarize:
    def test_single_record_cell(self):
        recs = [BenchRecord("batch_time", "none", 1, 8, 0, 0.5, "s")]
        stats = summarize(recs)
        cell = stats[("batch_time", "none", 1, 8)]
        assert cell["median"] == cell["p10"] == cell["p90"] == 0.5

    def test_constant_cell(self):
        recs = [BenchRecord("batch_time", "none", 1, 8, i, 2.0, "s") for i in range(5)]
        cell = summarize(recs)[("batch_time", "none", 1, 8)]
        assert cell["median"] == cell["p10"] == cell["p90"] == 2.0

    def test_outlier_resistant_median(self):
        vals = [1.0, 2.0, 3.0, 4.0, 100.0]
        recs = [BenchRecord("batch_time", "none", 1, 8, i, v, "s")
                for i, v in enumerate(vals)]
        assert summarize(recs)[("batch_time", "none", 1, 8)]["median"] == 3.0

    def test_empty_cells_absent_not_zero(self):
        stats = summarize([])
        assert stats == {}

    def test_format_summary_lines(self):
        recs = [BenchRecord("batch_time", "none", 1, 8, 0, 0.25, "s")]
        text = format_summary(summarize(recs))
        assert "batch_time" in text and "0.25" in text


class TestEmit:
    def test_csv_round_trip(self, records, tmp_path):
        emit(records, str(tmp_path))
        back = read_csv(str(tmp_path / "bench.csv"))
        assert back == records

    def test_header_and_order(self, records, tmp_path):
        emit(records, str(tmp_path))
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0] == "metric,mode,clients,m,rep,value,unit"

    def test_json_mirror_and_metadata(self, records, tmp_path):
        import json

        cfg = SimConfig(**FAST)
        paths = emit(records, str(tmp_path), cfg)
        mirror = json.loads((tmp_path / "bench.json").read_text())
        assert len(mirror) == len(records)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["config"]["m"] == FAST["m"]
        assert "cpus" in meta["host"]
        assert meta["host"]["numpy"] == np.__version__
        assert set(meta["host"]["threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}

    def test_metadata_records_thread_env(self, records, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        emit(records, str(tmp_path), SimConfig(**FAST))
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["host"]["threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}

    def test_non_timing_columns_reproducible(self, tmp_path):
        cfg = SimConfig(**{**FAST, "m_grid": [16], "client_grid": [1], "reps": 2})
        a = run_benchmark(cfg, include_real_epoch=False)
        b = run_benchmark(cfg, include_real_epoch=False)
        key = lambda rs: [(r.metric, r.mode, r.clients, r.m, r.rep, r.unit) for r in rs]
        assert key(a) == key(b)
        # proof sizes are part of the payload, not timing: identical runs agree
        pa = [r.value for r in a if r.metric == "proof_size"]
        pb = [r.value for r in b if r.metric == "proof_size"]
        assert pa == pb

    def test_unwritable_path_errors(self, records):
        with pytest.raises(OSError):
            emit(records, "/proc/definitely/not/writable")


class _RecordingTrainer:
    """Proof records that start out of step: sizes of reused proofs are
    recorded without a fresh proof time."""

    def __init__(self):
        self.proof_times = [9.0]
        self.proof_sizes = [900, 901]
        self.verify_times = [9.0, 9.0, 9.0]

    def run_round(self, round_id):
        self.proof_times.append(0.5)
        self.proof_sizes.extend([100, 101])
        self.verify_times.extend([0.25, 0.75])


def test_one_round_reads_each_record_list_from_its_own_start():
    records = []
    _measure_one_round(_RecordingTrainer(), "zk-mock", 1, 8, 0, 0, 4, records)
    got = {}
    for r in records:
        got.setdefault(r.metric, []).append(r.value)
    assert got["proof_time"] == [0.5]
    assert got["proof_size"] == [100.0, 101.0]
    assert got["verify_time"] == [0.25, 0.75]
