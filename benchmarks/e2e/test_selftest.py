"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Outside tier-1 ``testpaths`` on purpose: the last class runs the real
``run.py --smoke`` (≈20 s, spawns cluster processes).
"""

from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
from harness import BENCHMARK, END_TO_END, PER_LAYER  # noqa: E402
from layers import Recorder, self_times  # noqa: E402
from measure import Sample, percentile, spread, window_metrics  # noqa: E402
from oracle import Oracle  # noqa: E402
from pacer import NOMINAL_MS, SENSITIVITY, kernel, pace_ms, slowdown  # noqa: E402
from workloads import SMOKE_PATIENTS, WORKLOADS, schedule_digest, trace_ops  # noqa: E402

import dataclasses  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


class TestBenchmarkJson:
    def test_shape_matches_the_contract(self):
        assert set(BENCHMARK) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer",
        }
        assert BENCHMARK["paths"] == ["benchmarks/e2e"]
        assert BENCHMARK["command"][-1].startswith(BENCHMARK["paths"][0])
        assert isinstance(BENCHMARK["run_seconds"], int)
        assert 1 <= BENCHMARK["run_seconds"] <= 60
        assert 2 <= len(BENCHMARK["workloads"]) <= 8
        assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128

    def test_names_units_and_bounds(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        names += list(END_TO_END) + list(PER_LAYER)
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        for entry in BENCHMARK["end_to_end"]:
            assert set(entry) == {"name", "unit", "better", "bound"}
            assert 0 < entry["bound"] <= 0.25
        for entry in BENCHMARK["per_layer"]:
            assert set(entry) == {"name", "unit", "better"}
        for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
        assert END_TO_END["setup_s"]["unit"] == "s"
        assert END_TO_END["setup_s"]["bound"] == max(
            e["bound"] for e in BENCHMARK["end_to_end"]
        )

    def test_workloads_are_the_ones_the_code_runs(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
        assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


class TestMeasure:
    def test_percentile_against_known_values(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0
        assert percentile(values, 0.5) == 50.5
        assert percentile(values, 0.95) == pytest.approx(95.05)
        assert percentile([7.0], 0.95) == 7.0
        assert percentile([3.0, 1.0], 0.5) == 2.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_window_metrics_over_all_measured_ops(self):
        # 100 ops in 10 calibrated seconds (12.5 on the wall clock: the
        # machine ran at 0.8 of its nominal pace); a fifth are 10× slower.
        samples = [
            Sample("ask", "ask.x", 100.0 if t >= 80 else 10.0,
                   125.0 if t >= 80 else 12.5, True)
            for t in range(100)
        ]
        metrics, info = window_metrics(samples, 10.0, 12.5)
        assert metrics["throughput_ops_s"].value == 10.0
        assert info["raw.throughput_ops_s"].value == 8.0
        assert metrics["ask_p50_ms"].value == 10.0
        assert info["raw.ask_p50_ms"].value == 12.5
        assert metrics["ask_p95_ms"].value == 100.0
        assert metrics["ask_p50_ms"].samples == 100
        assert "dml_p50_ms" not in metrics  # not applicable ⇒ omitted
        assert info["ask.x.p50_ms"].value == 10.0

    def test_failed_and_lead_in_ops_contribute_no_latency(self):
        samples = [
            Sample("ask", "ask.x", 5.0, 5.0, True),
            Sample("ask", "ask.x", 999.0, 999.0, False),  # failed
            Sample("ask", "ask.x", 999.0, 999.0, True, measured=False),
        ]
        metrics, _info = window_metrics(samples, 10.0, 10.0)
        assert metrics["ask_p50_ms"].value == 5.0
        assert metrics["ask_p50_ms"].samples == 1
        assert metrics["throughput_ops_s"].value == 0.1

    def test_spread_is_iqr_over_median(self):
        assert spread([10.0] * 10) == 0.0
        assert spread([1.0]) == 0.0
        assert spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(0.15)  # q1 9.25, q3 10.75


class TestPacer:
    def test_kernel_is_fixed_work(self):
        assert kernel() == kernel() == 448

    def test_pace_sample_and_slowdown(self):
        pace = pace_ms(0.02)
        assert 0.05 < pace < 50.0  # a plausible machine, not a unit slip
        assert slowdown(NOMINAL_MS, NOMINAL_MS) == 1.0
        assert slowdown(NOMINAL_MS, 3 * NOMINAL_MS) == pytest.approx(2.0 ** SENSITIVITY)


class TestSpans:
    def test_self_time_is_duration_minus_direct_children(self):
        spans = [
            ["op", 0, 100, -1, 0],
            ["sql.parse", 10, 30, 0, 0],
            ["server.mvcc.commit", 40, 90, 0, 0],
            ["storage.mutation", 45, 60, 2, 0],
            ["storage.durability.wal_append", 60, 80, 2, 0],
        ]
        assert self_times(spans) == [30, 20, 15, 15, 20]
        assert sum(self_times(spans)) == 100  # conservation

    def test_recorder_nests_and_accepts_explicit_spans(self):
        recorder = Recorder()
        recorder.op_id = 7
        with recorder.span("op") as root:
            with recorder.span("inner"):
                pass
            added = recorder.add("hooked", 1, 2)
            recorder.add("child-of-hooked", 1, 2, added)
        names = [span[0] for span in recorder.spans]
        parents = [span[3] for span in recorder.spans]
        assert names == ["op", "inner", "hooked", "child-of-hooked"]
        assert parents == [-1, root.index, root.index, added]
        assert all(span[4] == 7 for span in recorder.spans)
        assert all(span[2] >= span[1] for span in recorder.spans)


class TestSeedDiscipline:
    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_same_seed_same_schedule(self, name):
        workload = WORKLOADS[name]
        assert schedule_digest(workload, 1) == schedule_digest(workload, 1)
        assert schedule_digest(workload, 1) != schedule_digest(workload, 2)

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_same_seed_same_oracle(self, name):
        workload = dataclasses.replace(WORKLOADS[name], patients=SMOKE_PATIENTS)
        ops = trace_ops(workload, 5, 12)
        first, second = Oracle(workload), Oracle(workload)
        assert [first.expect(op) for op in ops] == [second.expect(op) for op in ops]

    def test_a_write_iteration_leaves_no_row_behind(self):
        workload = WORKLOADS["write-dml-10k"]
        ops = list(itertools.islice(workload.stream(1), 40))
        keys = [re.search(r"W-\d+", op.sql).group() for op in ops]
        assert [op.label for op in ops[:4]] == [
            "dml.insert", "dml.update", "ask.read-own-write", "dml.delete"]
        assert [op.closes for op in ops[:4]] == [False, False, False, True]
        assert all(len(set(keys[i:i + 4])) == 1 for i in range(0, 40, 4))
        assert len(set(keys)) == 10  # a fresh key per iteration

    def test_oracle_rejects_a_wrong_reply(self):
        workload = dataclasses.replace(
            WORKLOADS["point-ask-250"], patients=SMOKE_PATIENTS
        )
        oracle = Oracle(workload)
        op = next(workload.stream(1))
        good = dict(oracle.expect(op))
        good["quote"] = None
        assert oracle.compare(op, oracle.expect(op), good) is None
        bad = dict(good, released=good["released"] + 1)
        assert "released" in oracle.compare(op, oracle.expect(op), bad)
        leaky = dict(good, confidences=[workload.beta] * len(good["confidences"]))
        if leaky["confidences"]:
            assert oracle.compare(op, oracle.expect(op), leaky) is not None


class TestSmokeRun:
    @pytest.fixture(scope="class")
    def smoke(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("e2e") / "smoke.json"
        finished = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
            capture_output=True, text=True, timeout=170,
        )
        assert finished.returncode == 0, finished.stdout + finished.stderr
        lines = [
            json.loads(line)
            for line in finished.stdout.splitlines()
            if line.startswith("{")
        ]
        return lines, json.loads(out.read_text(encoding="utf-8")), out

    def test_every_run_prints_the_contract_line(self, smoke):
        lines, _document, _path = smoke
        assert len(lines) == 2 * len(WORKLOADS)  # timed + traced each
        for line in lines:
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0
            assert isinstance(line["attempted"], int) and line["attempted"] >= 1

    def test_every_metric_in_benchmark_json_is_emitted_with_its_unit(self, smoke):
        lines, _document, _path = smoke
        for timed, traced in zip(lines[0::2], lines[1::2]):
            assert set(timed["metrics"]) == set(END_TO_END)
            assert set(traced["metrics"]) == set(PER_LAYER)
            for table, spec in ((timed, END_TO_END), (traced, PER_LAYER)):
                for name, metric in table["metrics"].items():
                    assert set(metric) == {"value", "unit"}
                    assert metric["unit"] == spec[name]["unit"]
                    assert isinstance(metric["value"], (int, float))
            assert all(m["value"] > 0 for m in timed["metrics"].values())

    def test_read_only_workloads_never_commit_or_improve(self, smoke):
        lines, _document, _path = smoke
        for workload, traced in zip(WORKLOADS.values(), lines[1::2]):
            strategies = traced["metrics"]["increment.asks_with_strategy"]["value"]
            frames = traced["metrics"][
                "storage.durability.wal_frames_per_commit"]["value"]
            if workload.writes:
                assert frames == 1.0
            else:
                assert strategies == 0 and frames == 0
        improve = lines[2 * list(WORKLOADS).index("improve-ask-2.5k") + 1]
        assert improve["metrics"]["increment.asks_with_strategy"]["value"] > 0

    def test_results_file_and_compare(self, smoke):
        _lines, document, path = smoke
        assert document["schema_version"] == run.SCHEMA_VERSION
        assert set(document["workloads"]) == set(WORKLOADS)
        write_run = document["workloads"]["write-dml-10k"][0]
        assert {"dml_p50_ms", "dml_p95_ms", "wal_bytes_per_commit"} <= set(
            write_run["metrics"]
        )
        assert "dml_p50_ms" not in document["workloads"]["point-ask-250"][0]["metrics"]
        assert run.compare(str(path), str(path)) == 0  # A/A of one file
