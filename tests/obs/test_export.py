"""Exporters: JSONL round-trip, Chrome trace golden file, summaries."""

import json
from pathlib import Path

import pytest

from repro.obs import export, trace
from repro.obs.trace import Metric, Span

GOLDEN = Path(__file__).resolve().parent / "golden_chrome_trace.json"


def synthetic_events():
    """A fixed two-rank timeline: deterministic input for the golden
    file and the summary accounting tests (timestamps hand-picked)."""
    base = 1_700_000_000.0
    spans = [
        # rank 0: one step with a compound halo exchange wrapping a
        # send + recv, recv-side blocked wait, then compute.
        Span("rollout.step", "rollout", 0, 11, base + 0.000, 1.000, {"step": 0}),
        Span("halo.exchange", "comm.compound", 0, 11, base + 0.000, 0.400, {"halo": 2}),
        Span("mpi.send", "comm", 0, 11, base + 0.000, 0.100, {"peer": 1, "tag": 7, "bytes": 512}),
        Span("mpi.recv", "comm", 0, 11, base + 0.100, 0.300, {"peer": 1, "tag": 7, "bytes": 512}),
        Span("router.wait", "comm.wait", 0, 11, base + 0.100, 0.250, None),
        Span("rollout.forward", "compute", 0, 11, base + 0.400, 0.600, None),
        # rank 1: a collective plus compute.
        Span("mpi.barrier", "comm.collective", 1, 22, base + 0.000, 0.200, None),
        Span("rollout.forward", "compute", 1, 22, base + 0.200, 0.800, None),
        # driver-side span (rank None).
        Span("scaling.sweep", "app", None, 33, base + 0.000, 2.000, None),
    ]
    metrics = [
        Metric("train.loss", 0, base + 1.000, 0.5),
        Metric("train.loss", 1, base + 1.000, 0.75),
    ]
    return spans, metrics


class TestJsonl:
    def test_round_trip_preserves_everything(self, tmp_path):
        spans, metrics = synthetic_events()
        path = export.write_jsonl(tmp_path / "t.jsonl", spans, metrics)
        loaded_spans, loaded_metrics = export.read_jsonl(path)
        assert loaded_spans == spans
        assert loaded_metrics == metrics

    def test_meta_header_first_line(self, tmp_path):
        spans, metrics = synthetic_events()
        path = export.write_jsonl(
            tmp_path / "t.jsonl", spans, metrics, meta={"workload": "rollout"}
        )
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "meta"
        assert first["format"] == "repro-trace-v1"
        assert first["spans"] == len(spans)
        assert first["workload"] == "rollout"

    def test_unknown_kinds_are_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"kind": "meta", "format": "repro-trace-v1"}\n'
            '{"kind": "future-thing", "x": 1}\n'
            '{"kind": "span", "name": "a", "cat": "app", "rank": null, '
            '"ts": 1.0, "dur": 0.5}\n'
        )
        spans, metrics = export.read_jsonl(path)
        assert [s.name for s in spans] == ["a"]
        assert metrics == []


class TestChromeTrace:
    def test_matches_golden_file(self, tmp_path):
        spans, metrics = synthetic_events()
        path = export.write_chrome_trace(tmp_path / "t.json", spans, metrics)
        assert path.read_text() == GOLDEN.read_text()

    def test_output_is_deterministic_under_input_order(self, tmp_path):
        spans, metrics = synthetic_events()
        a = export.write_chrome_trace(tmp_path / "a.json", spans, metrics)
        b = export.write_chrome_trace(
            tmp_path / "b.json", list(reversed(spans)), list(reversed(metrics))
        )
        assert a.read_text() == b.read_text()

    def test_structure_pid_rebasing_and_metadata(self, tmp_path):
        spans, metrics = synthetic_events()
        path = export.write_chrome_trace(tmp_path / "t.json", spans, metrics)
        events = json.loads(path.read_text())["traceEvents"]
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {-1: "driver", 0: "rank 0", 1: "rank 1"}
        xs = [e for e in events if e["ph"] == "X"]
        assert min(e["ts"] for e in xs) == 0.0  # rebased to the origin
        step = next(e for e in xs if e["name"] == "rollout.step")
        assert step["pid"] == 0 and step["dur"] == 1e6
        counters = [e for e in events if e["ph"] == "C"]
        assert {c["args"]["value"] for c in counters} == {0.5, 0.75}

    def test_empty_buffer_is_valid_json(self, tmp_path):
        path = export.write_chrome_trace(tmp_path / "empty.json", [], [])
        assert json.loads(path.read_text()) == {"traceEvents": []}


class TestSummary:
    def test_compute_comm_split_excludes_compound_and_wait(self):
        spans, _ = synthetic_events()
        per_rank = export.summary(spans)
        r0 = per_rank[0]
        # comm = send + recv only; halo.exchange (compound) contributes
        # nothing, router.wait goes to its own column.
        assert r0["comm_seconds"] == pytest.approx(0.4)
        assert r0["wait_seconds"] == pytest.approx(0.25)
        assert r0["total_seconds"] == pytest.approx(1.0)
        assert r0["compute_seconds"] == pytest.approx(0.6)
        assert r0["comm_fraction"] == pytest.approx(0.4)
        assert r0["comm_messages"] == 2
        assert r0["comm_bytes"] == 1024

    def test_collectives_count_as_comm_but_not_messages(self):
        spans, _ = synthetic_events()
        r1 = export.summary(spans)[1]
        assert r1["comm_seconds"] == pytest.approx(0.2)
        assert r1["comm_messages"] == 0
        assert r1["comm_bytes"] == 0

    def test_driver_row_has_no_comm(self):
        spans, _ = synthetic_events()
        driver = export.summary(spans)[None]
        assert driver["comm_seconds"] == 0.0
        assert driver["total_seconds"] == pytest.approx(2.0)

    def test_format_summary_table(self):
        spans, _ = synthetic_events()
        text = export.format_summary(spans)
        lines = text.splitlines()
        assert "compute vs. communication" in lines[0]
        # rank rows in order, driver labeled and sorted last.
        labels = [line.split()[0] for line in lines[3:]]
        assert labels == ["0", "1", "driver"]
        assert "40.0%" in text

    def test_format_summary_empty(self):
        assert "no spans" in export.format_summary([])

    def test_write_summary_keys_ranks_as_strings(self, tmp_path):
        spans, _ = synthetic_events()
        path = export.write_summary(tmp_path / "s.json", spans)
        payload = json.loads(path.read_text())
        assert set(payload) == {"0", "1", "driver"}
        assert payload["0"]["comm_fraction"] == pytest.approx(0.4)

    def test_summary_of_live_buffer(self):
        with trace.tracing():
            with trace.rank_scope(0):
                trace.record("mpi.send", "comm", trace.clock(), dur=0.1, bytes=8)
        per_rank = export.summary(trace.spans())
        assert per_rank[0]["comm_messages"] == 1


class TestPararealAccounting:
    def parareal_spans(self):
        base = 1_700_000_000.0
        return [
            Span("parareal.solve", "parareal", None, 1, base, 1.000, None),
            Span("parareal.coarse", "parareal", 0, 2, base + 0.000, 0.100, None),
            Span("parareal.fine", "parareal", 0, 2, base + 0.100, 0.600, None),
            Span("parareal.correct", "parareal", 0, 2, base + 0.700, 0.050, None),
            Span("rollout.forward", "compute", 0, 2, base + 0.750, 0.250, None),
        ]

    def test_parareal_spans_get_their_own_column(self):
        per_rank = export.summary(self.parareal_spans())
        r0 = per_rank[0]
        assert r0["parareal_seconds"] == pytest.approx(0.75)
        assert r0["parareal_coarse_seconds"] == pytest.approx(0.1)
        assert r0["parareal_fine_seconds"] == pytest.approx(0.6)
        assert r0["parareal_correct_seconds"] == pytest.approx(0.05)
        # Parareal time is no longer lumped into the compute residual.
        assert r0["compute_seconds"] == pytest.approx(0.25)

    def test_driver_solve_span_counts_toward_total_only(self):
        driver = export.summary(self.parareal_spans())[None]
        assert driver["parareal_seconds"] == pytest.approx(1.0)
        # "solve" is not one of the coarse/fine/correct phases.
        assert driver["parareal_coarse_seconds"] == 0.0
        assert driver["parareal_fine_seconds"] == 0.0
        assert driver["parareal_correct_seconds"] == 0.0

    def test_rows_without_parareal_time_keep_zero_columns(self):
        spans, _ = synthetic_events()
        r0 = export.summary(spans)[0]
        assert r0["parareal_seconds"] == 0.0

    def test_format_summary_has_parareal_breakdown_table(self):
        text = export.format_summary(self.parareal_spans())
        assert "parareal breakdown" in text
        assert "coarse" in text and "fine" in text and "correct" in text

    def test_format_summary_omits_breakdown_without_parareal_spans(self):
        spans, _ = synthetic_events()
        assert "parareal breakdown" not in export.format_summary(spans)


class TestDroppedEvents:
    def test_jsonl_header_reports_drop_count(self, tmp_path):
        spans, metrics = synthetic_events()
        path = export.write_jsonl(tmp_path / "t.jsonl", spans, metrics, dropped=7)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["dropped"] == 7

    def test_jsonl_header_omits_dropped_when_unknown(self, tmp_path):
        spans, metrics = synthetic_events()
        path = export.write_jsonl(tmp_path / "t.jsonl", spans, metrics)
        first = json.loads(path.read_text().splitlines()[0])
        assert "dropped" not in first

    def test_format_summary_warns_on_drops(self):
        spans, _ = synthetic_events()
        text = export.format_summary(spans, dropped=3)
        assert "WARNING" in text
        assert "3 event(s) dropped" in text

    def test_format_summary_warns_even_with_no_spans(self):
        text = export.format_summary([], dropped=2)
        assert "2 event(s) dropped" in text

    def test_no_warning_without_drops(self):
        spans, _ = synthetic_events()
        assert "WARNING" not in export.format_summary(spans)

    def test_replayed_log_keeps_the_truncation_warning(self, tmp_path, capsys):
        from repro.cli import main

        spans, metrics = synthetic_events()
        log = export.write_jsonl(tmp_path / "run.jsonl", spans, metrics, dropped=3)
        assert main(["trace", str(tmp_path / "out.json"), "--from", str(log)]) == 0
        printed = capsys.readouterr().out
        assert "WARNING: trace buffer truncated" in printed
        assert "3 event(s) dropped" in printed
