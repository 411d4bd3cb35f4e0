"""The Fig. 1-style trace breakdown and ``repro-inspect breakdown``."""

import json

import pytest

from repro.obs.cli import main as inspect_cli
from repro.trace import chrome_dumps
from repro.trace.summary import (
    category_totals,
    format_breakdown,
    op_breakdown,
    per_app_requests,
)


def span(trace_id, span_id, category, name="s", duration=1.0, parent=None,
         **attrs):
    return {
        "trace_id": trace_id, "span_id": span_id, "parent_id": parent,
        "name": name, "category": category, "start_ms": 0.0,
        "end_ms": duration, "duration_ms": duration, "attrs": attrs,
    }


@pytest.fixture
def request_spans():
    return [
        span(1, 1, "request", "request:shop", 100.0, app="shop"),
        span(1, 2, "op", "read", 60.0, parent=1, scheme="concord"),
        span(1, 3, "compute", "compute", 20.0, parent=1),
        span(2, 4, "request", "request:shop", 200.0, app="shop"),
        span(2, 5, "op", "write", 100.0, parent=4, scheme="concord"),
        span(2, 6, "compute", "compute", 60.0, parent=4),
        span(3, 7, "request", "request:feed", 50.0, app="feed"),
        span(3, 8, "compute", "compute", 50.0, parent=7),
    ]


class TestPerAppRequests:
    def test_means_and_storage_share(self, request_spans):
        table = per_app_requests(request_spans)
        shop = table["shop"]
        assert shop["requests"] == 2
        assert shop["response_ms"] == pytest.approx(150.0)
        assert shop["storage_ms"] == pytest.approx(80.0)
        assert shop["compute_ms"] == pytest.approx(40.0)
        assert shop["storage_pct"] == pytest.approx(100.0 * 80 / 120)

    def test_pure_compute_app(self, request_spans):
        feed = per_app_requests(request_spans)["feed"]
        assert feed["storage_ms"] == 0.0
        assert feed["storage_pct"] == 0.0

    def test_no_requests_no_rows(self):
        assert per_app_requests([span(1, 1, "op", "read")]) == {}


class TestAggregations:
    def test_category_totals(self, request_spans):
        totals = category_totals(request_spans)
        assert totals["request"]["count"] == 3
        assert totals["op"]["total_ms"] == pytest.approx(160.0)
        assert totals["compute"]["mean_ms"] == pytest.approx(130.0 / 3)

    def test_op_breakdown_keyed_by_scheme_and_name(self, request_spans):
        ops = op_breakdown(request_spans)
        assert ops[("concord", "read")]["count"] == 1
        assert ops[("concord", "write")]["total_ms"] == pytest.approx(100.0)


class TestFormatBreakdown:
    def test_contains_all_tables(self, request_spans):
        text = format_breakdown(request_spans, title="t")
        assert "Per-app latency breakdown" in text
        assert "Storage operations" in text
        assert "Time by span category" in text
        assert "8 completed span(s)" in text

    def test_empty_trace(self):
        text = format_breakdown([])
        assert "0 completed span(s)" in text


def trace_cli(argv):
    return inspect_cli(["breakdown", *argv])


class TestCli:
    def test_text_output(self, tmp_path, capsys, request_spans):
        path = tmp_path / "trace.json"
        path.write_text(chrome_dumps(request_spans))
        assert trace_cli([str(path)]) == 0
        out = capsys.readouterr().out
        assert "Per-app latency breakdown" in out
        assert "shop" in out

    def test_json_output(self, tmp_path, capsys, request_spans):
        path = tmp_path / "trace.json"
        path.write_text(chrome_dumps(request_spans))
        assert trace_cli([str(path), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["per_app"]["shop"]["requests"] == 2

    def test_missing_file(self, tmp_path, capsys):
        assert trace_cli([str(tmp_path / "nope.json")]) == 2
        assert "error: no such trace file" in capsys.readouterr().err

    def test_usage_error_goes_to_stderr_not_out(self, tmp_path, capsys):
        report = tmp_path / "rep.txt"
        assert trace_cli([str(tmp_path / "nosuch.json"),
                          "--out", str(report)]) == 2
        assert report.read_text() == ""
        assert "error: no such trace file" in capsys.readouterr().err
