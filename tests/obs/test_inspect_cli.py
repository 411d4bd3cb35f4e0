"""repro-inspect CLI: exit codes, formats, windows, golden content."""

import io
import json
from pathlib import Path

import pytest

from repro.cli_common import EXIT_FAILURE, EXIT_OK, EXIT_USAGE
from repro.obs.cli import main
from repro.telemetry import jsonl_dumps as timeline_dumps
from repro.trace import chrome_dumps

FIXTURES = Path(__file__).parent / "fixtures"
DUMP = str(FIXTURES / "e_write_clobber.jsonl")


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestTimeline:
    def test_text_timeline(self):
        code, text = run_cli("timeline", DUMP)
        assert code == EXIT_OK
        assert "events=4" in text
        assert "cache.install" in text and "verify.violation" in text

    def test_json_timeline(self):
        code, text = run_cli("timeline", DUMP, "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["counts"]["events"] == 4
        assert [row["type"] for row in payload["rows"]][0] == "cache.install"

    def test_html_timeline(self):
        code, text = run_cli("timeline", DUMP, "--format", "html")
        assert code == EXIT_OK
        assert text.startswith("<!DOCTYPE html>")

    def test_window_filters_events(self):
        code, text = run_cli("timeline", DUMP,
                             "--since", "1.4", "--until", "3.6")
        assert code == EXIT_OK
        assert "events=2" in text

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "tl.txt"
        code, text = run_cli("timeline", DUMP, "--out", str(target))
        assert code == EXIT_OK and text == ""
        assert "cache.install" in target.read_text()

    def test_missing_dump_is_usage_error(self, tmp_path, capsys):
        code, text = run_cli("timeline", str(tmp_path / "nope.jsonl"))
        assert code == EXIT_USAGE and text == ""
        assert "no such file" in capsys.readouterr().err

    def test_usage_error_goes_to_stderr_not_out(self, tmp_path, capsys):
        report = tmp_path / "rep.txt"
        code, text = run_cli("timeline", str(tmp_path / "nope.jsonl"),
                             "--out", str(report))
        assert code == EXIT_USAGE and text == ""
        assert report.read_text() == ""
        assert "no such file" in capsys.readouterr().err

    def test_malformed_dump_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code, text = run_cli("timeline", str(bad))
        assert code == EXIT_USAGE and text == ""
        assert "is not JSON" in capsys.readouterr().err

    def test_malformed_record_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        lines = Path(DUMP).read_text().splitlines()
        lines[2] = json.dumps({"seq": 3, "type": "cache.install"})
        bad.write_text("\n".join(lines) + "\n")
        code, text = run_cli("timeline", str(bad))
        assert code == EXIT_USAGE and text == ""
        err = capsys.readouterr().err
        assert "not a valid flight-recorder dump: line 3" in err

    def test_empty_trace_file_is_accepted(self, tmp_path):
        empty = tmp_path / "trace.json"
        empty.write_text("")
        code, text = run_cli("timeline", DUMP, str(empty))
        assert code == EXIT_OK
        assert "spans=0" in text

    def test_bad_trace_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "trace.json"
        idless = '{"traceEvents": [{"ph": "X", "ts": 1000, "dur": 5}]}'
        for content, found in (
                ("{nope", "is not JSON"),
                ("[]", "is JSON but not a trace export"),
                (idless, "not a valid trace export: traceEvents[0]"),
                ('{"traceEvents": [1]}', "not an event object")):
            bad.write_text(content)
            code, text = run_cli("timeline", DUMP, str(bad))
            assert code == EXIT_USAGE and text == ""
            assert found in capsys.readouterr().err

    def test_kinds_are_detected_in_any_order(self, tmp_path):
        logs = one_log_of_each_kind(tmp_path)
        code, text = run_cli("timeline", str(logs["timeline"]),
                             str(logs["trace"]), DUMP)
        assert code == EXIT_OK
        assert "events=4 spans=1 metric_ticks=2" in text


class TestExplain:
    def test_explains_violating_keys_by_default(self):
        code, text = run_cli("explain", DUMP)
        assert code == EXIT_OK
        assert "e-write-clobber" in text
        assert "user:42" in text

    def test_explicit_key(self):
        code, text = run_cli("explain", DUMP, "--key", "user:42")
        assert code == EXIT_OK
        assert "e-write-clobber" in text

    def test_json_format(self):
        code, text = run_cli("explain", DUMP, "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(text)
        (explained,) = payload["explanations"]
        assert [f["race"] for f in explained["findings"]] == \
            ["e-write-clobber"]

    def test_no_violations_exits_failure(self, tmp_path):
        clean = tmp_path / "clean.jsonl"
        clean.write_text(json.dumps({
            "seq": 1, "t": 1.0, "type": "cache.install", "node": "n0",
            "key": "k", "trace": 0, "span": 0, "tick": 0,
            "attrs": {"version": 1}}) + "\n")
        code, text = run_cli("explain", str(clean))
        assert code == EXIT_FAILURE
        assert "no verify violations" in text

    def test_window_can_exclude_the_violation(self):
        # The violation fires at t=5.0; a window ending before it leaves
        # nothing to explain.
        code, text = run_cli("explain", DUMP, "--until", "4.0")
        assert code == EXIT_FAILURE
        assert "no verify violations" in text

    @pytest.mark.parametrize("name,race", [
        ("e_write_clobber", "e-write-clobber"),
        ("write_reply_clobber", "write-reply-clobber"),
        ("barred_install", "barred-install"),
    ])
    def test_all_three_golden_races_diagnosed(self, name, race):
        code, text = run_cli("explain", str(FIXTURES / f"{name}.jsonl"))
        assert code == EXIT_OK
        assert race in text


def one_log_of_each_kind(tmp_path) -> dict:
    """A tiny trace export and telemetry timeline beside the dump
    fixture, and a file that is not JSON."""
    trace = tmp_path / "trace.json"
    trace.write_text(chrome_dumps([{
        "trace_id": 1, "span_id": 1, "parent_id": None, "name": "read",
        "category": "op", "start_ms": 1.0, "end_ms": 2.0,
        "attrs": {"scheme": "concord"}}]))
    timeline = tmp_path / "metrics.jsonl"
    timeline.write_text(timeline_dumps([{
        "name": "cache_reads_total", "kind": "counter",
        "labels": {"node": "node0"}, "help": "",
        "points": [[1.0, 1], [2.0, 3]]}]))
    garbage = tmp_path / "notes.txt"
    garbage.write_text("not a log\n")
    return {"trace": trace, "dump": Path(DUMP), "timeline": timeline,
            "not JSON": garbage}


#: What each wrong input is called in the error message.
FOUND = {"trace": "trace export", "dump": "flight-recorder dump",
         "timeline": "telemetry timeline", "not JSON": "is not JSON"}


@pytest.mark.parametrize("command,wrong", [
    ("breakdown", "dump"), ("breakdown", "timeline"),
    ("breakdown", "not JSON"),
    ("metrics", "trace"), ("metrics", "dump"), ("metrics", "not JSON"),
    ("explain", "trace"), ("explain", "timeline"), ("explain", "not JSON"),
    # timeline reads every kind: a second dump and a non-log are wrong.
    ("timeline", "dump"), ("timeline", "not JSON"),
])
def test_a_log_of_the_wrong_kind_is_a_usage_error(tmp_path, capsys,
                                                  command, wrong):
    logs = one_log_of_each_kind(tmp_path)
    files = [DUMP] if command == "timeline" else []
    report = tmp_path / "report.txt"
    code, text = run_cli(command, *files, str(logs[wrong]),
                         "--out", str(report))
    assert code == EXIT_USAGE and text == ""
    assert report.read_text() == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and FOUND[wrong] in err
