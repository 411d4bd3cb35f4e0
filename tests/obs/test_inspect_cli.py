"""repro-inspect CLI: exit codes, formats, windows, golden content."""

import io
import json
from pathlib import Path

import pytest

from repro.cli_common import EXIT_FAILURE, EXIT_OK, EXIT_USAGE
from repro.obs.cli import main

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
        assert "no such dump file" in capsys.readouterr().err

    def test_usage_error_goes_to_stderr_not_out(self, tmp_path, capsys):
        report = tmp_path / "rep.txt"
        code, text = run_cli("timeline", str(tmp_path / "nope.jsonl"),
                             "--out", str(report))
        assert code == EXIT_USAGE and text == ""
        assert report.read_text() == ""
        assert "no such dump file" in capsys.readouterr().err

    def test_malformed_dump_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code, text = run_cli("timeline", str(bad))
        assert code == EXIT_USAGE and text == ""
        assert "not a flight-recorder dump" in capsys.readouterr().err

    def test_empty_trace_file_is_accepted(self, tmp_path):
        empty = tmp_path / "trace.json"
        empty.write_text("")
        code, text = run_cli("timeline", DUMP, "--trace", str(empty))
        assert code == EXIT_OK
        assert "spans=0" in text

    def test_bad_trace_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "trace.json"
        for content in ("{nope", "[]"):  # unparsable; JSON but not spans
            bad.write_text(content)
            code, text = run_cli("timeline", DUMP, "--trace", str(bad))
            assert code == EXIT_USAGE and text == ""
            assert "not a repro trace export" in capsys.readouterr().err


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
