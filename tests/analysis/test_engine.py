"""Engine behavior: baseline suppression, CLI formats, exit codes."""

import json
from pathlib import Path

from repro.analysis import Analyzer, Baseline, all_rules
from repro.analysis.cli import main as cli_main
from repro.analysis.engine import Finding

FIXTURES = Path(__file__).parent / "fixtures"


class TestBaseline:
    def test_round_trip_suppresses(self, tmp_path):
        report = Analyzer().run([FIXTURES / "bad_determinism.py"])
        assert report.findings
        baseline_path = tmp_path / "analysis-baseline.json"
        Baseline.dump(report.findings, baseline_path)

        rerun = Analyzer(baseline=Baseline.load(baseline_path)).run(
            [FIXTURES / "bad_determinism.py"])
        assert rerun.findings == []
        assert rerun.baselined == len(report.findings)
        assert rerun.exit_code() == 0

    def test_matches_on_symbol_not_line(self):
        baseline = Baseline([{
            "rule": "DET02",
            "path": "tests/analysis/fixtures/bad_determinism.py",
            "symbol": "fanout",
        }])
        moved = Finding(
            rule="DET02", path="tests/analysis/fixtures/bad_determinism.py",
            line=999, col=4, message="m", symbol="fanout")
        assert baseline.suppresses(moved)

    def test_other_symbol_not_suppressed(self):
        baseline = Baseline([{"rule": "DET02", "path": "p", "symbol": "f"}])
        other = Finding(rule="DET02", path="p", line=1, col=0,
                        message="m", symbol="g")
        assert not baseline.suppresses(other)


class TestReport:
    def test_exit_codes(self):
        report = Analyzer().run([FIXTURES / "bad_determinism.py"])
        assert report.exit_code() == 1
        clean = Analyzer(select=["ATM01"]).run(
            [FIXTURES / "bad_determinism.py"])
        assert clean.findings == []
        assert clean.exit_code() == 0


class TestCli:
    def test_json_format(self, capsys):
        code = cli_main([
            "--format", "json", "--no-baseline",
            str(FIXTURES / "bad_determinism.py"),
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["errors"] == len(payload["findings"]) > 0
        first = payload["findings"][0]
        assert {"rule", "path", "line", "col", "message",
                "severity", "symbol"} <= set(first)

    def test_text_format_mentions_location(self, capsys):
        code = cli_main(["--no-baseline",
                         str(FIXTURES / "bad_determinism.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert "bad_determinism.py:2" in out
        assert "DET01" in out
        assert "1 waived" in out

    def test_usage_error_goes_to_stderr_not_out(self, tmp_path, capsys):
        report = tmp_path / "a.sarif"
        assert cli_main(["--format", "sarif", "--out", str(report),
                         str(tmp_path / "nosuch")]) == 2
        assert report.read_text() == ""
        assert "error: no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rules():
            assert rule_id in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        target = tmp_path / "tree"
        target.mkdir()
        (target / "pyproject.toml").write_text("[project]\nname='x'\n")
        bad = target / "mod.py"
        bad.write_text("def f(s: set):\n    for x in s:\n        print(x)\n")
        assert cli_main(["--write-baseline", str(bad)]) == 0
        capsys.readouterr()
        assert cli_main([str(bad)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out


def test_rule_catalogue_complete():
    ids = set(all_rules())
    assert {"DET01", "DET02", "DET03", "DET04",
            "ATM01", "ATM02", "INT01"} <= ids
