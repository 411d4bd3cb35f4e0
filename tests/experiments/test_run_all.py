"""The run_all driver: parallel parity, failure isolation, CLI errors."""

import pytest

from repro.experiments import run_all


def rendered_section(stdout: str) -> str:
    """Everything above the wall-time summary table (which is allowed to
    differ between runs)."""
    marker = "=" * 60
    assert marker in stdout
    return stdout.split(marker)[0]


class TestSelection:
    def test_list_prints_every_experiment(self, capsys):
        assert run_all.main(["--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == list(run_all.EXPERIMENTS)

    def test_unknown_only_is_usage_error_listing_valid_names(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_all.main(["--only", "fig03,figXX"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiments: figXX" in err
        assert "valid names:" in err
        assert "fig08" in err

    def test_duplicate_only_is_usage_error_naming_it(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_all.main(["--only", "fig03,fig01,fig03"])
        assert excinfo.value.code == 2
        assert "duplicate experiments: fig03" in capsys.readouterr().err

    def test_run_experiment_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            run_all.run_experiment("nope")


class TestParallelParity:
    CHEAP = "fig01,fig03"

    def test_parallel_output_byte_identical_to_serial(self, capsys):
        assert run_all.main(
            ["--only", self.CHEAP, "--scale", "0.3"]) == 0
        serial = capsys.readouterr().out
        assert run_all.main(
            ["--only", self.CHEAP, "--scale", "0.3", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert rendered_section(serial) == rendered_section(parallel)
        assert "fig01" in serial and "fig03" in serial

    def test_journal_resume_skips_completed(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        args = ["--only", "fig03", "--scale", "0.3", "--journal", journal]
        assert run_all.main(args) == 0
        first = capsys.readouterr().out
        assert run_all.main(args) == 0
        second = capsys.readouterr().out
        assert "(journal)" in second
        assert rendered_section(first) == rendered_section(second)

    def test_torn_journal_line_is_skipped(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        args = ["--only", "fig03,fig01", "--scale", "0.3",
                "--journal", str(journal)]
        assert run_all.main(args) == 0
        fig03, fig01 = journal.read_text().splitlines()
        journal.write_text(fig03 + "\n" + fig01[:40])  # killed mid-write
        capsys.readouterr()
        assert run_all.main(args) == 0
        table = capsys.readouterr().out.split("=" * 60)[1].splitlines()
        rows = {line.split()[0]: line for line in table if line}
        assert rows["fig03"].endswith("(journal)")
        assert not rows["fig01"].endswith("(journal)")


class TestFailureIsolation:
    def test_failing_experiment_reported_not_fatal(self, monkeypatch,
                                                   capsys):
        def explode(scale=1.0):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(run_all.EXPERIMENTS, "fig01", explode)
        assert run_all.main(["--only", "fig01,fig03", "--scale", "0.3"]) == 1
        out = capsys.readouterr().out
        # The healthy experiment still ran and rendered...
        assert "fig03" in out
        # ...and the failure is summarized at the end, not fatal mid-sweep.
        assert "1 experiment(s) failed:" in out
        assert "fig01: error" in out
        assert "RuntimeError: synthetic failure" in out
        assert "FAILED" in out
