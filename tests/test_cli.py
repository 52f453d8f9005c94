"""Tests for the command-line interface."""

from repro.cli import main


class TestCLI:
    def test_list_targets(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure9" in output
        assert "table3" in output

    def test_unknown_target(self, capsys):
        assert main(["figure99"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_figure4_runs(self, capsys):
        assert main(["figure4"]) == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output
        assert "regenerated in" in output

    def test_figure6_with_reduced_scale(self, capsys):
        # figure6 only needs the datasets, so it is fast even via the CLI when
        # the scale is reduced.
        assert main(["figure6", "--sources", "1", "--scale", "40000"]) == 0
        output = capsys.readouterr().out
        assert "Figure 6" in output
        assert "GK" in output
