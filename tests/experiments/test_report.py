"""Tests for the EXPERIMENTS.md renderer and its command line."""

import pytest

from repro.experiments import report
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import PAPER_CLAIMS, render_markdown


class TestReport:
    def test_every_experiment_has_a_paper_claim(self):
        assert set(PAPER_CLAIMS) == set(EXPERIMENTS)

    def test_render_markdown_structure(self):
        results = [
            ExperimentResult("fig08", "sizes", [{"task": "x", "mb": 1.5}]),
            ExperimentResult("table6", "wer", [{"task": "x", "wer": 10.0}]),
        ]
        text = render_markdown(results)
        assert text.startswith("# EXPERIMENTS")
        assert "## fig08: sizes" in text
        assert "## table6: wer" in text
        assert "**Paper:**" in text
        assert "```" in text

    def test_render_includes_measured_rows(self):
        results = [
            ExperimentResult("fig09", "energy", [{"task": "abc", "mj": 0.5}])
        ]
        text = render_markdown(results)
        assert "abc" in text
        assert "0.5" in text


class TestReportCli:
    """``python -m repro.experiments.report [OUT]``, with no experiment
    registered: the CLI's own behaviour, in seconds."""

    @pytest.fixture(autouse=True)
    def no_experiments(self, monkeypatch, tmp_path):
        monkeypatch.setattr(report, "EXPERIMENTS", {})
        monkeypatch.chdir(tmp_path)

    def test_help_prints_usage_and_writes_nothing(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            report.main(["--help"])
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_unknown_option_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            report.main(["--fast"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --fast" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_output_path_is_written(self, tmp_path):
        assert report.main(["OUT.md"]) == 0
        assert (tmp_path / "OUT.md").read_text().startswith("# EXPERIMENTS")
        assert report.main([]) == 0
        assert (tmp_path / "EXPERIMENTS.md").exists()
