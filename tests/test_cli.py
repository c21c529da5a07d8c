"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main
from tests.test_cli_smoke import run_module


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_park_profile_fails_cleanly(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_cli(["stats", "--park", "yellowstone"])

    def test_model_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--model", "xgboost"])


class TestStats:
    def test_reports_table(self):
        code, text = run_cli(["stats", "--park", "MFNP", "--scale", "0.4"])
        assert code == 0
        assert "n_points" in text
        assert "percent_positive" in text
        assert "MFNP" in text


class TestMaps:
    def test_renders_two_maps(self):
        code, text = run_cli(["maps", "--park", "QENP", "--scale", "0.4"])
        assert code == 0
        assert "historical patrol effort:" in text
        assert "historical detected activity:" in text


class TestEvaluate:
    def test_reports_auc(self):
        code, text = run_cli(
            ["evaluate", "--park", "MFNP", "--scale", "0.4",
             "--model", "dtb", "--n-classifiers", "4"]
        )
        assert code == 0
        assert "AUC = " in text
        assert "DTB-iW" in text

    def test_flat_baseline_flag(self):
        code, text = run_cli(
            ["evaluate", "--park", "MFNP", "--scale", "0.4",
             "--model", "dtb", "--no-iware"]
        )
        assert code == 0
        assert "DTB on" in text
        assert "-iW" not in text


class TestPlan:
    def test_produces_routes(self):
        code, text = run_cli(
            ["plan", "--park", "MFNP", "--scale", "0.4",
             "--horizon", "8", "--segments", "5", "--post", "0"]
        )
        assert code == 0
        assert "prescribed coverage:" in text
        assert "mixed-strategy routes" in text
        assert "solved as" in text

    def test_plans_all_posts_by_default(self):
        code, text = run_cli(
            ["plan", "--park", "MFNP", "--scale", "0.4",
             "--horizon", "6", "--segments", "4", "--n-jobs", "2"]
        )
        assert code == 0
        assert "posts/s" in text
        assert "combined prescribed coverage:" in text
        assert "utility" in text

    def test_solver_override(self):
        code, text = run_cli(
            ["plan", "--park", "MFNP", "--scale", "0.4",
             "--horizon", "6", "--segments", "4", "--post", "0",
             "--solver", "milp"]
        )
        assert code == 0
        assert "solved as MILP" in text

    @pytest.mark.parametrize(
        "argv", [["--solver", "bnb"], ["--bnb-strategy", "dfs"]]
    )
    def test_removed_solver_options_are_usage_errors(self, argv):
        """The from-scratch branch-and-bound backend is gone: asking for it
        is an argparse usage error (exit 2), not a silent fallback."""
        result = run_module("plan", *argv)
        assert result.returncode == 2
        assert "usage:" in result.stderr
        assert argv[0] in result.stderr

    def test_bad_post_index(self):
        code, text = run_cli(
            ["plan", "--park", "MFNP", "--scale", "0.4", "--post", "99"]
        )
        assert code == 1
        assert "--post" in text


class TestFieldTest:
    def test_runs_trial(self):
        code, text = run_cli(
            ["fieldtest", "--park", "MFNP", "--scale", "0.5",
             "--blocks", "3", "--model", "dtb"]
        )
        assert code == 0
        assert "Risk group" in text
        assert "chi-squared p" in text


class TestDeadlineValidation:
    """--deadline must be a positive number of seconds, everywhere it appears.

    Zero or negative budgets used to start the (possibly expensive) work and
    then surface a mid-run stack trace; argparse now rejects them up front
    with a usage error naming the flag (exit code 2).
    """

    @pytest.mark.parametrize("command", ["plan", "predict"])
    @pytest.mark.parametrize("value", ["0", "-2.5"])
    def test_nonpositive_deadline_exits_2_naming_flag(
        self, command, value, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--deadline", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--deadline" in err
        assert "positive" in err

    @pytest.mark.parametrize("command", ["plan", "predict"])
    def test_non_numeric_deadline_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--deadline", "soon"])
        assert excinfo.value.code == 2
        assert "--deadline" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "never"])
    def test_serve_default_deadline_validated_the_same_way(
        self, value, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve", "--models-dir", "models", "--default-deadline",
                 value]
            )
        assert excinfo.value.code == 2
        assert "--default-deadline" in capsys.readouterr().err

    def test_positive_deadline_accepted(self):
        args = build_parser().parse_args(
            ["plan", "--deadline", "2.5"]
        )
        assert args.deadline == 2.5


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--models-dir", "models"])
        assert args.models_dir == "models"
        assert args.port == 8765
        assert args.max_inflight == 8
        assert args.default_deadline == 30.0
        assert args.no_default_deadline is False

    def test_models_dir_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_missing_models_dir_exits_2_cleanly(self, tmp_path):
        code, text = run_cli(
            ["serve", "--models-dir", str(tmp_path / "nope")]
        )
        assert code == 2
        assert "serve:" in text and "nope" in text
