"""Unit tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments import AblationResult, ClaimCheck


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.algorithm == "dynamic"
        assert args.robots == 4

    def test_run_options(self):
        args = build_parser().parse_args(
            [
                "run",
                "--algorithm",
                "fixed",
                "--robots",
                "9",
                "--seed",
                "3",
                "--loss",
                "0.1",
                "--capacity",
                "5",
            ]
        )
        assert args.algorithm == "fixed"
        assert args.robots == 9
        assert args.loss == 0.1
        assert args.capacity == 5

    def test_dispatch_reaches_only_the_centralized_config(self):
        parser = build_parser()
        args = parser.parse_args(["compare", "--dispatch", "least_loaded"])
        plain = parser.parse_args(["compare"])
        config = cli._config_from_args(args, "centralized")
        assert config.dispatch_policy == "least_loaded"
        for algorithm in ("fixed", "dynamic"):
            assert cli._config_from_args(
                args, algorithm
            ) == cli._config_from_args(plain, algorithm)

    def test_figure_requires_valid_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "7"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "psychic"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_params_prints_paper_table(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "Exp(16000 s)" in out
        assert "63 m @ 11 Mbps" in out
        assert "3 missed beacons" in out

    def test_run_small_scenario(self, capsys):
        exit_code = main(
            [
                "run",
                "--robots",
                "4",
                "--sim-time",
                "1500",
                "--seed",
                "5",
                "--algorithm",
                "centralized",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "motion overhead" in out
        assert "report delivery ratio" in out

    def test_run_with_energy_and_coverage(self, capsys):
        exit_code = main(
            [
                "run",
                "--robots",
                "4",
                "--sim-time",
                "1500",
                "--seed",
                "5",
                "--energy",
                "--coverage",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "motion energy" in out
        assert "coverage: mean" in out

    def test_run_writes_svg(self, capsys, tmp_path):
        svg_path = tmp_path / "field.svg"
        exit_code = main(
            [
                "run",
                "--robots",
                "4",
                "--sim-time",
                "1000",
                "--svg",
                str(svg_path),
            ]
        )
        assert exit_code == 0
        content = svg_path.read_text(encoding="utf-8")
        assert content.startswith("<svg")
        capsys.readouterr()

    def test_compare_prints_all_algorithms(self, capsys):
        exit_code = main(
            ["compare", "--robots", "4", "--sim-time", "1200", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        for algorithm in ("centralized", "fixed", "dynamic"):
            assert algorithm in out

    def test_run_refuses_dispatch_its_algorithm_never_reads(self, capsys):
        # Only the centralized manager dispatches; run names one
        # algorithm, so it passes --dispatch through for the config to
        # refuse instead of running the closest policy in silence.
        argv = ["run", "--algorithm", "dynamic", "--dispatch", "least_loaded"]
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--sim-time", "300"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "repro-sim run: error: dispatch policy 'least_loaded' needs "
            "the centralized algorithm (only its manager dispatches)"
        ]

    @pytest.mark.parametrize("command", ["run", "compare", "faults"])
    def test_invalid_config_exits_2_with_one_line(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "--sim-time", "-5"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"repro-sim {command}: error: sim time must be positive and "
            "finite: -5.0"
        ]

    def test_figure_degraded_rejects_loss(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setitem(
            cli._FIGURES, "degraded", lambda **kwargs: calls.append(kwargs)
        )
        assert main(["figure", "degraded", "--loss", "0.3"]) == 2
        assert "--loss" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("holds, exit_code", [(True, 0), (False, 1)])
    def test_ablate_exit_code_follows_claims(
        self, holds, exit_code, capsys, monkeypatch
    ):
        calls = []

        def stub_study(**kwargs):
            calls.append(kwargs)
            return AblationResult(
                name="stub study",
                variants={"only": {"value": 1.0}},
                claims=(ClaimCheck("stub claim", holds, "detail"),),
            )

        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.delenv("REPRO_STORE_ROOT", raising=False)
        monkeypatch.setitem(cli._ABLATIONS, "partition", stub_study)
        assert main(["ablate", "partition"]) == exit_code
        assert "stub claim" in capsys.readouterr().out
        # unset flags are not forwarded: the study keeps its defaults
        assert calls == [{"store": None, "max_workers": None}]
        main(["ablate", "partition", "--seed", "3", "--robots", "4"])
        assert calls[1] == {
            "store": None,
            "max_workers": None,
            "robot_count": 4,
            "seeds": (3,),
        }

    @pytest.mark.parametrize("study", ["beacon", "coverage"])
    @pytest.mark.parametrize(
        "flags", [["--store"], ["--jobs", "2"], ["--store", "--jobs", "1"]]
    )
    def test_in_process_ablation_rejects_store_and_jobs(
        self, study, flags, capsys, monkeypatch
    ):
        # Both studies read the runtime itself, which a stored report
        # does not carry, so they would ignore either flag in silence.
        calls = []
        monkeypatch.setitem(
            cli._ABLATIONS, study, lambda **kwargs: calls.append(kwargs)
        )
        assert main(["ablate", study, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"ablate {study}: --store and --jobs are not accepted; "
            "the study runs in-process"
        ]
        assert calls == []

    def test_in_process_ablation_gets_no_store_or_workers(
        self, capsys, monkeypatch
    ):
        calls = []

        def stub_study(**kwargs):
            calls.append(kwargs)
            return AblationResult(
                name="stub study",
                variants={"only": {"value": 1.0}},
                claims=(ClaimCheck("stub claim", True, "detail"),),
            )

        monkeypatch.setenv("REPRO_STORE", "unused")
        monkeypatch.setitem(cli._ABLATIONS, "beacon", stub_study)
        assert main(["ablate", "beacon", "--no-store", "--seed", "3"]) == 0
        assert main(["ablate", "beacon"]) == 0
        assert calls == [{"seeds": (3,)}, {}]

    def test_lint_rejects_jobs(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["lint", "--jobs", "2", "src"])
        assert exited.value.code == 2
        assert "--jobs" in capsys.readouterr().err
