"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_present(self):
        parser = build_parser()
        args = parser.parse_args(["info"])
        assert args.command == "info"

    def test_fit_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["fit"])
        assert args.vdd == 0.8
        assert args.particles == "alpha,proton"

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "flags",
        [["--fuse"], ["--backend", "numpy"], ["--no-warm-pool"], ["--no-shm"]],
        ids=["fuse", "backend", "no-warm-pool", "no-shm"],
    )
    def test_removed_execution_flags_rejected(self, flags, capsys):
        # one campaign path, one array kernel and one pool path:
        # nothing left to select
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sweep", *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_obs_flags_on_every_subcommand(self):
        parser = build_parser()
        for command in ("info", "qcrit", "snm", "fit", "sweep", "build-luts"):
            args = parser.parse_args([command, "--quiet", "--log-level", "debug"])
            assert args.quiet is True
            assert args.log_level == "debug"
            assert args.metrics_out is None
            assert args.trace is None


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "soi-finfet-14nm" in out
        assert "transit time" in out

    def test_qcrit(self, capsys):
        assert main(["qcrit", "--vdd-list", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "Qcrit" in out

    def test_quiet_suppresses_output(self, capsys):
        assert main(["qcrit", "--vdd-list", "0.8", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_info_quiet(self, capsys):
        assert main(["info", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_fit_small(self, capsys, tmp_path):
        code = main(
            [
                "fit",
                "--vdd",
                "0.8",
                "--particles",
                "alpha",
                "--mc-particles",
                "3000",
                "--samples",
                "20",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FIT=" in out
        assert "MBU/SEU" in out


class TestReport:
    def test_report_command(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--out",
                str(out),
                "--particles",
                "alpha",
                "--mc-particles",
                "2000",
                "--samples",
                "15",
                "--no-variation",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "Fig. 9" in text
        assert "Fig. 8" in text
