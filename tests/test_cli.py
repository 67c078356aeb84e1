import json
import math

import pytest

from quasispin.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from quasispin.sweep import THERMO_COLUMNS

TRAD_CR_06 = 0.2 / math.atanh(2.0 / 3.0)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run(capsys, ["--version"])
        assert code == EXIT_OK
        assert out.strip() == "quasispin 0.1.0"

    def test_help(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == EXIT_OK
        for name in ("sweep", "critical", "phase", "fig1", "fig2", "exact-compare", "micro"):
            assert name in out

    def test_subcommand_required(self, capsys):
        code, _, err = run(capsys, [])
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, ["sweep", "--bogus", "1"])
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, ["florp"])
        assert code == EXIT_USAGE


class TestSweep:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--chi-ratio", "0.6", "--variant", "traditional", "--points", "5"],
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == ",".join(THERMO_COLUMNS)
        assert len(lines) == 6
        assert lines[1].startswith("0,")
        assert lines[1].endswith(",ordered,traditional")
        # default extent is three times the constant-coupling transition
        assert float(lines[-1].split(",")[0]) == pytest.approx(3.0 * TRAD_CR_06, rel=1e-8)

    def test_missing_ratio(self, capsys):
        code, _, err = run(capsys, ["sweep"])
        assert code == EXIT_USAGE
        assert "--chi-ratio" in err

    def test_rejects_nonpositive_ratio(self, capsys):
        code, _, _ = run(capsys, ["sweep", "--chi-ratio", "-0.5"])
        assert code == EXIT_USAGE

    def test_rejects_bad_range_without_creating_file(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys,
            [
                "sweep", "--chi-ratio", "0.6", "--theta-min", "0.5",
                "--theta-max", "0.2", "--out", str(out_file),
            ],
        )
        assert code == EXIT_USAGE
        assert "theta" in err
        assert not out_file.exists()

    def test_rejects_bad_precision(self, capsys):
        code, _, _ = run(capsys, ["sweep", "--chi-ratio", "0.6", "--precision", "3"])
        assert code == EXIT_USAGE

    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys,
            ["sweep", "--chi-ratio", "0.6", "--points", "4", "--out", str(out_file)],
        )
        assert code == EXIT_OK
        assert out == ""  # nothing on stdout when writing a file
        assert out_file.read_bytes().startswith(b"theta,nbar,")

    def test_both_variants_concatenated(self, capsys):
        code, out, _ = run(
            capsys, ["sweep", "--chi-ratio", "0.6", "--variant", "both", "--points", "3"]
        )
        assert code == EXIT_OK
        rows = out.splitlines()[1:]
        assert len(rows) == 6
        assert [r.rsplit(",", 1)[1] for r in rows] == ["proposed"] * 3 + ["traditional"] * 3

    def test_normalize_prepends_column(self, capsys):
        code, out, _ = run(
            capsys, ["sweep", "--chi-ratio", "0.6", "--points", "3", "--normalize"]
        )
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header == "theta_norm," + ",".join(THERMO_COLUMNS)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, ["sweep", "--chi-ratio", "0.6", "--points", "3", "--format", "json"]
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert len(records) == 3
        assert list(records[0].keys()) == list(THERMO_COLUMNS)

    def test_threads_do_not_change_stdout(self, capsys):
        argv = ["sweep", "--chi-ratio", "0.5", "--points", "40"]
        _, first, _ = run(capsys, argv + ["--threads", "1"])
        _, second, _ = run(capsys, argv + ["--threads", "3"])
        assert first == second

    def test_threads_is_accepted_and_ignored(self, capsys):
        argv = ["sweep", "--chi-ratio", "0.6", "--points", "4"]
        code, _, err = run(capsys, argv + ["--threads", "-1"])
        assert code == EXIT_USAGE
        assert "--threads" in err
        code, out, _ = run(capsys, argv + ["--threads", "0"])
        assert code == EXIT_OK
        assert out == run(capsys, argv)[1]

    def test_rejects_infinite_theta_max(self, capsys):
        code, out, err = run(capsys, ["sweep", "--chi-ratio", "0.6", "--theta-max", "inf"])
        assert code == EXIT_USAGE
        assert out == "" and "finite" in err

    def test_rejects_infinite_omega_k(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--chi-ratio", "0.6", "--omega-k", "inf"])
        assert code == EXIT_USAGE
        assert out == ""

    def test_rejects_non_finite_floats_from_flags_and_config(self, capsys, tmp_path):
        for value in ("nan", "-inf", "1e400"):
            code, _, _ = run(capsys, ["sweep", "--chi-ratio", value])
            assert code == EXIT_USAGE
        config = tmp_path / "run.cfg"
        config.write_text("theta_min = nan\n", encoding="utf-8")
        code, _, _ = run(capsys, ["sweep", "--chi-ratio", "0.6", "--config", str(config)])
        assert code == EXIT_USAGE

    def test_precision_is_honored(self, capsys):
        argv = ["sweep", "--chi-ratio", "0.6", "--points", "3"]
        _, default, _ = run(capsys, argv)
        _, wide, _ = run(capsys, argv + ["--precision", "17"])
        assert default != wide


class TestCritical:
    def test_json_by_default(self, capsys):
        code, out, _ = run(capsys, ["critical", "--chi-ratio", "0.45"])
        assert code == EXIT_OK
        records = json.loads(out)
        assert [r["kind"] for r in records] == ["onset", "vanishing"]
        assert records[0]["theta_cr"] == pytest.approx(0.2615809527, rel=1e-6)
        assert records[1]["theta_cr"] == pytest.approx(0.4269273096, rel=1e-6)
        assert all(r["variant"] == "proposed" for r in records)

    def test_empty_scan_gives_empty_list(self, capsys):
        code, out, _ = run(
            capsys, ["critical", "--chi-ratio", "0.5", "--variant", "traditional"]
        )
        assert code == EXIT_OK
        assert json.loads(out) == []

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, ["critical", "--chi-ratio", "0.6", "--format", "csv"]
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "theta_cr,kind,nbar,lambda,varpi,variant"

    def test_both_variants(self, capsys):
        code, out, _ = run(capsys, ["critical", "--chi-ratio", "0.6", "--variant", "both"])
        assert code == EXIT_OK
        records = json.loads(out)
        assert [r["variant"] for r in records] == ["proposed", "traditional"]
        assert records[0]["theta_cr"] > records[1]["theta_cr"]

    def test_rejects_small_grid(self, capsys):
        code, _, _ = run(capsys, ["critical", "--chi-ratio", "0.6", "--points", "32"])
        assert code == EXIT_USAGE


class TestPhase:
    def test_grid_and_boundary_outputs(self, capsys, tmp_path):
        grid_file = tmp_path / "grid.csv"
        boundary_file = tmp_path / "boundary.csv"
        code, _, _ = run(
            capsys,
            [
                "phase", "--variant", "traditional",
                "--chi-min", "0.55", "--chi-max", "0.95",
                "--theta-min", "0.05", "--theta-max", "0.5",
                "--nx", "5", "--ny", "64",
                "--out", str(grid_file), "--boundary-out", str(boundary_file),
            ],
        )
        assert code == EXIT_OK
        grid_lines = grid_file.read_text().splitlines()
        assert grid_lines[0] == "chi_ratio,theta,phase,variant"
        assert len(grid_lines) == 1 + 5 * 64
        boundary_lines = boundary_file.read_text().splitlines()
        assert boundary_lines[0] == "chi_ratio,theta_cr,kind,variant"
        assert len(boundary_lines) == 1 + 5

    def test_rejects_both_variants(self, capsys):
        code, _, _ = run(capsys, ["phase", "--variant", "both"])
        assert code == EXIT_USAGE

    def test_rejects_oversized_grid(self, capsys):
        code, _, _ = run(capsys, ["phase", "--nx", "4000", "--ny", "3000"])
        assert code == EXIT_USAGE or code == EXIT_DOMAIN


class TestFigures:
    def test_fig1_without_transition_is_a_domain_failure(self, capsys):
        code, _, err = run(capsys, ["fig1", "--ratios", "0.05"])
        assert code == EXIT_DOMAIN
        assert "critical" in err

    def test_fig1_rejects_ratio_outside_unit_interval(self, capsys):
        code, _, _ = run(capsys, ["fig1", "--ratios", "0.45,1.2"])
        assert code == EXIT_USAGE

    def test_fig1_writes_csv_and_plot_script(self, capsys, tmp_path):
        csv_file = tmp_path / "fig1.csv"
        script_file = tmp_path / "plot_fig1.py"
        code, _, _ = run(
            capsys,
            [
                "fig1", "--ratios", "0.45", "--points", "12",
                "--out", str(csv_file), "--plot-script", str(script_file),
            ],
        )
        assert code == EXIT_OK
        header = csv_file.read_text().splitlines()[0]
        assert header == "chi_ratio,theta_norm," + ",".join(THERMO_COLUMNS)
        script = script_file.read_text()
        assert str(csv_file) in script
        compile(script, str(script_file), "exec")

    def test_plot_script_requires_out(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["fig1", "--ratios", "0.45", "--plot-script", str(tmp_path / "p.py")],
        )
        assert code == EXIT_USAGE

    def test_plot_script_requires_csv(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            [
                "fig1", "--ratios", "0.45", "--format", "json",
                "--out", str(tmp_path / "f.json"),
                "--plot-script", str(tmp_path / "p.py"),
            ],
        )
        assert code == EXIT_USAGE

    def test_fig2_stdout(self, capsys):
        code, out, _ = run(capsys, ["fig2", "--chi-ratio", "0.6", "--points", "10"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "theta,rz_eq10,rz_eq4,variant"
        assert len(lines) == 11

    def test_fig2_without_transition_is_a_domain_failure(self, capsys):
        code, _, _ = run(
            capsys, ["fig2", "--chi-ratio", "0.5", "--variant", "traditional"]
        )
        assert code == EXIT_DOMAIN


class TestExactCompare:
    def test_json_records(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "exact-compare", "--chi-ratio", "0.6", "--variant", "traditional",
                "--theta", "0.1", "--n-list", "8,32",
            ],
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert [r["n_atoms"] for r in records] == [8, 32]
        assert records[0]["deviation"] > records[1]["deviation"]
        assert list(records[0].keys()) == [
            "n_atoms", "rz_exact", "rz_meanfield", "deviation", "variant",
        ]

    def test_requires_theta(self, capsys):
        code, _, err = run(capsys, ["exact-compare", "--chi-ratio", "0.6"])
        assert code == EXIT_USAGE
        assert "--theta" in err

    def test_rejects_tiny_ensemble(self, capsys):
        code, _, _ = run(
            capsys,
            ["exact-compare", "--chi-ratio", "0.6", "--theta", "0.1", "--n-list", "1,8"],
        )
        assert code == EXIT_USAGE


class TestMicro:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "micro", "--level", "1,1,3,2", "--gamma-cav", "0.5",
                "--omega21", "1.0", "--omega-k", "1.0",
            ],
        )
        assert code == EXIT_OK
        record = json.loads(out)[0]
        assert record["amplitude"] == pytest.approx(0.25, rel=1e-9)
        assert record["chi"] == pytest.approx(0.125, rel=1e-9)
        assert record["gamma"] == pytest.approx(0.125, rel=1e-9)
        assert record["chi_over_gamma"] == pytest.approx(1.0, rel=1e-9)

    def test_resonant_level_is_a_domain_failure(self, capsys):
        code, _, err = run(
            capsys,
            ["micro", "--level", "1,1,3,2", "--gamma-cav", "0.5", "--omega-k", "2.0"],
        )
        assert code == EXIT_DOMAIN
        assert "level 0" in err

    def test_requires_levels(self, capsys):
        code, _, err = run(capsys, ["micro", "--gamma-cav", "0.5"])
        assert code == EXIT_USAGE
        assert "--level" in err

    def test_malformed_level_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["micro", "--level", "1,1,3", "--gamma-cav", "0.5"])
        assert code == EXIT_USAGE

    def test_levels_from_config(self, capsys, tmp_path):
        config = tmp_path / "micro.cfg"
        config.write_text(
            "# two interfering paths\n"
            "levels = 1,1,3,2 ; -1,1,3,2\n"
            "gamma-cav = 0.5\n"
            "omega-k = 1.0\n"
        )
        code, out, _ = run(capsys, ["micro", "--config", str(config)])
        assert code == EXIT_OK
        record = json.loads(out)[0]
        assert record["amplitude"] == 0.0
        assert record["gamma"] == 0.0


class TestConfigFiles:
    def test_config_fills_missing_flags_and_flags_win(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "chi_ratio = 0.6\n"
            "points = 5  # overridden by the command line\n"
            "variant = traditional\n"
            "normalize = true\n"
        )
        code, out, _ = run(
            capsys, ["sweep", "--config", str(config), "--points", "7"]
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("theta_norm,")
        assert len(lines) == 8  # header + 7 points: the flag beat the config
        assert lines[1].endswith(",traditional")

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("chi_ratio = 0.6\nbogus = 1\n")
        code, _, err = run(capsys, ["sweep", "--config", str(config)])
        assert code == EXIT_USAGE
        assert "bogus" in err

    def test_unparseable_config_value(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("chi_ratio = 0.6\npoints = banana\n")
        code, _, err = run(capsys, ["sweep", "--config", str(config)])
        assert code == EXIT_USAGE
        assert "points" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["sweep", "--config", str(tmp_path / "nope.cfg")])
        assert code == EXIT_USAGE

    def test_malformed_config_line(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("chi_ratio 0.6\n")
        code, _, err = run(capsys, ["sweep", "--config", str(config)])
        assert code == EXIT_USAGE
        assert "key=value" in err

    def test_config_cannot_nest(self, capsys, tmp_path):
        config = tmp_path / "loop.cfg"
        config.write_text(f"config = {config}\n")
        code, _, err = run(capsys, ["sweep", "--config", str(config)])
        assert code == EXIT_USAGE
        assert "config" in err
