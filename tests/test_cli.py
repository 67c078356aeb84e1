import json
import math
import os
import re
import shlex
import tracemalloc
import warnings
from itertools import islice
from pathlib import Path

import pytest

from oracles import stacked
from quasispin import levels, sweep, thermal
from quasispin.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from quasispin.output import serialize
from quasispin.sweep import THERMO_COLUMNS, figure1_blocks, figure2_blocks, sweep_blocks

TRAD_CR_06 = 0.2 / math.atanh(2.0 / 3.0)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_peak(argv):
    """tracemalloc peak of one main(argv) call, which must succeed."""
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_silently(capsys, argv):
    """run(), and assert that no warning was raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, argv)
    assert [str(warning.message) for warning in caught] == []
    return result


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

    def test_unexpected_exception_propagates(self, monkeypatch):
        # only UsageError and DomainError have exit codes; anything else is a bug
        def broken(*args):
            raise ValueError("a bug, not a domain failure")

        monkeypatch.setattr(levels, "transition_amplitude", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["micro", "--level", "1,1,3,2", "--gamma-cav", "0.5"])

    @pytest.mark.parametrize(
        "command, required",
        [
            ("sweep", ["--chi-ratio", "0.6"]),
            ("critical", ["--chi-ratio", "0.45"]),
            ("phase", []),
            ("fig1", ["--ratios", "0.6"]),
            ("fig2", ["--chi-ratio", "0.6"]),
            ("exact-compare", ["--chi-ratio", "0.6", "--theta", "0.1"]),
            ("micro", ["--level", "1,1,3,2", "--gamma-cav", "0.5"]),
        ],
    )
    def test_help_shows_the_defaults_in_use(self, capsys, command, required):
        code, text, _ = run(capsys, [command, "--help"])
        assert code == EXIT_OK
        # "--flag [METAVAR] help ... (default: VALUE)", with no other flag in between
        shown = re.findall(
            r"(--[\w-]+)(?: (\{[^}]*\}|[A-Z][\w,.]*))?((?:(?!--).)*?)\(default: ([^)]*)\)",
            " ".join(text.split()),
        )
        explicit = []
        for flag, metavar, _, value in shown:
            choices = metavar[1:-1].split(",") if metavar.startswith("{") else []
            if value in choices or all(re.fullmatch(r"[-+.\de]+", x) for x in value.split(",")):
                explicit += [flag, value]
        assert {"--format", "--precision"} <= set(explicit[::2])
        _, bare, _ = run(capsys, [command, *required])
        code, spelled_out, _ = run(capsys, [command, *required, *explicit])
        assert code == EXIT_OK
        assert spelled_out == bare


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

    def test_overflowing_couplings_are_a_domain_failure(self, capsys):
        argv = ["sweep", "--chi-ratio", "0.6", "--theta-max", "1e308", "--points", "3"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv)
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "overflow at theta = 5e+307" in err
        assert "Warning" not in err and not caught

    def test_a_failure_in_a_later_row_block_keeps_the_rows_before_it(self, capsys, tmp_path):
        # Rows are solved and written a block at a time. Node 9481 of this grid
        # overflows: the run fails there, after the header and the whole row
        # blocks before that node's block were written.
        argv = ["sweep", "--chi-ratio", "0.6", "--theta-max", "1e154", "--points", "20000"]
        blocks = sweep_blocks(thermal.ModelParams(omega21=1.0, chi=0.6), 0.0, 1e154, 20_000)
        kept = list(islice(blocks, 9481 // sweep._ROW_BLOCK))
        expected = serialize(kept).decode()
        assert expected.count("\n") == 1 + 9481 // sweep._ROW_BLOCK * sweep._ROW_BLOCK
        message = "error: couplings overflow at theta = 4.74074e+153; lower the temperature range\n"
        code, out, err = run_silently(capsys, argv)
        assert (code, err) == (EXIT_DOMAIN, message)
        assert out + "\n" == expected
        out_file = tmp_path / "sweep.csv"
        code, out, err = run_silently(capsys, [*argv, "--out", str(out_file)])
        assert (code, out, err) == (EXIT_DOMAIN, "", message)
        assert out_file.read_text(encoding="utf-8") + "\n" == expected

    def test_memory_does_not_grow_with_the_points(self, capsys, tmp_path):
        # Each row block is solved, written and dropped before the next, so
        # ten times the points add only the grids (8-24 bytes a node) to the
        # peak; a whole table takes about 80 bytes a node and variant.
        def peak(points):
            return traced_peak(["sweep", "--chi-ratio", "0.6", "--variant", "both",
                                "--points", str(points), "--out", str(tmp_path / "sweep.csv")])

        peak(3_000)  # a first call may still import and cache
        small = peak(3_000)
        assert peak(30_000) - small < 1_000_000

    def test_couplings_whose_squares_overflow_solve_silently(self, capsys):
        # varpi ~ -1e300 squares past the float range, only on lanes that
        # are disordered anyway
        argv = ["sweep", "--chi-ratio", "0.6", "--theta-max", "1e150", "--points", "3"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv + ["--variant", "both", "--precision", "17"])
        assert (code, err, caught) == (EXIT_OK, "", [])
        cold = "0,0,0.59999999999999998,0.40000000000000002,0.37267799624996489,"
        cold += "-0.21666666666666667,-0.33333333333333337,-0.33333333333333337,ordered"
        assert out.splitlines()[1:] == [
            f"{cold},proposed",
            "4.9999999999999999e+149,9.9999999999999998e+149,1.2e+150,"
            "-1.1999999999999999e+300,0,-5.9999999999999996e+299,0.5,"
            "4.9999999999999999e+149,disordered,proposed",
            "9.9999999999999998e+149,2e+150,2.4e+150,-4.7999999999999997e+300,0,"
            "-2.3999999999999998e+300,0.5,9.9999999999999998e+149,disordered,proposed",
            f"{cold},traditional",
            "4.9999999999999999e+149,0,0.59999999999999998,0.40000000000000002,0,"
            "-3.4657359027997266e+149,-2.0000000000000002e-151,-0.33333333333333337,"
            "disordered,traditional",
            "9.9999999999999998e+149,0,0.59999999999999998,0.40000000000000002,0,"
            "-6.9314718055994531e+149,-1.0000000000000001e-151,-0.33333333333333337,"
            "disordered,traditional",
        ]
        for variant in ("proposed", "traditional"):
            code, out, err = run(capsys, argv + ["--variant", variant])
            assert (code, err, len(out.splitlines())) == (EXIT_OK, "", 4)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--chi-ratio", "0.6", "--points", "4"],
            ["critical", "--chi-ratio", "0.6", "--points", "64"],
            ["phase", "--nx", "3", "--ny", "4"],
        ],
    )
    def test_grids_with_repeated_nodes_are_a_domain_failure(self, capsys, argv):
        code, out, err = run(
            capsys, [*argv, "--theta-min", "0.5", "--theta-max", "0.5000000000000001"]
        )
        assert code == EXIT_DOMAIN
        assert out == "" and "not all distinct" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--chi-ratio", "0.6"],
            ["critical", "--chi-ratio", "0.6"],
            ["fig1", "--ratios", "0.6"],
            ["fig2", "--chi-ratio", "0.6"],
        ],
    )
    def test_oversized_grid_is_a_domain_failure(self, capsys, argv):
        code, out, err = run(capsys, [*argv, "--points", "100000000000000000000"])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "exceeds the cap of 10000000" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # -varpi/(2*lam) overflows at a subnormal lam: every row read rz_eq4 = -inf
            (["--chi-ratio", "5e-324"], "rz_relaxation: -varpi/(2*lam) is past the float range"),
            # 2*lam overflows: f_per_atom read nan and rz_eq4 a silent 0
            (["--chi-ratio", "1e308", "--theta-max", "0.01"],
             "gap_solve: 2*lam is past the float range"),
        ],
    )
    def test_results_past_the_float_range_are_domain_failures(self, capsys, argv, message):
        argv = ["sweep", *argv, "--points", "3", "--variant", "both"]
        code, out, err = run_silently(capsys, argv)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and message in err

    def test_precision_is_honored(self, capsys):
        argv = ["sweep", "--chi-ratio", "0.6", "--points", "3"]
        _, default, _ = run(capsys, argv)
        _, wide, _ = run(capsys, argv + ["--precision", "17"])
        assert default != wide


    def test_zero_varpi_polarizations_print_unsigned_zero(self, capsys):
        # varpi = +0.0 at ratio 1 with constant couplings: no "-0" cell, cold or warm
        argv = ["sweep", "--chi-ratio", "1", "--variant", "traditional", "--points", "4"]
        code, out, err = run_silently(capsys, argv + ["--theta-max", "0.6"])
        assert (code, err) == (EXIT_OK, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[6:8] for row in rows] == [["0", "0"]] * 4
        assert [row[8] for row in rows] == ["ordered"] * 3 + ["disordered"]


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

    def test_memory_grows_by_the_grid_alone(self, tmp_path):
        # The scan evaluates the measure a tile of 16384 nodes at a time, so
        # ten times the nodes add the grid (8 bytes a node) and its 1-byte
        # order check to the peak; one whole-grid evaluation added about 65.
        def peak(points):
            return traced_peak(["critical", "--chi-ratio", "0.6", "--points", str(points),
                                "--out", str(tmp_path / "critical.json")])

        peak(40_000)  # a first call may still import and cache
        small = peak(40_000)
        assert peak(400_000) - small < 12 * (400_000 - 40_000)

    @pytest.mark.parametrize(
        "argv",
        [
            ["critical", "--chi-ratio", "0.6"],
            ["fig1", "--ratios", "0.6"],
            ["fig2", "--chi-ratio", "0.6"],
        ],
    )
    def test_subnormal_mode_energy_fails_without_a_warning(self, capsys, argv):
        # omega_k/theta underflows to 0, so nbar ~ theta/omega_k is past the float range
        code, out, err = run_silently(capsys, [*argv, "--omega-k", "5e-324"])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "couplings overflow at theta = 0.0001" in err


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

    @pytest.mark.parametrize(
        "output_format, empty",
        [("csv", "chi_ratio,theta_cr,kind,variant\n"), ("json", "[]\n")],
        ids=["csv", "json"],
    )
    def test_a_map_without_a_transition_writes_an_empty_boundary(
        self, capsys, tmp_path, output_format, empty
    ):
        boundary_file = tmp_path / "boundary"
        code, out, _ = run(
            capsys,
            [
                "phase", "--chi-min", "0.05", "--chi-max", "0.1", "--nx", "3", "--ny", "3",
                "--format", output_format, "--boundary-out", str(boundary_file),
            ],
        )
        assert code == EXIT_OK
        assert out.count("disordered") == 9
        assert boundary_file.read_text() == empty

    def test_memory_grows_by_a_few_bytes_a_cell(self, tmp_path):
        # The map keeps one byte a cell for its phases and the temperature
        # grid, and its cells leave in coded row blocks, so the peak grows by
        # about 1.2 bytes a cell; whole coded columns grew it by about 8, and
        # Python lists of the cells by about 34.
        def peak(ny):
            return traced_peak(["phase", "--nx", "64", "--ny", str(ny),
                                "--out", str(tmp_path / "map.csv")])

        peak(512)  # a first call may still import and cache
        small = peak(512)
        growth = peak(5120) - small
        assert growth < 16 * 64 * (5120 - 512)
        assert growth < 3 * 64 * (5120 - 512)

    def test_memory_of_a_tall_map_grows_by_a_few_bytes_a_cell(self, tmp_path):
        # A two-column map is scanned in tiles of whole lanes by a run of
        # temperatures, so the peak grows by the phases (1 byte a cell) and
        # the temperature grid (4 bytes a cell here); one evaluation of each
        # whole column grew it by about 60.
        def peak(ny):
            return traced_peak(["phase", "--nx", "2", "--ny", str(ny),
                                "--out", str(tmp_path / "map.csv")])

        peak(10_000)  # a first call may still import and cache
        small = peak(10_000)
        assert peak(100_000) - small < 8 * 2 * (100_000 - 10_000)

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

    @pytest.mark.parametrize(
        "argv, second",
        [
            (["fig1", "--ratios", "0.6"], "--plot-script"),
            (["phase", "--nx", "3", "--ny", "3"], "--boundary-out"),
        ],
    )
    @pytest.mark.parametrize("existing", [b"keep\n", None], ids=["existing", "new"])
    def test_two_outputs_naming_one_file_are_a_usage_error(
        self, capsys, tmp_path, argv, second, existing
    ):
        target = tmp_path / "F"
        if existing is not None:
            target.write_bytes(existing)
        alias = tmp_path / "sub" / ".." / "F"
        (tmp_path / "sub").mkdir()
        code, out, err = run(capsys, [*argv, "--out", str(target), second, str(alias)])
        assert (code, out) == (EXIT_USAGE, "")
        assert "--out" in err and second in err
        if existing is None:
            assert not target.exists()
        else:
            assert target.read_bytes() == existing

    @pytest.mark.parametrize(
        "argv, second",
        [
            (["fig1", "--ratios", "0.6", "--points", "5"], "--plot-script"),
            (["phase", "--nx", "3", "--ny", "3"], "--boundary-out"),
        ],
    )
    def test_two_outputs_naming_one_file_by_a_hard_link_are_a_usage_error(
        self, capsys, tmp_path, argv, second
    ):
        target, link = tmp_path / "F", tmp_path / "G"
        target.write_bytes(b"keep\n")
        os.link(target, link)
        code, out, err = run(capsys, [*argv, "--out", str(target), second, str(link)])
        assert (code, out) == (EXIT_USAGE, "")
        assert "--out" in err and second in err
        assert target.read_bytes() == b"keep\n"

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

    def test_default_grid_sizes_match_the_library(self, capsys):
        code, out, _ = run(capsys, ["fig1", "--ratios", "0.6"])
        assert code == EXIT_OK
        assert len(out.splitlines()) - 1 == len(stacked(figure1_blocks([0.6]))["theta"])
        code, out, _ = run(capsys, ["fig2", "--chi-ratio", "0.6"])
        assert code == EXIT_OK
        assert len(out.splitlines()) - 1 == len(stacked(figure2_blocks(0.6))["theta"]) == 200

    def test_fig2_without_transition_is_a_domain_failure(self, capsys):
        code, _, _ = run(
            capsys, ["fig2", "--chi-ratio", "0.5", "--variant", "traditional"]
        )
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize(
        "argv",
        [
            # the proposed variant has a transition at 0.5, the traditional one none
            ["fig2", "--chi-ratio", "0.5", "--variant", "both"],
            ["fig1", "--ratios", "0.6", "--points", "10000001"],
        ],
        ids=["fig2", "fig1"],
    )
    def test_a_failure_creates_no_file(self, capsys, tmp_path, argv):
        # The rows are written a block at a time, but every check of every
        # sweep runs before the first block, so the output file is never opened
        out_file = tmp_path / "fig.csv"
        code, out, err = run(capsys, [*argv, "--out", str(out_file)])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "argv, sweeps",
        [
            (["fig1", "--ratios", "0.5,0.6,0.7"], 6),
            (["fig2", "--chi-ratio", "0.6", "--variant", "both"], 2),
        ],
        ids=["fig1", "fig2"],
    )
    def test_memory_does_not_grow_with_the_points(self, tmp_path, argv, sweeps):
        # Each row block is solved, written and dropped before the next, so
        # ten times the points add only the sweeps' grids (8 bytes a node;
        # fig1 makes one at a time) to the peak; whole tables added 74 (fig2)
        # to 164 (fig1) bytes a node and sweep.
        def peak(points):
            return traced_peak([*argv, "--points", str(points), "--out", str(tmp_path / "fig.csv")])

        peak(3_000)  # a first call may still import and cache
        small = peak(3_000)
        growth = peak(30_000) - small
        assert growth < 16 * sweeps * (30_000 - 3_000)
        if argv[0] == "fig1":  # its sweeps' grids are made one at a time
            assert growth < 4 * sweeps * (30_000 - 3_000)


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

    def test_atom_count_past_the_float_range_is_a_domain_failure(self, capsys):
        # lam / N would overflow converting N to a float; the ladder cap comes first
        argv = ["exact-compare", "--chi-ratio", "0.6", "--theta", "0.1", "--n-list", "1" + "0" * 400]
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "exceeds the ladder size cap" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # 2*lam overflows in the mean-field gap solve; the ladder read rz_exact = NaN
            (["--chi-ratio", "1.7e308", "--n-list", "8"],
             "gap_solve: 2*lam is past the float range"),
            (["--chi-ratio", "1e305", "--n-list", "10000"], "ladder energies past the float range"),
        ],
    )
    def test_results_past_the_float_range_are_domain_failures(self, capsys, argv, message):
        code, out, err = run_silently(capsys, ["exact-compare", *argv, "--theta", "0.1"])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and message in err

    def test_coupling_a_float_range_below_varpi_sums_the_whole_ladder(self, capsys):
        # varpi rounds to 1.0 and lambda_n is about 5e-161, so the level k
        # above m = -4 has the weight e**-k; (varpi/lambda_n)**2 overflows
        argv = ["exact-compare", "--chi-ratio", "1e-160", "--theta", "1", "--n-list", "8",
                "--precision", "17"]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        [record] = json.loads(out)
        weights = [math.exp(-k) for k in range(9)]
        reference = sum((k - 4) * w for k, w in enumerate(weights)) / (8 * sum(weights))
        assert record["rz_exact"] == pytest.approx(reference, abs=1e-12)

    def test_subnormal_temperature_takes_the_cold_limit_without_a_warning(self, capsys):
        # every level above the lowest gets the weight exp(-inf) = 0
        argv = ["exact-compare", "--chi-ratio", "0.6", "--precision", "17", "--theta"]
        code, out, err = run_silently(capsys, [*argv, "5e-324"])
        assert (code, err) == (EXIT_OK, "")
        assert out == run(capsys, [*argv, "1e-300"])[1]
        assert [record["rz_exact"] for record in json.loads(out)] == [
            -0.375, -0.34375, -0.3359375, -0.333984375
        ]


class TestMicro:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--level", "1,1,1e-200,3e-200", "--omega-k", "2e-200"], "underflows to 0"),
            (["--level", "1,1,3,2", "--gamma-cav", "1e-200", "--omega-k", "0.5"], "underflows to 0"),
            (["--level", "1e200,1e200,3,2", "--omega-k", "1"], "amplitude is inf"),
            (["--level", "1,1,3,2", "--omega-k", "1.7e308"], "chi = nan"),
            (["--level", "1,1,3,2", "--gamma-cav", "1e-308", "--omega-k", "1e10"], "chi/gamma = inf"),
        ],
    )
    def test_results_past_the_float_range_are_domain_failures(self, capsys, argv, message):
        gamma_cav = [] if "--gamma-cav" in argv else ["--gamma-cav", "0.5"]
        code, out, err = run(capsys, ["micro", *argv, *gamma_cav])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: ") and message in err

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

    def test_config_file_that_is_not_utf8(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, ["sweep", "--chi-ratio", "0.6", "--config", str(config)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: cannot read config file {config}")
        assert len(err.splitlines()) == 1

    def test_malformed_config_line(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("chi_ratio 0.6\n")
        code, _, err = run(capsys, ["sweep", "--config", str(config)])
        assert code == EXIT_USAGE
        assert "key=value" in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["sweep"], "variant = bogus"),
            (["sweep"], "format = xml"),
            (["exact-compare", "--theta", "0.1"], "variant = both"),
        ],
    )
    def test_config_value_outside_the_choices(self, capsys, tmp_path, argv, line):
        config = tmp_path / "bad.cfg"
        config.write_text(f"chi_ratio = 0.6\n{line}\n")
        code, out, err = run(capsys, [*argv, "--config", str(config)])
        assert (code, out) == (EXIT_USAGE, "")
        assert line.split()[0] in err

    def test_config_cannot_nest(self, capsys, tmp_path):
        config = tmp_path / "loop.cfg"
        config.write_text(f"config = {config}\n")
        code, _, err = run(capsys, ["sweep", "--config", str(config)])
        assert code == EXIT_USAGE
        assert "config" in err


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    # every `quasispin ...` line of README.md's sh blocks, continued lines joined
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    lines = [line for line in blocks.splitlines() if line.startswith("quasispin ")]
    commands = [shlex.split(line)[1:] for line in lines]
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)  # the commands write their files into the working directory
    for argv in commands:
        code, _, err = run(capsys, argv)
        assert (code, err) == (EXIT_OK, ""), argv
