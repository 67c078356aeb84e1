"""Command-line interface.

Subcommands cover temperature sweeps, critical-point scans, phase maps,
the two standard figure datasets, finite-size comparison, and the
microscopic coupling constants. Exit codes: 0 on success, 2 for usage
errors (bad flags, bad config, invalid parameter values), 3 for domain
failures (no solution in range, resonant level, unwritable output).

Every run is deterministic: identical inputs produce byte-identical
output. Each grid is solved in one vectorized pass on a single thread;
``--threads`` is still accepted (it must be >= 0) and ignored.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .exact import compare_meanfield
from .sweep import (
    FIG1_POINTS,
    FIG2_POINTS,
    OutputFormat,
    SweepConfig,
    boundary_table,
    comparison_table,
    concat_tables,
    critical_point_table,
    default_theta_max,
    figure1_table,
    figure2_table,
    phase_map,
    phase_map_table,
    plot_script,
    proposed_normalizer,
    serialize,
    sweep_table,
)
from .meanfield import critical_temperatures
from .thermal import (
    DomainError,
    MicroscopicLevels,
    ModelParams,
    TransitionLevel,
    Variant,
    coupling_constants,
    transition_amplitude,
)

__all__ = ["EXIT_OK", "EXIT_USAGE", "EXIT_DOMAIN", "UsageError", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class UsageError(Exception):
    """Invalid invocation: bad flag, bad value, or bad config entry."""


class _Parser(argparse.ArgumentParser):
    # Route argparse failures through UsageError so main() owns the exit
    # code; argparse would sys.exit(2) on its own otherwise.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _real(text: str) -> float:
    """A finite float; flags and config values reject nan and +-inf."""
    value = float(text)
    if not math.isfinite(value):
        # argparse prints this message as is; a ValueError would name the parser
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_float_list(text: str) -> list[float]:
    items = [chunk for chunk in text.split(",") if chunk.strip()]
    if not items:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")
    return [_real(chunk) for chunk in items]


def _parse_int_list(text: str) -> list[int]:
    items = [chunk for chunk in text.split(",") if chunk.strip()]
    if not items:
        raise ValueError(f"expected comma-separated integers, got {text!r}")
    return [int(chunk) for chunk in items]


def _parse_level(text: str) -> TransitionLevel:
    parts = [chunk.strip() for chunk in text.split(",")]
    if len(parts) != 4:
        raise ValueError(
            f"expected proj1,proj2,omega_a1,omega_2a (4 numbers), got {text!r}"
        )
    proj1, proj2, omega_a1, omega_2a = (_real(part) for part in parts)
    return TransitionLevel(proj1=proj1, proj2=proj2, omega_a1=omega_a1, omega_2a=omega_2a)


def _parse_level_list(text: str) -> list[TransitionLevel]:
    # Config form: semicolon-separated quadruples.
    items = [chunk for chunk in text.split(";") if chunk.strip()]
    if not items:
        raise ValueError(f"expected semicolon-separated level quadruples, got {text!r}")
    return [_parse_level(chunk) for chunk in items]


def _load_config(path: str) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment, blank lines are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        values[key] = value.strip()
    return values


def _merge_config(args: argparse.Namespace) -> None:
    """Fill flag values from the config file; explicit flags win."""
    if getattr(args, "config", None) is None:
        return
    converters: dict[str, Callable[[str], object]] = args._converters
    for key, raw in _load_config(args.config).items():
        if key == "config":
            raise UsageError("config files cannot set 'config'")
        if key not in converters:
            raise UsageError(f"unknown config key {key!r} for '{args.command}'")
        if getattr(args, key) is None:
            try:
                setattr(args, key, converters[key](raw))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc


def _fill_defaults(args: argparse.Namespace, **defaults: object) -> None:
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _validate_common(args: argparse.Namespace) -> None:
    if getattr(args, "omega_k", None) is not None:
        _check(args.omega_k > 0.0, f"--omega-k must be positive, got {args.omega_k}")
    if getattr(args, "precision", None) is not None:
        _check(6 <= args.precision <= 17, f"--precision must be in [6, 17], got {args.precision}")
    if getattr(args, "tol", None) is not None:
        _check(0.0 < args.tol <= 1e-3, f"--tol must be in (0, 1e-3], got {args.tol}")
    if getattr(args, "threads", None) is not None:
        _check(args.threads >= 0, f"--threads must be >= 0, got {args.threads}")


def _variant_list(value: str) -> list[Variant]:
    if value == "both":
        return [Variant.PROPOSED, Variant.TRADITIONAL]
    return [Variant(value)]


def _write_bytes(out: str | None, data: bytes) -> None:
    if out is None:
        sys.stdout.write(data.decode("utf-8"))
        return
    try:
        Path(out).write_bytes(data)
    except OSError as exc:
        raise DomainError(f"cannot write output file {out}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot write output file {path}: {exc}") from exc


def _check_plot_script(args: argparse.Namespace) -> None:
    if args.plot_script is None:
        return
    _check(args.out is not None, "--plot-script requires --out (the script reads that CSV)")
    _check(
        OutputFormat(args.format) is OutputFormat.CSV,
        "--plot-script requires --format csv",
    )


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "chi_ratio")
    _check(args.chi_ratio > 0.0, f"--chi-ratio must be positive, got {args.chi_ratio}")
    _fill_defaults(
        args,
        variant="proposed",
        theta_min=0.0,
        theta_max=default_theta_max(args.chi_ratio),
        points=200,
        normalize=False,
        format="csv",
        precision=9,
        tol=1e-10,
    )
    _validate_common(args)
    _check(args.points >= 2, f"--points must be >= 2, got {args.points}")
    _check(
        0.0 <= args.theta_min < args.theta_max,
        f"need 0 <= theta-min < theta-max, got [{args.theta_min}, {args.theta_max}]",
    )
    base = ModelParams(omega21=1.0, chi=args.chi_ratio, omega_k=args.omega_k)
    theta_cr = proposed_normalizer(base, tol=args.tol).theta_cr if args.normalize else None
    grid = (args.theta_min, args.theta_max, args.points)
    tables = [
        sweep_table(SweepConfig(replace(base, variant=variant), *grid), theta_cr)
        for variant in _variant_list(args.variant)
    ]
    _write_bytes(args.out, serialize(concat_tables(tables), args.format, args.precision))
    return EXIT_OK


def _cmd_critical(args: argparse.Namespace) -> int:
    _require(args, "chi_ratio")
    _check(args.chi_ratio > 0.0, f"--chi-ratio must be positive, got {args.chi_ratio}")
    _fill_defaults(
        args,
        variant="proposed",
        theta_min=1e-4,
        theta_max=2.0,
        points=512,
        format="json",
        precision=9,
        tol=1e-10,
    )
    _validate_common(args)
    _check(args.points >= 64, f"--points must be >= 64 for a critical scan, got {args.points}")
    _check(
        0.0 < args.theta_min < args.theta_max,
        f"need 0 < theta-min < theta-max, got [{args.theta_min}, {args.theta_max}]",
    )
    tables = []
    for variant in _variant_list(args.variant):
        params = ModelParams(
            omega21=1.0, chi=args.chi_ratio, omega_k=args.omega_k, variant=variant
        )
        points = critical_temperatures(
            params, (args.theta_min, args.theta_max), grid_points=args.points, tol=args.tol
        )
        tables.append(critical_point_table(points, variant))
    _write_bytes(args.out, serialize(concat_tables(tables), args.format, args.precision))
    return EXIT_OK


def _cmd_phase(args: argparse.Namespace) -> int:
    _fill_defaults(
        args,
        variant="proposed",
        chi_min=0.05,
        chi_max=0.95,
        theta_min=0.01,
        theta_max=1.0,
        nx=64,
        ny=64,
        format="csv",
        precision=9,
        tol=1e-10,
    )
    _check(args.variant != "both", "phase maps are per-variant; pick proposed or traditional")
    _validate_common(args)
    _check(
        0.0 < args.chi_min < args.chi_max,
        f"need 0 < chi-min < chi-max, got [{args.chi_min}, {args.chi_max}]",
    )
    _check(
        0.0 < args.theta_min < args.theta_max,
        f"need 0 < theta-min < theta-max, got [{args.theta_min}, {args.theta_max}]",
    )
    _check(args.nx >= 2 and args.ny >= 2, f"--nx and --ny must be >= 2, got {args.nx}, {args.ny}")
    pmap = phase_map(
        Variant(args.variant),
        (args.chi_min, args.chi_max),
        (args.theta_min, args.theta_max),
        nx=args.nx,
        ny=args.ny,
        omega_k=args.omega_k,
        tol=args.tol,
    )
    _write_bytes(args.out, serialize(phase_map_table(pmap), args.format, args.precision))
    if args.boundary_out is not None:
        _write_bytes(
            args.boundary_out, serialize(boundary_table(pmap), args.format, args.precision)
        )
    return EXIT_OK


def _cmd_fig1(args: argparse.Namespace) -> int:
    _require(args, "ratios")
    _fill_defaults(args, points=FIG1_POINTS, format="csv", precision=9, tol=1e-10)
    _validate_common(args)
    _check(args.points >= 2, f"--points must be >= 2, got {args.points}")
    for ratio in args.ratios:
        _check(0.0 < ratio < 1.0, f"each ratio must lie in (0, 1), got {ratio}")
    _check_plot_script(args)
    table = figure1_table(args.ratios, points=args.points, omega_k=args.omega_k, tol=args.tol)
    _write_bytes(args.out, serialize(table, args.format, args.precision))
    if args.plot_script is not None:
        _write_text(args.plot_script, plot_script("fig1", args.out))
    return EXIT_OK


def _cmd_fig2(args: argparse.Namespace) -> int:
    _require(args, "chi_ratio")
    _fill_defaults(
        args, variant="proposed", points=FIG2_POINTS, format="csv", precision=9, tol=1e-10
    )
    _validate_common(args)
    _check(
        0.0 < args.chi_ratio < 1.0, f"--chi-ratio must lie in (0, 1), got {args.chi_ratio}"
    )
    _check(args.points >= 2, f"--points must be >= 2, got {args.points}")
    _check_plot_script(args)
    tables = [
        figure2_table(
            args.chi_ratio, points=args.points, variant=variant, omega_k=args.omega_k, tol=args.tol
        )
        for variant in _variant_list(args.variant)
    ]
    _write_bytes(args.out, serialize(concat_tables(tables), args.format, args.precision))
    if args.plot_script is not None:
        _write_text(args.plot_script, plot_script("fig2", args.out))
    return EXIT_OK


def _cmd_exact_compare(args: argparse.Namespace) -> int:
    _require(args, "chi_ratio", "theta")
    _fill_defaults(args, variant="proposed", n_list=[8, 32, 128, 512], format="json", precision=9)
    _validate_common(args)
    _check(args.chi_ratio > 0.0, f"--chi-ratio must be positive, got {args.chi_ratio}")
    _check(args.theta > 0.0, f"--theta must be positive, got {args.theta}")
    for n_atoms in args.n_list:
        _check(n_atoms >= 2, f"each atom count must be >= 2, got {n_atoms}")
    variant = Variant(args.variant)
    params = ModelParams(omega21=1.0, chi=args.chi_ratio, omega_k=args.omega_k, variant=variant)
    comparisons = compare_meanfield(params, args.theta, args.n_list)
    _write_bytes(
        args.out, serialize(comparison_table(comparisons, variant), args.format, args.precision)
    )
    return EXIT_OK


def _cmd_micro(args: argparse.Namespace) -> int:
    _require(args, "levels", "gamma_cav")
    _fill_defaults(args, omega21=1.0, format="json", precision=9)
    _check(args.omega21 > 0.0, f"--omega21 must be positive, got {args.omega21}")
    _check(args.gamma_cav > 0.0, f"--gamma-cav must be positive, got {args.gamma_cav}")
    _fill_defaults(args, omega_k=0.5 * args.omega21)
    _validate_common(args)
    table = MicroscopicLevels(levels=tuple(args.levels), gamma_cav=args.gamma_cav)
    amplitude = transition_amplitude(table, args.omega_k)
    chi, gamma = coupling_constants(amplitude, args.gamma_cav, args.omega21, args.omega_k)
    delta = 2.0 * args.omega_k - args.omega21
    table = {
        "amplitude": [amplitude],
        "chi": [chi],
        "gamma": [gamma],
        # analytic ratio: finite even when the amplitude vanishes
        "chi_over_gamma": [delta / (2.0 * args.gamma_cav)],
    }
    _write_bytes(args.out, serialize(table, args.format, args.precision))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser construction


def _add_common_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["csv", "json"], default=None, help="output format")
    sub.add_argument(
        "--precision", type=int, default=None, help="significant digits for floats (6..17)"
    )
    sub.add_argument("--out", default=None, metavar="PATH", help="output file (default: stdout)")
    sub.add_argument("--config", default=None, metavar="PATH", help="key=value config file")


def _build_parser() -> _Parser:
    parser = _Parser(prog="quasispin", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"quasispin {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def register(
        name: str,
        handler: Callable[[argparse.Namespace], int],
        help_text: str,
    ) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text, description=help_text)
        sub.set_defaults(handler=handler)
        return sub

    def finish(sub: argparse.ArgumentParser, **overrides: Callable[[str], object]) -> None:
        # A config value parses like its flag's value, unless overridden (a
        # switch, or a repeatable flag given as one list).
        _add_common_output(sub)
        converters = {
            action.dest: action.type or str
            for action in sub._actions
            if action.dest not in ("help", "config")
        }
        sub.set_defaults(_converters={**converters, **overrides})

    sub = register("sweep", _cmd_sweep, "equilibrium observables on a temperature grid")
    sub.add_argument("--variant", choices=["proposed", "traditional", "both"], default=None)
    sub.add_argument("--chi-ratio", type=_real, default=None, help="chi / omega21, > 0")
    sub.add_argument("--omega-k", type=_real, default=None, help="mode energy (default omega21/2)")
    sub.add_argument("--theta-min", type=_real, default=None, help="grid start (default 0)")
    sub.add_argument(
        "--theta-max",
        type=_real,
        default=None,
        help="grid end (default: 3x the constant-coupling transition)",
    )
    sub.add_argument("--points", type=int, default=None, help="grid size (default 200)")
    sub.add_argument(
        "--normalize",
        action="store_const",
        const=True,
        default=None,
        help="prepend theta_norm = theta / theta_cr (largest proposed-variant root)",
    )
    sub.add_argument("--tol", type=_real, default=None, help="root tolerance (default 1e-10)")
    sub.add_argument("--threads", type=int, default=None, help="accepted and ignored (>= 0)")
    finish(sub, normalize=_parse_bool)

    sub = register("critical", _cmd_critical, "scan for order/disorder transition temperatures")
    sub.add_argument("--variant", choices=["proposed", "traditional", "both"], default=None)
    sub.add_argument("--chi-ratio", type=_real, default=None, help="chi / omega21, > 0")
    sub.add_argument("--omega-k", type=_real, default=None, help="mode energy (default omega21/2)")
    sub.add_argument("--theta-min", type=_real, default=None, help="scan start (default 1e-4)")
    sub.add_argument("--theta-max", type=_real, default=None, help="scan end (default 2.0)")
    sub.add_argument("--points", type=int, default=None, help="scan grid size (default 512)")
    sub.add_argument("--tol", type=_real, default=None, help="root tolerance (default 1e-10)")
    finish(sub)

    sub = register("phase", _cmd_phase, "phase classification on a ratio x temperature grid")
    sub.add_argument("--variant", choices=["proposed", "traditional"], default=None)
    sub.add_argument("--chi-min", type=_real, default=None, help="ratio axis start (default 0.05)")
    sub.add_argument("--chi-max", type=_real, default=None, help="ratio axis end (default 0.95)")
    sub.add_argument("--theta-min", type=_real, default=None, help="theta axis start (default 0.01)")
    sub.add_argument("--theta-max", type=_real, default=None, help="theta axis end (default 1.0)")
    sub.add_argument("--nx", type=int, default=None, help="ratio axis cells (default 64)")
    sub.add_argument("--ny", type=int, default=None, help="theta axis cells (default 64)")
    sub.add_argument("--omega-k", type=_real, default=None, help="mode energy (default omega21/2)")
    sub.add_argument("--tol", type=_real, default=None, help="boundary tolerance (default 1e-10)")
    sub.add_argument("--threads", type=int, default=None, help="accepted and ignored (>= 0)")
    sub.add_argument(
        "--boundary-out", default=None, metavar="PATH", help="also write refined boundary points"
    )
    finish(sub)

    sub = register(
        "fig1", _cmd_fig1, "order-parameter curves for both variants on a normalized axis"
    )
    sub.add_argument(
        "--ratios",
        type=_parse_float_list,
        default=None,
        metavar="R1,R2,...",
        help="coupling ratios chi / omega21, each in (0, 1)",
    )
    sub.add_argument(
        "--points", type=int, default=None, help=f"grid size per curve (default {FIG1_POINTS})"
    )
    sub.add_argument("--omega-k", type=_real, default=None, help="mode energy (default omega21/2)")
    sub.add_argument("--tol", type=_real, default=None, help="normalizer tolerance (default 1e-10)")
    sub.add_argument("--threads", type=int, default=None, help="accepted and ignored (>= 0)")
    sub.add_argument(
        "--plot-script", default=None, metavar="PATH", help="write a matplotlib script for the CSV"
    )
    finish(sub)

    sub = register(
        "fig2", _cmd_fig2, "equilibrium vs relaxation polarization across the transition"
    )
    sub.add_argument("--chi-ratio", type=_real, default=None, help="chi / omega21, in (0, 1)")
    sub.add_argument("--variant", choices=["proposed", "traditional", "both"], default=None)
    sub.add_argument("--points", type=int, default=None, help=f"grid size (default {FIG2_POINTS})")
    sub.add_argument("--omega-k", type=_real, default=None, help="mode energy (default omega21/2)")
    sub.add_argument("--tol", type=_real, default=None, help="root tolerance (default 1e-10)")
    sub.add_argument("--threads", type=int, default=None, help="accepted and ignored (>= 0)")
    sub.add_argument(
        "--plot-script", default=None, metavar="PATH", help="write a matplotlib script for the CSV"
    )
    finish(sub)

    sub = register(
        "exact-compare", _cmd_exact_compare, "finite-size polarization vs the mean-field value"
    )
    sub.add_argument("--chi-ratio", type=_real, default=None, help="chi / omega21, > 0")
    sub.add_argument("--variant", choices=["proposed", "traditional"], default=None)
    sub.add_argument("--theta", type=_real, default=None, help="temperature, > 0")
    sub.add_argument(
        "--n-list",
        type=_parse_int_list,
        default=None,
        metavar="N1,N2,...",
        help="atom counts (default 8,32,128,512)",
    )
    sub.add_argument("--omega-k", type=_real, default=None, help="mode energy (default omega21/2)")
    finish(sub)

    sub = register("micro", _cmd_micro, "coupling constants from an intermediate-level table")
    sub.add_argument(
        "--level",
        dest="levels",
        action="append",
        type=_parse_level,
        default=None,
        metavar="P1,P2,WA1,W2A",
        help="one intermediate level: proj1,proj2,omega_a1,omega_2a (repeatable)",
    )
    sub.add_argument("--gamma-cav", type=_real, default=None, help="cavity half-linewidth, > 0")
    sub.add_argument("--omega21", type=_real, default=None, help="bare splitting (default 1.0)")
    sub.add_argument("--omega-k", type=_real, default=None, help="mode energy (default omega21/2)")
    finish(sub, levels=_parse_level_list)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args)
        return args.handler(args)
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return code if isinstance(code, int) else EXIT_OK if code is None else EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

