"""Command-line interface.

Subcommands cover temperature sweeps, critical-point scans, phase maps,
the two standard figure datasets, finite-size comparison, and the
microscopic coupling constants. Exit codes: 0 on success, 2 for usage
errors (bad flags, bad config, invalid parameter values), 3 for domain
failures (no solution in range, resonant level, oversized grid, a result
past the float range, unwritable output). Any other exception is a bug and
ends in a traceback.

A failure writes nothing and creates no output file, unless it comes in a
row block after the first: ``sweep``, ``fig1`` and ``fig2`` write their rows
a block at a time, so such a failure exits 3 after the header and the whole
blocks before it. The first block, and every check of ``fig1`` and ``fig2``
(normalizer scans, grid sizes), run before the output file is opened.

Two tables drive the parser, the help text and the config-file merge:
``_FLAGS`` declares each flag once, ``_COMMANDS`` gives each subcommand its
handler and the default of each flag it takes. A value comes from its flag,
else from the ``--config`` file, else from the subcommand's default.

Every run is deterministic: identical inputs produce byte-identical
output. Each grid is solved in one vectorized pass on a single thread;
``--threads`` is still accepted (it must be >= 0) and ignored.

The front end (this module's load, parsing, the config merge, the checks and
the error mapping) needs only the names of :mod:`quasispin.base`: it imports no
numpy and no physics module. Each handler imports the modules it runs after
its own checks, and every output goes through the numpy-free
:mod:`quasispin.output`, so ``--version``, ``--help`` and every usage error exit
before numpy loads, ``micro`` (on the numpy-free :mod:`quasispin.levels`)
never loads it, only ``exact-compare`` loads the exact ladder, and ``critical``
and ``exact-compare`` never load :mod:`quasispin.sweep`. No module of the
package imports ``dataclasses``, which loads ``inspect``: the records are
``NamedTuple``s. Every subcommand is registered with its help line, but only
the one that runs gets its arguments.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from . import __version__
from .base import CRITICAL_POINTS, FIG1_POINTS, FIG2_POINTS, ROOT_TOL, DomainError, Table
from .base import TransitionLevel, default_theta_max

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

    # Help and version text for stdout takes the data's path, so a closed or
    # full stdout fails the run (exit 3); argparse would drop the OSError.
    def _print_message(self, message: str, file=None) -> None:
        if message and file is sys.stdout:
            _write_bytes(None, (message.encode("utf-8"),))
        else:
            super()._print_message(message, file)


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


def _list(parse_item: Callable[[str], object], sep: str = ",") -> Callable[[str], list]:
    """Parser of a ``sep``-separated list whose items ``parse_item`` parses."""

    def parse_list(text: str) -> list:
        items = [chunk for chunk in text.split(sep) if chunk.strip()]
        if not items:
            raise ValueError(f"expected {sep!r}-separated values, got {text!r}")
        return [parse_item(chunk) for chunk in items]

    return parse_list


def _parse_level(text: str) -> TransitionLevel:
    parts = [chunk.strip() for chunk in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"expected proj1,proj2,omega_a1,omega_2a (4 numbers), got {text!r}")
    return TransitionLevel(*map(_real, parts))


def _load_config(path: str) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment, blank lines are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


# ---------------------------------------------------------------------------
# the flag table


class _Flag(NamedTuple):
    """One flag. Its dest (the key in ``_FLAGS``) is also its config-file key."""

    help: str  # never names a default: each subcommand's default is appended
    parse: Callable[[str], object] | None = None  # argparse type; None keeps the string
    config: Callable[[str], object] | None = None  # a config value's parser, if not parse
    check: tuple[str, Callable[[object], bool]] | None = None  # ("must be" text, predicate)
    option: str | None = None  # the option string, if not --dest-with-dashes
    extras: dict | None = None  # further add_argument keywords; never mutated


_POSITIVE = ("positive", lambda value: value > 0.0)
_AT_LEAST_2 = (">= 2", lambda value: value >= 2)
_PATH = {"metavar": "PATH"}

_FLAGS: dict[str, _Flag] = {
    "variant": _Flag(
        "coupling variant (phase and exact-compare take one)",
        extras={"choices": ("proposed", "traditional", "both")},
    ),
    "chi_ratio": _Flag("chi / omega21", _real, check=_POSITIVE),
    "ratios": _Flag(
        "coupling ratios chi / omega21", _list(_real), extras={"metavar": "R1,..."},
        check=("all in (0, 1)", lambda ratios: 0.0 < min(ratios) and max(ratios) < 1.0),
    ),
    "levels": _Flag(
        "one intermediate level: proj1,proj2,omega_a1,omega_2a (repeatable; a config file"
        " gives levels = quadruples separated by ';')",
        _parse_level, config=_list(_parse_level, ";"), option="--level",
        extras={"action": "append", "metavar": "P1,P2,WA1,W2A"},
    ),
    "gamma_cav": _Flag("cavity half-linewidth", _real, check=_POSITIVE),
    "omega21": _Flag("bare splitting", _real, check=_POSITIVE),
    "omega_k": _Flag("cavity mode energy", _real, check=_POSITIVE),
    "theta": _Flag("temperature", _real, check=_POSITIVE),
    "theta_min": _Flag("first temperature of the grid", _real),
    "theta_max": _Flag("last temperature of the grid", _real),
    "chi_min": _Flag("first ratio of the ratio axis", _real),
    "chi_max": _Flag("last ratio of the ratio axis", _real),
    "points": _Flag("temperature grid size", int, check=_AT_LEAST_2),
    "nx": _Flag("ratio axis cells", int, check=_AT_LEAST_2),
    "ny": _Flag("temperature axis cells", int, check=_AT_LEAST_2),
    "n_list": _Flag(
        "atom counts", _list(int), check=("all >= 2", lambda counts: min(counts) >= 2),
        extras={"metavar": "N1,..."},
    ),
    "normalize": _Flag(
        "prepend theta_norm = theta / theta_cr (largest proposed-variant root)",
        config=_parse_bool, extras={"action": "store_const", "const": True},
    ),
    "tol": _Flag("relative root tolerance", _real, check=("in (0, 1e-3]", lambda v: 0 < v <= 1e-3)),
    "threads": _Flag("accepted and ignored", int, check=(">= 0", lambda value: value >= 0)),
    "format": _Flag("output format", extras={"choices": ("csv", "json")}),
    "precision": _Flag("significant digits", int, check=("in [6, 17]", lambda v: 6 <= v <= 17)),
    "out": _Flag("output file", extras=_PATH),
    "boundary_out": _Flag("also write the refined boundary points to this file", extras=_PATH),
    "plot_script": _Flag("write a matplotlib script that plots the --out CSV", extras=_PATH),
    "config": _Flag(
        "key = value file of options; a key is a flag without its dashes (levels for --level)",
        extras=_PATH,
    ),
}


def _option(dest: str) -> str:
    return _FLAGS[dest].option or "--" + dest.replace("_", "-")


def _variant_list(value: str) -> list[str]:
    # Variant values as strings: the physics takes either, and the CLI never imports Variant
    return ["proposed", "traditional"] if value == "both" else [value]


def _one_variant(args: argparse.Namespace) -> str:
    _check(args.variant != "both", f"'{args.command}' takes one variant: proposed or traditional")
    return args.variant


def _write_stdout(blocks: Iterable[bytes]) -> None:
    # Straight to the unbuffered binary stream, looping until every byte of
    # each block lands: a raw stream may take part of the data, and a failed
    # write then leaves no buffered bytes for the interpreter's final flush
    # to fail on.
    sys.stdout.flush()
    stream = getattr(sys.stdout, "buffer", None)
    if stream is None:  # a text-only stand-in, such as io.StringIO
        for data in blocks:
            sys.stdout.write(data.decode("utf-8"))
        return
    stream = getattr(stream, "raw", stream)
    for data in blocks:
        view = memoryview(data)
        while view:
            written = stream.write(view)
            if written is None:  # a non-blocking stream that would block
                raise BlockingIOError("stdout would block")
            view = view[written:]


def _write_bytes(out: str | None, blocks: Iterable[bytes]) -> None:
    # Each block is written as soon as it is produced, to stdout or to the
    # file out, which is opened before the first block is asked for.
    try:
        if out is None:
            _write_stdout(blocks)
        else:
            with open(out, "wb") as handle:
                handle.writelines(blocks)
    except OSError as exc:
        where = "to stdout" if out is None else f"output file {out}"
        raise DomainError(f"cannot write {where}: {exc}") from exc


def _check_range(args: argparse.Namespace, axis: str, floor: str = "<") -> None:
    """Check 0 < axis-min < axis-max; with floor "<=", axis-min may be 0."""
    lo, hi = getattr(args, f"{axis}_min"), getattr(args, f"{axis}_max")
    ok = (0.0 <= lo if floor == "<=" else 0.0 < lo) and lo < hi
    _check(ok, f"need 0 {floor} {axis}-min < {axis}-max, got [{lo}, {hi}]")


def _write_outputs(args: argparse.Namespace, tables: dict[str, Table | Iterable[Table]]) -> None:
    """Write each table, or sequence of tables, to the file its output flag names or stdout."""
    from .output import serialize_blocks

    for dest, table in tables.items():
        if dest == "out" or getattr(args, dest) is not None:
            blocks = serialize_blocks(table, args.format, args.precision)
            _write_bytes(getattr(args, dest), blocks)
    if getattr(args, "plot_script", None) is not None:
        from .sweep import plot_script

        _write_bytes(args.plot_script, (plot_script(args.command, args.out).encode("utf-8"),))


# ---------------------------------------------------------------------------
# subcommand handlers: each gets every option of its subcommand resolved and
# returns its tables, keyed by the dest of the flag that names their file (a
# sequence of tables is written as their rows in order); each imports the
# physics it runs after its own checks, so a usage error skips numpy


def _cmd_sweep(args: argparse.Namespace) -> dict[str, Iterable[Table]]:
    if args.theta_max is None:
        args.theta_max = default_theta_max(args.chi_ratio)
    _check_range(args, "theta", "<=")
    from .sweep import proposed_normalizer, sweep_blocks
    from .thermal import ModelParams

    base = ModelParams(omega21=1.0, chi=args.chi_ratio, omega_k=args.omega_k)
    theta_cr = proposed_normalizer(base, tol=args.tol) if args.normalize else None
    grid = (args.theta_min, args.theta_max, args.points)
    # The variants' rows in turn, each solved a row block at a time as it is
    # written, so only one variant's grid exists at a time. Its checks run
    # when the first block is asked for, before the output file is opened;
    # they do not depend on the variant.
    variants = (
        sweep_blocks(
            ModelParams(omega21=1.0, chi=args.chi_ratio, omega_k=args.omega_k, variant=variant),
            *grid, theta_cr,
        )
        for variant in _variant_list(args.variant)
    )
    return {"out": chain.from_iterable(variants)}


def _cmd_critical(args: argparse.Namespace) -> dict[str, list[Table]]:
    _check(args.points >= 64, f"--points must be >= 64 for a critical scan, got {args.points}")
    _check_range(args, "theta")
    from .meanfield import critical_temperatures
    from .thermal import ModelParams

    tables = [
        critical_temperatures(
            ModelParams(omega21=1.0, chi=args.chi_ratio, omega_k=args.omega_k, variant=variant),
            (args.theta_min, args.theta_max), grid_points=args.points, tol=args.tol,
        )
        for variant in _variant_list(args.variant)
    ]
    return {"out": tables}


def _cmd_phase(args: argparse.Namespace) -> dict[str, Table | Iterable[Table]]:
    variant = _one_variant(args)
    _check_range(args, "chi")
    _check_range(args, "theta")
    from .sweep import phase_map

    cells, boundary = phase_map(
        variant, (args.chi_min, args.chi_max), (args.theta_min, args.theta_max),
        nx=args.nx, ny=args.ny, omega_k=args.omega_k, tol=args.tol,
    )
    return {"out": cells, "boundary_out": boundary}


def _cmd_fig1(args: argparse.Namespace) -> dict[str, Iterable[Table]]:
    from .sweep import figure1_blocks

    blocks = figure1_blocks(args.ratios, points=args.points, omega_k=args.omega_k, tol=args.tol)
    return {"out": blocks}


def _cmd_fig2(args: argparse.Namespace) -> dict[str, Iterable[Table]]:
    _check(args.chi_ratio < 1.0, f"--chi-ratio must lie in (0, 1), got {args.chi_ratio}")
    from .sweep import figure2_blocks

    # a list: every variant's normalizer scan and grid checks run before any block
    variants = [
        figure2_blocks(
            args.chi_ratio, points=args.points, variant=variant, omega_k=args.omega_k, tol=args.tol
        )
        for variant in _variant_list(args.variant)
    ]
    return {"out": chain.from_iterable(variants)}


def _cmd_exact_compare(args: argparse.Namespace) -> dict[str, Table]:
    variant = _one_variant(args)
    from .exact import compare_meanfield
    from .thermal import ModelParams

    params = ModelParams(omega21=1.0, chi=args.chi_ratio, omega_k=args.omega_k, variant=variant)
    return {"out": compare_meanfield(params, args.theta, args.n_list)}


def _cmd_micro(args: argparse.Namespace) -> dict[str, Table]:
    omega_k = 0.5 * args.omega21 if args.omega_k is None else args.omega_k
    _check(omega_k > 0.0, f"--omega-k must be positive, got {omega_k}")
    from .levels import coupling_constants, transition_amplitude

    amplitude = transition_amplitude(args.levels, omega_k)
    chi, gamma = coupling_constants(amplitude, args.gamma_cav, args.omega21, omega_k)
    # analytic ratio: finite even when the amplitude vanishes
    ratio = (2.0 * omega_k - args.omega21) / (2.0 * args.gamma_cav)
    if not math.isfinite(ratio):
        raise DomainError(f"chi/gamma = {ratio} is past the float range; widen --gamma-cav")
    table = {"amplitude": [amplitude], "chi": [chi], "gamma": [gamma], "chi_over_gamma": [ratio]}
    return {"out": table}


# ---------------------------------------------------------------------------
# the subcommand table


class _Implicit(str):
    """A default the handler or ModelParams works out; the text says how."""


_REQUIRED = object()


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], dict[str, Table | Iterable[Table]]]
    description: str
    defaults: dict[str, object]  # dest -> default, _REQUIRED or an _Implicit


def _command(handler, description: str, output_format: str, **defaults: object) -> _Command:
    # Every subcommand also takes --omega-k and the output flags.
    shared = {"omega_k": _Implicit("omega21/2"), "format": output_format, "precision": 9}
    shared.update(out=_Implicit("stdout"), config=None)
    return _Command(handler, description, {**defaults, **shared})


_COMMANDS = {
    "sweep": _command(
        _cmd_sweep, "equilibrium observables on a temperature grid", "csv",
        variant="proposed", chi_ratio=_REQUIRED, theta_min=0.0,
        theta_max=_Implicit("3x the constant-coupling transition if there is one, else 2"),
        points=200, normalize=False, tol=ROOT_TOL, threads=None,
    ),
    "critical": _command(
        _cmd_critical, "scan for order/disorder transition temperatures", "json",
        variant="proposed", chi_ratio=_REQUIRED, theta_min=1e-4, theta_max=2.0,
        points=CRITICAL_POINTS, tol=ROOT_TOL,
    ),
    "phase": _command(
        _cmd_phase, "phase classification on a ratio x temperature grid", "csv",
        variant="proposed", chi_min=0.05, chi_max=0.95, theta_min=0.01, theta_max=1.0,
        nx=64, ny=64, tol=ROOT_TOL, threads=None, boundary_out=None,
    ),
    "fig1": _command(
        _cmd_fig1, "order-parameter curves for both variants on a normalized axis", "csv",
        ratios=_REQUIRED, points=FIG1_POINTS, tol=ROOT_TOL, threads=None, plot_script=None,
    ),
    "fig2": _command(
        _cmd_fig2, "equilibrium vs relaxation polarization across the transition", "csv",
        chi_ratio=_REQUIRED, variant="proposed", points=FIG2_POINTS, tol=ROOT_TOL, threads=None,
        plot_script=None,
    ),
    "exact-compare": _command(
        _cmd_exact_compare, "finite-size polarization vs the mean-field value", "json",
        chi_ratio=_REQUIRED, variant="proposed", theta=_REQUIRED, n_list=[8, 32, 128, 512],
    ),
    "micro": _command(
        _cmd_micro, "coupling constants from an intermediate-level table", "json",
        levels=_REQUIRED, gamma_cav=_REQUIRED, omega21=1.0,
    ),
}


def _help(dest: str, default: object) -> str:
    text = _FLAGS[dest].help
    if default is _REQUIRED:
        return f"{text} (required)"
    if default is None or isinstance(default, bool):
        return text
    shown = ",".join(map(str, default)) if isinstance(default, list) else default
    return f"{text} (default: {shown})"


def _build_parser(argv: Sequence[str]) -> _Parser:
    parser = _Parser(prog="quasispin", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"quasispin {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    # argparse runs the first token that is not an option, as none of its own takes a value
    chosen = next((token for token in argv if not token.startswith("-")), None)
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.description, description=command.description)
        sub.set_defaults(handler=command.handler)
        for dest, default in command.defaults.items() if name == chosen else ():
            spec = _FLAGS[dest]
            typed = {} if spec.parse is None else {"type": spec.parse}
            sub.add_argument(
                _option(dest), dest=dest, default=None, help=_help(dest, default),
                **typed, **(spec.extras or {}),
            )
    return parser


def _resolve(args: argparse.Namespace) -> None:
    """Set each option from its flag, else the config file, else its default; check it.

    An _Implicit default leaves None, for the handler or ModelParams to work out.
    """
    defaults = _COMMANDS[args.command].defaults
    config = {} if args.config is None else _load_config(args.config)
    for key, raw in config.items():
        _check(key != "config", "config files cannot set 'config'")
        _check(key in defaults, f"unknown config key {key!r} for '{args.command}'")
        if getattr(args, key) is not None:
            continue  # the flag wins; its config value is not even parsed
        spec = _FLAGS[key]
        try:
            value = (spec.config or spec.parse or str)(raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
        choices = (spec.extras or {}).get("choices", (value,))
        _check(value in choices, f"config key {key!r}: expected one of {choices}, got {raw!r}")
        setattr(args, key, value)
    for dest, default in defaults.items():
        if getattr(args, dest) is None:
            _check(default is not _REQUIRED, f"{_option(dest)} is required")
            setattr(args, dest, None if isinstance(default, _Implicit) else default)
        value, check = getattr(args, dest), _FLAGS[dest].check
        if check is not None and value is not None:
            _check(check[1](value), f"{_option(dest)} must be {check[0]}, got {value}")
    if getattr(args, "plot_script", None) is not None:
        _check(args.out is not None, "--plot-script requires --out (the script reads that CSV)")
        _check(args.format == "csv", "--plot-script requires --format csv")
    # Two output flags that name one file would each truncate it, and the
    # last write would win; a stream such as /dev/stdout is not a file. A
    # file that exists is known by its inode, so hard links to it match.
    seen: dict[object, str] = {}
    for dest in ("out", "boundary_out", "plot_script"):
        path = getattr(args, dest, None)
        if path is None or (os.path.exists(path) and not os.path.isfile(path)):
            continue
        stat = os.stat(path) if os.path.isfile(path) else None
        key = (stat.st_dev, stat.st_ino) if stat else os.path.realpath(path)
        first = seen.setdefault(key, dest)
        _check(first == dest, f"{_option(first)} and {_option(dest)} name the same file {path}")


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit.

    Only a UsageError (2) or a DomainError (3) is caught; any other exception propagates.
    """
    parser = _build_parser(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        _resolve(args)
        _write_outputs(args, args.handler(args))
        return EXIT_OK
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return code if isinstance(code, int) else EXIT_OK if code is None else EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
