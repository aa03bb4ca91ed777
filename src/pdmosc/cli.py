"""Command-line front end.

Verbs: ``sweep`` (one quantity along a grid), ``figure <id>`` (figure
presets with the quoted parameter values), ``audit`` (the printed-vs-oracle
discrepancy atlas), ``point`` (one thermodynamic or superstatistical state
as key=value lines).

Exit codes: 0 success, 2 invalid arguments (a sweep also refuses a point
flag its quantity does not read) or any other package error, 3 numerical
non-convergence.
A plain ``key = value`` config file can seed any flag; its values are
validated like flags, and explicit flags always win.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import NonConvergence, NonDecaying, PdmoscError
from .numerics import Tolerance
from . import routes, sweeps, verify


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_range(text: str) -> tuple[float, ...]:
    """lo:hi:count (linear), log:lo:hi:count, or a comma-separated list."""
    if "," in text:
        return tuple(map(float, text.split(",")))
    parts = text.split(":")
    log = parts[0] == "log"
    if log:
        parts = parts[1:]
    if len(parts) != 3:
        raise ValueError(f"bad range {text!r}: expected lo:hi:count, log:lo:hi:count or v1,v2,...")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    return (sweeps.log_range if log else sweeps.linear_range)(lo, hi, count)


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """The config file's 'key = value' lines ('#' starts a comment) as
    --key=value option tokens; a key that is no flag of the command is an
    error."""
    tokens = []
    with open(args.config) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{args.config}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            dest = key.replace("-", "_")
            if dest in ("command", "quantity", "id") or not hasattr(args, dest):
                raise ValueError(f"unknown config key {dest.replace('_', '-')!r}")
            tokens.append(f"--{dest.replace('_', '-')}={value}")
    return tokens


def _add_point_flags(sub, params: tuple[str, ...]):
    """The flags of the point parameters params and of the route; a
    parameter not given stays None, and routes.state fills in its default."""
    for name in params:
        sub.add_argument(f"--{name}", type=int if name == "n" else float, default=None)
    sub.add_argument("--method", default=None, choices=list(routes.METHODS))
    sub.add_argument("--transcription", default="verbatim",
                     choices=["verbatim", "corrected"])
    sub.add_argument("--units", default="natural", choices=["natural", "si"])
    sub.add_argument("--b-convention", dest="b_convention", default="spectrum",
                     choices=["spectrum", "compact"])
    _add_common(sub)


def _add_common(sub):
    """The output, tolerance and config flags every verb reads."""
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", dest="format", default="csv", choices=["csv", "json"])
    sub.add_argument("--tol-rel", dest="tol_rel", type=float, default=None)
    sub.add_argument("--tol-abs", dest="tol_abs", type=float, default=None)
    sub.add_argument("--config", default=None, help="key = value config file")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the {verb: parser} map of its subparsers,
    built once per process: parse_args leaves them unchanged, so every call
    starts from the defaults."""
    parser = argparse.ArgumentParser(
        prog="pdmosc",
        description="Thermodynamics and superstatistics of the deformed-mass "
                    "oscillator, with closed-form auditing.")
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="evaluate one quantity along a grid")
    sweep.add_argument("quantity", choices=list(sweeps.QUANTITIES))
    sweep.add_argument("--vary", required=True, choices=list(sweeps.VARY_CHOICES))
    sweep.add_argument("--range", dest="range", required=True,
                       help="lo:hi:count, log:lo:hi:count, or v1,v2,...")
    _add_point_flags(sweep, ("alpha", "beta", "q", "n"))

    figure = subs.add_parser("figure", help="emit one figure preset")
    figure.add_argument("id", choices=list(sweeps.FIGURE_IDS))
    _add_common(figure)

    audit = subs.add_parser("audit", help="printed-vs-oracle discrepancy atlas")
    audit.add_argument("--method", default="closed", choices=["closed", "sum"],
                       help="oracle basis of the thermo quantities")
    _add_common(audit)

    point = subs.add_parser("point", help="one state as key=value lines")
    _add_point_flags(point, ("alpha", "beta", "q"))  # a point reads no level n
    return parser, {"sweep": sweep, "figure": figure, "audit": audit, "point": point}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser of every verb, built once per process."""
    return _parsers()[0]


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv as build_parser() parses it, with the values of a --config file
    put before the command's own flags, which win.  A command that starts
    with its verb is parsed by that verb's parser alone; anything else (-h,
    a missing or unknown verb) goes to the top-level parser, which exits."""
    parser, verbs = _parsers()
    if not argv or argv[0] not in verbs:
        parser.parse_args(argv)  # prints help or the usage error and exits
    verb, rest = argv[0], argv[1:]
    args = verbs[verb].parse_args(rest, argparse.Namespace(command=verb))
    if args.config:
        args = verbs[verb].parse_args(_config_tokens(args) + rest,
                                      argparse.Namespace(command=verb))
    return args


def _tolerance(args, rel: float = 1e-10) -> Tolerance:
    """--tol-rel/--tol-abs over the command's default relative tolerance."""
    return Tolerance(rel=args.tol_rel if args.tol_rel is not None else rel,
                     abs=args.tol_abs if args.tol_abs is not None else 0.0,
                     max_evals=400_000)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_csv(header: list[str], template: str, rows: list[tuple]) -> str:
    """One line per row, formatted by template: its comma-separated fields
    are %.17g for a number and %s for a string.  A row holding None is
    formatted field by field, None as the empty field."""
    fields = template.split(",")
    lines = [",".join(header)]
    lines += [template % row if None not in row else
              ",".join("" if v is None else f % v for f, v in zip(fields, row))
              for row in rows]
    return "\n".join(lines) + "\n"


def _rows_json(header: list[str], rows: list[tuple]) -> str:
    return json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n"


def _emit_rows(args, header: list[str], template: str, rows: list[tuple]):
    """rows as CSV (through template, see _rows_csv) or as JSON."""
    text = _rows_csv(header, template, rows) if args.format == "csv" else \
        _rows_json(header, rows)
    _emit(text, args.out)


def _values(args) -> dict:
    """The point parameters given as flags (or by the config file), as
    routes.state values."""
    return {k: v for k in ("alpha", "beta", "q", "n")
            if (v := getattr(args, k, None)) is not None}


def _cmd_sweep(args) -> int:
    fixed = _values(args)
    reads = sweeps.DEPENDS_ON[args.quantity]
    ignored = [f"--{k}" for k in fixed if k not in reads]
    if ignored:
        raise ValueError(f"{args.quantity} does not read {', '.join(ignored)}; "
                         f"its sweep takes only --{', --'.join(reads)}")
    spec = sweeps.SweepSpec(
        quantity=args.quantity, vary=args.vary, values=_parse_range(args.range),
        fixed=fixed, method=args.method or "sum", units=args.units,
        transcription=args.transcription, b_convention=args.b_convention)
    _emit_rows(args, [args.vary, args.quantity, "warning"], "%.17g,%.17g,%s",
               sweeps.run_sweep(spec, _tolerance(args)))
    return 0


def _cmd_figure(args) -> int:
    _emit_rows(args, ["curve", "x", "y", "warning"], "%s,%.17g,%.17g,%s",
               sweeps.figure_preset(args.id, _tolerance(args)))
    return 0


def _cmd_audit(args) -> int:
    reports = verify.audit_grid(tol=_tolerance(args, rel=3e-13), oracle_basis=args.method)
    if args.format == "json":
        _emit(json.dumps([r._asdict() for r in reports], indent=1) + "\n", args.out)
    else:
        _emit(verify.render_audit_csv(reports), args.out)
    return 0


def _cmd_point(args) -> int:
    s = routes.state(_values(args), args.units, args.b_convention, args.transcription,
                     _tolerance(args))
    family = "thermo" if args.q is None else "superstat"
    method = args.method or "sum"
    if method not in routes.POINTS[family]:
        raise ValueError(f"{family} points have no method {method!r}")
    pt = routes.POINTS[family][method](s)
    lines = [f"beta={_fmt(pt.beta)}"]
    if args.q is not None:
        lines.append(f"q={_fmt(pt.q)}")
    lines += [f"{qn}={_fmt(getattr(pt, qn))}" for qn in routes.FIELDS[family]]
    lines.append(f"method={pt.method}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {"sweep": _cmd_sweep, "figure": _cmd_figure,
             "audit": _cmd_audit, "point": _cmd_point}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command](args)
    except (NonConvergence, NonDecaying) as exc:
        print(f"pdmosc: numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, PdmoscError) as exc:
        print(f"pdmosc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
