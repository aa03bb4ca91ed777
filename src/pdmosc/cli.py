"""Command-line front end.

Verbs: ``sweep`` (one quantity along a grid), ``figure <id>`` (figure
presets with the quoted parameter values), ``audit`` (the printed-vs-oracle
discrepancy atlas), ``point`` (one thermodynamic or superstatistical state
as key=value lines, or as a one-record JSON array).

Exit codes: 0 success, 2 invalid arguments (a sweep also refuses a point
flag its quantity does not read) or any other package error, 3 numerical
non-convergence.
A plain ``key = value`` config file can seed any flag; its values are
validated like flags, and explicit flags always win.
"""

import argparse
import functools
import sys
from itertools import product

from .errors import NonConvergence, NonDecaying, PdmoscError
from .numerics import Tolerance
from .thermo import TRANSCRIPTIONS
from . import routes, sweeps, verify


def _level(text: str) -> float:
    """n: a nonnegative integer whose float is exactly the number its text names."""
    from decimal import Decimal  # only a level sweep needs it
    if not ((n := float(text)) >= 0.0 and n.is_integer() and Decimal(n) == Decimal(text)):
        raise ValueError(f"n must be a nonnegative integer that a float holds, not {text!r}")
    return n


def _parse_range(text: str, number=float) -> tuple[float, ...]:
    """lo:hi:count (linear), log:lo:hi:count, or a comma-separated list of numbers."""
    if "," in text:
        return tuple(map(number, text.split(",")))
    parts = text.split(":")
    log = parts[0] == "log"
    if log:
        parts = parts[1:]
    if len(parts) != 3:
        raise ValueError(f"bad range {text!r}: expected lo:hi:count, log:lo:hi:count or v1,v2,...")
    lo, hi, count = number(parts[0]), number(parts[1]), int(parts[2])
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
        sub.add_argument(f"--{name}", type=_level if name == "n" else float, default=None)
    sub.add_argument("--method", default=None, choices=list(routes.METHODS))
    sub.add_argument("--transcription", default="verbatim", choices=list(TRANSCRIPTIONS))
    sub.add_argument("--units", default="natural", choices=routes.UNITS)
    _add_common(sub)


def _add_common(sub, tolerances: bool = True):
    """The output and config flags every verb reads, and the tolerance flags
    of the verbs that reach a quadrature route (all but figure)."""
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", dest="format", default="csv", choices=["csv", "json"])
    if tolerances:
        sub.add_argument("--tol-rel", dest="tol_rel", type=float, default=None)
        sub.add_argument("--tol-abs", dest="tol_abs", type=float, default=None)
    sub.add_argument("--config", default=None, help="key = value config file")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser listing as ``added`` the one-value actions add_argument returns."""
    def add_argument(self, *args, **kwargs) -> argparse.Action:
        action = super().add_argument(*args, **kwargs)
        if action.nargs is None:
            self.__dict__.setdefault("added", []).append(action)
        return action


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The top-level parser and, per verb, its subparser and _parse's flag table
    ({option string: action}, positionals, required dests, {dest: default}), built
    once per process: parse_args leaves them unchanged, so calls start from defaults."""
    parser = _Parser(
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
    _add_common(figure, tolerances=False)  # no preset route reads a tolerance

    audit = subs.add_parser("audit", help="printed-vs-oracle discrepancy atlas")
    audit.add_argument("--method", default="closed", choices=list(verify._ORACLES),
                       help="oracle basis of the thermo quantities")
    _add_common(audit)

    point = subs.add_parser("point", help="one state as key=value lines or JSON")
    _add_point_flags(point, ("alpha", "beta", "q"))  # a point reads no level n
    return parser, {verb: (
        sub, {s: a for a in sub.added for s in a.option_strings},
        [a for a in sub.added if not a.option_strings], {a.dest for a in sub.added if a.required},
        {a.dest: a.default for a in sub.added if not a.required})
        for verb, sub in subs.choices.items()}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser of every verb, built once per process."""
    return _parsers()[0]


def _parse(verb: str, tokens: list[str]) -> argparse.Namespace:
    """tokens as the verb's parser parses them, read in one pass over its
    flag table where spelled exactly and valid (a repeated flag's last value
    wins); -h, '--', abbreviated or unknown flags, values that begin with
    '-' and every argument error go to the parser, which reports them."""
    parser, flags, positionals, required, defaults = _parsers()[1][verb]
    values, pending, stream = dict(defaults), iter(positionals), iter(tokens)
    for token in stream:
        if token.startswith("-"):
            name, eq, value = token.partition("=")
            action, value = flags.get(name), value if eq else next(stream, "-")
        else:
            action, value = next(pending, None), token
        if action is None or value.startswith("-"):
            break
        try:
            value = action.type(value) if action.type else value
        except (TypeError, ValueError):
            break
        if action.choices is not None and value not in action.choices:
            break
        values[action.dest] = value
    else:
        if values.keys() >= required:
            return argparse.Namespace(command=verb, **values)
    return parser.parse_args(tokens, argparse.Namespace(command=verb))


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv as build_parser() parses it, with the values of a --config file
    put before the command's own flags, which win.  A command that starts
    with its verb goes to _parse for that verb; anything else (-h, a
    missing or unknown verb) goes to the top-level parser, which exits."""
    parser, verbs = _parsers()
    if not argv or argv[0] not in verbs:
        parser.parse_args(argv)  # prints help or the usage error and exits
    verb, rest = argv[0], argv[1:]
    args = _parse(verb, rest)
    if args.config:
        args = _parse(verb, _config_tokens(args) + rest)
    return args


def _tolerance(args, default: Tolerance) -> Tolerance:
    """--tol-rel/--tol-abs over the command's default tolerance."""
    return Tolerance(rel=default.rel if args.tol_rel is None else args.tol_rel,
                     abs=default.abs if args.tol_abs is None else args.tol_abs)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_curves(args, header: list[str], labels: list[str] | None, xs: list, ys: list,
                 warnings: list):
    """Curves over the one grid xs as CSV or JSON rows: for each curve of
    labels, its label, then x, y and warning at each x; a sweep (labels
    None) is one curve without a label.  ys and warnings run curve-major.
    The CSV is one % template over the flattened columns, each x formatted
    once for all the curves; a y column holding None is formatted field by
    field, None as the empty field."""
    leads = [()] if labels is None else [(label,) for label in labels]
    if args.format == "json":
        text = verify.render_json([dict(zip(header, (*lead, x, y, w))) for (lead, x), y, w
                                   in zip(product(leads, xs), ys, warnings)])
    else:
        y_field = "%.17g"
        if None in ys:
            y_field, ys = "%s", ["" if y is None else "%.17g" % y for y in ys]
        fields = [None] * (3 * len(ys))
        fields[0::3] = ("%.17g\n" * len(xs) % tuple(xs)).split("\n")[:-1] * len(leads)
        fields[1::3] = ys
        fields[2::3] = warnings
        text = ",".join(header) + "\n" + "".join(
            ("".join(f"{v}," for v in lead) + f"%s,{y_field},%s\n") * len(xs)
            for lead in leads) % tuple(fields)
    _emit(text, args.out)


def _values(args) -> dict:
    """The point parameters given as flags (or by the config file), as
    routes.state values."""
    return {k: v for k in ("alpha", "beta", "q", "n")
            if (v := getattr(args, k, None)) is not None}


def _cmd_sweep(args) -> int:
    family = "superstat" if args.quantity in routes.SUPERSTAT else "thermo"
    spec = sweeps.SweepSpec(
        quantity=args.quantity, vary=args.vary,
        values=_parse_range(args.range, _level if args.vary == "n" else float),
        fixed=_values(args), method=args.method or routes.DEFAULT[family], units=args.units,
        transcription=args.transcription)
    _emit_curves(args, [args.vary, args.quantity, "warning"], None,
                 *sweeps.run_sweep(spec, _tolerance(args, sweeps.SWEEP_TOL)))
    return 0


def _cmd_figure(args) -> int:
    _emit_curves(args, ["curve", "x", "y", "warning"], *sweeps.figure_preset(args.id))
    return 0


def _cmd_audit(args) -> int:
    render = verify.render_audit_json if args.format == "json" else verify.render_audit_csv
    _emit(render(verify.audit_columns(tol=_tolerance(args, verify.AUDIT_TOL),
                                      oracle_basis=args.method)), args.out)
    return 0


def _cmd_point(args) -> int:
    s = routes.state(_values(args), args.units, tol=_tolerance(args, sweeps.SWEEP_TOL))
    family = "thermo" if args.q is None else "superstat"
    method = args.method or routes.DEFAULT[family]
    if method not in routes.POINTS[family]:
        raise ValueError(f"{family} points have no method {method!r}")
    pt = routes.POINTS[family][method](s)
    if method == "closed":  # each quantity in both transcriptions: print the one named
        j = TRANSCRIPTIONS.index(args.transcription)
        pt = pt._replace(**{k: getattr(pt, k)[j] for k in routes.FIELDS[family]})
    keys = (("beta",) if args.q is None else ("beta", "q")) + routes.FIELDS[family]
    record = {**{k: float(getattr(pt, k)) for k in keys}, "method": pt.method}
    _emit(verify.render_json([record]) if args.format == "json" else
          "".join(f"{k}={v}\n" if k == "method" else f"{k}={v:.17g}\n"
                  for k, v in record.items()), args.out)
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
