"""Command-line front end.

Verbs: ``sweep`` (one quantity along a grid), ``figure <id>`` (figure
presets with the quoted parameter values), ``audit`` (the printed-vs-oracle
discrepancy atlas), ``point`` (one thermodynamic or superstatistical state
as key=value lines).

Exit codes: 0 success, 2 invalid arguments or any other package error,
3 numerical non-convergence.
A plain ``key = value`` config file can seed any flag; flags override it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import NonConvergence, NonDecaying, PdmoscError
from .numerics import Tolerance
from .spectrum import OscillatorParams, coefficients
from . import superstat, sweeps, thermo, verify


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def _parse_range(text: str) -> tuple[float, ...]:
    """lo:hi:count (linear), log:lo:hi:count, or a comma-separated list."""
    if "," in text:
        return tuple(float(v) for v in text.split(","))
    parts = text.split(":")
    if parts and parts[0] == "log":
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        return sweeps.log_range(lo, hi, count)
    if len(parts) != 3:
        raise ValueError(f"bad range {text!r}: expected lo:hi:count, log:lo:hi:count or v1,v2,...")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    return sweeps.linear_range(lo, hi, count)


def _read_config(path: str) -> dict:
    """Plain 'key = value' lines; '#' starts a comment."""
    conf = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            conf[key.replace("-", "_")] = value
    return conf


def _add_common(sub, *, point_flags=True):
    if point_flags:
        sub.add_argument("--alpha", type=float, default=0.0)
        sub.add_argument("--beta", type=float, default=1.0)
        sub.add_argument("--q", type=float, default=None)
        sub.add_argument("--n", type=int, default=0)
    sub.add_argument("--method", default=None,
                     choices=["sum", "closed", "quad01", "quadinf", "engine"])
    sub.add_argument("--transcription", default="verbatim",
                     choices=["verbatim", "corrected"])
    sub.add_argument("--units", default="natural", choices=["natural", "si"])
    sub.add_argument("--b-convention", dest="b_convention", default="spectrum",
                     choices=["spectrum", "compact"])
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", dest="format", default="csv", choices=["csv", "json"])
    sub.add_argument("--tol-rel", dest="tol_rel", type=float, default=None)
    sub.add_argument("--tol-abs", dest="tol_abs", type=float, default=None)
    sub.add_argument("--config", default=None, help="key = value config file")


def build_parser() -> argparse.ArgumentParser:
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
    _add_common(sweep)

    figure = subs.add_parser("figure", help="emit one figure preset")
    figure.add_argument("id", choices=list(sweeps.FIGURE_IDS))
    _add_common(figure, point_flags=False)

    audit = subs.add_parser("audit", help="printed-vs-oracle discrepancy atlas")
    _add_common(audit, point_flags=False)

    point = subs.add_parser("point", help="one state as key=value lines")
    _add_common(point)
    return parser


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    if not args.config:
        return args
    conf = _read_config(args.config)
    casts = {"alpha": float, "beta": float, "q": float, "n": int,
             "tol_rel": float, "tol_abs": float}
    parser_defaults = build_parser().parse_args([args.command] + _required_stub(args))
    for key, value in conf.items():
        if not hasattr(args, key):
            raise ValueError(f"unknown config key {key.replace('_', '-')!r}")
        # flags override config: only fill values still at their default
        if getattr(args, key) == getattr(parser_defaults, key, None):
            setattr(args, key, casts.get(key, str)(value))
    return args


def _required_stub(args) -> list[str]:
    if args.command == "sweep":
        return [args.quantity, "--vary", args.vary, "--range", args.range]
    if args.command == "figure":
        return [args.id]
    return []


def _tolerance(args) -> Tolerance:
    rel = args.tol_rel if args.tol_rel is not None else 1e-10
    abs_ = args.tol_abs if args.tol_abs is not None else 0.0
    return Tolerance(rel=rel, abs=abs_, max_evals=400_000)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_csv(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float)) or v is None
                              else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _rows_json(header: list[str], rows: list[tuple]) -> str:
    return json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n"


def _cmd_sweep(args) -> int:
    values = _parse_range(args.range)
    fixed = {}
    if args.vary != "alpha":
        fixed["alpha"] = args.alpha
    if args.vary != "beta" and args.quantity not in ("Energy",):
        fixed["beta"] = args.beta
    if args.vary != "q" and args.q is not None:
        fixed["q"] = args.q
    if args.vary != "n" and args.quantity == "Energy":
        fixed["n"] = args.n
    spec = sweeps.SweepSpec(
        quantity=args.quantity, vary=args.vary, values=values, fixed=fixed,
        method=args.method or "sum", units=args.units,
        transcription=args.transcription, b_convention=args.b_convention)
    rows = [(r.x, r.y, r.warning) for r in sweeps.run_sweep(spec, _tolerance(args))]
    render = _rows_csv if args.format == "csv" else _rows_json
    _emit(render([args.vary, args.quantity, "warning"], rows), args.out)
    return 0


def _cmd_figure(args) -> int:
    rows = [(r.curve, r.x, r.y, r.warning)
            for r in sweeps.figure_preset(args.id, _tolerance(args))]
    render = _rows_csv if args.format == "csv" else _rows_json
    _emit(render(["curve", "x", "y", "warning"], rows), args.out)
    return 0


def _cmd_audit(args) -> int:
    basis = "sum" if args.method == "sum" else "closed"
    tol = Tolerance(rel=args.tol_rel if args.tol_rel is not None else 3e-13,
                    abs=args.tol_abs if args.tol_abs is not None else 0.0,
                    max_evals=400_000)
    reports = verify.audit_grid(tol=tol, oracle_basis=basis)
    if args.format == "json":
        payload = [{"quantity": r.quantity, "alpha": r.alpha, "beta": r.beta,
                    "q": r.q, "transcription": r.transcription,
                    "printed": r.printed, "oracle": r.oracle,
                    "rel_diff": r.rel_diff, "classification": r.classification}
                   for r in reports]
        _emit(json.dumps(payload, indent=1) + "\n", args.out)
    else:
        _emit(verify.render_audit_csv(reports), args.out)
    return 0


def _cmd_point(args) -> int:
    if args.units == "si":
        p = OscillatorParams.si(alpha=args.alpha)
    else:
        p = OscillatorParams(alpha=args.alpha)
    c = coefficients(p, args.b_convention)
    tol = _tolerance(args)
    lines = []
    if args.q is None:
        method = args.method or "sum"
        if method == "closed":
            pt = thermo.thermo_closed_point(c, args.beta, p.kB, args.transcription)
        elif method in ("quad01", "quadinf"):
            pt = thermo.thermo_from_logZ(thermo.log_partition(c, method, tol),
                                         args.beta, p.kB, method)
        else:
            pt = thermo.thermo_sum_engine(c, args.beta, p.kB, tol)
        lines += [f"beta={_fmt(pt.beta.value)}", f"Z={_fmt(pt.Z)}", f"U={_fmt(pt.U)}",
                  f"C={_fmt(pt.C)}", f"S={_fmt(pt.S)}", f"F={_fmt(pt.F)}",
                  f"method={pt.method}"]
    else:
        method = "closed" if args.method == "closed" else "engine"
        spt = superstat.superstat_thermo(c, args.beta, args.q, p.kB, tol,
                                         method=method,
                                         transcription=args.transcription)
        lines += [f"beta={_fmt(spt.beta.value)}", f"q={_fmt(spt.q.q)}",
                  f"Zs={_fmt(spt.Zs)}", f"Us={_fmt(spt.Us)}", f"Ss={_fmt(spt.Ss)}",
                  f"Fs={_fmt(spt.Fs)}", f"Cs={_fmt(spt.Cs)}", f"method={spt.method}"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {"sweep": _cmd_sweep, "figure": _cmd_figure,
             "audit": _cmd_audit, "point": _cmd_point}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args)
        return _COMMANDS[args.command](args)
    except (NonConvergence, NonDecaying) as exc:
        print(f"pdmosc: numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, PdmoscError) as exc:
        print(f"pdmosc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
