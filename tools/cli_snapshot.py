"""Snapshot what the command line prints on a fixed corpus of argvs.

    python tools/cli_snapshot.py OUT.json

Run it from the root of a source checkout: it imports pdmosc from ``src/``
under the current directory, so one copy of this script snapshots any
checkout, and two checkouts print the same on the corpus exactly where
their snapshots have the same bytes.  Each argv runs through
``pdmosc.cli.main`` in-process; OUT.json is one JSON array of
{argv, exit, stdout, stderr} objects, in corpus order.  A parser error
(``SystemExit``) is recorded with its exit code, and a Python warning as a
``warning: <category>: <message>`` line of stderr, without the file and line
that would tell the checkouts apart.

The corpus:

* the figure presets and ``audit`` on both oracle bases, each as CSV and
  JSON;
* for every ``routes.ROUTES`` key, a two-point sweep over beta (n for
  Energy) at alpha = 0.3 (and q = 0.5 for superstat), in natural and SI
  units, and in both transcriptions for ``closed``;
* ``point`` for every ``routes.POINTS`` pair, in both transcriptions for
  ``closed``, as CSV and JSON;
* the refusals of alpha = 0 on ``closed``, beta = -1, q = 2 and
  n = 2^53 + 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

#: the swept betas per unit system: beta hbar omega from 0.5 to 2 in SI units
_BETAS = {"natural": "0.5,2", "si": "5e19,2e20"}


def corpus(routes, sweeps) -> list[list[str]]:
    """Every argv of the snapshot, from the route table of the checkout."""
    argvs = [["figure", fid] + fmt for fid in sweeps.FIGURE_IDS for fmt in ([], ["--format=json"])]
    argvs += [["audit", "--method", basis] + fmt for basis in ("closed", "sum")
              for fmt in ([], ["--format=json"])]
    for quantity, method in routes.ROUTES:
        vary = "n" if quantity == "Energy" else "beta"
        q = ["--q", "0.5"] if quantity in routes.SUPERSTAT else []
        for units in routes.UNITS:
            xs = "0,3" if vary == "n" else _BETAS[units]
            for tr in _transcriptions(method):
                argvs.append(["sweep", quantity, "--vary", vary, "--range", xs,
                              "--alpha", "0.3", *q, "--method", method, "--units", units, *tr])
    for family, methods in routes.POINTS.items():
        q = ["--q", "0.5"] if family == "superstat" else []
        for method in methods:
            for tr in _transcriptions(method):
                for fmt in ([], ["--format=json"]):
                    argvs.append(["point", "--alpha", "0.3", "--beta", "2", *q,
                                  "--method", method, *tr, *fmt])
    argvs += [["point", "--alpha", "0", "--method", "closed"],
              ["point", "--alpha", "0", "--q", "0.5", "--method", "closed"],
              ["point", "--alpha", "0.3", "--beta=-1"],
              ["point", "--alpha", "0.3", "--q", "2"],
              ["sweep", "Energy", "--vary", "n", "--range", "0,9007199254740993"],
              ["sweep", "Energy", "--vary", "alpha", "--range", "0.3,0.4",
               "--n", "9007199254740993"]]
    return argvs


def _transcriptions(method: str) -> list[list[str]]:
    """The --transcription flags a method's argvs take: both names for closed."""
    if method != "closed":
        return [[]]
    return [["--transcription", tr] for tr in ("verbatim", "corrected")]


def run(main, argv: list[str]) -> dict:
    """main(argv) with its stdout, stderr and warnings captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    notes = "".join(f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue() + notes}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit("usage: python tools/cli_snapshot.py OUT.json")
    src = str(Path.cwd() / "src")
    sys.path.insert(0, src)
    import pdmosc.cli
    from pdmosc import routes, sweeps
    if not pdmosc.cli.__file__.startswith(src):
        sys.exit(f"pdmosc imported from {pdmosc.cli.__file__}, not {src}")
    records = [run(pdmosc.cli.main, a) for a in corpus(routes, sweeps)]
    Path(args[0]).write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
