"""pdmosc benchmark: runs one workload in-process through ``pdmosc.cli.main``
in a closed loop (one process, one thread, one client: each CLI call starts
after the previous one returns) and prints its metrics as JSON on the last
line of stdout.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread: numpy must not start a BLAS pool

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 15
SETUP_CAL_S = 0.05
OUT_DIR = Path("perfbench") / "out"

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import pdmosc.cli
pdmosc.cli.build_parser()
t1 = time.perf_counter()
if not pdmosc.cli.__file__.startswith({src!r}):
    sys.exit("pdmosc imported from " + pdmosc.cli.__file__)
print(repr(t1 - t0))
"""

#: counts each workload predicts exactly; zeros are the bypass baselines
PREDICTIONS = {
    "atlas": {"numerics.sum.calls": 0, "superstat.zs_quad_per_point": 14,
              "numerics.failures": 0},
    "presets-sum": {"numerics.quad.calls": 0, "numerics.failures": 0},
    "closed-sweep": {"numerics.quad.calls": 0, "numerics.sum.calls": 0,
                     "numerics.failures": 0},
}


def measure_setup(src: Path) -> list[float]:
    """Fresh-interpreter `import pdmosc.cli` plus build_parser(), timed
    inside the child and rescaled by calibration runs around it; the
    first, untimed child fills the bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        before = speed.sample(SETUP_CAL_S)
        res = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE.format(src=str(src))],
                             capture_output=True, text=True, timeout=120, env=os.environ)
        after = speed.sample(SETUP_CAL_S)
        if res.returncode != 0:
            raise RuntimeError(f"setup child failed: {res.stderr.strip()}")
        if i:
            times.append(speed.rescale(float(res.stdout), before[0] + after[0],
                                       before[1] + after[1]))
    return times


def run_pass(cli, calls, calibrate: bool):
    """Every call of the workload once, in order; (seconds in the calls,
    the same at reference speed, outputs).  Without calibration the two
    times are equal."""
    outs = []
    cal = speed.Interleaved() if calibrate else contextlib.nullcontext()
    with cal:
        t0 = time.perf_counter()
        for argv in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except Exception:  # an uncaught exception is a traceback exit
                    code = 1
            outs.append((code, buf.getvalue()))
    wall = time.perf_counter() - t0
    if not calibrate:
        return wall, wall, outs
    wall -= cal.spent
    return wall, cal.rescale(wall), outs


class Passes:
    """Timed passes of one workload.  The first pass's outputs are kept;
    every later pass is compared with them outside the timed region."""

    def __init__(self, cli, wl: workloads.Workload, calibrate: bool):
        self.cli, self.wl, self.calibrate = cli, wl, calibrate
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self.first: list[tuple[int, str]] | None = None
        self.diverged: list[tuple[int, tuple[int, str]]] = []

    def once(self):
        wall, scaled, outs = run_pass(self.cli, self.wl.calls, self.calibrate)
        self.walls.append(wall)
        self.scaled.append(scaled)
        if self.first is None:
            self.first = outs
        else:
            self.diverged += [(i, o) for i, o in enumerate(outs) if o != self.first[i]]

    def until(self, deadline: float, min_passes: int):
        while len(self.walls) < min_passes or time.perf_counter() < deadline:
            self.once()

    def failed_rows(self) -> tuple[int, int]:
        """(attempted, failed) rows over all passes; a call fails at most
        the rows it should have printed."""
        def failed(i, out):
            code, text = out
            expected = self.wl.expected_rows[i]
            return expected if code != 0 else min(expected, self.wl.check(i, text))

        first = [failed(i, o) for i, o in enumerate(self.first)]
        attempted = sum(self.wl.expected_rows) * len(self.walls)
        bad = sum(first) * len(self.walls)
        for i, out in self.diverged:
            bad += failed(i, out) - first[i]
        return attempted, bad


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (src / "pdmosc").glob("*.py"))


def untraced(pkg, wl, seconds: float, src: Path) -> dict:
    setup = measure_setup(src)
    passes = Passes(pkg.cli, wl, calibrate=True)
    passes.until(time.perf_counter() + seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = passes.failed_rows()
    wall = statistics.median(passes.scaled)
    print(f"{wl.name}: {len(passes.walls)} passes of {len(wl.calls)} CLI calls; "
          f"wall_s median {wall:.4f} at reference speed, "
          f"{statistics.median(passes.walls):.4f} as measured "
          f"(min {min(passes.walls):.4f}, max {max(passes.walls):.4f}); "
          f"setup_s median of {len(setup)} fresh interpreters")
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "row_ok_rate": (attempted - failed) / attempted,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def traced(pkg, wl, seconds: float, src: Path, seed: int) -> dict:
    """Untraced and traced passes in turn, so that drift in machine speed
    reaches both alike; outputs must be byte-identical and counts must
    repeat exactly across traced passes.  No calibration runs here (its
    handler would land inside spans), so every time is as measured."""
    deadline = time.perf_counter() + seconds
    plain = Passes(pkg.cli, wl, calibrate=False)
    recs = []
    traced_walls = []
    mismatched_calls = 0
    while len(recs) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        plain.once()
        rec = tracing.Recorder(pkg.errors.PdmoscError)
        with tracing.patched(pkg, rec):
            wall, _, outs = run_pass(pkg.cli, wl.calls, calibrate=False)
        recs.append(rec)
        traced_walls.append(wall)
        mismatched_calls += sum(o != f for o, f in zip(outs, plain.first))
    attempted, failed = plain.failed_rows()
    repeat = all(dict(r.counts) == dict(recs[0].counts) for r in recs[1:])
    metrics = tracing.per_layer(recs)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain.walls))
    predictions = {k: (v, metrics[k]) for k, v in PREDICTIONS[wl.name].items()}
    missed = [k for k, (want, got) in predictions.items() if got != want]
    metrics["trace.predictions_missed"] = len(missed)
    metrics["src_lines"] = src_lines(src)
    print(f"{wl.name}: {len(plain.walls)} untraced and {len(recs)} traced passes; "
          f"counts repeat exactly: {repeat}; traced outputs identical: "
          f"{mismatched_calls == 0}; predictions missed: {missed or 'none'}"
          + (f"; unpatched lookup sites: {recs[0].missing}" if recs[0].missing else ""))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    first = recs[0]
    (OUT_DIR / f"trace-{wl.name}-seed{seed}.json").write_text(json.dumps({
        "workload": wl.name, "seed": seed, "metrics": metrics,
        "predictions": predictions, "counts_repeat": repeat,
        "counts": first.counts, "busy_s": first.busy, "self_s": first.self_time,
        "unpatched": first.missing,
        "span_fields": ["id", "name", "start", "end", "parent"], "spans": first.spans,
    }))
    if not repeat or mismatched_calls:
        failed = attempted
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_rate", "err_over_target", "per_point")):
        return "ratio"
    return {"peak_rss_mb": "MB", "src_lines": "lines"}.get(metric, "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "pdmosc" / "cli.py").is_file():
        print(f"perfbench: no pdmosc sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    # one CPU for the work, the calibration kernel and the setup children,
    # so the kernel measures the speed of the CPU the work ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    import pdmosc.cli
    pkg = pdmosc
    if not pkg.__file__.startswith(str(src)):
        print(f"perfbench: pdmosc imported from {pkg.__file__}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, root)
    run = (traced(pkg, wl, args.seconds, src, args.seed) if args.trace
           else untraced(pkg, wl, args.seconds, src))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
