#!/usr/bin/env python3
"""Print in-process times of the phases of one ``riskmdp solve-infinite`` run per model file.

The model files are perfbench's infinite_cli inputs for each seed, written
to a temporary directory. For each file the phases that ``cli.main``
goes through are timed one by one, as the best of ``--runs`` runs, in
milliseconds:

- ``load``: ``json.load`` of the file;
- ``parse``: ``model_io.parse_model_file``;
- ``validate``: ``mdp_core.validate_model``;
- ``argparse``: ``cli._parser().parse_args`` as ``cli.main`` calls it
  (where the parser is built once per process, the best run leaves the
  build out);
- ``bounds``: ``mdp_core.verify_bounds``;
- ``solve``: ``solvers.solve_infinite``, which verifies the bounds again;
- ``write``: the task's run with the solve's result at hand: reading
  the task fields and writing the values, policy and trace files;
- ``main``: the whole ``cli.main`` run, for comparison with the sum.

Two more columns follow: ``iters``, the solve's iteration count, and
``us/sweep``, the warm sweep in microseconds, (solve - bounds) /
(iters + 1): the solve's time less its bounds verification, over its
sweeps and its greedy call. The first sweep, which builds the stage
laws, is counted in with the warm ones.

Each timed run starts on a fresh model object, and the output directory
is deleted before each run, since rewriting an existing file can cost far
more than writing a new one. The last line sums each column over the
files, but its ``us/sweep`` is the mean over all their sweeps. The library is imported from ``src/`` of this checkout, or from
``--src`` to time another one on the same inputs.

Example:
    python scripts/cli_phases.py --seeds 1 --runs 7
"""

import argparse
import importlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("load", "parse", "validate", "argparse", "bounds", "solve", "write", "main")


class Library:
    """The riskmdp modules, as perfbench's generators read them."""

    def __init__(self):
        for name in ("cli", "distributions", "examples", "mdp_core", "model_io", "risk_measures", "solvers"):
            setattr(self, name, importlib.import_module(f"riskmdp.{name}"))


def _timed(func, *args):
    t0 = time.perf_counter()
    out = func(*args)
    return out, time.perf_counter() - t0


def phases(lib, path: Path, outdir: Path) -> dict:
    """One run's seconds per phase on the model file at ``path``."""
    cli, argv = lib.cli, ["solve-infinite", str(path), "--out", str(outdir), "--quiet"]
    took = {}
    shutil.rmtree(outdir, ignore_errors=True)
    with open(path, encoding="utf-8") as fh:
        doc, took["load"] = _timed(json.load, fh)
    sections, took["parse"] = _timed(lib.model_io.parse_model_file, doc)
    model, risk, spec = sections["model"], sections["risk"], sections["bounds"]
    diags, took["validate"] = _timed(lib.mdp_core.validate_model, model)
    if diags:
        raise SystemExit(f"{path.name}: {diags[0]}")
    args, took["argparse"] = _timed(lambda: cli._parser().parse_args(argv))
    _, took["bounds"] = _timed(lib.mdp_core.verify_bounds, model, risk, spec)
    result, took["solve"] = _timed(lib.solvers.solve_infinite, model, risk, spec, float(sections["task"]["tol"]))

    solve, cli.solve_infinite = cli.solve_infinite, lambda *args: result  # the task's run, less its solve
    try:
        _, took["write"] = _timed(cli._run_solve_infinite, args, sections)
    finally:
        cli.solve_infinite = solve
    shutil.rmtree(outdir, ignore_errors=True)
    code, took["main"] = _timed(cli.main, argv)
    if code != 0:
        raise SystemExit(f"{path.name}: exit code {code}")
    return took, result.iterations


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--runs", type=int, default=7, help="timed runs per file; the best is printed")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory of the library to time")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import workloads  # perfbench's generators, from the path set above

    lib = Library()
    width = max(len(p) for p in PHASES) + 1
    print(f"{'model (ms)':<36}" + "".join(f"{p:>{width}}" for p in PHASES + ("iters", "us/sweep")))

    def line(name, best, iters, sweeps):
        warm = (best["solve"] - best["bounds"]) / sweeps
        times = "".join(f"{best[p] * 1e3:>{width}.2f}" for p in PHASES)
        print(f"{name:<36}{times}{iters:>{width}d}{warm * 1e6:>{width}.1f}")

    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            batch = workloads.infinite_cli(lib, seed, work / "cli")
            totals, total_iters = dict.fromkeys(PHASES, 0.0), 0
            for inst in sorted(batch.instances, key=lambda i: i.name):
                path, outdir = work / "cli" / "models" / f"{inst.name}.json", work / "out"
                runs = [phases(lib, path, outdir) for _ in range(args.runs)]
                best = {p: min(took[p] for took, _ in runs) for p in PHASES}
                iters = runs[0][1]
                for p in PHASES:
                    totals[p] += best[p]
                total_iters += iters
                line(f"seed {seed} {inst.name}", best, iters, iters + 1)
            line(f"seed {seed} total", totals, total_iters, total_iters + len(batch.instances))


if __name__ == "__main__":
    main()
