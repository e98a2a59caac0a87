#!/usr/bin/env python3
"""Run perfbench in alternated pairs on two commits and write a BENCH_<pr>.json record.

Each pair runs ``perfbench/run.py`` once for the parent commit and once
for the change, on the same workload and seed. Every run gets a fresh
``git archive`` tree of its commit (``src`` and ``perfbench``) and runs
with ``PYTHONDONTWRITEBYTECODE=1``, so no run reads bytecode that another
left. The parent runs first in odd-numbered pairs, the change in
even-numbered ones. Per workload and metric the record keeps each pair's
two values, each side's median and inclusive quartiles, and how many
pairs the change won (every metric read here is better lower). Beside
``peak_rss_mb`` it keeps each run's attempted count: a faster library
solves more instances in the same time and keeps more samples.
``wall_s.first_pass`` is read from a run's text output, the other metrics
from its closing JSON line. Only the standard library is used.

Every workload runs for 30 s on seeds 1-9 and the held-out seed 20101.
Example:
    python scripts/bench_pairs.py --parent HEAD~1 --change HEAD --pr 13 --claim "robust wall_s"
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 20101
SEEDS = (*range(1, 10), HELD_OUT_SEED)
WORKLOADS = ("casino", "infinite_cli", "robust")
SECONDS = 30
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy")
METHOD = (
    "alternated pairs: each pair runs parent and change once on the same seed, the side that runs "
    "first alternating by pair (parent first in odd-numbered pairs); every run in a fresh git archive "
    "of its commit (src and perfbench) without bytecode caches and with PYTHONDONTWRITEBYTECODE=1; "
    "times calibrated by perfbench's probe; wall_s.first_pass is read from the run's text output; "
    "peak_rss_mb runs list each run's attempted count beside it"
)


def parse_run(stdout: str) -> dict:
    """The machine, metrics, and attempted and failed counts in one untraced run's output."""
    machine = first_pass = result = None
    for line in stdout.splitlines():
        if line.startswith("machine: "):
            machine = json.loads(line[len("machine: ") :])
        elif line.startswith("wall_s.first_pass"):
            first_pass = float(line.split()[1])
        elif line.startswith("{"):
            result = json.loads(line)
    if machine is None or first_pass is None or result is None:
        raise ValueError("not the output of an untraced perfbench run")
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    metrics["wall_s.first_pass"] = first_pass
    return {
        "machine": {key: machine[key] for key in MACHINE_KEYS},
        "metrics": metrics,
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def build_record(pairs, parent_commit: str, command: str, claim: str) -> dict:
    """The record of ``pairs``, each (workload, seed, parent run, change run) with runs from ``parse_run``."""
    by_workload: dict[str, list] = {}
    for name, seed, parent, change in pairs:
        by_workload.setdefault(name, []).append((seed, parent, change))
    workloads = {}
    for name, runs in by_workload.items():
        metrics = {}
        for metric in runs[0][1]["metrics"]:
            values = [[parent["metrics"][metric], change["metrics"][metric]] for _, parent, change in runs]
            sides = {side: _spread([pair[k] for pair in values]) for k, side in enumerate(("parent", "change"))}
            metrics[metric] = {
                **sides,
                "change_wins": f"{sum(c < p for p, c in values)}/{len(values)}",
                "change_over_parent": sides["change"]["median"] / sides["parent"]["median"],
                "runs": values,
                f"seed_{HELD_OUT_SEED}": [pair for pair, (seed, _, _) in zip(values, runs) if seed == HELD_OUT_SEED],
            }
            if metric == "peak_rss_mb":
                metrics[metric]["attempted_runs"] = [[p["attempted"], c["attempted"]] for _, p, c in runs]
        workloads[name] = {
            "pairs": len(runs),
            "seeds": [seed for seed, _, _ in runs],
            "attempted": {side: sum(run[k]["attempted"] for run in runs) for k, side in ((1, "parent"), (2, "change"))},
            "failed": {side: sum(run[k]["failed"] for run in runs) for k, side in ((1, "parent"), (2, "change"))},
            "metrics": metrics,
        }
    return {
        "machine": pairs[0][2]["machine"],
        "command": command,
        "parent_commit": parent_commit,
        "method": METHOD,
        "claim": claim,
        "workloads": workloads,
    }


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _run(archive: bytes, workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(SECONDS), "--trace", "0"],
            cwd=tmp, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), capture_output=True, text=True,
        )
    if run.returncode not in (0, 1):  # 1: the run finished but some instance failed its check
        raise RuntimeError(f"perfbench {workload} seed {seed} exited {run.returncode}:\n{run.stderr}")
    return parse_run(run.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--change", required=True, help="the commit measured against it")
    ap.add_argument("--pr", type=int, required=True, help="the number in the record's file name")
    ap.add_argument("--claim", default="", help='the metric a gain is claimed on, as "workload metric"')
    args = ap.parse_args()
    commits = {side: _git("rev-parse", f"{rev}^{{commit}}").decode().strip()
               for side, rev in (("parent", args.parent), ("change", args.change))}
    archives = {side: _git("archive", "--format=tar", commit, "src", "perfbench") for side, commit in commits.items()}
    pairs = []
    for number, seed in enumerate(SEEDS, 1):
        order = ("parent", "change") if number % 2 else ("change", "parent")
        for workload in WORKLOADS:
            runs = {side: _run(archives[side], workload, seed) for side in order}
            pairs.append((workload, seed, runs["parent"], runs["change"]))
            print(f"pair {number} {workload} seed {seed}: wall_s "
                  f"{runs['parent']['metrics']['wall_s']:.4f} -> {runs['change']['metrics']['wall_s']:.4f}",
                  file=sys.stderr)
    command = f"python3 perfbench/run.py --workload W --seed N --seconds {SECONDS} --trace 0"
    record = build_record(pairs, commits["parent"], command, args.claim)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
