#!/usr/bin/env python3
"""Run the benchmark over seeds 1-10 and summarise it as a baseline.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload in BENCHMARK.json, each seed gets one untraced run of
``run_seconds``; the summary holds the median, the quartiles and the
quartile spread (IQR over median) of every end-to-end metric, as
``statistics.quantiles(values, n=4)`` gives them, the first-pass
``wall_s`` of each seed, and the instance count and input digest per
seed. A spread above a third of its metric's bound is flagged WIDE. One
traced run on seed 1 per workload adds the per-layer breakdown. The
machine record (nproc, CPU, Python, numpy, commit) of the first run is
kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy", "commit")
SEEDS = tuple(range(1, 11))
TRACE_SEED = 1


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    machine = next(json.loads(l[9:]) for l in lines if l.startswith("machine: "))
    return json.loads(lines[-1]), machine, lines


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else None,
        "values": values,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, digests, first_pass = [], {}, {}
        for seed in SEEDS:
            result, machine, lines = _run(workload, seed, seconds, 0)
            report.setdefault("machine", {k: machine[k] for k in MACHINE_KEYS})
            digests[seed] = machine["inputs_sha256"]
            first_pass[seed] = next(
                float(l.split()[1]) for l in lines if l.startswith("wall_s.first_pass ")
            )
            runs.append(result)
            print(workload, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  flush=True)
        entry = {
            "instances": machine["instances"],
            "inputs_sha256": digests,
            "end_to_end": {
                name: _summary([r["metrics"][name]["value"] for r in runs]) for name in bounds
            },
            "wall_s.first_pass": first_pass,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        for name, summary in entry["end_to_end"].items():
            ok = summary["spread"] <= bounds[name] / 3
            print(f"  {workload} {name}: median {summary['median']:.6g} "
                  f"spread {summary['spread']:.4f} (bound {bounds[name]}){'' if ok else '  WIDE'}")
        traced, _, _ = _run(workload, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {
            "seed": TRACE_SEED,
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        report["workloads"][workload] = entry
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
