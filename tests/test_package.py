"""Every module of the package exports only names it defines or imports;
every committed benchmark record carries the fields a speed claim rests on;
the digest script that bit-identity claims rest on runs."""

import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import riskmdp

MODULES = ["riskmdp"] + [f"riskmdp.{info.name}" for info in pkgutil.iter_modules(riskmdp.__path__)]
ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
HELD_OUT_SEED = 20101


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # a stale __all__ entry, say one left behind by a deletion, raises here
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert len(namespace) > 1


def test_benchmark_records_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_benchmark_record_layout(path):
    # the machine, the parent, the method, and per workload the alternated
    # pairs with their medians, quartiles and wins, held-out seed included
    record = json.loads(path.read_text(encoding="utf-8"))
    assert {"nproc", "cpu", "python", "numpy"} <= record["machine"].keys()
    assert len(record["parent_commit"]) == 40 and int(record["parent_commit"], 16) >= 0
    assert record["method"] and record["command"] and record["workloads"]
    for name, workload in record["workloads"].items():
        pairs = workload["pairs"]
        assert pairs == len(workload["seeds"]) and HELD_OUT_SEED in workload["seeds"], name
        for side in ("parent", "change"):
            assert workload["failed"][side] <= workload["attempted"][side], (name, side)
        assert workload["metrics"], name
        for metric, entry in workload["metrics"].items():
            for side in ("parent", "change"):
                q1, median, q3 = (entry[side][k] for k in ("q1", "median", "q3"))
                assert q1 <= median <= q3, (name, metric, side)
            wins, total = map(int, entry["change_wins"].split("/"))
            assert 0 <= wins <= total == pairs, (name, metric)
            assert len(entry["runs"]) == pairs and all(len(run) == 2 for run in entry["runs"])
            assert entry["seed_20101"], (name, metric)


def test_output_digest_prints_one_line_per_result_set():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py"), "--seeds", "1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    digest = "[0-9a-f]{64}"
    models = ["cash_balance"] + [
        f"random_{i}_{kind}"
        for i, kind in enumerate(("expectation", "mixture", "spectral", "expected_shortfall", "value_at_risk", "entropic"))
    ]
    patterns = [f"seed 1 infinite_cli {name} exit 0 {digest}" for name in models]
    patterns += [f"seed 1 casino 100 results {digest}", f"seed 1 robust 23 results {digest}"]
    lines = run.stdout.splitlines()
    assert len(lines) == len(patterns), run.stdout
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line
