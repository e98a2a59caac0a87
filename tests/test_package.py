"""Every module of the package exports only names it defines or imports;
every committed benchmark record carries the fields a speed claim rests on,
and the pairs driver writes records of that layout; the digest script that
bit-identity claims rest on, the CLI phase timer and the exp route survey, run."""

import importlib.util
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


def check_record_layout(record):
    # the machine, the parent, the method, and per workload the alternated
    # pairs with their medians, quartiles and wins, held-out seed included
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


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_benchmark_record_layout(path):
    check_record_layout(json.loads(path.read_text(encoding="utf-8")))


def canned_run(wall_s, first_pass, attempted, rss):
    """The text an untraced perfbench robust run prints, shortened."""
    metrics = {"wall_s": (wall_s, "s"), "instance_ms.p50": (0.54, "ms"), "setup_s": (0.11, "s"), "peak_rss_mb": (rss, "MB")}
    return "\n".join([
        'machine: {"nproc": 2, "cpu": "AMD EPYC", "python": "3.11.7", "numpy": "2.4.6", "commit": "unknown", '
        '"workload": "robust", "seed": 1, "instances": 23, "inputs_sha256": "cb81"}',
        f"wall_s                 {wall_s:>14.6f} s     sum of per-instance medians; 23 instances, {attempted} samples",
        f"wall_s.first_pass      {first_pass:>14.6f} s     first sample of each instance; not in the JSON line",
        f"failed_frac                  0.000000       0 of {attempted} attempted",
        json.dumps({
            "correct": True, "attempted": attempted, "failed": 0,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }),
    ])


def test_bench_pairs_builds_a_record_of_the_checked_layout():
    # two canned run outputs, without running perfbench: seed 1 and the
    # held-out seed, each a pair of the parent's output and the change's
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    parent = bench_pairs.parse_run(canned_run(0.1315, 0.1348, 5058, 53.43))
    change = bench_pairs.parse_run(canned_run(0.1002, 0.1059, 6573, 53.75))
    pairs = [("robust", seed, parent, change) for seed in (1, HELD_OUT_SEED)]
    record = bench_pairs.build_record(pairs, "036ed308f2c5744b891366e019ef9b9432ffcb97", "run.py", "robust wall_s")
    check_record_layout(record)
    robust = record["workloads"]["robust"]
    assert robust["attempted"] == {"parent": 2 * 5058, "change": 2 * 6573}
    assert robust["metrics"]["wall_s"]["change_wins"] == "2/2"
    assert robust["metrics"]["wall_s.first_pass"]["runs"] == [[0.1348, 0.1059]] * 2
    assert robust["metrics"]["peak_rss_mb"]["change_wins"] == "0/2"
    assert robust["metrics"]["peak_rss_mb"]["attempted_runs"] == [[5058, 6573]] * 2
    assert record["machine"] == {"nproc": 2, "cpu": "AMD EPYC", "python": "3.11.7", "numpy": "2.4.6"}
    with pytest.raises(ValueError):
        bench_pairs.parse_run("FAILED setup")


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
    patterns += [f"seed 1 counters {name} pair_evaluations [1-9][0-9]*" for name in models]
    patterns += [f"seed 1 fixed-rule {digest}"]
    patterns += [f"seed 1 casino 100 results {digest}", f"seed 1 robust 23 results {digest}"]
    lines = run.stdout.splitlines()
    assert len(lines) == len(patterns), run.stdout
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line


def test_cli_phases_prints_one_line_of_phase_times_per_model_file():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_phases.py"), "--seeds", "1", "--runs", "1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    models = ["cash_balance"] + [
        f"random_{i}_{kind}"
        for i, kind in enumerate(("expectation", "mixture", "spectral", "expected_shortfall", "value_at_risk", "entropic"))
    ]
    times = r"( +[0-9]+\.[0-9]{2}){8} +[0-9]+ +-?[0-9]+\.[0-9]"
    patterns = [r"model \(ms\) +load +parse +validate +argparse +bounds +solve +write +main +iters +us/sweep"]
    patterns += [f"seed 1 {name}{times}" for name in models] + [f"seed 1 total{times}"]
    lines = run.stdout.splitlines()
    assert len(lines) == len(patterns), run.stdout
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line
    # the total line sums the iterations
    iters = [int(line.split()[-2]) for line in lines[1:]]
    assert min(iters) > 0 and iters[-1] == sum(iters[:-1]), run.stdout


def test_sum_gate_prints_both_routes_and_the_break_even_per_column_count():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sum_gate.py"), "--columns", "3", "8", "--entries", "30", "2400"]
        + ["--number", "2", "--repeats", "1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    gate = r"[1-9][0-9]*"
    patterns = [f"CERTIFIED_MIN_CELLS {gate}", r" *columns +rows +entries +fsum_each +certified +ratio"]
    for m, rows in ((3, (10, 800)), (8, (4, 300))):
        patterns += [f" +{m} +{n} +{n * m} +[0-9]+\\.[0-9] +[0-9]+\\.[0-9] +[0-9]+\\.[0-9]{{2}}" for n in rows]
        patterns.append(f" +{m} break-even (from [0-9]+ entries|not within the ladder) \\(gate {gate}\\)")
    assert len(lines) == len(patterns), run.stdout
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line


def test_exp_route_prints_the_differing_counts_and_the_per_call_times():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "exp_route.py"), "--count", "20000", "--number", "2", "--repeats", "1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    patterns = [r"numpy \S+", r"fn +range +args +complex +real"]
    patterns += [r"exp +\[-745\.2, 0\) +20000 +[0-9]+ +[0-9]+", r"exp +\[-700, 700\) +20000 +[0-9]+ +[0-9]+"]
    patterns += [r"log +\[\S+, \S+\) +20000 +[0-9]+ +[0-9]+"] * 3
    patterns += [
        r"us per 2100-argument exp call: complex [0-9]+\.[0-9], per element [0-9]+\.[0-9]",
        r"platform check: complex exp is libm's (True|False) \([0-9]+\.[0-9]{2} ms\)",
    ]
    assert len(lines) == len(patterns), run.stdout
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line
    if lines[-1].split()[-3] == "True":  # where the check passes, no drawn shift differs either
        assert [line.split()[-2] for line in lines[2:4]] == ["0", "0"], run.stdout
