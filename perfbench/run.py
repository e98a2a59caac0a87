#!/usr/bin/env python3
"""riskmdp benchmark: time to a certified solution, end to end and per layer.

    python3 perfbench/run.py --workload casino --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory and nothing is installed. The workload's fixed batch of
instances is generated from the seed, then solved in passes, every
instance at least once, until the summed solve time reaches
``--seconds``. Every result is checked outside the timed region. With
``--trace 0`` the last output line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = (
    "examples",
    "mdp_core",
    "solvers",
    "robust_check",
    "model_io",
    "cli",
    "risk_measures",
    "distributions",
)
SETUP_REPS = 21
MIN_P90_TAIL = 10  # p90 is printed only with at least this many samples above it
TIME_UNITS = ("s", "ms", "us", "ns")


class Library:
    """The riskmdp modules of one fresh import."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "riskmdp" or n.startswith("riskmdp.")]:
            del sys.modules[name]
        self.riskmdp = importlib.import_module("riskmdp")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"riskmdp.{name}"))


# Calibrated timing. The speed of a shared host can drift by 1.9x from
# minute to minute with the load of other tenants, which repeating the work
# inside one run cannot average out. A fixed pure-Python probe shaped like
# a stage evaluation (build pairs, sort, merge, fsum) therefore runs every
# PROBE_EVERY_S, and each sample is rescaled to a machine on which the
# probe takes PROBE_NOMINAL_S, using the probe times on either side of it.
# The probe shares no code with riskmdp.
PROBE_NOMINAL_S = 250e-6
PROBE_EVERY_S = 0.2
_PROBE_VALUES = tuple(((i * 7919) % 1009) / 1009.0 for i in range(48))


def _probe_once() -> float:
    t0 = perf_counter()
    for rep in range(12):
        pairs = sorted([(v * 0.9 + (rep & 3), 1.0 / 48) for v in _PROBE_VALUES])
        atoms, probs, prev = [], [], None
        for a, p in pairs:
            if a == prev:
                probs[-1] += p
            else:
                atoms.append(a)
                probs.append(p)
                prev = a
        math.fsum(a * p for a, p in zip(atoms, probs))
    return perf_counter() - t0


def probe() -> float:
    """The reference probe's current duration: the median of three runs."""
    return statistics.median([_probe_once(), _probe_once(), _probe_once()])


def _calibrated(elapsed: float, before: float, after: float) -> float:
    return elapsed * PROBE_NOMINAL_S * 2.0 / (before + after)


class _Calibrator:
    """Probes every PROBE_EVERY_S and calibrates the samples taken in between.

    Probing next to every instance would evict the instance's working set
    and slow the shortest instances, so samples wait for the next probe.
    A sample is a list [raw, calibrated]; the second entry is filled in by
    the probe that closes its interval.
    """

    def __init__(self):
        self.last, self.at = probe(), perf_counter()
        self.pending: list[list] = []

    def sample(self, elapsed: float) -> list:
        sample = [elapsed, None]
        self.pending.append(sample)
        return sample

    def tick(self, force: bool = False) -> None:
        if force or perf_counter() - self.at >= PROBE_EVERY_S:
            now = probe()
            for sample in self.pending:
                sample[1] = _calibrated(sample[0], self.last, now)
            self.pending.clear()
            self.last, self.at = now, perf_counter()


def _setup(make_batch, seed: int, workdir: Path):
    """Import and generate the inputs SETUP_REPS times; keep the last, time each."""
    times, digests = [], set()
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        before = probe()
        t0 = perf_counter()
        lib = Library()
        batch = make_batch(lib, seed, workdir)
        elapsed = perf_counter() - t0
        times.append((elapsed, _calibrated(elapsed, before, probe())))
        digests.add(batch.digest)
    if not Path(lib.riskmdp.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported riskmdp from {lib.riskmdp.__file__}, not from {SRC}")
    return lib, batch, times, digests


def _solve(inst, tracer) -> tuple[float, "str | None"]:
    """Time one instance, then check its result; returns the time and any failure."""
    inst.prepare()
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter()
    try:
        result, problem = inst.solve(), None
    except Exception as exc:  # a failed instance is counted, not fatal
        result, problem = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if problem is None:
        try:
            problem = inst.check(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, problem


def _measure(batch, tracer, seconds: float, failures: list):
    """Per-instance [raw, calibrated] solve times of untraced and traced passes.

    Passes over the batch repeat until the summed solve time reaches
    ``seconds`` and every instance has a sample. With a tracer, untraced
    and traced passes alternate and only whole passes are run, so that
    per-pass layer totals stay exact.
    """
    n = len(batch.instances)
    untraced, traced = [[] for _ in range(n)], [[] for _ in range(n)]
    clock = _Calibrator()
    measured, passes = 0.0, 0
    while True:
        tracing = tracer is not None and passes % 2 == 1
        if tracing:
            tracer.install()
        try:
            for i, inst in enumerate(batch.instances):
                clock.tick()
                elapsed, problem = _solve(inst, tracer if tracing else None)
                if problem is not None:
                    failures.append(f"{inst.name}: {problem}")
                (traced if tracing else untraced)[i].append(clock.sample(elapsed))
                measured += elapsed
                if tracer is None and measured >= seconds and untraced[-1]:
                    clock.tick(force=True)
                    return untraced, traced
        finally:
            if tracing:
                tracer.uninstall()
        passes += 1
        if measured >= seconds and (tracer is None or traced[-1]):
            clock.tick(force=True)
            return untraced, traced


def _batch_time(samples, which: int) -> float:
    """Time to solve the batch once: the sum of per-instance median times.

    ``which`` picks the raw (0) or calibrated (1) time of each sample.
    """
    return sum(statistics.median(s[which] for s in inst) for inst in samples)


def _machine(args, n_instances: int, digest: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "instances": n_instances,
        "inputs_sha256": digest,
    }


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "riskmdp" / "__init__.py").is_file():
        print(f"riskmdp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER, make_tracer, per_layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        lib, batch, setup_times, digests = _setup(WORKLOADS[args.workload], args.seed, workdir)
        failures: list[str] = []
        tracer = make_tracer(lib) if args.trace else None

        untraced, traced = _measure(batch, tracer, args.seconds, failures)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(t) for t in untraced) + sum(len(t) for t in traced)
    wall_s = _batch_time(untraced, 1)
    print("machine: " + json.dumps(_machine(args, len(batch.instances), batch.digest)))
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    correct = not failures
    if len(digests) != 1:
        correct = False
        print("FAILED setup: the same seed generated different inputs", file=sys.stderr)

    if tracer is None:
        per_instance = sorted(statistics.median(s[1] for s in t) * 1e3 for t in untraced)
        counted = f"{len(per_instance)} instances, {sum(map(len, untraced))} samples"
        metrics = {
            "wall_s": (wall_s, "s", f"sum of per-instance medians; {counted}"),
            "instance_ms.p50": (statistics.median(per_instance), "ms", counted),
            "setup_s": (
                statistics.median(t[1] for t in setup_times), "s",
                f"median of {SETUP_REPS} set-ups",
            ),
            "peak_rss_mb": (peak_rss_mb, "MB", "whole process"),
        }
        for name, (value, unit, note) in metrics.items():
            print(f"{name:<18} {value:>14.6f} {unit:<5} {note}")
        if len(per_instance) >= MIN_P90_TAIL * 10:
            p90 = statistics.quantiles(per_instance, n=10, method="inclusive")[8]
            print(f"{'instance_ms.p90':<18} {p90:>14.6f} {'ms':<5} {counted}")
        else:
            print(
                f"{'instance_ms.p90':<18} {'not reported':>14} {'ms':<5} {counted}: "
                f"fewer than {MIN_P90_TAIL} above the 90th percentile"
            )
        first = sum(t[0][1] for t in untraced)
        print(f"{'wall_s.first_pass':<18} {first:>14.6f} {'s':<5} "
              "first sample of each instance; not in the JSON line")
        print(f"{'failed_frac':<18} {len(failures) / attempted:>14.6f} {'':<5} "
              f"{len(failures)} of {attempted} attempted")
        print(f"uncalibrated: wall_s {_batch_time(untraced, 0):.6f} s, "
              f"setup_s {statistics.median(t[0] for t in setup_times):.6f} s")
        result = {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}
    else:
        values, fired = per_layer_metrics(tracer, len(traced[0]))
        scale = sum(s[1] for t in traced for s in t) / sum(s[0] for t in traced for s in t)
        values["trace.overhead_frac"] = _batch_time(traced, 1) / wall_s - 1.0
        tracer.write_csv(ROOT / ".perfbench_work" / f"spans-{args.workload}.csv")
        result = {}
        for name, (unit, keys) in PER_LAYER.items():
            silent = [k for k in keys if k in batch.spans and not fired.get(k)]
            if silent:
                correct = False
                print(f"MISSING {name}: expected span(s) {', '.join(silent)} never fired",
                      file=sys.stderr)
                print(f"{name:<48} {'missing':>14} {unit}")
                continue
            value = values[name] * scale if unit in TIME_UNITS else values[name]
            result[name] = {"value": value, "unit": unit}
            print(f"{name:<48} {value:>14.6f} {unit}")
        print(f"traced passes {len(traced[0])}, untraced passes {len(untraced[0])}; "
              f"times calibrated by {scale:.4f}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
