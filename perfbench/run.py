"""The repository benchmark: the FANNet workloads end to end, one child at a time.

    python3 perfbench/run.py --workload case-study --seed 0 --seconds 30 --trace 0

Each sample is a fresh interpreter (``child.py``) that pays what a
``fannet`` invocation pays: importing the CLI, building the case-study
data, training and quantising, then one analysis.  Samples run one after
another with ``workers=1``, so the benchmark keeps one core busy.  With
``--trace 0`` the run takes samples until ``--seconds`` is used up (at
least three) and reports the median ``setup_s``, ``analysis_s`` and
``peak_rss_mb``.  With ``--trace 1`` it takes untraced and traced
samples in turn, two of each, and reports the per-layer metrics instead,
the tracing overhead among them.

``setup_s`` and ``analysis_s`` are corrected for the host's speed by
``hostclock.py``; the wall times are per-layer metrics.

Every sample's outputs are compared with ``reference.json`` and every
witness is rechecked; the deterministic work counters must agree between
samples.  The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See ``README.md`` for the workloads and what each layer metric explains.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("case-study", "deep-band", "p3-blocking")

#: Fewest untraced samples one run takes, whatever ``--seconds`` says.
MIN_SAMPLES = 3
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0
#: Counters that depend only on the code and the seed: two samples of one
#: run must read the same.  The first three are read untraced as well.
UNTRACED_COUNTERS = ("import.scipy_modules", "verify.complete_calls", "ops.attempted")
TRACED_COUNTERS = (
    "smt.pivots",
    "sat.conflicts",
    "data.mi_calls",
    "verify.build_query_calls",
)


def calibrate() -> float:
    """Seconds a fixed pure-Python ``Fraction`` loop takes on this host."""
    start = time.perf_counter()
    for i in range(1, 40_001):
        Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, 3)
    return time.perf_counter() - start


def take_sample(workload: str, seed: int, trace: int, work_dir: Path, timeout: float) -> dict:
    """Run one child; returns its JSON line plus its wall time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", str(trace),
            "--work-dir", str(work_dir),
            "--spawned-at", repr(spawned),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        encoding="utf-8",
        timeout=max(1.0, timeout),
        check=False,
    )
    wall = time.monotonic() - spawned
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} sample exited with status {completed.returncode}")
    sample = json.loads(lines[-1])
    sample["wall_s"] = wall
    sample["traced"] = bool(trace)
    return sample


def problems_in(samples: list[dict], reference: dict) -> list[str]:
    """Everything wrong with a run's samples; empty when all is correct."""
    found = []
    for number, sample in enumerate(samples):
        tag = f"sample {number}"
        if sample["witnesses_bad"]:
            found.append(f"{tag}: {sample['witnesses_bad']} witnesses do not misclassify")
        if sample["outputs"] != reference:
            found.append(f"{tag}: outputs differ from reference.json")
        if sample["unrecorded_layers"]:
            found.append(f"{tag}: layers recorded no call: {sample['unrecorded_layers']}")
        if not sample["replay_matches"]:
            found.append(f"{tag}: the warm replay changed the outputs")
    traced = [s for s in samples if s["traced"]]
    for names, group in ((UNTRACED_COUNTERS, samples), (TRACED_COUNTERS, traced)):
        for name in names:
            readings = {s["metrics"].get(name) for s in group}
            if len(readings) > 1:
                found.append(f"counter {name} differs between samples: {sorted(readings)}")
    return found


def load_metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def take_samples(args, work_dir: Path, begun: float) -> list[dict] | None:
    """The run's samples, or None (after saying why) when one failed."""
    samples: list[dict] = []
    plan = [0, 1, 0, 1] if args.trace else None
    while True:
        elapsed = time.monotonic() - begun
        if plan is not None:
            if len(samples) == len(plan):
                return samples
            trace = plan[len(samples)]
        else:
            if len(samples) >= MIN_SAMPLES:
                typical = statistics.mean(s["wall_s"] for s in samples)
                if elapsed + typical > args.seconds:
                    return samples
            trace = 0
        try:
            sample = take_sample(args.workload, args.seed, trace, work_dir, RUN_LIMIT_S - elapsed)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return None
        metrics = sample["metrics"]
        print(
            f"sample {len(samples)}{' traced' if trace else ''}: "
            f"setup_s {metrics['setup_s']:.3f} (wall {metrics['setup.wall_s']:.3f}) "
            f"analysis_s {metrics['analysis_s']:.3f} (wall {metrics['analysis.wall_s']:.3f}) "
            f"peak_rss_mb {metrics['peak_rss_mb']:.1f}",
            file=sys.stderr,
        )
        samples.append(sample)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="draws the order of the test split")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="store this run's outputs as the workload's entry in reference.json",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metric_units()
    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    reference = references.get(args.workload)
    if reference is None and not args.record:
        print(f"error: reference.json has no entry for {args.workload}", file=sys.stderr)
        return 2

    begun = time.monotonic()
    calib_start = calibrate()
    work_root = ROOT / ".perfbench-work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        samples = take_samples(args, work_dir, begun)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    if samples is None:
        return 1
    calib_end = calibrate()
    fastest = min(s["metrics"]["host.fastest_probe_s"] for s in samples)
    print(
        f"host.calib_s {calib_start:.4f} at start, {calib_end:.4f} at end; "
        f"{len(samples)} samples; fastest probe {fastest * 1e6:.1f} us",
        file=sys.stderr,
    )

    if args.record:
        references[args.workload] = samples[0]["outputs"]
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        reference = references[args.workload]
    problems = problems_in(samples, reference)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    untraced = [s["metrics"] for s in samples if not s["traced"]]
    if args.trace:
        traced = [s["metrics"] for s in samples if s["traced"]]
        values = {
            name: statistics.median(m.get(name, 0) for m in traced) for name in per_layer
        }
        values["host.calib_s"] = (calib_start + calib_end) / 2
        values["host.fastest_probe_s"] = fastest
        values["trace.analysis_s"] = statistics.median(m["analysis_s"] for m in traced)
        # Untraced and traced samples alternate; each pair's difference
        # is the overhead, and the median of the pairs is reported.
        for phase in ("setup", "analysis"):
            values[f"trace.{phase}_overhead_s"] = statistics.median(
                t[f"{phase}_s"] - u[f"{phase}_s"] for u, t in zip(untraced, traced)
            )
        units = per_layer
        counted = traced
    else:
        values = {name: statistics.median(m[name] for m in untraced) for name in end_to_end}
        units = end_to_end
        counted = untraced
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(m["ops.attempted"] for m in counted),
                "failed": sum(m["ops.failed"] for m in counted),
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
