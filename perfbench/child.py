"""One benchmark sample: a fresh interpreter runs one workload once.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  The child imports the CLI module, prepares the workload's
trained and quantised network, runs the workload's analysis once on a
cold in-memory cache, rechecks every witness and prints one JSON object
(timings, counters and the outputs ``run.py`` compares with
``reference.json``) as its last line.

Set-up and analysis are timed twice: as wall time, and in seconds
corrected for the host's speed by :class:`hostclock.HostClock`.

With ``--trace 1`` the layer boundaries listed in ``LAYERS`` are wrapped
by :class:`tracing.Tracer` before any workload code runs, and the line
also carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from hostclock import HostClock, mark

ROOT = Path(__file__).resolve().parent.parent

#: The paper's test split is presented to the program in an order drawn
#: from ``--seed``; the data seed, like the deep network's (3, inside
#: ``deep_case_study_network``), is the repository's default and stays
#: fixed, so that every seed asks for the same verdicts.
GOLUB_SEED = 32

#: ``fannet run`` defaults: P2 up to ±60 %, P3 at tolerance + 2.
CASE_STUDY_CEILING = 60
#: Highest rung of the deep network's tolerance search.  Its boundary
#: band (the rungs no interval, corner or random pass decides) reaches
#: the warm ladder sessions from about ±27 % on.
DEEP_CEILING = 40
#: A P3 range whose noise box (41^5 points) exceeds the 8 M exhaustive
#: cutoff, so every vector comes from the DPLL(T) blocking loop.
P3_PERCENT = 20
P3_LIMIT = 5

#: Wrapped layers: (metric prefix, module, owner, attribute).  ``owner``
#: ``None`` wraps a module-level function in every module binding it.
LAYERS = (
    ("data.mrmr", "repro.data.mrmr", None, "mrmr_select"),
    ("data.mi", "repro.data.mrmr", None, "mutual_information"),
    ("nn.train", "repro.nn.train", "SgdTrainer", "fit"),
    ("nn.quantize", "repro.nn.quantize", None, "quantize_network"),
    ("core.validate", "repro.core.fannet", "Fannet", "validate"),
    ("verify.exhaustive", "repro.verify.exhaustive", "ExhaustiveEnumerator", "verify"),
    ("verify.exhaustive", "repro.verify.exhaustive", "ExhaustiveEnumerator", "collect_witnesses"),
    ("verify.recheck", "repro.verify.encoder", "ScaledQuery", "predict_single"),
    ("verify.build_query", "repro.verify.encoder", None, "build_query"),
    ("verify.prepass", "repro.verify.batch", "FrontierPrepass", "resolve"),
    ("verify.session", "repro.verify.incremental", "LadderSession", "verify"),
    ("verify.witness", "repro.verify.smt_verifier", "SmtVerifier", "witness_against"),
    ("verify.collect", "repro.verify.enumerate", "NoiseVectorCollector", "collect"),
    ("smt.dpllt", "repro.smt.dpllt", "DpllTSolver", "solve"),
    ("smt.check", "repro.smt.simplex", "Simplex", "check"),
    ("sat.solve", "repro.sat.solver", "CdclSolver", "solve"),
    ("runtime.store.save", "repro.runtime.store", "CacheStore", "save"),
    ("runtime.store.load", "repro.runtime.store", "CacheStore", "load"),
    ("ioutils.atomic_write", "repro.ioutils", None, "atomic_write_bytes"),
)

#: The workloads on which each wrapped layer must record a call; a layer
#: that records none there was renamed or bypassed, not made free.
LAYER_WORKLOADS = {
    "data.mrmr": ("case-study", "deep-band", "p3-blocking"),
    "data.mi": ("case-study", "deep-band", "p3-blocking"),
    "nn.train": ("case-study", "deep-band", "p3-blocking"),
    "nn.quantize": ("case-study", "deep-band", "p3-blocking"),
    "core.validate": ("case-study",),
    "verify.exhaustive": ("case-study",),
    "verify.recheck": ("case-study",),
    "verify.build_query": ("case-study", "deep-band", "p3-blocking"),
    "verify.prepass": ("case-study", "deep-band"),
    "verify.session": ("deep-band",),
    "verify.collect": ("p3-blocking",),
    "smt.dpllt": ("p3-blocking",),
    "smt.check": ("deep-band", "p3-blocking"),
    "sat.solve": ("deep-band", "p3-blocking"),
    "runtime.store.save": ("case-study",),
    "runtime.store.load": ("case-study",),
    "ioutils.atomic_write": ("case-study",),
}


def _install_tracer(tracer, solvers: dict) -> None:
    import importlib

    for layer, module_name, owner, attr in LAYERS:
        module = importlib.import_module(module_name)
        if owner is None:
            tracer.wrap_function(layer, module, attr)
        else:
            tracer.wrap_method(layer, getattr(module, owner), attr)
    from repro.sat.solver import CdclSolver
    from repro.smt.simplex import Simplex

    tracer.register_instances(Simplex, solvers.setdefault("simplex", []))
    tracer.register_instances(CdclSolver, solvers.setdefault("sat", []))


def _permuted(dataset, seed: int):
    """The split in a seed-drawn row order, plus each row's original index."""
    import numpy as np

    from repro.data.dataset import Dataset

    order = np.random.default_rng(seed).permutation(dataset.num_samples)
    return Dataset(dataset.features[order], dataset.labels[order]), [int(i) for i in order]


def _deep_network(case_study):
    """The deep 5-12-12-2 variant the repository's benchmarks analyse."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from bench_frontier_prepass import deep_case_study_network

    return deep_case_study_network(case_study)


# -- workloads: prepare (set-up) and analyse ---------------------------------------


def _prepare(workload: str, case_study, test, cache_dir: Path):
    from repro import nn
    from repro.config import FannetConfig, RuntimeConfig
    from repro.core import Fannet, NoiseToleranceAnalysis, NoiseVectorExtraction

    if workload == "case-study":
        trained = nn.train_paper_network(case_study.train.features, case_study.train.labels)
        config = FannetConfig(runtime=RuntimeConfig(cache_dir=str(cache_dir)))
        return Fannet(trained.network, case_study.train, test, config)
    if workload == "deep-band":
        return NoiseToleranceAnalysis(_deep_network(case_study), search_ceiling=DEEP_CEILING)
    trained = nn.train_paper_network(case_study.train.features, case_study.train.labels)
    return NoiseVectorExtraction(nn.quantize_network(trained.network), per_input_limit=P3_LIMIT)


def _analyse(workload: str, subject, test):
    """Run the workload's analysis; returns ``(tolerance, extraction)``."""
    if workload == "case-study":
        report = subject.analyze(search_ceiling=CASE_STUDY_CEILING)
        subject.close()  # flush the store, as `fannet run` does
        return report.tolerance, report.extraction
    if workload == "deep-band":
        return subject.analyze(test), None
    return None, subject.extract(test, P3_PERCENT)


def _network_of(subject):
    return subject.quantized if hasattr(subject, "quantized") else subject.network


# -- outputs, rechecks and failures ------------------------------------------------


def _census_digest(vectors, flipped_to) -> str:
    pairs = sorted([list(map(int, v)), int(label)] for v, label in zip(vectors, flipped_to))
    return hashlib.sha256(json.dumps(pairs, sort_keys=True).encode("utf-8")).hexdigest()


def _outputs(workload: str, tolerance, extraction, original: list[int]) -> dict:
    """The workload's results keyed by original test-row index."""
    out: dict = {}
    if tolerance is not None:
        out["tolerance"] = tolerance.tolerance
        out["min_flip"] = {
            str(original[e.index]): e.min_flip_percent for e in tolerance.per_input
        }
        if workload == "deep-band":
            out["witness"] = {
                str(original[e.index]): list(map(int, e.witness)) if e.witness else None
                for e in tolerance.per_input
            }
    if extraction is not None:
        if workload == "case-study":
            out["extraction_percent"] = extraction.noise_percent
            out["census"] = {
                str(original[e.index]): [len(e.vectors), _census_digest(e.vectors, e.flipped_to)]
                for e in extraction.per_input
            }
        else:
            out["vectors"] = {
                str(original[e.index]): sorted(list(map(int, v)) for v in e.vectors)
                for e in extraction.per_input
            }
    return out


def _recheck(network, test, tolerance, extraction) -> tuple[int, int]:
    """Recheck every witness with ``ScaledQuery.misclassified``.

    Returns ``(witnesses checked, witnesses that do not flip)``.
    """
    import numpy as np

    from repro.config import NoiseConfig
    from repro.verify import build_query

    checks = []
    if tolerance is not None:
        for e in tolerance.per_input:
            if e.min_flip_percent is not None:
                checks.append((e.index, e.true_label, e.min_flip_percent, [e.witness]))
    if extraction is not None:
        for e in extraction.per_input:
            if e.vectors:
                checks.append((e.index, e.true_label, extraction.noise_percent, e.vectors))
    checked = bad = 0
    for index, label, percent, witnesses in checks:
        query = build_query(
            network, np.asarray(test.features[index]), label, NoiseConfig(max_percent=percent)
        )
        for witness in witnesses:
            checked += 1
            inside = witness is not None and all(abs(int(p)) <= percent for p in witness)
            if not (inside and query.misclassified(witness)):
                bad += 1
    return checked, bad


def _undecided_inputs(runner) -> set[int]:
    """Input positions with an UNKNOWN verdict in the runner's cache."""
    from repro.verify.result import VerificationResult, VerificationStatus

    return {
        key[1]
        for key, value in runner.cache.snapshot().items()
        if isinstance(value, VerificationResult)
        and value.status is VerificationStatus.UNKNOWN
    }


def _expected_ops(workload: str, network, test) -> int:
    correct = sum(
        network.predict(x) == int(label) for x, label in zip(test.features, test.labels)
    )
    return 2 * correct if workload == "case-study" else correct


# -- per-layer metrics -----------------------------------------------------------


def _quantile_ms(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _layer_metrics(layers: dict, runner, solvers: dict, extraction) -> dict:
    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def seconds(name):
        return layers.get(name, {}).get("seconds", 0.0)

    engine = runner.engine_stats
    random_stage = engine.stage("random")
    session_durations = layers.get("verify.session", {}).get("durations", [])
    probes = runner.stats.frontier_queries
    cache = runner.cache.stats
    vectors = extraction.total_vectors if extraction is not None else 0
    return {
        "data.mrmr_s": seconds("data.mrmr"),
        "data.mi_calls": calls("data.mi"),
        "nn.train_s": seconds("nn.train"),
        "nn.quantize_s": seconds("nn.quantize"),
        "core.validate_s": seconds("core.validate"),
        "verify.exhaustive_s": seconds("verify.exhaustive"),
        "verify.recheck_s": seconds("verify.recheck"),
        "verify.recheck_calls": calls("verify.recheck"),
        "verify.build_query_s": seconds("verify.build_query"),
        "verify.build_query_calls": calls("verify.build_query"),
        "verify.prepass_s": seconds("verify.prepass"),
        "verify.prepass_probes": probes,
        "verify.prepass_decided": runner.stats.frontier_decided,
        "verify.prepass.decide_rate": runner.stats.frontier_decided / probes if probes else 0.0,
        "verify.random.attempts": random_stage.attempts,
        "verify.random.decided": random_stage.decided,
        "verify.random_s": random_stage.wall_s,
        "verify.complete_calls": engine.complete_calls(),
        "verify.session_calls": calls("verify.session"),
        "verify.session_s": seconds("verify.session"),
        "verify.session.p50_ms": _quantile_ms(session_durations, 0.5),
        "verify.session.p90_ms": _quantile_ms(session_durations, 0.9),
        "verify.witness_calls": calls("verify.witness"),
        "verify.witness_s": seconds("verify.witness"),
        "verify.collect_calls": calls("verify.collect"),
        "verify.collect_s": seconds("verify.collect"),
        "verify.vectors": vectors,
        "smt.dpllt_solves": calls("smt.dpllt"),
        "smt.dpllt_s": seconds("smt.dpllt"),
        "smt.pivots": sum(s.total_pivots for s in solvers["simplex"]),
        "smt.check_calls": calls("smt.check"),
        "smt.check_s": seconds("smt.check"),
        "sat.solve_calls": calls("sat.solve"),
        "sat.solve_s": seconds("sat.solve"),
        "sat.conflicts": sum(s.conflicts for s in solvers["sat"]),
        "sat.decisions": sum(s.decisions for s in solvers["sat"]),
        "runtime.cache.hits": cache.hits,
        "runtime.cache.derived_hits": cache.derived_hits,
        "runtime.cache.misses": cache.misses,
        "runtime.store.save_s": seconds("runtime.store.save"),
        "ioutils.atomic_writes": calls("ioutils.atomic_write"),
        "ioutils.atomic_write_s": seconds("ioutils.atomic_write"),
    }


# -- the sample ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("case-study", "deep-band", "p3-blocking"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)
    workload = args.workload
    clock = HostClock()
    clock.start()
    # The parent's spawn time on this process's clocks; no CPU time was used before it.
    spawned = (args.spawned_at - (time.monotonic() - time.perf_counter()), 0.0)

    start = time.perf_counter()
    import repro.cli  # noqa: F401  -- the import every CLI invocation pays

    import_s = time.perf_counter() - start
    scipy_modules = sum(1 for name in sys.modules if name == "scipy" or name.startswith("scipy."))
    from repro.data import golub, load_leukemia_case_study

    tracer = None
    solvers: dict = {}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        _install_tracer(tracer, solvers)

    start = time.perf_counter()
    case_study = load_leukemia_case_study(golub_config=golub.GolubConfig(seed=GOLUB_SEED))
    load_s = time.perf_counter() - start
    test, original = _permuted(case_study.test, args.seed)
    cache_dir = args.work_dir / "cache"
    subject = _prepare(workload, case_study, test, cache_dir)
    setup_end = mark()

    network = _network_of(subject)
    runner = subject.runner
    tolerance = extraction = None
    analysis_begin = mark()
    try:
        tolerance, extraction = _analyse(workload, subject, test)
    except Exception:  # a failed analysis is a measured outcome, not a crash
        traceback.print_exc()
    analysis_finish = mark()
    clock.stop()
    analysis_end = analysis_finish[0]

    attempted = _expected_ops(workload, network, test)
    if tolerance is None and extraction is None:
        failed = attempted
    else:
        undecided = _undecided_inputs(runner)
        entries = [
            *(tolerance.per_input if tolerance is not None else []),
            *(extraction.per_input if extraction is not None else []),
        ]
        failed = sum(1 for e in entries if e.index in undecided) + attempted - len(entries)

    metrics = {
        "setup_s": clock.seconds(spawned, setup_end),
        "analysis_s": clock.seconds(analysis_begin, analysis_finish),
        "setup.wall_s": setup_end[0] - spawned[0],
        "analysis.wall_s": analysis_end - analysis_begin[0],
        "host.fastest_probe_s": clock.fastest_probe(),
        "import.cli_s": import_s,
        "import.scipy_modules": scipy_modules,
        "verify.complete_calls": runner.engine_stats.complete_calls(),
        "ops.attempted": attempted,
        "ops.failed": failed,
    }
    outputs = _outputs(workload, tolerance, extraction, original)
    missing: list[str] = []
    replay_matches = True
    if tracer is not None:
        layers = tracer.summary(end=analysis_end)
        metrics["data.load_s"] = load_s
        metrics.update(_layer_metrics(layers, runner, solvers, extraction))
        store_files = list(cache_dir.glob("*")) if cache_dir.is_dir() else []
        metrics["runtime.store.bytes"] = sum(p.stat().st_size for p in store_files)
        if workload == "case-study" and tolerance is not None:
            replay, replayed = _replay(tracer, subject, case_study, test, original)
            metrics.update(replay)
            replay_matches = replayed == outputs
        missing = [
            layer
            for layer, workloads in LAYER_WORKLOADS.items()
            if workload in workloads and not tracer.summary().get(layer, {}).get("calls")
        ]
        tracer.uninstall()
    checked, bad = _recheck(network, test, tolerance, extraction)
    shutil.rmtree(cache_dir, ignore_errors=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        json.dumps(
            {
                "metrics": metrics,
                "outputs": outputs,
                "witnesses_checked": checked,
                "witnesses_bad": bad,
                "unrecorded_layers": missing,
                "replay_matches": replay_matches,
            },
            sort_keys=True,
        )
    )
    return 0


def _replay(tracer, cold, case_study, test, original) -> tuple[dict, dict]:
    """Warm replay of the case study from the store the cold run wrote.

    Returns the replay's metrics and its outputs.
    """
    from repro.core import Fannet

    start = time.perf_counter()
    warm = Fannet(cold.network, case_study.train, test, cold.config)
    report = warm.analyze(search_ceiling=CASE_STUDY_CEILING)
    warm.close()
    replay_s = time.perf_counter() - start
    layers = tracer.summary(start=start)
    metrics = {
        "runtime.replay_s": replay_s,
        "runtime.store.load_s": layers.get("runtime.store.load", {}).get("seconds", 0.0),
        "runtime.replay.solver_calls": warm.runner.stats.solver_calls,
    }
    return metrics, _outputs("case-study", report.tolerance, report.extraction, original)


if __name__ == "__main__":
    sys.exit(main())
