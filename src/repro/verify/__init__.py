"""Neural-network verification engines (system S9 in DESIGN.md).

The FANNet query (§IV-B of the paper): given a quantised network, a test
input ``x`` with true label ``Sx`` and an integer-percent noise range,
does some noise vector ``p`` make ``f(x·(100+p)/100) ≠ Sx``?

Engines, ordered by the guarantees they offer:

- :class:`ExhaustiveEnumerator` — exact integer evaluation of *every*
  noise vector (vectorised int64 with overflow guard); ground truth for
  small ranges.
- :class:`IntervalVerifier` — interval bound propagation; proves
  robustness (UNSAT) quickly, never finds counterexamples.
- :class:`RandomFalsifier` / :class:`CornerFalsifier` — find
  counterexamples quickly, never prove robustness.
- :class:`SmtVerifier` — complete: ReLU phase splitting over the exact
  rational simplex with integer branch & bound (Reluplex-style).
- :class:`PortfolioVerifier` — interval ⇒ falsifiers ⇒ complete engine,
  with the incomplete-stage order chosen per workload from an
  :class:`EngineStats` decide-rate/wall-time table; the default used by
  the FANNet pipeline.
- :class:`LadderSession` (:mod:`repro.verify.incremental`) — the warm
  complete stage behind the portfolio's default SMT path: network+input
  encoded once per adversary, each rung's noise budget expressed as
  retractable assumption literals and push/pop bound frames, learned
  clauses and tableau bases reused across the whole ladder.
- :class:`FrontierPrepass` / :func:`resolve_survivors`
  (:mod:`repro.verify.batch`) — the frontier-batched plane: many queries
  (same network, many inputs × many percents) resolved in bulk by
  vectorised incomplete passes, with only the boundary band dispatched
  to the complete engines along a monotone bisection.

All engines consume the same :class:`ScaledQuery` built by
:func:`build_query`, whose arithmetic is integer-exact by construction.
"""

from .encoder import ScaledQuery, build_query
from .result import VerificationResult, VerificationStatus
from .interval import IntervalVerifier, interval_bulk
from .exhaustive import ExhaustiveEnumerator
from .falsify import CornerFalsifier, RandomFalsifier
from .smt_verifier import SmtVerifier
from .incremental import LadderSession
from .stats import EngineStats, StageStat
from .portfolio import PortfolioVerifier
from .batch import (
    FrontierOutcome,
    FrontierPrepass,
    FrontierProbe,
    labels_for_rows,
    resolve_survivors,
)
from .enumerate import NoiseVectorCollector

__all__ = [
    "ScaledQuery",
    "build_query",
    "VerificationResult",
    "VerificationStatus",
    "IntervalVerifier",
    "interval_bulk",
    "ExhaustiveEnumerator",
    "RandomFalsifier",
    "CornerFalsifier",
    "SmtVerifier",
    "LadderSession",
    "EngineStats",
    "StageStat",
    "PortfolioVerifier",
    "FrontierPrepass",
    "FrontierProbe",
    "FrontierOutcome",
    "labels_for_rows",
    "resolve_survivors",
    "NoiseVectorCollector",
]
