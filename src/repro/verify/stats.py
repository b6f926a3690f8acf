"""Per-engine execution statistics and the portfolio stage scheduler.

Every :class:`~repro.verify.portfolio.PortfolioVerifier` stage (and every
bulk pass of the frontier plane in :mod:`repro.verify.batch`) records how
often it was attempted, how often it *decided* the query, and how much
wall time it spent.  The table serves three purposes:

- **Observability** — the CLI prints an engine-utilisation table per run.
- **Scheduling** — :meth:`EngineStats.incomplete_order` picks the order
  of the incomplete stages that minimises expected time for the observed
  workload (a cheap-first portfolio is only cheap when the cheap stages
  actually decide things).
- **Persistence** — :meth:`snapshot` / :meth:`merge_payload` round-trip
  the table through the :class:`~repro.runtime.store.CacheStore` header,
  so a warm-started run schedules from day-one statistics.

Scheduling is *verdict-preserving by construction*.  The incomplete
stages can only err on the UNKNOWN side (interval proves ROBUST or
passes; the falsifiers find a witness or pass), so any execution order
yields the same verdict.  Witness identity is pinned by one constraint:
the corner falsifier always runs before the random falsifier, so a
VULNERABLE verdict always carries the witness the canonical
interval → corner → random → complete order would have produced.  The
scheduler therefore only moves the (witness-free) interval stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Canonical incomplete-stage order (the pre-scheduler portfolio).
CANONICAL_INCOMPLETE: tuple[str, ...] = ("interval", "corner", "random")

#: Stage orders the scheduler may pick from.  The corner falsifier
#: always precedes the random one (witness-selection rule); only the
#: interval stage floats.  Canonical order first: deterministic tie-break.
_CANDIDATE_ORDERS: tuple[tuple[str, ...], ...] = (
    ("interval", "corner", "random"),
    ("corner", "interval", "random"),
    ("corner", "random", "interval"),
)

#: Names counted as complete-engine invocations.  ``session`` is the
#: incremental ladder session (:mod:`repro.verify.incremental`) — the
#: warm counterpart of the from-scratch ``smt`` stage.
COMPLETE_STAGES: tuple[str, ...] = ("exhaustive", "smt", "session")

#: Attempts a stage needs before its observed rates steer the schedule.
_MIN_SAMPLES = 16


@dataclass
class StageStat:
    """Aggregate counters for one engine stage."""

    attempts: int = 0
    decided: int = 0
    wall_s: float = 0.0

    @property
    def decide_rate(self) -> float:
        return self.decided / self.attempts if self.attempts else 0.0

    @property
    def mean_wall_s(self) -> float:
        return self.wall_s / self.attempts if self.attempts else 0.0


@dataclass
class EngineStats:
    """Decide-rate and wall-time table over all portfolio stages."""

    stages: dict[str, StageStat] = field(default_factory=dict)

    def stage(self, name: str) -> StageStat:
        stat = self.stages.get(name)
        if stat is None:
            stat = self.stages[name] = StageStat()
        return stat

    def record(self, name: str, decided: bool, wall_s: float) -> None:
        """Fold one attempt in."""
        self.record_bulk(name, 1, int(decided), wall_s)

    def record_bulk(self, name: str, attempts: int, decided: int, wall_s: float) -> None:
        """Fold one bulk pass over ``attempts`` queries in."""
        stat = self.stage(name)
        stat.attempts += attempts
        stat.decided += decided
        stat.wall_s += wall_s

    # -- scheduling ------------------------------------------------------------

    def incomplete_order(self) -> tuple[str, ...]:
        """Incomplete-stage order minimising expected time per query.

        Expected cost of an order is ``Σ_i t_i · Π_{j<i} (1 - r_j)`` with
        ``t`` the observed mean wall time and ``r`` the observed decide
        rate (stage independence as the standard approximation).  Stages
        without :data:`_MIN_SAMPLES` attempts keep the canonical order —
        cold runs schedule exactly like the pre-scheduler portfolio.
        """
        stats = {name: self.stages.get(name) for name in CANONICAL_INCOMPLETE}
        if any(s is None or s.attempts < _MIN_SAMPLES for s in stats.values()):
            return CANONICAL_INCOMPLETE
        best = CANONICAL_INCOMPLETE
        best_cost = None
        for order in _CANDIDATE_ORDERS:
            cost, undecided = 0.0, 1.0
            for name in order:
                cost += undecided * stats[name].mean_wall_s
                undecided *= 1.0 - stats[name].decide_rate
            if best_cost is None or cost < best_cost:
                best, best_cost = order, cost
        return best

    # -- aggregates -------------------------------------------------------------

    def complete_calls(self) -> int:
        """Complete-engine invocations recorded so far."""
        return sum(
            self.stages[name].attempts for name in COMPLETE_STAGES if name in self.stages
        )

    def total_wall_s(self) -> float:
        return sum(stat.wall_s for stat in self.stages.values())

    # -- persistence / bulk transfer -------------------------------------------

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Plain-container payload (disk store header, worker shipping)."""
        return {
            name: {
                "attempts": stat.attempts,
                "decided": stat.decided,
                "wall_s": stat.wall_s,
            }
            for name, stat in self.stages.items()
        }

    def merge(self, other: "EngineStats") -> None:
        for name, stat in other.stages.items():
            self.record_bulk(name, stat.attempts, stat.decided, stat.wall_s)

    def merge_payload(self, payload) -> None:
        """Fold a :meth:`snapshot`-shaped payload in, ignoring malformed data.

        The payload may come from a disk file; stats are advisory (they
        steer scheduling, never verdicts), so bad shapes are dropped
        rather than raised.
        """
        if not isinstance(payload, dict):
            return
        for name, row in payload.items():
            if not isinstance(name, str) or not isinstance(row, dict):
                continue
            attempts, decided, wall_s = (
                row.get("attempts"), row.get("decided"), row.get("wall_s")
            )
            if (
                isinstance(attempts, int)
                and not isinstance(attempts, bool)
                and isinstance(decided, int)
                and not isinstance(decided, bool)
                and isinstance(wall_s, (int, float))
                and not isinstance(wall_s, bool)
                and 0 <= decided <= attempts
                and wall_s >= 0
            ):
                self.record_bulk(name, attempts, decided, float(wall_s))

    def delta_since(self, baseline: dict[str, dict[str, float]]) -> dict:
        """Snapshot of everything recorded after ``baseline`` was taken."""
        delta: dict[str, dict[str, float]] = {}
        for name, row in self.snapshot().items():
            base = baseline.get(name, {"attempts": 0, "decided": 0, "wall_s": 0.0})
            attempts = row["attempts"] - base["attempts"]
            decided = row["decided"] - base["decided"]
            wall_s = row["wall_s"] - base["wall_s"]
            if attempts or decided or wall_s:
                delta[name] = {
                    "attempts": attempts, "decided": decided, "wall_s": wall_s
                }
        return delta

    # -- reporting ---------------------------------------------------------------

    def describe_table(self) -> str:
        """Engine-utilisation table (CLI report path)."""
        if not self.stages:
            return "engine utilisation: no engine activity recorded"
        header = f"{'stage':<12}{'attempts':>10}{'decided':>10}{'rate':>8}{'wall':>10}{'mean':>10}"
        lines = ["engine utilisation:", "  " + header]
        order = [n for n in (*CANONICAL_INCOMPLETE, *COMPLETE_STAGES) if n in self.stages]
        order += [n for n in sorted(self.stages) if n not in order]
        for name in order:
            stat = self.stages[name]
            lines.append(
                "  "
                + f"{name:<12}{stat.attempts:>10}{stat.decided:>10}"
                + f"{stat.decide_rate:>8.0%}{stat.wall_s:>9.2f}s"
                + f"{stat.mean_wall_s * 1000:>8.2f}ms"
            )
        lines.append(
            f"  scheduler order: {' -> '.join(self.incomplete_order())} -> complete"
        )
        return "\n".join(lines)
