"""Reference Fraction-tableau simplex: the differential oracle for tests.

This is the general simplex as it stood before the tableau moved to
integer rows: every tableau coefficient is a :class:`fractions.Fraction`.
It shares the result and bound types of :mod:`repro.smt.simplex` so the
two implementations' results compare with ``==``.  Tests only; nothing
under ``src/`` imports it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from repro.errors import SmtError
from repro.rational import to_fraction
from repro.smt.simplex import BoundKind, BoundRef, SimplexResult


class Simplex:
    """Exact incremental simplex.  Variables are integer ids."""

    def __init__(self):
        self._num_vars = 0
        self._lower: list[Fraction | None] = []
        self._upper: list[Fraction | None] = []
        # Which asserted bound produced the current lower/upper (for cores).
        self._value: list[Fraction] = []
        # rows: basic var -> {nonbasic var: coeff}
        self._rows: dict[int, dict[int, Fraction]] = {}
        self._basic_of: dict[int, int] = {}  # var -> var (identity for basics)
        # columns: nonbasic var -> set of basic vars whose row mentions it
        self._cols: dict[int, set[int]] = {}
        self._trail: list[tuple[int, BoundKind, Fraction | None]] = []
        self._trail_lim: list[int] = []
        self.total_pivots = 0

    # -- variables and rows ----------------------------------------------------

    def new_var(self) -> int:
        var = self._num_vars
        self._num_vars += 1
        self._lower.append(None)
        self._upper.append(None)
        self._value.append(Fraction(0))
        self._cols[var] = set()
        return var

    def define(self, combination: Mapping[int, object]) -> int:
        """Create a *basic* variable equal to ``Σ coeff · var``.

        Must be called before any ``push``; the definition is permanent.
        Referenced variables may themselves be defined (rows are expanded
        so the tableau only mentions non-basic variables).
        """
        if self._trail_lim:
            raise SmtError("define() only allowed at decision level 0")
        expansion: dict[int, Fraction] = {}
        for var, raw_coeff in combination.items():
            coeff = to_fraction(raw_coeff)
            if coeff == 0:
                continue
            if var in self._rows:
                for inner, inner_coeff in self._rows[var].items():
                    expansion[inner] = expansion.get(inner, Fraction(0)) + coeff * inner_coeff
            else:
                expansion[var] = expansion.get(var, Fraction(0)) + coeff
        expansion = {v: c for v, c in expansion.items() if c != 0}
        slack = self.new_var()
        self._rows[slack] = expansion
        for var in expansion:
            self._cols[var].add(slack)
        self._value[slack] = sum(
            (c * self._value[v] for v, c in expansion.items()), Fraction(0)
        )
        return slack

    # -- bound assertion with backtracking ------------------------------------------

    def push(self) -> None:
        self._trail_lim.append(len(self._trail))

    def pop(self) -> None:
        if not self._trail_lim:
            raise SmtError("pop without matching push")
        boundary = self._trail_lim.pop()
        while len(self._trail) > boundary:
            var, kind, old = self._trail.pop()
            if kind is BoundKind.LOWER:
                self._lower[var] = old
            else:
                self._upper[var] = old

    def assert_lower(self, var: int, bound) -> SimplexResult | None:
        """Tighten the lower bound of ``var``; returns a conflict result or None."""
        bound = to_fraction(bound)
        current = self._lower[var]
        if current is not None and bound <= current:
            return None  # no tightening
        upper = self._upper[var]
        if upper is not None and bound > upper:
            return SimplexResult(
                False,
                conflict=frozenset(
                    {BoundRef(var, BoundKind.LOWER), BoundRef(var, BoundKind.UPPER)}
                ),
            )
        self._trail.append((var, BoundKind.LOWER, current))
        self._lower[var] = bound
        if var not in self._rows and self._value[var] < bound:
            self._update_nonbasic(var, bound)
        return None

    def assert_upper(self, var: int, bound) -> SimplexResult | None:
        """Tighten the upper bound of ``var``; returns a conflict result or None."""
        bound = to_fraction(bound)
        current = self._upper[var]
        if current is not None and bound >= current:
            return None
        lower = self._lower[var]
        if lower is not None and bound < lower:
            return SimplexResult(
                False,
                conflict=frozenset(
                    {BoundRef(var, BoundKind.LOWER), BoundRef(var, BoundKind.UPPER)}
                ),
            )
        self._trail.append((var, BoundKind.UPPER, current))
        self._upper[var] = bound
        if var not in self._rows and self._value[var] > bound:
            self._update_nonbasic(var, bound)
        return None

    def bounds(self, var: int) -> tuple[Fraction | None, Fraction | None]:
        return self._lower[var], self._upper[var]

    # -- assignment maintenance ---------------------------------------------------------

    def _update_nonbasic(self, var: int, new_value: Fraction) -> None:
        delta = new_value - self._value[var]
        if delta == 0:
            return
        for basic in self._cols.get(var, ()):
            self._value[basic] += self._rows[basic][var] * delta
        self._value[var] = new_value

    # -- pivoting -------------------------------------------------------------------------

    def _pivot(self, basic: int, nonbasic: int) -> None:
        """Swap roles: ``nonbasic`` becomes basic, ``basic`` becomes non-basic."""
        row = self._rows.pop(basic)
        coeff = row.pop(nonbasic)
        for var in row:
            self._cols[var].discard(basic)
        self._cols[nonbasic].discard(basic)

        # nonbasic = (basic - Σ others) / coeff
        new_row: dict[int, Fraction] = {basic: Fraction(1) / coeff}
        for var, c in row.items():
            new_row[var] = -c / coeff
        self._rows[nonbasic] = new_row
        self._cols.setdefault(basic, set()).add(nonbasic)
        for var in row:
            self._cols[var].add(nonbasic)

        # Substitute into every other row that mentions `nonbasic`.
        for other in list(self._cols[nonbasic]):
            if other == nonbasic:
                continue
            other_row = self._rows[other]
            factor = other_row.pop(nonbasic, None)
            if factor is None:
                self._cols[nonbasic].discard(other)
                continue
            for var, c in new_row.items():
                updated = other_row.get(var, Fraction(0)) + factor * c
                if updated == 0:
                    if var in other_row:
                        del other_row[var]
                    self._cols[var].discard(other)
                else:
                    other_row[var] = updated
                    self._cols[var].add(other)
        # Every remaining mention of `nonbasic` was substituted away.
        self._cols[nonbasic] = set()
        self.total_pivots += 1

    def _pivot_and_update(self, basic: int, nonbasic: int, target: Fraction) -> None:
        coeff = self._rows[basic][nonbasic]
        theta = (target - self._value[basic]) / coeff
        self._value[basic] = target
        self._value[nonbasic] += theta
        for other in self._cols[nonbasic]:
            if other != basic:
                self._value[other] += self._rows[other][nonbasic] * theta
        self._pivot(basic, nonbasic)

    # -- feasibility -----------------------------------------------------------------------

    def check(self, max_pivots: int = 100_000) -> SimplexResult:
        """Restore feasibility (Bland's rule).  Exact and terminating."""
        pivots = 0
        while True:
            violated = None
            needs_increase = False
            for basic in sorted(self._rows):
                value = self._value[basic]
                lower, upper = self._lower[basic], self._upper[basic]
                if lower is not None and value < lower:
                    violated, needs_increase, target = basic, True, lower
                    break
                if upper is not None and value > upper:
                    violated, needs_increase, target = basic, False, upper
                    break
            if violated is None:
                return SimplexResult(
                    True,
                    assignment={v: self._value[v] for v in range(self._num_vars)},
                    pivots=pivots,
                )
            if pivots >= max_pivots:
                raise SmtError(f"simplex exceeded {max_pivots} pivots")

            row = self._rows[violated]
            candidate = None
            for nonbasic in sorted(row):
                coeff = row[nonbasic]
                if needs_increase:
                    can_move = (
                        coeff > 0
                        and (
                            self._upper[nonbasic] is None
                            or self._value[nonbasic] < self._upper[nonbasic]
                        )
                    ) or (
                        coeff < 0
                        and (
                            self._lower[nonbasic] is None
                            or self._value[nonbasic] > self._lower[nonbasic]
                        )
                    )
                else:
                    can_move = (
                        coeff > 0
                        and (
                            self._lower[nonbasic] is None
                            or self._value[nonbasic] > self._lower[nonbasic]
                        )
                    ) or (
                        coeff < 0
                        and (
                            self._upper[nonbasic] is None
                            or self._value[nonbasic] < self._upper[nonbasic]
                        )
                    )
                if can_move:
                    candidate = nonbasic
                    break
            if candidate is None:
                # Infeasible: the row plus the blocking bounds form the core.
                conflict = {
                    BoundRef(violated, BoundKind.LOWER if needs_increase else BoundKind.UPPER)
                }
                for nonbasic in row:
                    coeff = row[nonbasic]
                    if needs_increase:
                        conflict.add(
                            BoundRef(
                                nonbasic,
                                BoundKind.UPPER if coeff > 0 else BoundKind.LOWER,
                            )
                        )
                    else:
                        conflict.add(
                            BoundRef(
                                nonbasic,
                                BoundKind.LOWER if coeff > 0 else BoundKind.UPPER,
                            )
                        )
                return SimplexResult(False, conflict=frozenset(conflict), pivots=pivots)

            self._pivot_and_update(violated, candidate, target)
            pivots += 1

    # -- introspection ------------------------------------------------------------------------

    def value(self, var: int) -> Fraction:
        return self._value[var]

    @property
    def num_vars(self) -> int:
        return self._num_vars
