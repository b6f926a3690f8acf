"""Tests for the exact simplex, branch & bound and LinExpr algebra."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.errors import SmtError
from repro.smt import (
    Constraint,
    LinExpr,
    Relation,
    Simplex,
    solve_integer_feasibility,
)
from simplex_oracle import Simplex as FractionSimplex


class TestLinExpr:
    def test_algebra(self):
        x = LinExpr.var("x")
        y = LinExpr.var("y")
        expr = 2 * x + y - 3
        assert expr.coeffs == {"x": Fraction(2), "y": Fraction(1)}
        assert expr.constant == Fraction(-3)

    def test_zero_coefficients_dropped(self):
        x = LinExpr.var("x")
        expr = x - x
        assert expr.is_constant

    def test_evaluate(self):
        expr = LinExpr({"x": 2, "y": -1}, 5)
        assert expr.evaluate({"x": 3, "y": 4}) == Fraction(7)

    def test_evaluate_missing_var(self):
        with pytest.raises(SmtError):
            LinExpr({"x": 1}).evaluate({})

    def test_relations(self):
        c = LinExpr.var("x") <= 5
        assert c.relation is Relation.LE
        assert c.satisfied_by({"x": 5})
        assert not c.satisfied_by({"x": 6})

    def test_negation_integer(self):
        c = LinExpr({"x": 1}, -5) <= 0  # x <= 5
        neg = c.negated()  # x >= 6
        assert neg.satisfied_by({"x": 6})
        assert not neg.satisfied_by({"x": 5})

    def test_negation_fractional_rejected(self):
        c = LinExpr({"x": Fraction(1, 2)}) <= 0
        with pytest.raises(SmtError):
            c.negated()

    def test_negation_of_equality_rejected(self):
        c = Constraint(LinExpr({"x": 1}), Relation.EQ)
        with pytest.raises(SmtError):
            c.negated()


class TestSimplexBasics:
    def test_trivially_feasible(self):
        s = Simplex()
        s.new_var()
        assert s.check().feasible

    def test_single_bounds(self):
        s = Simplex()
        x = s.new_var()
        s.assert_lower(x, 3)
        s.assert_upper(x, 5)
        result = s.check()
        assert result.feasible
        assert Fraction(3) <= result.assignment[x] <= Fraction(5)

    def test_contradictory_bounds(self):
        s = Simplex()
        x = s.new_var()
        s.assert_lower(x, 3)
        conflict = s.assert_upper(x, 2)
        assert conflict is not None
        assert not conflict.feasible

    def test_row_feasibility(self):
        # x + y >= 4, x <= 1, y <= 2  -> infeasible
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        total = s.define({x: 1, y: 1})
        s.assert_upper(x, 1)
        s.assert_upper(y, 2)
        s.assert_lower(total, 4)
        result = s.check()
        assert not result.feasible
        assert result.conflict  # non-empty core

    def test_row_feasible_solution_satisfies_rows(self):
        # x + 2y <= 10, x - y >= 1, 0 <= x,y <= 6
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        r1 = s.define({x: 1, y: 2})
        r2 = s.define({x: 1, y: -1})
        for v in (x, y):
            s.assert_lower(v, 0)
            s.assert_upper(v, 6)
        s.assert_upper(r1, 10)
        s.assert_lower(r2, 1)
        result = s.check()
        assert result.feasible
        a = result.assignment
        assert a[x] + 2 * a[y] <= 10
        assert a[x] - a[y] >= 1
        assert a[r1] == a[x] + 2 * a[y]

    def test_immediate_bound_conflict_reported(self):
        s = Simplex()
        x = s.new_var()
        s.assert_lower(x, 0)
        s.assert_upper(x, 10)
        s.push()
        conflict = s.assert_lower(x, 20)  # clashes with upper bound
        assert conflict is not None and not conflict.feasible
        s.pop()
        assert s.check().feasible

    def test_push_pop_restores_feasibility(self):
        # Row-level infeasibility that only check() can detect.
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        total = s.define({x: 1, y: 1})
        s.assert_lower(x, 0)
        s.assert_upper(x, 1)
        s.assert_lower(y, 0)
        s.assert_upper(y, 1)
        assert s.check().feasible
        s.push()
        assert s.assert_lower(total, 5) is None  # x + y >= 5: row infeasible
        assert not s.check().feasible
        s.pop()
        assert s.check().feasible

    def test_pop_without_push(self):
        with pytest.raises(SmtError):
            Simplex().pop()

    def test_define_after_push_rejected(self):
        s = Simplex()
        x = s.new_var()
        s.push()
        with pytest.raises(SmtError):
            s.define({x: 1})

    def test_define_expands_defined_vars(self):
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        u = s.define({x: 1, y: 1})
        w = s.define({u: 2})  # w = 2x + 2y
        s.assert_lower(x, 1)
        s.assert_lower(y, 1)
        s.assert_upper(w, 3)  # 2x + 2y <= 3 but >= 4: infeasible
        assert not s.check().feasible


class TestBranchAndBound:
    def test_integer_point_found(self):
        # 2x + 3y = 7 (x, y >= 0 integer) has solution x=2, y=1.
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        row = s.define({x: 2, y: 3})
        for v in (x, y):
            s.assert_lower(v, 0)
            s.assert_upper(v, 10)
        s.assert_lower(row, 7)
        s.assert_upper(row, 7)
        result = solve_integer_feasibility(s, [x, y])
        assert result.feasible
        assert result.assignment[x].denominator == 1
        assert result.assignment[y].denominator == 1
        assert 2 * result.assignment[x] + 3 * result.assignment[y] == 7

    def test_integer_infeasible(self):
        # 2x = 5 with x integer in [0, 10].
        s = Simplex()
        x = s.new_var()
        row = s.define({x: 2})
        s.assert_lower(x, 0)
        s.assert_upper(x, 10)
        s.assert_lower(row, 5)
        s.assert_upper(row, 5)
        result = solve_integer_feasibility(s, [x])
        assert not result.feasible

    def test_state_restored_after_search(self):
        s = Simplex()
        x = s.new_var()
        row = s.define({x: 2})
        s.assert_lower(x, 0)
        s.assert_upper(x, 10)
        s.assert_lower(row, 5)
        s.assert_upper(row, 5)
        solve_integer_feasibility(s, [x])
        # LP relaxation still feasible (x = 2.5).
        assert s.check().feasible


@st.composite
def random_lp(draw):
    """Random bounded LP: returns (A, b, lower, upper) for A x <= b."""
    num_vars = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 5))
    coeff = st.integers(-4, 4)
    a = [
        [draw(coeff) for _ in range(num_vars)]
        for _ in range(num_rows)
    ]
    b = [draw(st.integers(-6, 10)) for _ in range(num_rows)]
    lower = [draw(st.integers(-5, 0)) for _ in range(num_vars)]
    upper = [lo + draw(st.integers(0, 8)) for lo in lower]
    return a, b, lower, upper


class TestAgainstScipy:
    @given(random_lp())
    @settings(max_examples=200, deadline=None)
    def test_feasibility_matches_linprog(self, problem):
        a, b, lower, upper = problem
        num_vars = len(lower)

        s = Simplex()
        variables = [s.new_var() for _ in range(num_vars)]
        rows = [s.define(dict(zip(variables, coeffs))) for coeffs in a]
        for var, lo, hi in zip(variables, lower, upper):
            s.assert_lower(var, lo)
            s.assert_upper(var, hi)
        conflict_seen = False
        for row, bound in zip(rows, b):
            if s.assert_upper(row, bound) is not None:
                conflict_seen = True
        result = s.check()
        exact_feasible = result.feasible and not conflict_seen

        scipy_result = linprog(
            c=np.zeros(num_vars),
            A_ub=np.array(a, dtype=float),
            b_ub=np.array(b, dtype=float),
            bounds=list(zip(lower, upper)),
            method="highs",
        )
        assert exact_feasible == scipy_result.success

        if exact_feasible:
            assignment = result.assignment
            for coeffs, bound in zip(a, b):
                value = sum(
                    Fraction(c) * assignment[v] for c, v in zip(coeffs, variables)
                )
                assert value <= bound
            for var, lo, hi in zip(variables, lower, upper):
                assert lo <= assignment[var] <= hi


def assert_tableau_invariants(s: Simplex) -> None:
    """The integer tableau is in lowest terms and agrees with β."""
    assert set(s._den) == set(s._rows)
    for basic, row in s._rows.items():
        den = s._den[basic]
        assert den > 0
        assert math.gcd(den, *row.values()) == 1
        for var, num in row.items():
            assert num != 0
            assert var not in s._rows
            assert basic in s._cols[var]
        total = sum((num * s.value(var) for var, num in row.items()), Fraction(0))
        assert s.value(basic) == total / den


SMALL = st.integers(-4, 4).map(Fraction)
COEFF = st.one_of(SMALL, st.fractions(-4, 4, max_denominator=2**60))
BOUND = st.one_of(
    st.integers(-6, 6).map(Fraction), st.fractions(-6, 6, max_denominator=2**60)
)
OPS = ("new_var", "define", "lower", "upper", "push", "pop", "check")


def run_both(data, steps: int) -> None:
    """Drive the integer simplex and the Fraction oracle in lockstep."""
    fast, oracle = Simplex(), FractionSimplex()
    for _ in range(2):
        assert fast.new_var() == oracle.new_var()
    for _ in range(steps):
        op = data.draw(st.sampled_from(OPS))
        num_vars = fast.num_vars
        if op == "new_var":
            assert fast.new_var() == oracle.new_var()
        elif op == "define":
            # Any variable may appear, basic ones included (chained rows).
            chosen = data.draw(
                st.lists(st.integers(0, num_vars - 1), min_size=1, max_size=4, unique=True)
            )
            combination = {v: data.draw(COEFF) for v in chosen}
            if fast._trail_lim:
                with pytest.raises(SmtError):
                    fast.define(combination)
                with pytest.raises(SmtError):
                    oracle.define(combination)
            else:
                assert fast.define(combination) == oracle.define(combination)
        elif op in ("lower", "upper"):
            var = data.draw(st.integers(0, num_vars - 1))
            bound = data.draw(BOUND)
            name = "assert_lower" if op == "lower" else "assert_upper"
            assert getattr(fast, name)(var, bound) == getattr(oracle, name)(var, bound)
        elif op == "push":
            fast.push()
            oracle.push()
        elif op == "pop":
            if fast._trail_lim:
                fast.pop()
                oracle.pop()
        else:
            assert fast.check() == oracle.check()
            assert fast.total_pivots == oracle.total_pivots
        assert fast.num_vars == oracle.num_vars
        assert [fast.value(v) for v in range(fast.num_vars)] == [
            oracle.value(v) for v in range(oracle.num_vars)
        ]
        assert_tableau_invariants(fast)
    assert fast.check() == oracle.check()
    assert fast.total_pivots == oracle.total_pivots


class TestAgainstFractionTableau:
    """The integer tableau pivots exactly like the Fraction one it replaced."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_oracle(self, data):
        run_both(data, data.draw(st.integers(1, 40)))

    def test_chained_define_over_pivoted_basic(self):
        # A row defined after pivots sees its referenced basic expanded
        # through a non-unit denominator.
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        u = s.define({x: Fraction(1, 3), y: Fraction(2, 7)})
        s.assert_lower(u, 1)
        assert s.check().feasible
        assert s._den.get(x, 1) > 1  # the pivot made x basic over 7
        w = s.define({u: Fraction(5, 2), x: 1})
        assert_tableau_invariants(s)
        assert s.value(w) == Fraction(5, 2) * s.value(u) + s.value(x)
