"""Lazy DPLL(T): CDCL boolean search + exact simplex theory checks.

The classic lazy architecture (the one nuXmv inherits from MathSAT):

1. each linear-arithmetic *atom* is abstracted to a boolean variable;
2. CDCL enumerates boolean models of the abstraction;
3. the simplex checks the conjunction of asserted atoms; a theory
   conflict yields a blocking clause built from the simplex conflict
   core, and the loop repeats.

Atoms may appear under negation.  The negative polarity of an atom is
either supplied explicitly (``neg=``, used by ReLU phases where the two
polarities deliberately overlap at 0) or derived exactly when all
coefficients are integral and the variables are declared integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from ..errors import SmtError
from ..sat import CdclSolver, SatStatus
from .branch_bound import solve_integer_feasibility
from .linexpr import Constraint, Relation
from .simplex import BoundKind, BoundRef, Simplex


class TheoryResult(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class TheoryAtom:
    """A boolean abstraction variable tied to a linear constraint.

    ``pos`` holds when the atom is assigned true; ``neg`` (if given) holds
    when it is assigned false.  With ``neg=None`` the negation is derived
    via :meth:`Constraint.negated`, which requires integral coefficients.
    """

    boolean_var: int
    pos: Constraint
    neg: Constraint | None = None


@dataclass
class DpllTModel:
    values: dict[object, Fraction]
    booleans: dict[int, bool]


class DpllTSolver:
    """Lazy DPLL(T) over linear rational/integer arithmetic."""

    def __init__(self, node_budget: int = 100_000, max_conflicts: int | None = None):
        self.sat = CdclSolver()
        self.simplex = Simplex()
        self._atoms: dict[int, TheoryAtom] = {}
        self._var_ids: dict[object, int] = {}
        self._integer_vars: set[object] = set()
        self._slack_cache: dict[frozenset, int] = {}
        self.node_budget = node_budget
        #: Total CDCL conflict budget across the whole lazy loop (None =
        #: unbounded).  Exhaustion yields ``TheoryResult.UNKNOWN`` — never
        #: a verdict.
        self.max_conflicts = max_conflicts
        self.theory_conflicts = 0

    # -- problem construction ------------------------------------------------

    def new_bool(self) -> int:
        return self.sat.new_var()

    def theory_var(self, name, integer: bool = False) -> int:
        """Simplex id of the named arithmetic variable."""
        if name not in self._var_ids:
            self._var_ids[name] = self.simplex.new_var()
        if integer:
            self._integer_vars.add(name)
        return self._var_ids[name]

    def set_bounds(self, name, lower=None, upper=None) -> None:
        """Permanent (level-0) bounds on a theory variable."""
        var = self.theory_var(name)
        if lower is not None and self.simplex.assert_lower(var, lower) is not None:
            raise SmtError(f"contradictory permanent bounds on {name!r}")
        if upper is not None and self.simplex.assert_upper(var, upper) is not None:
            raise SmtError(f"contradictory permanent bounds on {name!r}")

    def make_atom(self, constraint: Constraint, neg: Constraint | None = None) -> TheoryAtom:
        """Register a constraint as a boolean atom; returns the atom."""
        boolean = self.sat.new_var()
        atom = TheoryAtom(boolean, constraint, neg)
        self._atoms[boolean] = atom
        return atom

    def add_clause(self, literals: list[int]) -> None:
        """Boolean clause over atom variables and plain booleans."""
        self.sat.add_clause(literals)

    # -- internals ---------------------------------------------------------------

    def _slack_for(self, constraint: Constraint) -> int:
        """Simplex slack variable for the linear part of ``constraint``."""
        key = frozenset(
            (self._var_ids_checked(var), coeff)
            for var, coeff in constraint.expr.coeffs.items()
        )
        if key not in self._slack_cache:
            combination = {
                self._var_ids_checked(var): coeff
                for var, coeff in constraint.expr.coeffs.items()
            }
            self._slack_cache[key] = self.simplex.define(combination)
        return self._slack_cache[key]

    def _var_ids_checked(self, name) -> int:
        if name not in self._var_ids:
            raise SmtError(f"atom references undeclared theory variable {name!r}")
        return self._var_ids[name]

    def _assert_constraint(
        self, constraint: Constraint, slack: int, origin: int, bound_origin: dict
    ):
        """Push ``constraint`` (whose linear part is the simplex variable
        ``slack``) into the simplex, recording the atom literal responsible
        for each *active* bound.  Returns a conflict or None."""
        threshold = -constraint.expr.constant

        def attempt(kind: BoundKind):
            ref = BoundRef(slack, kind)
            index = 0 if kind is BoundKind.LOWER else 1
            before = self.simplex.bounds(slack)[index]
            if kind is BoundKind.LOWER:
                conflict = self.simplex.assert_lower(slack, threshold)
            else:
                conflict = self.simplex.assert_upper(slack, threshold)
            if conflict is not None:
                # The attempted bound participates in the conflict even
                # though it was never installed.
                bound_origin[ref] = origin
                return conflict
            if self.simplex.bounds(slack)[index] != before:
                bound_origin[ref] = origin  # this atom now owns the bound
            return None

        if constraint.relation in (Relation.LE, Relation.EQ):
            conflict = attempt(BoundKind.UPPER)
            if conflict is not None:
                return conflict
        if constraint.relation in (Relation.GE, Relation.EQ):
            conflict = attempt(BoundKind.LOWER)
            if conflict is not None:
                return conflict
        return None

    # -- solving --------------------------------------------------------------------

    def solve(self) -> tuple[TheoryResult, DpllTModel | None]:
        """Run the lazy loop to a verdict."""
        # All slack rows must exist before any push (simplex restriction),
        # so resolve each atom's (constraint, slack) pair per polarity here,
        # once, for the lazy loop below to assert.
        polarities = []
        for boolean, atom in self._atoms.items():
            negation = atom.neg if atom.neg is not None else self._derived_neg(atom)
            polarities.append((
                boolean,
                (atom.pos, self._slack_for(atom.pos)),
                None if negation is None else (negation, self._slack_for(negation)),
            ))

        conflict_floor = self.sat.conflicts
        while True:
            remaining = None
            if self.max_conflicts is not None:
                remaining = self.max_conflicts - (self.sat.conflicts - conflict_floor)
                if remaining <= 0:
                    return TheoryResult.UNKNOWN, None
            sat_result = self.sat.solve(max_conflicts=remaining)
            if sat_result.status is SatStatus.UNKNOWN:
                # Conflict budget exhausted: resource limit, not a proof.
                # (A bare "not SAT" test here would silently promote this
                # to UNSAT — the three statuses must stay distinguished.)
                return TheoryResult.UNKNOWN, None
            if sat_result.status is not SatStatus.SAT:
                return TheoryResult.UNSAT, None

            self.simplex.push()
            bound_origin: dict[BoundRef, int] = {}
            conflict = None
            for boolean, positive, negative in polarities:
                if sat_result.model.get(boolean, False):
                    conflict = self._assert_constraint(*positive, boolean, bound_origin)
                elif negative is not None:
                    conflict = self._assert_constraint(*negative, -boolean, bound_origin)
                if conflict is not None:
                    break

            if conflict is None:
                check = self.simplex.check()
                if check.feasible:
                    integer_ids = [self._var_ids[name] for name in self._integer_vars]
                    fractional = [
                        v for v in integer_ids if check.assignment[v].denominator != 1
                    ]
                    if fractional:
                        bb = solve_integer_feasibility(
                            self.simplex, integer_ids, self.node_budget
                        )
                        if bb.feasible:
                            model = self._extract_model(bb.assignment, sat_result.model)
                            self.simplex.pop()
                            return TheoryResult.SAT, model
                        # Integer-infeasible: block this exact boolean model.
                        blocking = [
                            -b if sat_result.model.get(b, False) else b
                            for b in self._atoms
                        ]
                        self.simplex.pop()
                        self.theory_conflicts += 1
                        self.sat.add_clause(blocking)
                        continue
                    model = self._extract_model(check.assignment, sat_result.model)
                    self.simplex.pop()
                    return TheoryResult.SAT, model
                conflict = check

            # Theory conflict: learn the blocking clause from the core.
            literals = set()
            for ref in conflict.conflict:
                origin = bound_origin.get(ref)
                if origin is not None:
                    literals.add(-origin)
            self.simplex.pop()
            self.theory_conflicts += 1
            if not literals:
                # Conflict among permanent bounds: unsatisfiable outright.
                return TheoryResult.UNSAT, None
            self.sat.add_clause(sorted(literals))

    def _derived_neg(self, atom: TheoryAtom) -> Constraint | None:
        if atom.pos.relation is Relation.EQ:
            return None
        integral = all(
            var in self._integer_vars for var in atom.pos.expr.coeffs
        ) and all(c.denominator == 1 for c in atom.pos.expr.coeffs.values())
        if not integral or atom.pos.expr.constant.denominator != 1:
            return None
        return atom.pos.negated()

    def _extract_model(self, assignment, boolean_model) -> DpllTModel:
        values = {
            name: assignment[var_id] for name, var_id in self._var_ids.items()
        }
        return DpllTModel(values=values, booleans=dict(boolean_model))
