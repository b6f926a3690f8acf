"""SMT substrate (system S8 in DESIGN.md).

Exact linear arithmetic over the rationals:

- :mod:`repro.smt.linexpr` — linear expressions and constraints;
- :mod:`repro.smt.simplex` — incremental Dutertre–de Moura general
  simplex with a fraction-free tableau (integer rows, one denominator
  each), exact ``Fraction`` assignments and conflict extraction;
- :mod:`repro.smt.branch_bound` — integer feasibility via branch & bound;
- :mod:`repro.smt.dpllt` — lazy DPLL(T): the CDCL core from
  :mod:`repro.sat` combined with the simplex as theory solver.

nuXmv reaches its SMT backend (MathSAT) for exactly this role; here the
stack is self-contained.
"""

from .linexpr import Constraint, LinExpr, Relation
from .simplex import BoundKind, Simplex, SimplexResult
from .branch_bound import IntegerFeasibilityResult, solve_integer_feasibility
from .dpllt import DpllTSolver, TheoryAtom, TheoryResult

__all__ = [
    "LinExpr",
    "Constraint",
    "Relation",
    "Simplex",
    "SimplexResult",
    "BoundKind",
    "solve_integer_feasibility",
    "IntegerFeasibilityResult",
    "DpllTSolver",
    "TheoryAtom",
    "TheoryResult",
]
