"""Complete verification by ReLU phase splitting over the exact simplex.

The Reluplex/Marabou recipe, specialised to the FANNet query:

1. an interval prepass fixes every ReLU whose phase the noise box already
   determines;
2. the remaining *ambiguous* neurons are split case-wise —
   active (``n ≥ 0 ∧ a = n``) vs inactive (``n ≤ 0 ∧ a = 0``) — in a DFS
   whose nodes are pruned by exact LP feasibility under the triangle
   relaxation (``a ≥ 0``, ``a ≥ n``, ``a ≤ ub``);
3. at a fully-split leaf the constraint system describes genuine network
   executions, so integer branch & bound over the noise variables either
   produces a real witness or refutes the leaf.

Everything is exact (integer tableau rows, ``Fraction`` assignments and
bounds): a ROBUST answer is a proof, and every witness is
double-checked against the reference evaluator anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import VerifierConfig
from ..errors import BudgetExceededError, VerificationError
from ..smt.branch_bound import solve_integer_feasibility
from ..smt.simplex import Simplex
from .encoder import ScaledQuery
from .result import VerificationResult, VerificationStatus


@dataclass
class _Neuron:
    layer: int
    index: int
    pre_var: int  # simplex var of the pre-activation (defined row)
    act_var: int  # simplex var of the post-activation
    diff_var: int  # defined row: act - pre  (0 in the active phase)
    low: int
    high: int

    @property
    def ambiguous(self) -> bool:
        return self.low < 0 < self.high


class SmtVerifier:
    """Sound and complete robustness verifier."""

    name = "smt"

    def __init__(self, config: VerifierConfig | None = None):
        self.config = config or VerifierConfig()
        self.nodes_explored = 0
        #: Cumulative simplex pivots over this verifier's lifetime (never
        #: reset by ``verify``): the deterministic effort measure the
        #: incremental-ladder benchmark gates on.
        self.total_pivots = 0

    def verify(self, query: ScaledQuery) -> VerificationResult:
        """Decide the query; ROBUST and VULNERABLE are both definitive."""
        self.nodes_explored = 0
        for adversary in range(query.num_outputs):
            if adversary == query.true_label:
                continue
            witness = self._verify_against(query, adversary)
            if witness is not None:
                predicted = query.predict_single(witness)
                if predicted == query.true_label or not query.misclassified(witness):
                    raise VerificationError(
                        "internal: witness failed the exact recheck"
                    )
                return VerificationResult(
                    VerificationStatus.VULNERABLE,
                    witness=witness,
                    predicted_label=predicted,
                    engine=self.name,
                    nodes_explored=self.nodes_explored,
                )
        return VerificationResult(
            VerificationStatus.ROBUST,
            engine=self.name,
            nodes_explored=self.nodes_explored,
        )

    # -- per-adversary search ----------------------------------------------------

    def witness_against(self, query: ScaledQuery, adversary: int):
        """Canonical witness flipping to ``adversary``, or None.

        The from-scratch per-adversary search, exposed so the incremental
        session layer (:mod:`repro.verify.incremental`) can re-derive the
        *same* witness a cold run would report after its warm solvers
        prove a rung vulnerable.  ``nodes_explored`` accumulates across
        calls; reset it before use if per-call counts matter.
        """
        return self._verify_against(query, adversary)

    def _verify_against(self, query: ScaledQuery, adversary: int):
        """Witness flipping to ``adversary``, or None when impossible."""
        simplex = Simplex()
        try:
            return self._search_adversary(simplex, query, adversary)
        finally:
            self.total_pivots += simplex.total_pivots

    def _search_adversary(self, simplex: Simplex, query: ScaledQuery, adversary: int):
        one = simplex.new_var()
        simplex.assert_lower(one, 1)
        simplex.assert_upper(one, 1)

        noise_vars = [simplex.new_var() for _ in range(query.num_inputs)]
        for var, lo, hi in zip(noise_vars, query.low, query.high):
            simplex.assert_lower(var, int(lo))
            simplex.assert_upper(var, int(hi))

        bounds = query.layer_bounds()
        neurons: list[_Neuron] = []

        # Layer 1 pre-activations are affine in the noise variables:
        # N1_j = const_j + Σ (W1_ji · x_i) · p_i.
        previous_acts = None
        for layer_index in range(query.num_layers):
            weight = query.weights[layer_index]
            bias = query.biases[layer_index]
            layer_pre_vars = []
            for j in range(weight.shape[0]):
                if layer_index == 0:
                    combination = {one: 0}
                    constant = int(bias[j])
                    for i in range(query.num_inputs):
                        coeff = int(weight[j][i])
                        constant += coeff * 100 * int(query.x[i])
                        combination[noise_vars[i]] = (
                            combination.get(noise_vars[i], 0)
                            + coeff * int(query.x[i])
                        )
                    combination[one] = constant
                else:
                    combination = {one: int(bias[j])}
                    for i, act in enumerate(previous_acts):
                        combination[act] = int(weight[j][i])
                pre = simplex.define(combination)
                layer_pre_vars.append(pre)

            if layer_index == query.num_layers - 1:
                final_pre_vars = layer_pre_vars
                break

            # Hidden layer: create activation vars with ReLU relaxation.
            pre_low, pre_high = bounds[layer_index]
            acts = []
            for j, pre in enumerate(layer_pre_vars):
                act = simplex.new_var()
                diff = simplex.define({act: 1, pre: -1})
                simplex.assert_lower(act, 0)  # a >= 0
                simplex.assert_lower(diff, 0)  # a >= n (triangle)
                simplex.assert_upper(act, max(0, pre_high[j]))
                neurons.append(
                    _Neuron(
                        layer=layer_index,
                        index=j,
                        pre_var=pre,
                        act_var=act,
                        diff_var=diff,
                        low=pre_low[j],
                        high=pre_high[j],
                    )
                )
                acts.append(act)
            previous_acts = acts

        # Misclassification margin: N_adv - N_true >= threshold.
        margin = simplex.define(
            {final_pre_vars[adversary]: 1, final_pre_vars[query.true_label]: -1}
        )
        if simplex.assert_lower(margin, query.misclass_threshold(adversary)) is not None:
            return None

        # Fix phases the interval analysis already decided.
        for neuron in neurons:
            if neuron.low >= 0:
                if simplex.assert_upper(neuron.diff_var, 0) is not None:
                    return None  # a = n forced infeasible
            elif neuron.high <= 0:
                if simplex.assert_upper(neuron.act_var, 0) is not None:
                    return None
                if simplex.assert_upper(neuron.pre_var, 0) is not None:
                    return None

        ambiguous = sorted(
            (n for n in neurons if n.ambiguous),
            key=lambda n: (n.layer, -(n.high - n.low)),
        )
        integer_vars = noise_vars
        return self._dfs(simplex, ambiguous, 0, integer_vars, query)

    def _dfs(self, simplex: Simplex, ambiguous, depth: int, integer_vars, query):
        self.nodes_explored += 1
        if self.nodes_explored > self.config.node_budget:
            raise BudgetExceededError(
                f"SMT verifier exceeded {self.config.node_budget} nodes",
                budget=self.config.node_budget,
            )
        if not simplex.check().feasible:
            return None
        if depth == len(ambiguous):
            result = solve_integer_feasibility(
                simplex, integer_vars, node_budget=self.config.node_budget
            )
            if not result.feasible:
                return None
            return tuple(int(result.assignment[v]) for v in integer_vars)

        neuron = ambiguous[depth]

        # Active phase: n >= 0, a - n = 0.
        simplex.push()
        ok = simplex.assert_lower(neuron.pre_var, 0) is None
        ok = ok and simplex.assert_upper(neuron.diff_var, 0) is None
        if ok:
            witness = self._dfs(simplex, ambiguous, depth + 1, integer_vars, query)
            if witness is not None:
                simplex.pop()
                return witness
        simplex.pop()

        # Inactive phase: n <= 0, a = 0.
        simplex.push()
        ok = simplex.assert_upper(neuron.pre_var, 0) is None
        ok = ok and simplex.assert_upper(neuron.act_var, 0) is None
        if ok:
            witness = self._dfs(simplex, ambiguous, depth + 1, integer_vars, query)
            if witness is not None:
                simplex.pop()
                return witness
        simplex.pop()
        return None
