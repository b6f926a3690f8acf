"""Column-batched mutual information and mRMR against the scalar oracle.

``tests/mrmr_oracle.py`` is the one-table-per-column implementation the
batched one replaced.  On random discrete matrices — duplicate and
constant columns, arbitrary value alphabets, ``k`` up to the column
count, both criteria — every column's MI must agree with it, and so must
the selection wherever the oracle's choices are not near-ties.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

import mrmr_oracle as oracle
from repro.data import generate_golub_like, load_leukemia_case_study, mrmr_select
from repro.data.discretize import discretize_three_level
from repro.data.mrmr import mutual_information

#: The paper's five genes as the default case study selects them.
CASE_STUDY_GENES = [1868, 1996, 891, 1773, 532]


def oracle_margin(levels: np.ndarray, labels: np.ndarray, k: int, scheme: str) -> float:
    """Smallest gap between the oracle's winning score and the runner-up,
    over its ``k`` selection steps (``inf`` when a step has one candidate)."""

    def gap(score: np.ndarray, selected: list[int]) -> float:
        open_scores = np.delete(score, selected)
        if open_scores.size < 2:
            return float("inf")
        top = np.sort(open_scores)[-2:]
        return float(top[1] - top[0])

    relevance = oracle._relevance(levels, labels)
    margins = [gap(relevance, [])]
    selected = [int(np.argmax(relevance))]
    rows = []
    while len(selected) < k:
        last = selected[-1]
        rows.append(
            [oracle.mutual_information(levels[:, j], levels[:, last]) for j in range(levels.shape[1])]
        )
        mean_redundancy = np.mean(rows, axis=0)
        if scheme == "mid":
            score = relevance - mean_redundancy
        else:
            score = relevance / (mean_redundancy + 1e-12)
        margins.append(gap(score, selected))
        score[selected] = -np.inf
        selected.append(int(np.argmax(score)))
    return min(margins)


@st.composite
def discrete_problems(draw):
    """A discrete ``(n, m)`` matrix, labels, ``k`` and a criterion."""
    n = draw(st.integers(1, 30))
    alphabet = draw(st.lists(st.integers(-1000, 1000), min_size=1, max_size=5, unique=True))
    column = st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)
    columns = draw(st.lists(column, min_size=1, max_size=8))
    # Duplicate and constant columns: exact ties in relevance and redundancy.
    for _ in range(draw(st.integers(0, 3))):
        columns.append(list(draw(st.sampled_from(columns))))
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), [draw(st.sampled_from(alphabet))] * n)
    levels = np.array(columns, dtype=np.int64).T
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    k = draw(st.integers(1, levels.shape[1]))
    scheme = draw(st.sampled_from(["mid", "miq"]))
    return levels, labels, k, scheme


class TestAgainstScalarOracle:
    @given(discrete_problems())
    @settings(max_examples=150, deadline=None)
    def test_columns_and_selection_match_oracle(self, problem):
        levels, labels, k, scheme = problem
        m = levels.shape[1]
        batched = mutual_information(levels, labels)
        assert batched.shape == (m,)
        np.testing.assert_allclose(batched, oracle._relevance(levels, labels), rtol=0, atol=1e-12)
        for target in (levels[:, 0], levels[:, m - 1]):
            expected = [oracle.mutual_information(levels[:, j], target) for j in range(m)]
            np.testing.assert_allclose(mutual_information(levels, target), expected, rtol=0, atol=1e-12)

        expected = oracle.mrmr_select(levels, labels, k, scheme)
        if oracle_margin(levels, labels, k, scheme) > 1e-9:
            assert mrmr_select(levels, labels, k, scheme) == expected

    def test_vector_input_returns_float(self):
        a = np.array([3, 3, -1, 7, 7, 7])
        b = np.array([0, 1, 0, 1, 1, 0])
        value = mutual_information(a, b)
        assert type(value) is float
        assert value == oracle.mutual_information(a, b)

    def test_case_study_selection_is_pinned(self):
        raw = generate_golub_like()
        levels = discretize_three_level(raw.train.features)
        labels = raw.train.labels
        relevance = mutual_information(levels, labels)
        assert np.array_equal(relevance, oracle._relevance(levels, labels))
        assert mrmr_select(levels, labels, k=5) == CASE_STUDY_GENES
        assert oracle.mrmr_select(levels, labels, k=5) == CASE_STUDY_GENES
        assert load_leukemia_case_study().selected_genes == CASE_STUDY_GENES
