"""Minimum-Redundancy Maximum-Relevance feature selection (system S3).

Implements the incremental mRMR of Peng, Long & Ding, "Feature selection
based on mutual information: criteria of max-dependency, max-relevance,
and min-redundancy" (IEEE TPAMI 27(8), 2005), over discretised
variables, supporting both classic criteria:

- **MID** (difference):  ``argmax_f  I(f; y) − mean_{s ∈ S} I(f; s)``
- **MIQ** (quotient):    ``argmax_f  I(f; y) / mean_{s ∈ S} I(f; s)``

Mutual information is computed for a whole matrix of candidate columns
against one target at a time.  Each column's values are coded as dense
ranks, so the ``m`` contingency tables form one ``(m, a-values,
b-values)`` array, filled by a single ``np.bincount`` over
``(column, a-code, b-code)`` cell indices; every column's MI is then the
same per-cell sum ``Σ p(a,b) · log2(p(a,b) / (p(a) p(b)))``.  The table
holds at most columns × rows × target-values cells whatever the value
alphabet, and ``mrmr_select`` makes one such call for relevance and one
per redundancy round.

The paper cites mRMR as the method that picked the five genes feeding the
network's input nodes.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """Per column, each value's rank among that column's distinct values."""
    order = np.argsort(values, axis=0)
    ordered = np.take_along_axis(values, order, axis=0)
    steps = np.zeros(values.shape, dtype=np.intp)
    steps[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0), axis=0)
    return ranks


def mutual_information(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Mutual information I(a; b) in bits between discrete variables.

    ``b`` is a length-``n`` vector.  A length-``n`` vector ``a`` gives a
    ``float``; an ``(n, m)`` matrix ``a`` gives the ``m`` values
    I(a[:, j]; b) as an array.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if b.ndim != 1 or a.ndim not in (1, 2) or a.shape[0] != b.shape[0]:
        raise DataError(
            "mutual_information expects a length-n vector b and a length-n "
            "vector or (n, m) matrix a"
        )
    n = b.shape[0]
    if n == 0:
        raise DataError("mutual_information of empty vectors is undefined")

    columns = a.reshape(n, -1)
    m = columns.shape[1]
    a_codes = _dense_ranks(columns)
    a_size = int(a_codes.max()) + 1 if m else 1
    b_values, b_codes = np.unique(b, return_inverse=True)
    cells = (np.arange(m) * a_size + a_codes) * b_values.size + b_codes.reshape(n, 1)
    joint = np.bincount(cells.ravel(), minlength=m * a_size * b_values.size)
    joint = joint.reshape(m, a_size, b_values.size) / n
    pa = joint.sum(axis=2)
    # The b-marginal accumulated over a-values in order, as a single
    # table's ``joint.sum(axis=0)`` does for two or more b-values.  (With
    # one b-value it sums pairwise; the MI is then 0 up to rounding.)
    pb = np.cumsum(joint, axis=1)[:, -1]

    column, a_code, b_code = np.nonzero(joint)
    p = joint[column, a_code, b_code]
    terms = p * np.log2(p / (pa[column, a_code] * pb[column, b_code]))
    # Sum each column's terms as one contiguous row, so the float
    # summation order is that of a single table's ``terms.sum()``: columns
    # with the same number of occupied cells are reduced together.
    occupied = np.bincount(column, minlength=m)
    mi = np.zeros(m)
    for count in np.unique(occupied):
        rows = occupied == count
        mi[rows] = terms[rows[column]].reshape(-1, count).sum(axis=1)
    return float(mi[0]) if a.ndim == 1 else mi


def mrmr_select(
    levels: np.ndarray,
    labels: np.ndarray,
    k: int,
    scheme: str = "mid",
) -> list[int]:
    """Select ``k`` column indices by incremental mRMR.

    ``levels`` must already be discretised (see
    :func:`repro.data.discretize.discretize_three_level`).  Selection is
    deterministic; numeric ties break toward the lower column index.
    """
    levels = np.asarray(levels)
    labels = np.asarray(labels)
    if levels.ndim != 2:
        raise DataError("levels must be 2-D")
    if labels.shape[0] != levels.shape[0]:
        raise DataError("labels/levels row mismatch")
    if not 0 < k <= levels.shape[1]:
        raise DataError(f"k must be in (0, {levels.shape[1]}]")
    if scheme not in ("mid", "miq"):
        raise DataError("scheme must be 'mid' or 'miq'")

    relevance = mutual_information(levels, labels)
    selected: list[int] = [int(np.argmax(relevance))]
    # Cache of I(candidate; already-selected) values, one row per selected.
    redundancy_rows: list[np.ndarray] = []

    while len(selected) < k:
        redundancy_rows.append(mutual_information(levels, levels[:, selected[-1]]))
        mean_redundancy = np.mean(redundancy_rows, axis=0)
        if scheme == "mid":
            score = relevance - mean_redundancy
        else:
            score = relevance / (mean_redundancy + 1e-12)
        score[selected] = -np.inf
        selected.append(int(np.argmax(score)))
    return selected
