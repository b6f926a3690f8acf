"""Reference scalar mRMR: the differential oracle for tests.

This is :mod:`repro.data.mrmr` as it stood before mutual information
was batched over columns: one ``np.unique`` contingency table per
(column, target) pair, so ``mrmr_select`` makes one call per column for
relevance and one per column per redundancy round.  Tests only; nothing
under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError


def mutual_information(a: np.ndarray, b: np.ndarray) -> float:
    """Mutual information I(a; b) in bits between two discrete vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("mutual_information expects two equal-length 1-D vectors")
    n = a.shape[0]
    if n == 0:
        raise DataError("mutual_information of empty vectors is undefined")

    a_values, a_codes = np.unique(a, return_inverse=True)
    b_values, b_codes = np.unique(b, return_inverse=True)
    joint = np.zeros((a_values.size, b_values.size))
    np.add.at(joint, (a_codes, b_codes), 1.0)
    joint /= n
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    ratio = np.where(mask, joint / (pa @ pb), 1.0)
    return float((joint[mask] * np.log2(ratio[mask])).sum())


def _relevance(levels: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """I(feature; label) for every column of ``levels``."""
    return np.array(
        [mutual_information(levels[:, j], labels) for j in range(levels.shape[1])]
    )


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

    relevance = _relevance(levels, labels)
    selected: list[int] = [int(np.argmax(relevance))]
    # Cache of I(candidate; already-selected) values, one row per selected.
    redundancy_rows: list[np.ndarray] = []

    while len(selected) < k:
        last = selected[-1]
        redundancy_rows.append(
            np.array(
                [
                    mutual_information(levels[:, j], levels[:, last])
                    for j in range(levels.shape[1])
                ]
            )
        )
        mean_redundancy = np.mean(redundancy_rows, axis=0)
        if scheme == "mid":
            score = relevance - mean_redundancy
        else:
            score = relevance / (mean_redundancy + 1e-12)
        score[selected] = -np.inf
        selected.append(int(np.argmax(score)))
    return selected
