"""The composite-key grouping ``repro.grouping.group`` replaced.

``olap/kernel._group`` as it stood: ``np.unique(axis=0)`` over the key
rows (a void-dtype sort — 93 % of a star-engine op, which is why it
left ``src/``), kept here as the oracle ``tests/olap/test_grouping.py``
compares the sort-based kernel against.
"""

from typing import Tuple

import numpy as np


def reference_group(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``keys`` ``(rows, columns)`` in sorted order,
    and the group index of every row."""
    if keys.shape[1] == 0:
        # GROUP BY nothing is ONE group however many rows there are —
        # none included: the scalar-over-zero-facts rule
        return (np.zeros((1, 0), dtype=np.int64),
                np.zeros(len(keys), dtype=np.int64))
    distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
    return distinct, inverse.reshape(-1)
