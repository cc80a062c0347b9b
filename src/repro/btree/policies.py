"""The underflow (merge) policy.

The paper (Section 3.2, "B-trees") distinguishes merge-at-half, the
classical B+-tree that rebalances a node once it drops below half full,
from **merge-at-empty**, which removes a node only when it becomes
completely empty and never borrows.  Johnson & Shasha (PODS '89) show
merge-at-empty restructures far less often with only slightly lower
space utilization when inserts outnumber deletes, which is why every
algorithm in the paper uses it, and it is the only policy the tree
implements.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MergePolicy:
    """A named underflow policy.

    A non-root node underflows when it holds strictly fewer than
    ``ceil(capacity * min_fill_numerator / min_fill_denominator)``
    entries, with merge-at-empty's floor of 1 entry (underflow only at
    zero).  The record exists for :data:`MERGE_AT_EMPTY`, whose fields
    are part of every result-cache key.
    """

    name: str
    min_fill_numerator: int
    min_fill_denominator: int


MERGE_AT_EMPTY = MergePolicy("merge-at-empty", 0, 1)
