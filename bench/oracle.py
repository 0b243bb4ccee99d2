"""Known answers for the benchmark, derived without the code under test.

Nothing here imports :mod:`cocat`.  The counts follow from the paper's
classification of co-categories in finite sets: each one is the
cokernel pair of a subset S of Q0, so |Q1| = 2|Q0| - |S|, and every
labelling of Q1 gives a distinct structure on the nose.  The brute-force
enumerator in the package assumes none of this, which is what makes the
agreement of the two a check.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

FLAGS = ("cocategory", "copreorder", "cogroupoid", "coequivalence")

# Expected (cocategory, copreorder, cogroupoid, coequivalence) by construction.
COEQUIVALENCE = (True, True, True, True)      # every cokernel pair
GROUP_EXAMPLE = (True, False, True, False)    # abgp and chain examples
INTERVAL = (True, False, False, False)        # cat interval


def structure_count(n0: int, n1: int) -> int:
    """Co-categories in finite sets with |Q0| = n0 and |Q1| = n1, counted
    on the nose: C(n0, 2*n0 - n1) subsets S times n1! labellings."""
    k = 2 * n0 - n1
    if n0 < 1 or n1 < 1 or not 0 <= k <= n0:
        return 0
    return math.comb(n0, k) * math.factorial(n1)


def total_structures(max_q0: int, max_q1: int) -> int:
    """All structures with 1 <= |Q0| <= max_q0 and 1 <= |Q1| <= max_q1."""
    return sum(structure_count(n0, n1)
               for n0 in range(1, max_q0 + 1) for n1 in range(1, max_q1 + 1))


def iso_classes(max_q0: int, max_q1: int) -> int:
    """Isomorphism classes within the bounds: one per (n0, n1) with
    n0 <= n1 <= 2*n0, since |Q0| and |S| determine a cokernel pair."""
    return sum(1 for n0 in range(1, max_q0 + 1)
               for n1 in range(n0, min(2 * n0, max_q1) + 1))


def is_cokernel_pair_shape(n1: int, l: Sequence[int], r: Sequence[int]) -> bool:
    """Necessary shape of a finite-set co-category with legs l, r into a
    set of size n1: both legs injective, jointly onto, and agreeing on
    exactly 2*|Q0| - n1 points."""
    n0 = len(l)
    if len(r) != n0 or len(set(l)) != n0 or len(set(r)) != n0:
        return False
    if set(l) | set(r) != set(range(n1)):
        return False
    return sum(1 for a, b in zip(l, r) if a == b) == 2 * n0 - n1


def judge(expected: tuple[bool, ...], actual: tuple[Optional[bool], ...]
          ) -> tuple[list[str], bool]:
    """Compare classification flags with the known answer.

    Returns the names of the flags that were decided wrongly, and
    whether all four were decided.  ``None`` (undecided) is never wrong.
    """
    wrong = [name for name, want, got in zip(FLAGS, expected, actual)
             if got is not None and got != want]
    return wrong, all(flag is not None for flag in actual)
