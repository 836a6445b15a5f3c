"""Independent count of simply branched torus covers, stdlib only.

By the Frobenius character formula, the number of tuples (A, B, T_1..T_b)
in S_d with [A, B] = T_1 ... T_b and every T_i a transposition is

    N(d, b) = d! * sum over partitions lam of d of c(lam)^b,

where c(lam) is the content sum of lam (the central character of the
transposition class).  Tuples split into transitive parts on a set
partition of the sheets, with the branch letters shared out among the
parts, so the transitive counts are the logarithm of the exponential
generating function in q^d/d! and x^b/b!.  (Dijkgraaf, "Mirror symmetry
and elliptic curves", 1995; Eskin-Okounkov, Invent. Math. 2001.)

No code of the program under test is used here.
"""

from __future__ import annotations

import functools
import math


def partitions(n: int, cap: int | None = None):
    """Partitions of n into parts of size at most cap, largest part first."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def content_sum(lam) -> int:
    return sum(j - i for i, row in enumerate(lam) for j in range(row))


def all_tuples(d: int, b: int) -> int:
    """N(d, b): every tuple, transitive or not."""
    return math.factorial(d) * sum(content_sum(lam) ** b for lam in partitions(d))


@functools.lru_cache(maxsize=None)
def transitive_tuples(d: int, b: int) -> int:
    """Tuples whose group acts transitively on the d sheets.

    The part containing sheet 1 has k sheets and j of the b branch letters;
    the rest of the tuple is any tuple on the other d - k sheets.
    """
    if d < 1 or b < 0:
        raise ValueError("need d >= 1, b >= 0")
    split = 0
    for k in range(1, d + 1):
        for j in range(b + 1):
            if (k, j) == (d, b):
                continue
            split += (
                math.comb(d - 1, k - 1)
                * math.comb(b, j)
                * transitive_tuples(k, j)
                * all_tuples(d - k, b - j)
            )
    return all_tuples(d, b) - split
