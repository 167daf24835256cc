"""Virtual directionality on a line (Section 3.1.2).

VDM abstracts three nodes — the current pivot ``P`` (source or the node a
join iteration is visiting), an existing child ``E`` of the pivot, and the
newcomer ``N`` — onto a 1-D line using their three pairwise virtual
distances.  The *longest* of the three distances tells which node sits in
the middle:

* longest is ``d(N, E)``  →  P is between N and E  →  **Case I**
  (no shared direction; N should connect to P itself);
* longest is ``d(P, E)``  →  N is between P and E  →  **Case II**
  (N slots in between: becomes child of P and parent of E);
* longest is ``d(P, N)``  →  E is between P and N  →  **Case III**
  (N continues its join through E).

Ties (within a relative tolerance) mean the triangle is degenerate on the
line, in which case no directionality is asserted and Case I applies —
asserting Case II/III on a tie would reshuffle the tree with no gain.

:func:`classify_case` is the validating, one-triangle statement of the
rule; the join kernel's :func:`repro.core.join.split_cases` applies the
same arithmetic to a pivot's whole child set.
"""

from __future__ import annotations

import enum
import math

__all__ = ["Case", "classify_case"]


class Case(enum.Enum):
    """Outcome of the three-node directionality test."""

    I = 1  # noqa: E741 - the paper's name
    II = 2
    III = 3


#: Relative tolerance under which two distances are considered tied.
DEFAULT_TIE_TOLERANCE = 1e-9


def classify_case(
    d_pivot_new: float,
    d_pivot_existing: float,
    d_new_existing: float,
    *,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> Case:
    """Classify one (pivot, existing child, newcomer) triangle.

    Parameters are the three pairwise virtual distances; all must be
    non-negative and finite.  Returns the :class:`Case`.

    Examples
    --------
    The newcomer lies beyond the existing child (Case III):

    >>> classify_case(d_pivot_new=10, d_pivot_existing=4, d_new_existing=6)
    <Case.III: 3>

    The newcomer lies between pivot and child (Case II):

    >>> classify_case(d_pivot_new=4, d_pivot_existing=10, d_new_existing=6)
    <Case.II: 2>

    The pivot is in the middle (Case I):

    >>> classify_case(d_pivot_new=4, d_pivot_existing=6, d_new_existing=10)
    <Case.I: 1>
    """
    for name, d in (
        ("d_pivot_new", d_pivot_new),
        ("d_pivot_existing", d_pivot_existing),
        ("d_new_existing", d_new_existing),
    ):
        if not math.isfinite(d) or d < 0:
            raise ValueError(f"{name} must be finite and >= 0, got {d!r}")
    if tie_tolerance < 0:
        raise ValueError(f"tie_tolerance must be >= 0, got {tie_tolerance}")

    longest = max(d_pivot_new, d_pivot_existing, d_new_existing)
    slack = tie_tolerance * max(longest, 1.0)

    is_ne = d_new_existing >= longest - slack
    is_pe = d_pivot_existing >= longest - slack
    is_pn = d_pivot_new >= longest - slack
    # A tie between candidates for "longest" means no clear 1-D ordering.
    if is_ne + is_pe + is_pn > 1:
        return Case.I
    if is_ne:
        return Case.I
    if is_pe:
        return Case.II
    return Case.III
