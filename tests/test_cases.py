"""Tests for the directionality classification (Section 3.1.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.cases import Case, classify_case


class TestPaperCases:
    """The three canonical configurations from Figs 3.2-3.4."""

    def test_case_i_pivot_in_middle(self):
        # S between N and E: d(N,E) is the longest side.
        assert classify_case(4.0, 6.0, 10.0) is Case.I

    def test_case_ii_newcomer_in_middle(self):
        # N between S and E: d(S,E) is the longest side.
        assert classify_case(4.0, 10.0, 6.0) is Case.II

    def test_case_iii_existing_in_middle(self):
        # E between S and N: d(S,N) is the longest side.
        assert classify_case(10.0, 4.0, 6.0) is Case.III

    def test_figure_3_2_router_delays(self):
        """Fig 3.2: N -- 3 -- S -- 4 -- E roughly; S in the middle."""
        assert classify_case(3.0, 4.0, 7.0) is Case.I

    def test_collinear_exact(self):
        # Perfect line S --- E --- N: d(S,N) = d(S,E) + d(E,N).
        assert classify_case(10.0, 6.0, 4.0) is Case.III


class TestTies:
    def test_exact_tie_two_longest_is_case_i(self):
        assert classify_case(10.0, 10.0, 4.0) is Case.I

    def test_all_equal_is_case_i(self):
        assert classify_case(5.0, 5.0, 5.0) is Case.I

    def test_tie_tolerance_widens_case_i(self):
        # 10 vs 9.5: distinct without tolerance, tied with 10% tolerance.
        assert classify_case(10.0, 9.5, 1.0) is Case.III
        assert classify_case(10.0, 9.5, 1.0, tie_tolerance=0.1) is Case.I

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tie_tolerance"):
            classify_case(1.0, 2.0, 3.0, tie_tolerance=-0.1)


class TestValidation:
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_invalid_distances_rejected(self, bad):
        with pytest.raises(ValueError):
            classify_case(bad, 1.0, 1.0)

    def test_zero_distances_allowed(self):
        # Degenerate but legal (co-located hosts): all ties -> Case I.
        assert classify_case(0.0, 0.0, 0.0) is Case.I


# -- property-based ------------------------------------------------------------

distances = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)


@given(a=distances, b=distances, c=distances)
def test_exactly_one_case(a, b, c):
    assert classify_case(a, b, c) in (Case.I, Case.II, Case.III)


@given(a=distances, b=distances, c=distances, k=st.floats(0.1, 1000))
def test_scale_invariance(a, b, c, k):
    """Multiplying all distances by a constant cannot change the case."""
    assert classify_case(a, b, c) is classify_case(k * a, k * b, k * c)


@given(a=distances, b=distances, c=distances)
def test_swap_symmetry(a, b, c):
    """Swapping the roles of N and E maps Case II <-> Case III.

    d(P,N) <-> d(P,E) swap while d(N,E) stays fixed.
    """
    first = classify_case(a, b, c)
    swapped = classify_case(b, a, c)
    mapping = {Case.I: Case.I, Case.II: Case.III, Case.III: Case.II}
    assert swapped is mapping[first]


@given(a=distances, b=distances, c=distances)
def test_longest_side_owns_the_case(a, b, c):
    """Whichever side is strictly longest determines the case."""
    case = classify_case(a, b, c)
    longest = max(a, b, c)
    if case is Case.III:
        assert a == longest
    elif case is Case.II:
        assert b == longest
    # Case I: either c is longest or there was a tie.
