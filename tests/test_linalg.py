"""The integer rank_of and int_rank against a rational Gaussian
elimination, and the integer copies they run on."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rootsplit.linalg import int_rank, int_scaled, rank_of, scale_to_int, vec


def fraction_rank(vectors):
    """Rank by plain row reduction over Fraction, independent of rank_of."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def vector_lists(draw):
    """Mixed-denominator vectors: zero vectors, free vectors, and rational
    combinations of a few spanning vectors, so that ranks below the
    dimension come up often."""
    dim = draw(st.integers(1, 6))
    free = st.lists(rationals, min_size=dim, max_size=dim).map(tuple)
    span = draw(st.lists(free, max_size=3))
    out = []
    for kind in draw(st.lists(st.sampled_from(["zero", "free", "combo"]), max_size=8)):
        if kind == "zero":
            out.append((Fraction(0),) * dim)
        elif kind == "free":
            out.append(draw(free))
        else:
            cs = [draw(coefficients) for _ in span]
            out.append(tuple(
                sum((c * v[i] for c, v in zip(cs, span)), Fraction(0))
                for i in range(dim)
            ))
    return out


@given(vector_lists())
def test_rank_matches_fraction_elimination(vectors):
    assert rank_of(vectors) == fraction_rank(vectors)


@given(vector_lists(), st.integers(1, 5))
def test_int_rank_matches_fraction_elimination(vectors, k):
    rows = [tuple(k * a for a in row) for row in int_scaled(vectors)]
    assert int_rank(rows) == fraction_rank(vectors)


def test_empty_input():
    assert rank_of([]) == 0


def test_zero_vectors():
    assert rank_of([vec(0, 0, 0), vec(0, 0, 0)]) == 0


def test_mixed_denominators():
    assert rank_of([vec("1/2", "1/3"), vec("3/4", "1/2"), vec(0, "1/7")]) == 2


def test_scale_to_int_clears_denominators():
    assert scale_to_int(vec("1/2", "-3/4", 2), 8) == (4, -6, 16)


def test_scale_to_int_refuses_to_truncate():
    with pytest.raises(ValueError, match="does not clear the denominators"):
        scale_to_int(vec(1, "1/1000"), 4)
