"""int_rank on integer copies against a rational Gaussian elimination,
the integer copies it runs on, and the exact strings of integer vectors
on a scale."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import fraction_rank
from rootsplit.linalg import format_vector, int_copy, int_rank, lattice_radix, scale_to_int, vec


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


def copy_rank(vectors):
    """int_rank on the integer copy of rational vectors."""
    return int_rank(int_copy(vectors)[1])


@given(vector_lists())
def test_rank_matches_fraction_elimination(vectors):
    assert copy_rank(vectors) == fraction_rank(vectors)


@given(vector_lists(), st.integers(1, 5))
def test_int_rank_matches_fraction_elimination(vectors, k):
    rows = [tuple(k * a for a in row) for row in int_copy(vectors)[1]]
    assert int_rank(rows) == fraction_rank(vectors)


def test_empty_input():
    assert copy_rank([]) == 0


def test_zero_vectors():
    assert copy_rank([vec(0, 0, 0), vec(0, 0, 0)]) == 0


def test_mixed_denominators():
    assert copy_rank([vec("1/2", "1/3"), vec("3/4", "1/2"), vec(0, "1/7")]) == 2


def test_int_copy_scale_is_twice_the_common_denominator():
    assert int_copy([vec("1/2", "-3/4"), vec(2, "1/6")]) == (24, ((12, -18), (48, 4)))


def test_scale_to_int_clears_denominators():
    assert scale_to_int(vec("1/2", "-3/4", 2), 8) == (4, -6, 16)


def test_scale_to_int_refuses_to_truncate():
    with pytest.raises(ValueError, match="does not clear the denominators"):
        scale_to_int(vec(1, "1/1000"), 4)


@given(st.lists(st.integers(-10**6, 10**6), max_size=8), st.integers(1, 10**4))
def test_format_vector_matches_fraction_strings(v, scale):
    v = [*v, 0, -scale, -2 * scale + 1]  # zero, a negative integer, a negative fraction
    assert format_vector(tuple(v), scale) == [str(Fraction(a, scale)) for a in v]


@given(st.lists(st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=8), max_size=8))
def test_lattice_radix_is_above_eight_times_the_largest_coordinate(vectors):
    top = max((abs(a) for v in vectors for a in v), default=0)
    radix = lattice_radix(map(tuple, vectors))
    assert radix > 8 * top and radix & (radix - 1) == 0 and radix <= max(1, 16 * top)
