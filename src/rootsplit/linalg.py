"""Exact rational vectors and small-matrix linear algebra.

All coordinates are `fractions.Fraction`; nothing here ever touches a
float, so equality tests and rank computations are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]


def vec(*coords) -> Vector:
    """Build an exact vector from ints, strings or Fractions."""
    return tuple(Fraction(c) for c in coords)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def vscale(c: Fraction | int, v: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in v)


def dot(u: Vector, v: Vector) -> Fraction:
    """Standard inner product; raises on dimension mismatch."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def idot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Inner product of integer vectors, e.g. from int_scaled."""
    return sum(map(mul, u, v))


def is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def lex_positive(v: Vector) -> bool:
    """True if the first nonzero coordinate is positive (zero is not positive)."""
    for a in v:
        if a != 0:
            return a > 0
    return False


def lex_rep(v: Vector) -> Vector:
    """The lexicographically positive one of {v, -v}."""
    return v if lex_positive(v) else vneg(v)


def common_scale(vectors: Iterable[Vector]) -> int:
    """Smallest positive integer L such that L*v is integral for all v."""
    L = 1
    for v in vectors:
        for a in v:
            L = lcm(L, a.denominator)
    return L


def int_scaled(vectors: Sequence[Vector]) -> list[tuple[int, ...]]:
    """Clear denominators: the same vectors up to a global positive scale."""
    L = common_scale(vectors)
    return [tuple(int(a * L) for a in v) for v in vectors]


def primitive_direction(v: tuple[int, ...]) -> tuple[int, ...]:
    """Sign-normalized primitive integer vector along v (v must be nonzero)."""
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    w = tuple(a // g for a in v)
    for a in w:
        if a != 0:
            return w if a > 0 else tuple(-b for b in w)
    raise ValueError("zero vector has no direction")


def rank_of(vectors: Iterable[Vector]) -> int:
    """Rank of the span, by Gaussian elimination over the rationals."""
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        rows[rank] = [a * inv for a in prow]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Fraction, m: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in m)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def invert(m: Matrix) -> Matrix:
    """Inverse of a square rational matrix via Gauss-Jordan."""
    n = len(m)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def projection_matrix(basis: Sequence[Vector], dim: int) -> Matrix:
    """Orthogonal projection onto span(basis), as an exact rational matrix."""
    if not basis:
        return tuple(tuple(Fraction(0) for _ in range(dim)) for _ in range(dim))
    b = transpose(tuple(basis))          # dim x k
    bt = tuple(basis)                    # k x dim
    gram = mat_mul(bt, b)                # k x k
    return mat_mul(mat_mul(b, invert(gram)), bt)


def metric_inner(metric: Matrix | None, u: Vector, v: Vector) -> Fraction:
    """Inner product with respect to an optional rational metric matrix."""
    if metric is None:
        return dot(u, v)
    return dot(u, mat_vec(metric, v))


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


def format_rational(q: Fraction) -> str:
    """Exact string form, e.g. '3', '-1/2'."""
    return str(q)
