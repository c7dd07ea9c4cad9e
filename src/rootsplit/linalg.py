"""Exact rational vectors and small-matrix linear algebra.

Boundary rule: vectors are `fractions.Fraction` tuples where they are
parsed, emitted and measured in the normalized metric, and in every
public value. Hot loops work on integer copies scaled by a common
denominator (`int_scaled`, `scale_to_int`), which is exact because the
questions they answer (membership, sums, signs of dots, ratios) are
invariant under a positive rescale. Nothing here ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]
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


def idot(u: IntVector, v: IntVector) -> int:
    """Inner product of integer vectors, e.g. from int_scaled (no dimension
    check, and no Fraction start value)."""
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


def scale_to_int(v: Vector, scale: int) -> IntVector:
    """scale * v as integers; scale must be a multiple of every denominator."""
    return tuple(int(a * scale) for a in v)


def int_scaled(vectors: Sequence[Vector]) -> list[IntVector]:
    """Clear denominators: the same vectors up to a global positive scale.

    A positive scale keeps the lexicographic order, so sorted input gives
    sorted output.
    """
    scale = common_scale(vectors)
    return [scale_to_int(v, scale) for v in vectors]


def unscale(v: IntVector, scale: int) -> Vector:
    """Inverse of scale_to_int: the rational vector v / scale."""
    return tuple(Fraction(a, scale) for a in v)


def primitive_direction(v: IntVector) -> IntVector:
    """Sign-normalized primitive integer vector along v (v must be nonzero)."""
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    w = tuple(a // g for a in v)
    for a in w:
        if a != 0:
            return w if a > 0 else tuple(-b for b in w)
    raise ValueError("zero vector has no direction")


def span_basis(vectors: Sequence[Vector]) -> list[Vector]:
    """The vectors that are independent of those before them: a basis of
    the span, by fraction-free elimination on int_scaled copies."""
    basis = []
    echelon: list[tuple[int, IntVector]] = []  # (leading column, row), by column
    for v, row in zip(vectors, int_scaled(vectors)):
        for col, piv in echelon:
            a = row[col]
            if a:
                p = piv[col]
                row = tuple(p * x - a * y for x, y in zip(row, piv))
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            basis.append(v)
            g = gcd(*row)
            echelon.append((lead, tuple(x // g for x in row)))
            echelon.sort()
            if len(echelon) == len(row):
                break
    return basis


def rank_of(vectors: Iterable[Vector]) -> int:
    """Rank of the span."""
    return len(span_basis(list(vectors)))


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


def format_rational(q: Fraction) -> str:
    """Exact string form, e.g. '3', '-1/2'."""
    return str(q)
