"""Exact vectors: rational at the boundary, integers on a scale inside.

Boundary rule: a `fractions.Fraction` is made only where input is parsed
and where output is written (and for the values of the normalized metric
in `splitting.check_constraints`). In between, every value (a root
system, a subsystem, a weight set, a certificate, a case witness) holds
integer vectors v on a named scale, standing for v / scale; membership,
sums, signs of dots, ratios and ranks are invariant under a positive
rescale, so they are decided exactly on the integers. `int_copy` picks
the scale of rational input, once (`rootcore.make_root_system`,
`rootcore.validate_root_system`, `subalgebra.weights_from_set`); the
catalog builds integers directly; `scale_to_int` puts a JSON h onto its
parent's scale (`subalgebra.closed_subsystem`) and raises rather than
truncate; `format_vector` writes v / scale. The `roots` and `weights` of
a value are read-only rational views that nothing in the core reads.

Lookups (is a sum or a difference of roots a root, a weight, a pair
sum?) run on lattice keys: `pack` turns each integer vector into one
int, additive and in lex order, so a sum is an int addition and a set
lookup hashes an int. Keys are made only for the vectors their radix was
chosen from (a parent's roots, or a weight set given from outside), and
only their sums and differences are looked up; a root given from
outside is checked for its dimension, then looked up by its key once.
Nothing here ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[IntVector, ...]


def vec(*coords) -> Vector:
    """Build an exact vector from ints, strings or Fractions."""
    return tuple(Fraction(c) for c in coords)


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
    """Inner product of integer vectors, e.g. from int_copy (no dimension
    check, and no Fraction start value)."""
    return sum(map(mul, u, v))


def lex_positive(v: Vector) -> bool:
    """True if the first nonzero coordinate is positive (zero is not positive)."""
    for a in v:
        if a != 0:
            return a > 0
    return False


def int_copy(vectors: Sequence[Vector]) -> tuple[int, tuple[IntVector, ...]]:
    """(scale, ints): scale is twice the common denominator of the vectors,
    so half a difference of two is integral, and ints are the vectors times
    scale, in order. Raises ValueError on mixed dimensions, whose lattice
    keys would alias."""
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("vectors differ in dimension")
    scale = 2 * lcm(*{a.denominator for v in vectors for a in v})
    return scale, tuple(tuple(a.numerator * (scale // a.denominator) for a in v) for v in vectors)


def scale_to_int(v: Vector, scale: int) -> IntVector:
    """scale * v as integers; raises ValueError unless scale is a multiple
    of every denominator, so that nothing is truncated."""
    if any(scale % a.denominator for a in v):
        coords = ", ".join(map(str, v))
        raise ValueError(f"scale {scale} does not clear the denominators of ({coords})")
    return tuple(a.numerator * (scale // a.denominator) for a in v)


def lattice_radix(vectors: Iterable[IntVector]) -> int:
    """The least power of two above 8 * the largest |coordinate| of the
    integer vectors: with it, every sum or difference of two of them, and
    every difference of two such sums, packs with digits below radix / 2."""
    return 1 << (8 * max((abs(a) for v in vectors for a in v), default=0)).bit_length()


def pack(v: IntVector, radix: int) -> int:
    """The lattice key sum of v_k * radix^(d-1-k) of an integer vector.

    On vectors whose coordinates lie strictly within +-radix/2, the key
    is injective, additive (pack(a +- b) = pack(a) +- pack(b)) and in lex
    order (pack(v) > 0 iff v is lex positive, and sorting keys sorts the
    vectors). A coordinate outside raises ValueError rather than let the
    key alias another vector's, as scale_to_int raises rather than
    truncate.
    """
    half = radix >> 1
    key = 0
    for a in v:
        if not -half < a < half:
            raise ValueError(f"coordinate {a} is outside the lattice key bound {half}")
        key = key * radix + a
    return key


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


def int_rank(rows: Iterable[IntVector]) -> int:
    """Rank of the span of integer vectors, with no rescaling, by
    fraction-free elimination."""
    echelon: list[tuple[int, IntVector]] = []  # (leading column, row), by column
    for row in rows:
        for col, piv in echelon:
            a = row[col]
            if a:
                p = piv[col]
                row = tuple(p * x - a * y for x, y in zip(row, piv))
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            g = gcd(*row)
            echelon.append((lead, tuple(x // g for x in row)))
            echelon.sort()
            if len(echelon) == len(row):
                break
    return len(echelon)


def format_rational(q: Fraction) -> str:
    """Exact string form, e.g. '3', '-1/2'."""
    return str(q)


def format_vector(v: IntVector, scale: int) -> list[str]:
    """The exact coordinates of v / scale as strings, e.g. ['1/2', '-1']."""
    return [format_rational(Fraction(a, scale)) for a in v]
