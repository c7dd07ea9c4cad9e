"""Root system axioms, their validation, and reflections.

A root system is a finite set of nonzero rational vectors satisfying:

  R1  finite, nonempty, 0 not a root (it spans its own hull by definition)
  R2  the only rational multiples of a root present are the root and its negative
  R3  every Cartan number 2<a,b>/<a,a> is an integer
  R4  the reflection through any root's hyperplane permutes the set

Everything in this module is pure and operates on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .linalg import (
    IntVector,
    Vector,
    dot,
    idot,
    int_copy,
    int_rank,
    primitive_direction,
    vscale,
    vsub,
)


class RootsplitError(Exception):
    """Base class for all domain errors raised by this package."""


@dataclass(frozen=True)
class Violation:
    axiom: str
    message: str
    witness: tuple[Vector, ...]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class RootSystem:
    """A validated root system, held as its integer roots ints on scale:
    the roots are ints / scale, sorted lexicographically, and every layer
    reads ints. roots and root_set are read-only rational views, made on
    first read."""

    ambient_dim: int
    scale: int
    ints: tuple[IntVector, ...]

    @cached_property
    def roots(self) -> tuple[Vector, ...]:
        return tuple(_rational(r, self.scale) for r in self.ints)

    @cached_property
    def root_set(self) -> frozenset:
        return frozenset(self.roots)

    @property
    def rank(self) -> int:
        return int_rank(self.ints)


def make_root_system(vectors: Iterable[Vector]) -> RootSystem:
    """The root system of rational vectors, converted once (linalg.int_copy)
    and checked on that copy."""
    return lattice_root_system(*int_copy(list(set(vectors))))


def lattice_root_system(scale: int, ints: Iterable[IntVector]) -> RootSystem:
    """The root system of the vectors ints / scale, its axioms checked on
    the integers; raises ValueError, with rational witnesses, if they fail."""
    ints = tuple(sorted(set(ints)))
    if not ints:
        raise ValueError("a root system is nonempty")
    violations = [
        Violation("R1", "zero vector present", (_rational(v, scale),)) for v in ints if not any(v)
    ] or _axiom_violations(scale, ints)
    if violations:
        raise ValueError(f"not a root system: {tuple(violations[:3])}")
    return RootSystem(len(ints[0]), scale, ints)


def reflect(v: Vector, alpha: Vector) -> Vector:
    """Reflection of v through the hyperplane orthogonal to alpha."""
    aa = dot(alpha, alpha)
    if aa == 0:
        raise ValueError("cannot reflect through the zero vector")
    c = 2 * dot(alpha, v) / aa
    return vsub(v, vscale(c, alpha))


def validate_root_system(candidate: Sequence[Vector]) -> ValidationReport:
    """Check axioms R1-R4. Violations are data, not errors.

    Zero vectors and duplicated inputs are reported as R1 violations.
    The span condition of R1 is relative to the hull, so only finiteness
    and 0-freeness are checked.
    """
    violations: list[Violation] = []
    vecs = list(candidate)
    if not vecs:
        return ValidationReport((Violation("R1", "empty set", ()),))

    seen: set[Vector] = set()
    for v in vecs:
        if not any(v):
            violations.append(Violation("R1", "zero vector present", (v,)))
        if v in seen:
            violations.append(Violation("R1", "duplicate root", (v,)))
        seen.add(v)

    violations.extend(_axiom_violations(*int_copy(sorted(v for v in seen if any(v)))))
    return ValidationReport(tuple(violations))


def _rational(v: IntVector, scale: int) -> Vector:
    return tuple(Fraction(a, scale) for a in v)


def _axiom_violations(scale: int, iroots: Sequence[IntVector]) -> list[Violation]:
    """R2-R4 on the sorted, distinct, nonzero integer roots iroots on scale
    (the axioms are scale-invariant); a witness is made rational only when
    its violation is reported."""
    violations: list[Violation] = []

    def witness(*idxs: int) -> tuple[Vector, ...]:
        return tuple(_rational(iroots[i], scale) for i in idxs)

    iset = set(iroots)

    # R2: group by primitive direction; each class must be exactly {v, -v}.
    by_dir: dict[tuple[int, ...], list[int]] = {}
    for idx, iv in enumerate(iroots):
        by_dir.setdefault(primitive_direction(iv), []).append(idx)
    for idxs in by_dir.values():
        group = [iroots[i] for i in idxs]
        ok = len(group) <= 2 and (
            len(group) == 1 or group[0] == tuple(-a for a in group[1])
        )
        if not ok:
            violations.append(
                Violation("R2", "proportional roots beyond a negative pair",
                          witness(*idxs))
            )

    # R3 + R4 in one sweep over ordered pairs.
    r3_seen = r4_seen = False
    for i, a in enumerate(iroots):
        aa = idot(a, a)
        for j, b in enumerate(iroots):
            if i == j:
                continue
            c = 2 * idot(a, b)
            q, r = divmod(c, aa)
            if r != 0:
                if not r3_seen:
                    violations.append(
                        Violation("R3", "non-integral Cartan number",
                                  witness(i, j))
                    )
                    r3_seen = True
                continue
            refl = tuple(x - q * y for x, y in zip(b, a))
            if refl not in iset and not r4_seen:
                violations.append(
                    Violation("R4", "reflection leaves the set",
                              witness(i, j))
                )
                r4_seen = True
        # negation closure, asserted directly (R4 with b = a)
        if tuple(-x for x in a) not in iset and not r4_seen:
            violations.append(Violation("R4", "negative root missing", witness(i)))
            r4_seen = True

    return violations
