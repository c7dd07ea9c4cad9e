"""Root system axioms, their validation, and reflections.

A root system is a finite set of nonzero rational vectors satisfying:

  R1  finite, nonempty, 0 not a root (it spans its own hull by definition)
  R2  the only rational multiples of a root present are the root and its negative
  R3  every Cartan number 2<a,b>/<a,a> is an integer
  R4  the reflection through any root's hyperplane permutes the set

Everything in this module is pure and operates on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .linalg import (
    IntVector,
    Vector,
    dot,
    idot,
    int_copy,
    int_rank,
    is_zero,
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
    """A validated root system and its integer copy (linalg.int_copy), made
    once here and read by every layer: ints are the roots times scale."""

    ambient_dim: int
    roots: tuple[Vector, ...]  # sorted lexicographically
    root_set: frozenset = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)
    ints: tuple[IntVector, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "root_set", frozenset(self.roots))
        scale, ints = int_copy(self.roots)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ints", ints)

    def __contains__(self, v: Vector) -> bool:
        return v in self.root_set

    @property
    def rank(self) -> int:
        return int_rank(self.ints)


def make_root_system(vectors: Iterable[Vector], validate: bool = True) -> RootSystem:
    """Construct a RootSystem from a set of vectors, validating the axioms on its copy."""
    roots = tuple(sorted(set(vectors)))
    if not roots:
        raise ValueError("a root system is nonempty")
    system = RootSystem(len(roots[0]), roots)
    if validate:
        zeros = [Violation("R1", "zero vector present", (v,)) for v in roots if is_zero(v)]
        violations = zeros or _axiom_violations(roots, system.ints)
        if violations:
            raise ValueError(f"not a root system: {tuple(violations[:3])}")
    return system


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
        if is_zero(v):
            violations.append(Violation("R1", "zero vector present", (v,)))
        if v in seen:
            violations.append(Violation("R1", "duplicate root", (v,)))
        seen.add(v)

    roots = sorted(v for v in seen if not is_zero(v))
    violations.extend(_axiom_violations(roots, int_copy(roots)[1]))
    return ValidationReport(tuple(violations))


def _axiom_violations(roots: Sequence[Vector], iroots: Sequence[IntVector]) -> list[Violation]:
    """R2-R4 on sorted, distinct, nonzero roots, checked on their integer
    copy iroots (the axioms are scale-invariant, and integer arithmetic is
    much faster than Fraction)."""
    violations: list[Violation] = []
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
                          tuple(roots[i] for i in idxs))
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
                                  (roots[i], roots[j]))
                    )
                    r3_seen = True
                continue
            refl = tuple(x - q * y for x, y in zip(b, a))
            if refl not in iset and not r4_seen:
                violations.append(
                    Violation("R4", "reflection leaves the set",
                              (roots[i], roots[j]))
                )
                r4_seen = True
        # negation closure, asserted directly (R4 with b = a)
        if tuple(-x for x in a) not in iset and not r4_seen:
            violations.append(Violation("R4", "negative root missing", (roots[i],)))
            r4_seen = True

    return violations
