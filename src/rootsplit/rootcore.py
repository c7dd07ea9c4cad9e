"""Root system axioms, their validation, simple bases and reflections.

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
from typing import TYPE_CHECKING, Container, Iterable, NamedTuple, Sequence

from .linalg import (
    IntVector,
    Vector,
    dot,
    idot,
    int_copy,
    lattice_radix,
    pack,
    primitive_direction,
    vscale,
    vsub,
)

if TYPE_CHECKING:
    from .subalgebra import ParentContext


class RootsplitError(Exception):
    """Base class for all domain errors raised by this package."""


class Violation(NamedTuple):
    axiom: str
    message: str
    witness: tuple[Vector, ...]


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class RootSystem:
    """A root system, held as its integer roots ints on scale: the roots
    are ints / scale, sorted lexicographically, and every layer reads ints.
    What the axiom check reads is made on first read and kept, so a built
    system carries it: keys, the lattice keys of ints at radix (key order
    is root order), at, a key back to its position, base, the keys of the
    simple roots, and reflections. roots and root_set are rational views.
    context, the subalgebra.ParentContext of the system, is kept the same
    way, so every fact of a parent g is made once per built system."""

    ambient_dim: int
    scale: int
    ints: tuple[IntVector, ...]

    @cached_property
    def roots(self) -> tuple[Vector, ...]:
        return tuple(_rational(r, self.scale) for r in self.ints)

    @cached_property
    def root_set(self) -> frozenset:
        return frozenset(self.roots)

    @cached_property
    def radix(self) -> int:
        return lattice_radix(self.ints)

    @cached_property
    def keys(self) -> tuple[int, ...]:
        return tuple(pack(r, self.radix) for r in self.ints)

    @cached_property
    def at(self) -> dict[int, int]:
        return {k: i for i, k in enumerate(self.keys)}

    @cached_property
    def base(self) -> tuple[int, ...]:
        return simple_keys(self.keys, self.at)

    @property
    def rank(self) -> int:
        return len(self.base)

    @cached_property
    def reflections(self) -> tuple[tuple[int, ...], ...] | None:
        """The simple reflections as permutations of root positions: row k
        maps b to s_a(b), a the k-th simple root, whose key is
        key(b) - q key(a), q = 2<a,b>/<a,a>. With |q| <= 3, as in every
        root system, b - q a has coordinates below radix / 2, so the key is
        exact. None if q is no integer, |q| > 3 or s_a(b) no root."""
        ints, keys, at = self.ints, self.keys, self.at
        rows = []
        for ka in self.base:
            a = ints[at[ka]]
            aa, row = idot(a, a), []
            for b, kb in zip(ints, keys):
                q, r = divmod(2 * idot(a, b), aa)
                j = at.get(kb - q * ka)
                if r or abs(q) > 3 or j is None:
                    return None
                row.append(j)
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def context(self) -> ParentContext:
        """The one handle on this system as a parent g, with its norms
        (subalgebra.parent_context reads it)."""
        from .subalgebra import ParentContext

        return ParentContext(self, tuple(idot(r, r) for r in self.ints))


def make_root_system(vectors: Iterable[Vector]) -> RootSystem:
    """The root system of rational vectors, converted once (linalg.int_copy)
    and checked on that copy."""
    return lattice_root_system(*int_copy(list(set(vectors))))


def lattice_root_system(scale: int, ints: Iterable[IntVector]) -> RootSystem:
    """The root system of the vectors ints / scale, its axioms checked on
    the integers; raises ValueError, with rational witnesses, if they fail.

    R1 is checked directly and R2-R4 by _axioms_hold on the system's
    lattice keys, in O(|R|*rank) Cartan numbers: R2 by directions, R3 and
    R4 for each simple root a against every root (RootSystem.reflections),
    and the orbit of the simple roots under their reflections, which must
    be all of R. This is as strong as R3 and R4 for every pair.
    Sound: each simple s_a permutes R, so for a root r = w a (w a product
    of simple reflections) s_r = w s_a w^-1 permutes R, and
    2<b,r>/<r,r> = 2<w^-1 b,a>/<a,a> is an integer. Complete: in a root
    system the lex-positive indecomposables form a base, and every root is
    the image of a simple root under the Weyl group, which the simple
    reflections generate (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 10.3 Theorem). Only a failure runs the pairwise
    scan _axiom_violations, for the violations to report."""
    ints = tuple(sorted(set(ints)))
    if not ints:
        raise ValueError("a root system is nonempty")
    system = RootSystem(len(ints[0]), scale, ints)
    violations = [
        Violation("R1", "zero vector present", (_rational(v, scale),)) for v in ints if not any(v)
    ] or _violations(system)
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
        if not any(v):
            violations.append(Violation("R1", "zero vector present", (v,)))
        if v in seen:
            violations.append(Violation("R1", "duplicate root", (v,)))
        seen.add(v)

    scale, ints = int_copy(sorted(v for v in seen if any(v)))
    violations.extend(_violations(RootSystem(len(vecs[0]), scale, ints)))
    return ValidationReport(tuple(violations))


def _rational(v: IntVector, scale: int) -> Vector:
    return tuple(Fraction(a, scale) for a in v)


def simple_keys(keys: Sequence[int], members: Container[int]) -> tuple[int, ...]:
    """The simple roots of a set of roots, given as its sorted lattice keys
    and a container of them: a positive key is simple unless it minus an
    earlier simple key is in the set. A positive root that is not simple
    is a positive root plus a simple root (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 10.2 Corollary), both smaller."""
    base: list[int] = []
    for a in keys:
        if a > 0 and not any(a - b in members for b in base):
            base.append(a)
    return tuple(base)


def _violations(system: RootSystem) -> list[Violation]:
    """R2-R4 on the sorted, distinct, nonzero integer roots of system:
    none if _axioms_hold, else what the pairwise scan reports."""
    return [] if _axioms_hold(system) else _axiom_violations(system.scale, system.ints)


def _axioms_hold(system: RootSystem) -> bool:
    """R2-R4 on distinct nonzero integer roots, with O(|R|*rank) Cartan
    numbers: R2 as the pairwise scan checks it; then the simple
    reflections must map the set into itself; then the orbit of the simple
    roots under them is all of R (lattice_root_system has the argument).
    An integral q = 2<a,b>/<a,a> with |q| > 3 fails the scan too: then
    2<a,b>/<b,b> is a nonzero fraction of size below 1, so R3 fails."""
    rows = system.reflections
    if _proportional_classes(system.ints) or rows is None:
        return False
    orbit = {system.at[k] for k in system.base}
    frontier = list(orbit)
    while frontier:
        i = frontier.pop()
        for row in rows:
            if row[i] not in orbit:
                orbit.add(row[i])
                frontier.append(row[i])
    return len(orbit) == len(system.ints)


def _proportional_classes(iroots: Sequence[IntVector]) -> list[list[int]]:
    """R2: the positions of each class of proportional roots that is
    neither one root nor a root and its negative, in order of first root."""
    by_dir: dict[IntVector, list[int]] = {}
    for idx, iv in enumerate(iroots):
        by_dir.setdefault(primitive_direction(iv), []).append(idx)
    return [
        idxs for idxs in by_dir.values()
        if len(idxs) > 2
        or (len(idxs) == 2 and iroots[idxs[0]] != tuple(-a for a in iroots[idxs[1]]))
    ]


def _axiom_violations(scale: int, iroots: Sequence[IntVector]) -> list[Violation]:
    """R2-R4 on the sorted, distinct, nonzero integer roots iroots on scale
    (the axioms are scale-invariant), by the scan over ordered pairs: R3
    and R4 for every pair, O(|R|^2). It runs only to report a failure that
    _axioms_hold found; a valid system never reaches it. The two agree:
    R3 and R4 for every pair imply them for the simple roots, and the
    simple roots' orbit is all of a root system (Humphreys, Introduction
    to Lie Algebras and Representation Theory, 10.3 Theorem); conversely
    each root is w a for a simple a, and s_(w a) = w s_a w^-1 permutes R
    with integral Cartan numbers. A witness is made rational only when its
    violation is reported."""
    def witness(*idxs: int) -> tuple[Vector, ...]:
        return tuple(_rational(iroots[i], scale) for i in idxs)

    violations = [
        Violation("R2", "proportional roots beyond a negative pair", witness(*idxs))
        for idxs in _proportional_classes(iroots)
    ]
    iset = set(iroots)

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
