"""Root system axioms, reflections, chains and subsystem predicates.

A root system is a finite set of nonzero rational vectors satisfying:

  R1  finite, nonempty, 0 not a root (it spans its own hull by definition)
  R2  the only rational multiples of a root present are the root and its negative
  R3  every Cartan number 2<a,b>/<a,a> is an integer
  R4  the reflection through any root's hyperplane permutes the set

Everything in this module is pure and operates on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import (
    Vector,
    dot,
    idot,
    int_scaled,
    is_zero,
    lex_positive,
    primitive_direction,
    rank_of,
    vneg,
    vscale,
    vsub,
)

RAW = "raw"
LONG2 = "long-squared-2"

#: reflection_closure aborts past this size; E8, the largest catalog
#: system, has 240 roots, so anything bigger is not crystallographic.
CLOSURE_CAP = 1000


class RootsplitError(Exception):
    """Base class for all domain errors raised by this package."""


class NormscalViolation(RootsplitError):
    """A root pair fits none of the (ratio, Cartan) classes: not a root system."""


class ChainBroken(RootsplitError):
    """A predicted chain element is missing: the input is not a root system."""


@dataclass(frozen=True)
class PairClass:
    """Length-ratio/Cartan class of a non-proportional root pair."""

    kind: str  # "orthogonal" | "ratio1" | "ratio2" | "ratio3"
    cartan_value: int


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

    def axioms_violated(self) -> tuple[str, ...]:
        return tuple(sorted({v.axiom for v in self.violations}))


@dataclass(frozen=True)
class RootSystem:
    """A validated root system with an optional normalized metric."""

    ambient_dim: int
    roots: tuple[Vector, ...]  # sorted lexicographically
    normalization: str = RAW
    metric: tuple[tuple[Fraction, ...], ...] | None = None
    root_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "root_set", frozenset(self.roots))

    def __contains__(self, v: Vector) -> bool:
        return v in self.root_set

    @property
    def rank(self) -> int:
        return rank_of(self.roots)


def make_root_system(vectors: Iterable[Vector], validate: bool = True) -> RootSystem:
    """Construct a RootSystem from a set of vectors, validating the axioms."""
    roots = tuple(sorted(set(vectors)))
    if not roots:
        raise ValueError("a root system is nonempty")
    dim = len(roots[0])
    if validate:
        report = validate_root_system(roots)
        if not report.ok:
            raise ValueError(f"not a root system: {report.violations[:3]}")
    return RootSystem(dim, roots)


def reflect(v: Vector, alpha: Vector) -> Vector:
    """Reflection of v through the hyperplane orthogonal to alpha."""
    aa = dot(alpha, alpha)
    if aa == 0:
        raise ValueError("cannot reflect through the zero vector")
    c = 2 * dot(alpha, v) / aa
    return vsub(v, vscale(c, alpha))


def cartan_int(alpha: Vector, beta: Vector) -> Fraction:
    """The Cartan number 2<alpha,beta>/<alpha,alpha>, exactly.

    Integrality is not assumed here; the validator checks it (axiom R3).
    """
    aa = dot(alpha, alpha)
    if aa == 0:
        raise ValueError("alpha must be nonzero")
    return 2 * dot(alpha, beta) / aa


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
    if not roots:
        return ValidationReport(tuple(violations))

    # Work on scaled integer copies: the axioms are scale-invariant and
    # integer arithmetic is much faster than Fraction.
    iroots = int_scaled(roots)
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

    return ValidationReport(tuple(violations))


def pair_class(alpha: Vector, beta: Vector) -> PairClass:
    """Length-ratio/Cartan trichotomy for a pair of roots.

    Either the roots are orthogonal, or (ratio^2, Cartan number on the
    shorter root) is one of (1,+-1), (2,+-2), (3,+-3), with the Cartan
    number taken against the longer root. Anything else proves the
    ambient set was not a root system.
    """
    if beta == alpha or beta == vneg(alpha):
        raise ValueError("pair_class requires beta != +-alpha")
    p = dot(alpha, beta)
    if p == 0:
        return PairClass("orthogonal", 0)
    la, lb = dot(alpha, alpha), dot(beta, beta)
    ratio2 = max(la, lb) / min(la, lb)
    c = 2 * p / min(la, lb)  # the Cartan number on the shorter root
    if ratio2 in (1, 2, 3) and c.denominator == 1 and abs(c) == ratio2:
        return PairClass(f"ratio{ratio2}", int(c))
    raise NormscalViolation(
        f"pair ratio^2={ratio2}, cartan={c} fits no root-system class"
    )


def root_chain(beta: Vector, alpha: Vector, system: RootSystem) -> list[Vector]:
    """The chain beta - sgn(c) k alpha, k = 1..|c|, c = 2<a,b>/<a,a>.

    Every element is asserted to lie in the system; a gap raises ChainBroken.
    """
    if alpha not in system or beta not in system:
        raise ValueError("alpha and beta must belong to the system")
    c = cartan_int(alpha, beta)
    if c == 0:
        raise ValueError("root_chain requires <alpha,beta> != 0")
    if c.denominator != 1:
        raise ChainBroken(f"non-integral Cartan number {c}")
    sgn = 1 if c > 0 else -1
    chain = []
    for k in range(1, abs(int(c)) + 1):
        elem = vsub(beta, vscale(sgn * k, alpha))
        if elem not in system:
            raise ChainBroken(f"chain element {elem} missing at step {k}")
        chain.append(elem)
    return chain


def reflection_closure(seed: Iterable[Vector]) -> frozenset:
    """Smallest superset of seed closed under reflections through its members.

    Terminates for any input satisfying R3 on its hull; a growth cap
    aborts on non-crystallographic seeds.
    """
    current = set(seed)
    if any(is_zero(v) for v in current):
        raise ValueError("reflection_closure requires nonzero vectors")
    while True:
        new = set()
        for a in current:
            for v in current:
                r = reflect(v, a)
                if r not in current:
                    new.add(r)
        if not new:
            return frozenset(current)
        current |= new
        if len(current) > CLOSURE_CAP:
            raise RootsplitError(
                f"reflection closure exceeded {CLOSURE_CAP} vectors; "
                "input is likely not crystallographic"
            )


def is_root_subsystem(candidate: Iterable[Vector]) -> bool:
    """True iff candidate satisfies R1-R3 on its hull and its reflection
    closure is a root system."""
    vecs = sorted(set(candidate))
    if set(validate_root_system(vecs).axioms_violated()) - {"R4"}:
        return False
    try:
        closure = reflection_closure(vecs)
    except RootsplitError:
        return False
    return validate_root_system(sorted(closure)).ok


def positive_roots(system: RootSystem) -> list[Vector]:
    """The lexicographically positive half of the root set."""
    return [r for r in system.roots if lex_positive(r)]
