"""Root system axioms, their validation, simple bases and reflections, and
the facts of a root system as a parent g: types, theta, the Wolf subsystem
and the closed subsystems' tables.

A root system is a finite set of nonzero rational vectors satisfying:

  R1  finite, nonempty, 0 not a root (it spans its own hull by definition)
  R2  the only rational multiples of a root present are the root and its negative
  R3  every Cartan number 2<a,b>/<a,a> is an integer
  R4  the reflection through any root's hyperplane permutes the set

Everything in this module is pure and operates on immutable values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Container, Iterable, NamedTuple, Sequence

from .linalg import (
    IntVector,
    Vector,
    idot,
    int_copy,
    lattice_radix,
    pack,
    primitive_direction,
)

#: the series letters of the catalog, in the order type_by_counts tries them
SERIES = "ABCDEFG"


class RootsplitError(Exception):
    """Base class for all domain errors raised by this package."""


class NotClosed(RootsplitError):
    """The given subset is not closed under root addition in its parent."""


class Violation(NamedTuple):
    axiom: str
    message: str
    witness: tuple[Vector, ...]


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class CartanLabel(NamedTuple):  # ordered by (series, rank)
    series: str
    rank: int

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


#: the closed root-count formula of each series at rank n (_root_counts)
_COUNTS = {
    "A": lambda n: (n * (n + 1), n * (n + 1)),
    "B": lambda n: (2 * n * n, 2 * n * (n - 1)),
    "C": lambda n: (2 * n * n, 2 * n),
    "D": lambda n: (2 * n * (n - 1), 2 * n * (n - 1)),
    "E": {6: (72, 72), 7: (126, 126), 8: (240, 240)}.get,
    "F": {4: (48, 24)}.get,
    "G": {2: (12, 6)}.get,
}


def _root_counts(series: str, n: int) -> tuple[int, int] | None:
    """(|R|, number of long roots) of the simple type series_n (Bourbaki,
    Lie Groups ch. VI, Plates I-IX), from that series' formula only; all
    roots of a simply laced type are long. None for a letter outside
    SERIES and where the series has no simple type of rank n: below rank
    1, B1 (whose one root length the B formula counts short), D1, D2 =
    A1+A1, and E, F and G off ranks 6-8, 4 and 2. The aliases C1 = A1,
    C2 = B2 and D3 = A3 have their counts."""
    counts = _COUNTS.get(series)
    if counts is None or n < 1 or (series, n) in {("B", 1), ("D", 1), ("D", 2)}:
        return None
    return counts(n)


@lru_cache(maxsize=None)
def type_by_counts(rank: int, size: int, n_long: int) -> CartanLabel:
    """The simple type of rank rank with size roots, n_long of them long,
    at any rank: the first series, in SERIES order, whose closed formula
    (_root_counts) gives (size, n_long) at rank. The key is injective on
    the simple types but for the aliases, which resolve to the first
    series (A1, B2, A3), the one name catalog.label admits. A key that no
    type has raises ValueError. Each pair types h's components, so an
    answer is kept, as a table lookup costs: a process meets few types."""
    for series in SERIES:
        if _root_counts(series, rank) == (size, n_long):
            return CartanLabel(series, rank)
    raise ValueError(f"component of rank {rank} with {size} roots matches no simple type")


@dataclass(frozen=True)
class RootSystem:
    """A root system, held as its integer roots ints on scale: the roots
    are ints / scale, sorted lexicographically, and every layer reads ints.
    A built system is the one handle on it as a parent g: every fact below
    is made on first read and kept, so it is made once per built system,
    not once per command or pair; two equal but distinct systems make
    their facts once each. catalog.build and catalog.build_sum keep each
    system they build, and so its facts, for the whole process.

    What the axiom check reads: keys, the lattice keys of ints at radix
    (key order is root order), at, a key back to its position, base, the
    keys of the simple roots, and reflections, the simple reflections. A
    root is named by its position in ints, which norms, the one table of
    squared lengths, follows. The facts of a parent g, found on the keys:
    long_norm, the squared length of a long root, read by Wolf
    recognition and by the constraint values (the normalized metric is
    2 / long_norm times the standard one); types, by components_of, the
    one grouping into components, and types_of; name, the types joined by
    "+", which the commands print and the verdicts read; theta (the last
    root) and wolf, which only the Wolf pair reads and which raise
    ValueError for a reducible system; parities, read by the symmetric
    test; and closure_table, the tables of the closed subsystems' search.
    roots and root_set are rational views."""

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
    def parities(self) -> tuple[int, ...]:
        """Of each root, the bitmask of the simple roots (bit i for base[i])
        whose coefficient in it is odd, by one ascending walk over the
        positive keys: a non-simple one is k + a for a smaller positive k
        and a simple a (simple_keys). ValueError if a root is not reached."""
        at, bits = self.at, [(a, 1 << i) for i, a in enumerate(self.base)]
        mask = dict(bits)
        for k in self.keys:
            if k > 0:
                if k not in mask:
                    raise ValueError(f"root key {k} is not reached from the simple roots")
                for a, bit in bits:
                    if k + a in at:
                        mask.setdefault(k + a, mask[k] ^ bit)
        return tuple(mask[abs(k)] for k in self.keys)

    @cached_property
    def norms(self) -> tuple[int, ...]:  # idot(r, r) of each integer root, in order
        return tuple(idot(r, r) for r in self.ints)

    @cached_property
    def long_norm(self) -> int:  # squared length of a long root, integer-scaled
        return max(self.norms)

    @property
    def irreducible(self) -> bool:
        return len(self.types) == 1

    @cached_property
    def types(self) -> tuple[CartanLabel, ...]:
        return self.types_of(range(len(self.keys)), self.base)

    @cached_property
    def name(self) -> str:  # the sorted types joined by "+", e.g. 'A1+A1' or 'B3'
        return "+".join(map(str, self.types))

    def components_of(
        self, positions: Sequence[int], base: Sequence[int]
    ) -> list[tuple[int, list[int]]]:
        """(rank, positive positions) of each component of the closed set
        at positions, whose simple roots have the keys base. Two simple
        roots are joined in the Dynkin diagram iff their sum is in the set;
        a connected diagram is one component of every root, and otherwise
        each positive root k goes with the first simple root a with k = a
        or k - a in the set: a positive root that is not simple is a
        positive root plus a simple one (simple_keys), and a sum of roots
        of two components is no root. A root's negative is in its
        component."""
        keys = self.keys
        members = {keys[i] for i in positions}
        tag = list(range(len(base)))  # the component of each simple root
        for i, j in itertools.combinations(range(len(base)), 2):
            if tag[i] != tag[j] and base[i] + base[j] in members:
                old = tag[j]
                tag = [tag[i] if t == old else t for t in tag]
        connected = len(set(tag)) == 1
        groups: dict[int, list[int]] = {}
        for p in positions:
            k = keys[p]
            if k > 0:
                i = 0 if connected else next(
                    i for i, a in enumerate(base) if k == a or k - a in members
                )
                groups.setdefault(tag[i], []).append(p)
        return [(tag.count(c), ps) for c, ps in groups.items()]

    def types_of(self, positions: Sequence[int], base: Sequence[int]) -> tuple[CartanLabel, ...]:
        """The sorted types of the components of the closed set at
        positions, whose simple roots have the keys base (components_of).
        A component's type is read from its rank, size and number of long
        roots (type_by_counts), each twice its positive roots', since a
        root's negative shares its norm."""
        types = []
        for rank, ps in self.components_of(positions, base):
            ns = [self.norms[p] for p in ps]
            types.append(type_by_counts(rank, 2 * len(ns), 2 * ns.count(max(ns))))
        return tuple(sorted(types))

    @cached_property
    def theta(self) -> IntVector:
        """The highest root, the last of ints: theta - r is a sum of simple
        roots, which are lexicographically positive, for every root r
        (Humphreys, Introduction to Lie Algebras, 10.4 Lemma A)."""
        if not self.irreducible:
            raise ValueError(
                f"theta, and so the Wolf subsystem, needs an irreducible g, not {self.name}"
            )
        return self.ints[-1]

    @cached_property
    def wolf(self) -> ClosedSubsystem:  # {+-theta} and the roots orthogonal to theta
        # For a long root gamma and a root r != +-gamma, <r, gamma check> is
        # -1, 0 or 1, and it is 0 iff neither r + gamma nor r - gamma is a
        # root (were r + gamma a root, <r + gamma, gamma check> = 2 would
        # make it gamma). +-theta pass the same test: 0 and +-2 theta are
        # no roots. theta is the last root, so its key is the last key.
        self.theta  # a reducible parent has no theta: ValueError
        keys, at = self.keys, self.at
        t = keys[-1]
        positions = tuple(i for i, k in enumerate(keys) if k + t not in at and k - t not in at)
        return _subsystem(self, positions, "the Wolf subsystem is not closed")

    @cached_property
    def closure_table(self) -> tuple:
        """The tables of subalgebra.enumerate_closed_subsystems, on root
        positions: neg[i], the position of -root i; pos, the positive roots
        in order; forced[i][j], the positive roots that closure admits with
        positive roots i and j (their sum and difference, found on the
        keys, where a root is positive iff its key is); gens, each simple
        reflection as a map of positive roots to the positive roots of
        their images, under which Weyl dedup closes a class. They stay
        lists, which the search only reads: a copy into tuples made them
        10-20% slower to build."""
        keys, at = self.keys, self.at
        neg = [at[-k] for k in keys]
        up = [i if k > 0 else neg[i] for i, k in enumerate(keys)]  # the positive one of +-i
        pos = [i for i, u in enumerate(up) if u == i]
        forced: list[list[tuple[int, ...]]] = [[()] * len(keys) for _ in keys]
        for i, j in itertools.combinations(pos, 2):
            a, b = keys[i], keys[j]
            forced[i][j] = forced[j][i] = tuple(up[at[c]] for c in (a + b, a - b) if c in at)
        gens = [[up[j] for j in p] for p in self.reflections]
        return neg, pos, forced, gens


class ClosedSubsystem(NamedTuple):
    """The roots of parent at the sorted positions in parent.ints, and the
    rank of the central torus of h; base holds the lattice keys of h's
    simple roots (simple_keys), which its typing reads. base follows from
    positions on one parent, so it takes part in equality and the hash
    like the other fields. roots is a rational view, made on each read."""

    parent: RootSystem
    positions: tuple[int, ...]
    torus_corank: int
    base: tuple[int, ...]

    @property
    def roots(self) -> tuple[Vector, ...]:
        return tuple(self.parent.roots[i] for i in self.positions)


def _closed(sub: Iterable[int], parent: Container[int]) -> bool:
    """Negation- and addition-closure of sub within parent, both given as
    lattice keys of one packing."""
    sub = set(sub)
    if any(-a not in sub for a in sub):
        return False
    for a, b in itertools.combinations(sub, 2):
        c = a + b
        if c in parent and c not in sub:
            return False
    return True


def _subsystem(g: RootSystem, positions: Sequence[int], error: str) -> ClosedSubsystem:
    """The subsystem of g at the sorted positions, checked for closure on
    its keys (else NotClosed(error)). Its rank is its number of simple
    roots."""
    keys = [g.keys[i] for i in positions]
    if not _closed(keys, g.at):
        raise NotClosed(error)
    base = simple_keys(keys, set(keys))
    return ClosedSubsystem(g, tuple(positions), g.rank - len(base), base)


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
