"""Catalog of irreducible root systems, bases, Weyl groups and type identification.

Each catalog system is the Weyl orbit of Bourbaki's simple roots (Lie
Groups ch. VI, Plates I-IX), in his coordinates: A_n lives in the sum-zero
hyperplane of dimension n+1, B/C/D_n in dimension n, G2 in the sum-zero
hyperplane of dimension 3, F4 in dimension 4, and E6/E7 are spanned by
the first 6/7 simple roots of E8.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .linalg import (
    IntVector,
    Matrix,
    Vector,
    idot,
    int_rank,
)
from .rootcore import (
    SERIES,
    CartanLabel,
    ClosedSubsystem,
    RootsplitError,
    RootSystem,
    _root_counts,
    lattice_root_system,
    type_by_counts,
)

#: rank cap of weyl_group (largest needed: F4, order 1152) and of the Weyl
#: dedup of subsystems, whose search still lists every closed subset
WEYL_RANK_CAP = 4


class G2Component(RootsplitError):
    """A component has length ratio sqrt(3); the {1,2} normalization fails."""


def _admits(series: str, rank: int) -> bool:
    """Whether series_rank names a simple type: the root-count formulas
    have counts for it (rootcore._root_counts) and type_by_counts decodes
    them back to it, so the aliases C1, C2 and D3 fail."""
    counts = _root_counts(series, rank)
    return counts is not None and type_by_counts(rank, *counts) == (series, rank)


@lru_cache(maxsize=None)
def label(series: str, rank: int) -> CartanLabel:
    """Admissible Cartan label (_admits); aliases such as C2 or D3 are
    rejected. An admitted label is kept: every label of a command is read."""
    if not _admits(series, rank):
        raise ValueError(f"inadmissible Cartan label {series}{rank}")
    return CartanLabel(series, rank)


def parse_label(text: str) -> CartanLabel:
    """Parse a single label like 'B3' or 'G2'."""
    text = text.strip()
    if len(text) < 2 or text[0].upper() not in SERIES or not text[1:].isdecimal():
        raise ValueError(f"cannot parse Cartan label {text!r}")
    return label(text[0].upper(), int(text[1:]))


def parse_label_sum(text: str) -> list[CartanLabel]:
    """Parse 'A1+A1' style direct-sum specs into a list of labels."""
    return [parse_label(part) for part in text.split("+")]


def _simple_roots(series: str, n: int, one: int) -> list[IntVector]:
    """Bourbaki's simple roots of series_n (Lie Groups ch. VI, Plates
    I-IX), with the integer one standing for 1; E6 and E7 are the first 6
    and 7 of E8's."""
    half = one // 2
    if series == "G":
        return [(one, -one, 0), (-2 * one, one, one)]
    if series == "F":
        return [(0, one, -one, 0), (0, 0, one, -one), (0, 0, 0, one), (half, -half, -half, -half)]
    dim = n + 1 if series == "A" else 8 if series == "E" else n

    def e(i: int, c: int, j: int) -> IntVector:  # e_i + c e_j, counted from 0
        return tuple(one * ((k == i) + c * (k == j)) for k in range(dim))

    if series == "E":
        e8 = [(half,) + (-half,) * 6 + (half,), e(0, 1, 1)]
        return (e8 + [e(k, -1, k - 1) for k in range(1, 7)])[:n]
    chain = [e(i, -1, i + 1) for i in range(n if series == "A" else n - 1)]
    last = {"B": [e(n - 1, 0, 0)], "C": [e(n - 1, 1, n - 1)], "D": [e(n - 2, 1, n - 1)]}
    return chain + last.get(series, [])  # then e_n, 2e_n or e_{n-1} + e_n


def _weyl_orbit(simple: Sequence[IntVector]) -> set[IntVector]:
    """The roots with these simple roots: their closure under the simple
    reflections, since every root is a Weyl image of a simple root
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    10.3 Theorem (c)). A non-integral Cartan number raises ValueError, so
    every step is an exact reflection: each root keeps its norm and stays
    in the lattice of the simple roots, and the orbit is finite."""
    pairs = [(a, idot(a, a)) for a in simple]
    orbit = set(simple)
    frontier = list(orbit)
    while frontier:
        new = []
        for r in frontier:
            for a, norm in pairs:
                q, rem = divmod(2 * idot(r, a), norm)
                if rem:
                    raise ValueError(f"Cartan number 2<{r},{a}>/<{a},{a}> is not an integer")
                if q:
                    s = tuple(x - q * y for x, y in zip(r, a))
                    if s not in orbit:
                        orbit.add(s)
                        new.append(s)
        frontier = new
    return orbit


@lru_cache(maxsize=None)
def build(lab: CartanLabel) -> RootSystem:
    """Validated root system for an admissible label (label) of rank <= 8:
    the Weyl orbit of its simple roots (_simple_roots), on integers at its
    scale (twice the common denominator of its roots): 2 for A-D and G2,
    4 for F4 and E6-E8, whose roots have halves."""
    label(*lab)
    if lab.rank > 8:
        raise ValueError("catalog is limited to rank <= 8")
    scale = 4 if lab.series in "EF" else 2
    return lattice_root_system(scale, _weyl_orbit(_simple_roots(lab.series, lab.rank, scale)))


def build_sum(labels: Sequence[CartanLabel]) -> RootSystem:
    """Direct sum of catalog systems, e.g. for the spec string 'A1+A1'.
    One label is its build; a product is built once per label tuple, in
    the order given. Like build, it keeps each system it builds, with its
    facts (RootSystem), for the whole process."""
    return build(labels[0]) if len(labels) == 1 else _build_product(tuple(labels))


@lru_cache(maxsize=None)
def _build_product(labels: tuple[CartanLabel, ...]) -> RootSystem:
    return direct_sum([build(l) for l in labels])


def direct_sum(parts: Sequence[RootSystem]) -> RootSystem:
    """Block-orthogonal concatenation of root systems: their integer roots,
    brought to the lcm of their scales, padded and sorted. A sum of root
    systems is one, so it is not checked again."""
    if not parts:
        raise ValueError("direct_sum needs at least one part")
    if len(parts) == 1:
        return parts[0]
    scale = lcm(*(p.scale for p in parts))
    total = sum(p.ambient_dim for p in parts)
    ints = []
    offset = 0
    for p in parts:
        k = scale // p.scale
        pad_before = (0,) * offset
        pad_after = (0,) * (total - offset - p.ambient_dim)
        ints.extend(pad_before + tuple(k * a for a in r) + pad_after for r in p.ints)
        offset += p.ambient_dim
    return RootSystem(total, scale, tuple(sorted(ints)))


def components(system: RootSystem) -> list[tuple[Vector, ...]]:
    """Irreducible components: connected classes under non-orthogonality,
    each sorted, in sorted order."""
    return [tuple(system.roots[i] for i in c) for c in _component_positions(system)]


def _component_positions(system: RootSystem) -> list[tuple[int, ...]]:
    """The positions in system.ints of each component's roots
    (RootSystem.components_of with their negatives), each sorted, in
    sorted order: positions follow root order."""
    at, keys = system.at, system.keys
    return sorted(
        tuple(sorted(ps + [at[-keys[p]] for p in ps]))
        for _, ps in system.components_of(range(len(keys)), system.base)
    )


def highest_root(system: RootSystem) -> Vector:
    """The unique maximal root of an irreducible system (always long),
    RootSystem.theta; a reducible system raises ValueError."""
    return tuple(Fraction(a, system.scale) for a in system.theta)


class WeylGroup(NamedTuple):
    """The full Weyl group as permutations of the sorted root list.

    `elements[i]` permutes root indices; `words[i]` is a matching product
    of reflections in the simple roots `generators`, applied last first.
    """

    roots: tuple[Vector, ...]
    generators: tuple[Vector, ...]
    elements: tuple[tuple[int, ...], ...]
    words: tuple[tuple[int, ...], ...]


def weyl_group(g: RootSystem) -> WeylGroup:
    """Full Weyl group of g by closure of its simple reflections
    (RootSystem.reflections, rank <= 4). No production path builds it; it
    is the full-group oracle of the tests."""
    roots, at, base = g.roots, g.at, g.base
    if len(base) > WEYL_RANK_CAP:
        raise ValueError(f"weyl_group is capped at rank {WEYL_RANK_CAP}")
    gens = tuple(roots[at[k]] for k in base)
    gen_perms = g.reflections
    identity = tuple(range(len(roots)))
    seen = {identity: ()}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for gi, s_a in enumerate(gen_perms):
                q = tuple(s_a[p[i]] for i in range(len(p)))
                if q not in seen:
                    seen[q] = (gi,) + seen[p]
                    nxt.append(q)
        frontier = nxt
    elems = tuple(sorted(seen))
    return WeylGroup(roots, gens, elems, tuple(seen[e] for e in elems))


def identify_type(system: RootSystem | ClosedSubsystem) -> list[CartanLabel]:
    """Cartan labels of the irreducible components of system's roots, using
    canonical aliases (B1 -> A1, C2 -> B2, D2 -> A1+A1, D3 -> A3), read
    on the lattice keys of its parent (RootSystem.types_of)."""
    if isinstance(system, RootSystem):
        return list(system.types)
    return list(system.parent.types_of(system.positions, system.base))


def normalize(system: RootSystem) -> Matrix:
    """The metric matrix that rescales each irreducible component so its
    long roots have square length 2.

    The roots themselves are unchanged (a coordinate rescale would need
    irrational factors, e.g. for C_n); instead the metric is an exact
    rational matrix, I + sum over components of (s - 1) P with
    s = 2/|long|^2 and P the orthogonal projection onto the span of the
    component. The Weyl group of an irreducible component acts
    irreducibly on that span (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 10.4 Lemma B), so the sum of r r^T over its
    roots is (sum of |r|^2 / rank) P. Cartan numbers and pair classes are
    unaffected. Components with length ratio sqrt(3) raise G2Component.
    """
    iroots, scale, dim = system.ints, system.scale, system.ambient_dim
    metric = [[Fraction(i == j) for j in range(dim)] for i in range(dim)]
    for positions in _component_positions(system):
        comp = [iroots[i] for i in positions]
        norms = [idot(r, r) for r in comp]
        lengths = sorted(set(norms))
        if len(lengths) > 2:
            raise ValueError("component has more than two root lengths")
        if len(lengths) == 2 and lengths[1] == 3 * lengths[0]:
            raise G2Component(
                "length ratio sqrt(3): the {1,2} normalization does not apply"
            )
        if len(lengths) == 2 and lengths[1] != 2 * lengths[0]:
            raise ValueError("length ratio is neither 1, sqrt(2) nor sqrt(3)")
        s = Fraction(2 * scale * scale, lengths[-1])
        if s == 1:
            continue
        c = (s - 1) * int_rank(comp) / sum(norms)  # (s - 1) P is c times sum of r r^T
        for r in comp:
            support = [(i, a) for i, a in enumerate(r) if a]
            for i, a in support:
                for j, b in support:
                    metric[i][j] += c * a * b
    return tuple(map(tuple, metric))


def simple_labels_up_to(max_rank: int, series: Iterable[str] | None = None):
    """All admissible simple labels of rank <= max_rank, sorted."""
    wanted = SERIES if series is None else {s.upper() for s in series}
    return sorted(
        CartanLabel(s, r)
        for s in SERIES for r in range(1, max_rank + 1) if s in wanted and _admits(s, r)
    )

