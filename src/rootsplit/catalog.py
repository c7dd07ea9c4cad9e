"""Catalog of irreducible root systems, bases, Weyl groups and type identification.

Standard coordinates throughout: A_n lives in the sum-zero hyperplane of
dimension n+1, B/C/D_n in dimension n, G2 in the sum-zero hyperplane of
dimension 3, F4 in dimension 4 and E6/E7/E8 inside the usual E8 realization.
"""

from __future__ import annotations

import itertools
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
    lattice_root_system,
    reflect,
)

#: rank cap of weyl_group (largest needed: F4, order 1152) and of the Weyl
#: dedup of subsystems, whose search still lists every closed subset
WEYL_RANK_CAP = 4


class G2Component(RootsplitError):
    """A component has length ratio sqrt(3); the {1,2} normalization fails."""


def label(series: str, rank: int) -> CartanLabel:
    """Admissible Cartan label; aliases such as C2 or D3 are rejected."""
    ok = (
        (series == "A" and rank >= 1)
        or (series == "B" and rank >= 2)
        or (series == "C" and rank >= 3)
        or (series == "D" and rank >= 4)
        or (series == "E" and rank in (6, 7, 8))
        or (series == "F" and rank == 4)
        or (series == "G" and rank == 2)
    )
    if not ok:
        raise ValueError(f"inadmissible Cartan label {series}{rank}")
    return CartanLabel(series, rank)


def parse_label(text: str) -> CartanLabel:
    """Parse a single label like 'B3' or 'G2'."""
    text = text.strip()
    if len(text) < 2 or text[0].upper() not in SERIES or not text[1:].isdigit():
        raise ValueError(f"cannot parse Cartan label {text!r}")
    return label(text[0].upper(), int(text[1:]))


def parse_label_sum(text: str) -> list[CartanLabel]:
    """Parse 'A1+A1' style direct-sum specs into a list of labels."""
    return [parse_label(part) for part in text.split("+")]


def _a_roots(n: int, one: int) -> set[IntVector]:
    """The integer roots e_i - e_j of A_n, in dimension n + 1, with the
    integer one standing for 1."""
    return {
        tuple(one if k == i else (-one if k == j else 0) for k in range(n + 1))
        for i, j in itertools.permutations(range(n + 1), 2)
    }


def _bcd_roots(n: int, short: str, one: int) -> set[IntVector]:
    """The integer roots of B_n, C_n or D_n (short "B", "C" or ""), with
    the integer one standing for 1, as in every builder below."""
    roots: set[IntVector] = set()
    for i, j in itertools.combinations(range(n), 2):
        for si in (one, -one):
            for sj in (one, -one):
                v = [0] * n
                v[i], v[j] = si, sj
                roots.add(tuple(v))
    if short:
        c = one if short == "B" else 2 * one
        for i in range(n):
            for s in (c, -c):
                roots.add(tuple(s if j == i else 0 for j in range(n)))
    return roots


def _e8_roots(one: int) -> set[IntVector]:
    roots = _bcd_roots(8, "", one)
    half = one // 2
    for signs in itertools.product((1, -1), repeat=8):
        if sum(signs) % 4 == 0:  # even number of minus signs
            roots.add(tuple(half * s for s in signs))
    return roots


def _g2_roots(one: int) -> set[IntVector]:
    roots: set[IntVector] = set()
    for i, j in itertools.permutations(range(3), 2):
        v = [0] * 3
        v[i], v[j] = one, -one
        roots.add(tuple(v))
    for i, j, k in itertools.permutations(range(3)):
        if j < k:
            for s in (one, -one):
                v = [0] * 3
                v[i], v[j], v[k] = 2 * s, -s, -s
                roots.add(tuple(v))
    return roots


def _f4_roots(one: int) -> set[IntVector]:
    roots = _bcd_roots(4, "B", one)
    half = one // 2
    for signs in itertools.product((1, -1), repeat=4):
        roots.add(tuple(half * s for s in signs))
    return roots


@lru_cache(maxsize=None)
def build(lab: CartanLabel) -> RootSystem:
    """Validated root system for an admissible label of rank <= 8, built
    on integers at its scale (twice the common denominator of its roots):
    2 for A-D and G2, 4 for F4 and E6-E8, whose roots have halves."""
    if lab.rank > 8:
        raise ValueError("catalog is limited to rank <= 8")
    s, n = lab.series, lab.rank
    scale = 4 if s in "EF" else 2
    if s == "A":
        roots = _a_roots(n, scale)
    elif s in ("B", "C", "D"):
        roots = _bcd_roots(n, s if s != "D" else "", scale)
    elif s == "G":
        roots = _g2_roots(scale)
    elif s == "F":
        roots = _f4_roots(scale)
    else:  # E series, carved out of E8
        roots = _e8_roots(scale)
        if n < 8:
            roots = {a for a in roots if a[6] + a[7] == 0}  # orthogonal to e7+e8
        if n == 6:
            roots = {a for a in roots if a[5] == a[6]}  # and to e6-e7
    return lattice_root_system(scale, roots)


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
    of generator reflections, usable on arbitrary vectors via `apply_word`.
    """

    roots: tuple[Vector, ...]
    generators: tuple[Vector, ...]
    elements: tuple[tuple[int, ...], ...]
    words: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def apply_word(self, word: tuple[int, ...], v: Vector) -> Vector:
        for g in reversed(word):
            v = reflect(v, self.generators[g])
        return v


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
    out = []
    for r in range(1, max_rank + 1):
        for s in SERIES:
            try:
                out.append(label(s, r))
            except ValueError:
                continue
    if series is not None:
        wanted = {s.upper() for s in series}
        out = [l for l in out if l.series in wanted]
    return sorted(out, key=str)

