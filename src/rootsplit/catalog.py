"""Catalog of irreducible root systems, bases, Weyl groups and type identification.

Standard coordinates throughout: A_n lives in the sum-zero hyperplane of
dimension n+1, B/C/D_n in dimension n, G2 in the sum-zero hyperplane of
dimension 3, F4 in dimension 4 and E6/E7/E8 inside the usual E8 realization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .linalg import (
    IntVector,
    Vector,
    dot,
    identity_matrix,
    idot,
    int_scaled,
    lex_positive,
    rank_of,
    vadd,
)
from .rootcore import (
    LONG2,
    RootsplitError,
    RootSystem,
    make_root_system,
    reflect,
)

#: rank cap for full Weyl group enumeration (largest needed: F4, order 1152)
WEYL_RANK_CAP = 4

_ORDERS = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 5, "F": 6, "G": 7}


class G2Component(RootsplitError):
    """A component has length ratio sqrt(3); the {1,2} normalization fails."""


@dataclass(frozen=True, order=True)
class CartanLabel:
    series: str
    rank: int

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


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
    if len(text) < 2 or text[0].upper() not in _ORDERS or not text[1:].isdigit():
        raise ValueError(f"cannot parse Cartan label {text!r}")
    return label(text[0].upper(), int(text[1:]))


def parse_label_sum(text: str) -> list[CartanLabel]:
    """Parse 'A1+A1' style direct-sum specs into a list of labels."""
    return [parse_label(part) for part in text.split("+")]


def _fr(x) -> Fraction:
    return Fraction(x)


def _unit(dim: int, i: int, c=1) -> Vector:
    return tuple(_fr(c if j == i else 0) for j in range(dim))


def _bcd_roots(n: int, short: str) -> set[Vector]:
    roots: set[Vector] = set()
    for i, j in itertools.combinations(range(n), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [_fr(0)] * n
                v[i], v[j] = _fr(si), _fr(sj)
                roots.add(tuple(v))
    if short == "B":
        for i in range(n):
            roots.add(_unit(n, i, 1))
            roots.add(_unit(n, i, -1))
    elif short == "C":
        for i in range(n):
            roots.add(_unit(n, i, 2))
            roots.add(_unit(n, i, -2))
    return roots


def _e8_roots() -> set[Vector]:
    roots: set[Vector] = set()
    for i, j in itertools.combinations(range(8), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [_fr(0)] * 8
                v[i], v[j] = _fr(si), _fr(sj)
                roots.add(tuple(v))
    half = Fraction(1, 2)
    for signs in itertools.product((1, -1), repeat=8):
        if sum(signs) % 4 == 0:  # even number of minus signs
            roots.add(tuple(half * s for s in signs))
    return roots


def _g2_roots() -> set[Vector]:
    roots: set[Vector] = set()
    for i, j in itertools.permutations(range(3), 2):
        v = [_fr(0)] * 3
        v[i], v[j] = _fr(1), _fr(-1)
        roots.add(tuple(v))
    for i, j, k in itertools.permutations(range(3)):
        if j < k:
            for s in (1, -1):
                v = [_fr(0)] * 3
                v[i], v[j], v[k] = _fr(2 * s), _fr(-s), _fr(-s)
                roots.add(tuple(v))
    return roots


def _f4_roots() -> set[Vector]:
    roots = _bcd_roots(4, "B")
    half = Fraction(1, 2)
    for signs in itertools.product((1, -1), repeat=4):
        roots.add(tuple(half * s for s in signs))
    return roots


@lru_cache(maxsize=None)
def build(lab: CartanLabel) -> RootSystem:
    """Validated root system for an admissible label of rank <= 8."""
    if lab.rank > 8:
        raise ValueError("catalog is limited to rank <= 8")
    s, n = lab.series, lab.rank
    if s == "A":
        roots = {
            tuple(_fr(1 if k == i else (-1 if k == j else 0)) for k in range(n + 1))
            for i, j in itertools.permutations(range(n + 1), 2)
        }
    elif s in ("B", "C", "D"):
        roots = _bcd_roots(n, s if s != "D" else "")
    elif s == "G":
        roots = _g2_roots()
    elif s == "F":
        roots = _f4_roots()
    else:  # E series, carved out of E8
        e8 = _e8_roots()
        if n == 8:
            roots = e8
        else:
            cond1 = vadd(_unit(8, 6), _unit(8, 7))  # e7+e8
            roots = {a for a in e8 if dot(a, cond1) == 0}
            if n == 6:
                cond2 = tuple(
                    x - y for x, y in zip(_unit(8, 5), _unit(8, 6))
                )  # e6-e7
                roots = {a for a in roots if dot(a, cond2) == 0}
    return make_root_system(roots)


def build_sum(labels: Sequence[CartanLabel]) -> RootSystem:
    """Direct sum of catalog systems, e.g. for the spec string 'A1+A1'."""
    return direct_sum([build(l) for l in labels])


def direct_sum(parts: Sequence[RootSystem]) -> RootSystem:
    """Block-orthogonal concatenation of root systems."""
    if not parts:
        raise ValueError("direct_sum needs at least one part")
    if len(parts) == 1:
        return parts[0]
    total = sum(p.ambient_dim for p in parts)
    roots = []
    offset = 0
    for p in parts:
        pad_before = (Fraction(0),) * offset
        pad_after = (Fraction(0),) * (total - offset - p.ambient_dim)
        roots.extend(pad_before + r + pad_after for r in p.roots)
        offset += p.ambient_dim
    return make_root_system(roots, validate=False)


def components(system: RootSystem) -> list[tuple[Vector, ...]]:
    """Irreducible components: connected classes under non-orthogonality."""
    iroots = int_scaled(system.roots)  # orthogonality is scale-invariant
    back = dict(zip(iroots, system.roots))
    return [tuple(back[r] for r in c) for c in int_components(iroots)]


def int_components(iroots: Sequence[IntVector]) -> list[tuple[IntVector, ...]]:
    """components on integer vectors, each sorted, in sorted order."""
    parent = list(range(len(iroots)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(iroots):
        for j in range(i + 1, len(iroots)):
            if idot(a, iroots[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[IntVector]] = {}
    for i, r in enumerate(iroots):
        groups.setdefault(find(i), []).append(r)
    return sorted(tuple(sorted(g)) for g in groups.values())


def simple_base(roots: Iterable[Vector]) -> list[Vector]:
    """Deterministic simple-root base: indecomposable elements of the
    lexicographically positive half, sorted."""
    roots = list(roots)
    iroots = int_scaled(roots)
    back = dict(zip(iroots, roots))
    return [back[a] for a in int_simple_base(iroots)]


def int_simple_base(iroots: Iterable[IntVector]) -> list[IntVector]:
    """simple_base on integer vectors."""
    pos = sorted(r for r in iroots if lex_positive(r))
    pos_set = set(pos)
    return [
        a for a in pos
        if not any(tuple(x - y for x, y in zip(a, b)) in pos_set for b in pos)
    ]


def highest_root(system: RootSystem) -> Vector:
    """The unique maximal root of an irreducible system (always long)."""
    iroots = int_scaled(system.roots)
    if len(int_components(iroots)) != 1:
        raise ValueError("highest_root requires an irreducible system")
    theta = int_highest_root(iroots, int_simple_base(iroots))
    return system.roots[iroots.index(theta)]


def int_highest_root(iroots: Iterable[IntVector], base: Sequence[IntVector]) -> IntVector:
    """highest_root on integer vectors, given the irreducible system's base."""
    root_set = set(iroots)
    theta = base[0]
    changed = True
    while changed:
        changed = False
        for a in base:
            cand = vadd(theta, a)
            if cand in root_set:
                theta = cand
                changed = True
    return theta


@dataclass(frozen=True)
class WeylGroup:
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


def weyl_group(system: RootSystem) -> WeylGroup:
    """Full Weyl group by closure of the simple reflections (rank <= 4)."""
    if system.rank > WEYL_RANK_CAP:
        raise ValueError(f"weyl_group is capped at rank {WEYL_RANK_CAP}")
    roots = system.roots
    index = {r: i for i, r in enumerate(roots)}
    gens = tuple(simple_base(roots))
    gen_perms = [
        tuple(index[reflect(r, a)] for r in roots) for a in gens
    ]
    identity = tuple(range(len(roots)))
    seen = {identity: ()}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for gi, g in enumerate(gen_perms):
                q = tuple(g[p[i]] for i in range(len(p)))
                if q not in seen:
                    seen[q] = (gi,) + seen[p]
                    nxt.append(q)
        frontier = nxt
    elems = tuple(sorted(seen))
    return WeylGroup(roots, gens, elems, tuple(seen[e] for e in elems))


def identify_type(system: RootSystem) -> list[CartanLabel]:
    """Cartan labels of the irreducible components, using canonical aliases
    (B1 -> A1, C2 -> B2, D2 -> A1+A1, D3 -> A3)."""
    return sorted(int_component_type(c) for c in int_components(int_scaled(system.roots)))


def int_component_type(comp: Sequence[IntVector]) -> CartanLabel:
    """Cartan label of one irreducible component given on integers.

    An irreducible root system of rank <= 8 is determined up to isomorphism
    by its rank, its number of roots and its number of long roots, so the
    label is a lookup in _TYPES.
    """
    rank = len(int_simple_base(comp))
    norms = [idot(r, r) for r in comp]
    key = (rank, len(comp), norms.count(max(norms)))
    if key not in _TYPES:
        raise ValueError(
            f"component of rank {rank} with {len(comp)} roots matches no catalog type"
        )
    return _TYPES[key]


def normalize(system: RootSystem) -> RootSystem:
    """Rescale the metric per irreducible component so long roots have
    square length 2.

    The roots themselves are unchanged (a coordinate rescale would need
    irrational factors, e.g. for C_n); instead the returned system carries
    an exact rational metric matrix, I + sum over components of (s - 1) P
    with s = 2/|long|^2 and P the orthogonal projection onto the span of
    the component. The Weyl group of an irreducible component acts
    irreducibly on that span (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 10.4 Lemma B), so the sum of r r^T over its
    roots is (sum of |r|^2 / rank) P. Cartan numbers and pair classes are
    unaffected. Components with length ratio sqrt(3) raise G2Component.
    """
    if system.normalization == LONG2:
        return system
    dim = system.ambient_dim
    metric = [list(row) for row in identity_matrix(dim)]
    for comp in components(system):
        norms = [dot(r, r) for r in comp]
        lengths = sorted(set(norms))
        if len(lengths) > 2:
            raise ValueError("component has more than two root lengths")
        if len(lengths) == 2 and lengths[1] / lengths[0] == 3:
            raise G2Component(
                "length ratio sqrt(3): the {1,2} normalization does not apply"
            )
        if len(lengths) == 2 and lengths[1] / lengths[0] != 2:
            raise ValueError("length ratio is neither 1, sqrt(2) nor sqrt(3)")
        scale = Fraction(2) / lengths[-1]
        if scale != 1:
            c = (scale - 1) * rank_of(comp) / sum(norms)
            for r in comp:
                support = [(i, a) for i, a in enumerate(r) if a]
                for i, a in support:
                    for j, b in support:
                        metric[i][j] += c * a * b
    return RootSystem(dim, system.roots, LONG2, tuple(map(tuple, metric)))


def simple_labels_up_to(max_rank: int, series: Iterable[str] | None = None):
    """All admissible simple labels of rank <= max_rank, sorted."""
    out = []
    for r in range(1, max_rank + 1):
        for s in "ABCDEFG":
            try:
                out.append(label(s, r))
            except ValueError:
                continue
    if series is not None:
        wanted = {s.upper() for s in series}
        out = [l for l in out if l.series in wanted]
    return sorted(out, key=str)


def _root_counts(series: str, n: int) -> tuple[int, int]:
    """(|R|, number of long roots) of the simple type series_n (Bourbaki,
    Lie Groups ch. VI, Plates I-IX); all roots of a simply laced type are long."""
    return {
        "A": (n * (n + 1), n * (n + 1)),
        "B": (2 * n * n, 2 * n * (n - 1)),
        "C": (2 * n * n, 2 * n),
        "D": (2 * n * (n - 1), 2 * n * (n - 1)),
        "E": ({6: 72, 7: 126, 8: 240}.get(n),) * 2,
        "F": (48, 24),
        "G": (12, 6),
    }[series]


#: (rank, |R|, number of long roots) -> simple type, over every catalog label
_TYPES = {
    (lab.rank, *_root_counts(lab.series, lab.rank)): lab
    for lab in simple_labels_up_to(8)
}
