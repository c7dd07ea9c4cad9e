"""Equal-rank closed subsystems and isotropy weight sets.

A closed subsystem S of a root system R is negation-closed and satisfies
alpha, beta in S, alpha+beta in R  =>  alpha+beta in S. It models the root
system of an equal-rank subalgebra h (plus a central torus of dimension
torus_corank). The isotropy weights of the pair are R \\ S.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Container, Iterable, Sequence

from .catalog import (
    WEYL_RANK_CAP,
    CartanLabel,
    int_component_type,
    int_components,
    int_highest_root,
    int_normalize,
    int_simple_base,
    simple_reflections,
)
from .linalg import (
    IntMatrix,
    IntVector,
    Vector,
    idot,
    int_copy,
    lattice_radix,
    lex_positive,
    pack,
    scale_to_int,
    vneg,
)
from .rootcore import RootsplitError, RootSystem


class NotClosed(RootsplitError):
    """The given subset is not closed under root addition in its parent."""


@dataclass(frozen=True)
class ClosedSubsystem:
    """The roots of parent at the sorted positions in parent.ints, and the
    rank of the central torus of h; roots is a rational view."""

    parent: RootSystem
    positions: tuple[int, ...]
    torus_corank: int

    @cached_property
    def roots(self) -> tuple[Vector, ...]:
        return tuple(self.parent.roots[i] for i in self.positions)


@dataclass(frozen=True)
class IsotropyWeights:
    """W = R(g) \\ R(h); weights of the complexified isotropy representation.

    ints are the weights on scale (twice a common denominator of W),
    sorted, and keys their lattice keys (linalg.pack), which every lookup
    reads; a weight is named by its position in that order. weights is a
    rational view. index and sums are made when first read, so each W
    scans its pair sums at most once, and listing W never does. cases
    maps each certificate splitting.find_splittings found on W to its
    case tag, resolved on the table that verified it.
    """

    dim_M: int
    scale: int
    ints: tuple[IntVector, ...]
    keys: tuple[int, ...]

    @property
    def quaternionic_n(self) -> Fraction:
        return Fraction(self.dim_M, 4)

    @cached_property
    def weights(self) -> tuple[Vector, ...]:
        return tuple(tuple(Fraction(a, self.scale) for a in x) for x in self.ints)

    @cached_property
    def cases(self) -> dict:
        return {}

    @cached_property
    def index(self) -> dict[int, int]:
        """Each weight's key mapped to its position."""
        return {k: i for i, k in enumerate(self.keys)}

    @cached_property
    def sums(self) -> dict[int, list[tuple[int, int]]]:
        """The key of each sum w_i + w_j with i <= j mapped to its pairs
        (i, j), in order; the keys are in the order of their first pairs."""
        keys = self.keys
        sums: dict[int, list[tuple[int, int]]] = {}
        for i, a in enumerate(keys):
            for j in range(i, len(keys)):
                sums.setdefault(a + keys[j], []).append((i, j))
        return sums

    @cached_property
    def triple(self) -> tuple[int, int, int] | None:
        """(i, j, k) with w_i + w_j = w_k for the smallest (i, j), i <= j,
        whose sum lies in W; None if there is none."""
        for s, pairs in self.sums.items():
            k = self.index.get(s)
            if k is not None:
                return (*pairs[0], k)
        return None


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


def _subsystem(ctx: ParentContext, positions: Sequence[int], error: str) -> ClosedSubsystem:
    """The subsystem at the sorted positions of the parent of ctx, checked
    for closure on its keys (else NotClosed(error)). Its rank is its number
    of simple roots, found by the rule of int_simple_base: a positive key
    is simple unless it minus an earlier simple key is in the subsystem."""
    keys = [ctx.keys[i] for i in positions]
    if not _closed(keys, ctx.at):
        raise NotClosed(error)
    members, base = set(keys), []
    for a in keys:
        if a > 0 and not any(a - b in members for b in base):
            base.append(a)
    return ClosedSubsystem(ctx.system, tuple(positions), ctx.rank - len(base))


def closed_subsystem(ctx: ParentContext, roots: Iterable[Vector]) -> ClosedSubsystem:
    """Validated constructor on the parent of ctx from rational roots (a
    JSON h); raises NotClosed. Each root is checked for the parent's
    dimension, put onto the parent's scale once and found by its lattice
    key; the dimension check comes first, since keys of different lengths
    alias."""
    system, positions = ctx.system, set()
    try:
        for r in roots:
            if len(r) != system.ambient_dim:  # a root of another length has no key here
                raise KeyError(r)
            positions.add(ctx.at[pack(scale_to_int(r, system.scale), ctx.radix)])
    except (KeyError, ValueError):  # no root, or off the scale or the key bound
        raise ValueError("subset is not contained in the parent root system") from None
    return _subsystem(ctx, sorted(positions), "subset is not a closed subsystem of the parent")


def enumerate_closed_subsystems(
    ctx: ParentContext, dedup: bool = True
) -> list[ClosedSubsystem]:
    """All closed subsystems of the parent of ctx (including the empty set
    and the parent itself), up to Weyl equivalence when dedup is set.

    Backtracking over positive-root in/out decisions with closure
    propagation; a sum of two admitted roots that is a root must be
    admitted, which prunes the subset lattice hard. A root is its position
    in the parent's integer roots and a subset is kept as its positive
    roots; the sums and differences that closure forces are found on the
    context's lattice keys, where a root is positive iff its key is. Dedup
    keeps the first subset of each Weyl class in search order and marks
    its orbit as seen by closing it under the simple reflections, with no
    Weyl group built; the rank cap stays, since the search still lists
    every closed subset. Every subsystem returned is checked for closure.
    """
    if dedup and ctx.rank > WEYL_RANK_CAP:
        raise ValueError(
            f"Weyl dedup of subsystems is capped at rank {WEYL_RANK_CAP}"
        )
    keys, at = ctx.keys, ctx.at
    neg = [at[-k] for k in keys]
    up = [i if k > 0 else neg[i] for i, k in enumerate(keys)]
    pos = [i for i, u in enumerate(up) if u == i]
    # forced[i][j]: the positive roots that closure admits with i and j
    forced: list[list[tuple[int, ...]]] = [[()] * len(keys) for _ in keys]
    for i, j in itertools.combinations(pos, 2):
        a, b = keys[i], keys[j]
        forced[i][j] = forced[j][i] = tuple(up[at[c]] for c in (a + b, a - b) if c in at)

    state = [0] * len(keys)  # of a positive root: 0 undecided, 1 in, -1 out
    inside: list[int] = []  # the positive roots in, in order of admission
    found: list[frozenset[int]] = []  # the positive roots of each closed subset

    def admit(k: int) -> bool:
        """Admit k and what closure forces; False if that hits a root out."""
        queue = [k]
        while queue:
            j = queue.pop()
            if state[j] == -1:
                return False
            if state[j] == 0:
                state[j] = 1
                for i in inside:
                    queue.extend(forced[i][j])
                inside.append(j)
        return True

    def dfs(t: int) -> None:
        while t < len(pos) and state[pos[t]]:
            t += 1
        if t == len(pos):
            found.append(frozenset(inside))
            return
        k = pos[t]
        state[k] = -1
        dfs(t + 1)
        state[k] = 0
        mark = len(inside)
        if admit(k):
            dfs(t + 1)
        for j in inside[mark:]:
            state[j] = 0
        del inside[mark:]

    dfs(0)

    if dedup:  # up after a simple reflection: the positive roots of the image
        gens = [[up[j] for j in p] for p in simple_reflections(ctx)]
        seen: set[frozenset[int]] = set()
        classes = []
        for s in found:
            if s not in seen:
                classes.append(s)
                frontier = {s}
                while frontier:
                    seen |= frontier
                    images = {frozenset(g[i] for i in t) for t in frontier for g in gens}
                    frontier = images - seen
        found = classes

    subs = [
        _subsystem(ctx, sorted(s.union(neg[i] for i in s)), "enumerated subset is not closed")
        for s in found
    ]
    subs.sort(key=lambda s: (len(s.positions), s.positions))  # as by roots: those are sorted
    return subs


def isotropy_weights(ctx: ParentContext, h: ClosedSubsystem) -> IsotropyWeights:
    """The weight set W = R(g) \\ R(h) with derived dimensions, on the
    integer roots of the parent of ctx: the positions outside h."""
    if h.parent is not ctx.system and h.parent != ctx.system:
        raise ValueError("subsystem does not belong to this parent")
    outside = [True] * len(ctx.keys)
    for i in h.positions:
        outside[i] = False
    # the parent's roots are sorted, so W comes out sorted
    ints = tuple(itertools.compress(ctx.system.ints, outside))
    keys = tuple(itertools.compress(ctx.keys, outside))
    return IsotropyWeights(len(ints), ctx.system.scale, ints, keys)


def weights_from_set(weights: Iterable[Vector]) -> IsotropyWeights:
    """IsotropyWeights from a raw negation-closed weight set (for transformed
    or externally supplied inputs), converted once onto its own scale;
    raises ValueError if the weights differ in dimension."""
    scale, ints = int_copy(sorted(set(weights)))
    radix = lattice_radix(ints)
    keys = tuple(pack(x, radix) for x in ints)
    return IsotropyWeights(len(ints), scale, ints, keys)


def is_symmetric_pair(w: IsotropyWeights) -> bool:
    """Weight-level symmetry criterion: no two weights sum to a weight.

    w.triple also counts w + w; that changes no answer, since if 2w is in
    the negation-closed W, so is (-w) + 2w = w.
    """
    return w.triple is None


def wolf_subsystem(parent: RootSystem) -> ClosedSubsystem:
    """The subsystem {+-theta} plus everything orthogonal to the highest
    root theta; the root datum of the Wolf pair G/N."""
    return parent_context(parent).wolf


@dataclass(frozen=True)
class ParentContext:
    """Facts about one parent g that every pair (g, h) shares, and the one
    handle on g that the pair functions take.

    Build it once per command and pass it down; it is deliberately not
    cached beyond that, so a fresh process and an in-process repeat do
    the same work. A root is named by its position in system.ints, which
    keys follow; the simple reflections, under which the enumerator's
    Weyl dedup closes classes, read system.ints too. keys packs the
    integer roots at radix (linalg.pack), so key order is root
    order, and at maps a key back to its position: whether a sum or a
    difference of roots is a root is an int lookup in at. theta, wolf and
    metric, which only the Wolf pair and the constraints read, are built
    on first read; theta and wolf raise ValueError for a reducible parent,
    and metric is None for a reducible parent and for G2.
    """

    system: RootSystem
    radix: int  # of the lattice keys
    keys: tuple[int, ...]  # the lattice keys of system.ints, in order
    at: dict[int, int]  # lattice key -> its position
    base: tuple[IntVector, ...]  # simple roots
    components: tuple[tuple[IntVector, ...], ...]
    types: tuple[CartanLabel, ...]
    long_norm: int  # squared length of a long root, integer-scaled

    @property
    def irreducible(self) -> bool:
        return len(self.types) == 1

    @property
    def rank(self) -> int:
        return len(self.base)

    @cached_property
    def theta(self) -> IntVector:  # the highest root
        if not self.irreducible:
            raise ValueError("highest_root requires an irreducible system")
        return int_highest_root(self.system.ints, self.base)

    @cached_property
    def wolf(self) -> ClosedSubsystem:  # {+-theta} and the roots orthogonal to theta
        theta = self.theta
        ends = (theta, vneg(theta))
        positions = tuple(
            i for i, r in enumerate(self.system.ints) if r in ends or not idot(r, theta)
        )
        return _subsystem(self, positions, "the Wolf subsystem is not closed")

    @cached_property
    def metric(self) -> tuple[IntMatrix, int] | None:  # (rows, den), int_normalize
        if not self.irreducible or self.types == (CartanLabel("G", 2),):
            return None
        return int_normalize(self.components, self.system.scale)


def parent_context(system: RootSystem) -> ParentContext:
    """Compute the per-parent facts of system from its integer roots
    (RootSystem.ints), converting nothing."""
    iroots = system.ints
    radix = lattice_radix(iroots)
    keys = tuple(pack(r, radix) for r in iroots)
    at = {k: i for i, k in enumerate(keys)}
    base = tuple(int_simple_base(iroots))
    comps = tuple(int_components(iroots, base))
    types = tuple(sorted(int_component_type(c, base) for c in comps))
    long_norm = max(idot(v, v) for v in iroots)
    return ParentContext(system, radix, keys, at, base, comps, types, long_norm)


def is_wolf_pair(ctx: ParentContext, h: ClosedSubsystem) -> bool:
    """True iff h is Weyl-equivalent to the Wolf subsystem of the parent.

    Long roots form one Weyl orbit, so h is Wolf exactly when R(h) is
    {+-gamma} plus every root orthogonal to gamma, for some long root
    gamma; such a gamma spans an A1 component of h. No Weyl group is
    needed. A reducible parent raises ValueError.
    """
    if len(h.positions) != len(ctx.wolf.positions):
        return False
    if h.positions == ctx.wolf.positions:
        return True
    ih = [ctx.system.ints[i] for i in h.positions]
    for g in ih:
        if not lex_positive(g) or idot(g, g) != ctx.long_norm:
            continue
        if sum(1 for x in ih if idot(g, x)) != 2:  # gamma is orthogonal to the rest of h
            continue
        perp = sum(1 for x in ctx.system.ints if not idot(g, x))
        if perp == len(ih) - 2:  # so h \ {+-gamma} is all of gamma-perp
            return True
    return False
