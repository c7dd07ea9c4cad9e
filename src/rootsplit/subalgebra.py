"""Equal-rank closed subsystems and isotropy weight sets.

A closed subsystem S of a root system R is negation-closed and satisfies
alpha, beta in S, alpha+beta in R  =>  alpha+beta in S. It models the root
system of an equal-rank subalgebra h (plus a central torus of dimension
torus_corank). The isotropy weights of the pair are R \\ S.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Container, Iterable

from .catalog import (
    WEYL_RANK_CAP,
    CartanLabel,
    int_component_type,
    int_components,
    int_highest_root,
    int_normalize,
    int_simple_base,
    weyl_group,
)
from .linalg import (
    IntVector,
    Matrix,
    Vector,
    common_scale,
    idot,
    int_scaled,
    lex_positive,
    rank_of,
    scale_to_int,
    vadd,
    vneg,
    vsub,
)
from .rootcore import RootsplitError, RootSystem, positive_roots


class NotClosed(RootsplitError):
    """The given subset is not closed under root addition in its parent."""


@dataclass(frozen=True)
class ClosedSubsystem:
    parent: RootSystem
    roots: tuple[Vector, ...]  # sorted
    torus_corank: int


@dataclass(frozen=True)
class IsotropyWeights:
    """W = R(g) \\ R(h); weights of the complexified isotropy representation.

    ints, the weights times scale in the same order, is the integer copy
    every step of the pair reads; scale is twice a common denominator of W.
    """

    weights: tuple[Vector, ...]  # sorted
    dim_M: int
    quaternionic_n: Fraction
    scale: int = field(compare=False)
    ints: tuple[IntVector, ...] = field(compare=False)


def _int_closed(isub: set[IntVector], iparent: Container[IntVector]) -> bool:
    """Negation- and addition-closure of isub within iparent, both scaled to
    integers by the same factor."""
    if any(vneg(a) not in isub for a in isub):
        return False
    for a, b in itertools.combinations(isub, 2):
        c = vadd(a, b)
        if c in iparent and c not in isub:
            return False
    return True


def is_closed(subset: Iterable[Vector], parent: RootSystem) -> bool:
    """Negation- and addition-closure of subset within parent."""
    s = frozenset(subset)
    if not s <= parent.root_set:
        raise ValueError("subset is not contained in the parent root system")
    scale = common_scale(parent.roots)
    return _int_closed(
        {scale_to_int(r, scale) for r in s},
        {scale_to_int(r, scale) for r in parent.roots},
    )


def closed_subsystem(ctx: ParentContext, roots: Iterable[Vector]) -> ClosedSubsystem:
    """Validated constructor on the parent of ctx, checked on its integer
    copy; raises NotClosed."""
    rs = tuple(sorted(set(roots)))
    if any(r not in ctx.int_roots for r in rs):
        raise ValueError("subset is not contained in the parent root system")
    isub = [ctx.int_roots[r] for r in rs]
    if not _int_closed(set(isub), set(ctx.int_roots.values())):
        raise NotClosed("subset is not a closed subsystem of the parent")
    return ClosedSubsystem(ctx.system, rs, ctx.rank - rank_of(isub))


def enumerate_closed_subsystems(
    parent: RootSystem, dedup: bool = True
) -> list[ClosedSubsystem]:
    """All closed subsystems of parent (including the empty set and parent
    itself), up to Weyl equivalence when dedup is set.

    Backtracking over positive-root in/out decisions with closure
    propagation; a sum of two admitted roots that is a root must be
    admitted, which prunes the subset lattice hard. A root is its index in
    parent.roots, the order that the Weyl group permutes, and a subset is
    kept as its positive roots. Dedup keeps the first subset of each Weyl
    class in search order and marks its whole orbit as seen. Every
    subsystem returned is checked for closure.
    """
    rank = parent.rank
    if dedup and rank > WEYL_RANK_CAP:
        raise ValueError(
            f"Weyl dedup of subsystems is capped at rank {WEYL_RANK_CAP}"
        )
    iroots = int_scaled(parent.roots)
    index = {r: i for i, r in enumerate(iroots)}
    neg = [index[vneg(r)] for r in iroots]
    up = [i if lex_positive(r) else neg[i] for i, r in enumerate(iroots)]
    pos = [i for i, u in enumerate(up) if u == i]
    # forced[i][j]: the positive roots that closure admits with i and j
    forced: list[list[tuple[int, ...]]] = [[()] * len(iroots) for _ in iroots]
    for i, j in itertools.combinations(pos, 2):
        a, b = iroots[i], iroots[j]
        forced[i][j] = forced[j][i] = tuple(
            up[index[c]] for c in (vadd(a, b), vsub(a, b)) if c in index
        )

    state = [0] * len(iroots)  # of a positive root: 0 undecided, 1 in, -1 out
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

    if dedup:
        perms = weyl_group(parent).elements
        seen: set[frozenset[int]] = set()
        classes = []
        for s in found:
            if s not in seen:
                classes.append(s)
                seen.update(frozenset(up[p[i]] for i in s) for p in perms)
        found = classes

    subs = []
    for s in found:
        members = sorted(s.union(neg[i] for i in s))
        isub = [iroots[i] for i in members]
        if not _int_closed(set(isub), index):
            raise NotClosed("enumerated subset is not closed")
        roots = tuple(parent.roots[i] for i in members)
        subs.append(ClosedSubsystem(parent, roots, rank - rank_of(isub)))
    subs.sort(key=lambda s: (len(s.roots), s.roots))
    return subs


def brute_force_closed_subsystems(parent: RootSystem) -> list[tuple[Vector, ...]]:
    """Exhaustive oracle: filter is_closed over all negation-closed subsets.

    Only usable for small systems (2^#positive-roots candidates); retained
    as an independent check on the backtracking enumerator.
    """
    pos = positive_roots(parent)
    out = []
    for mask in range(1 << len(pos)):
        subset = []
        for i, p in enumerate(pos):
            if mask >> i & 1:
                subset.append(p)
                subset.append(vneg(p))
        if is_closed(subset, parent):
            out.append(tuple(sorted(subset)))
    out.sort(key=lambda s: (len(s), s))
    return out


def isotropy_weights(ctx: ParentContext, h: ClosedSubsystem) -> IsotropyWeights:
    """The weight set W = R(g) \\ R(h) with derived dimensions, on the
    integer copy of the parent of ctx."""
    if h.parent is not ctx.system and h.parent != ctx.system:
        raise ValueError("subsystem does not belong to this parent")
    inside = set(h.roots)
    # the parent's roots are sorted, so W comes out sorted
    weights = tuple(r for r in ctx.system.roots if r not in inside)
    n = len(weights)
    ints = tuple(ctx.int_roots[r] for r in weights)
    return IsotropyWeights(weights, n, Fraction(n, 4), ctx.scale, ints)


def weights_from_set(weights: Iterable[Vector]) -> IsotropyWeights:
    """IsotropyWeights from a raw negation-closed weight set (for transformed
    or externally supplied inputs), on its own integer copy."""
    ws = tuple(sorted(set(weights)))
    scale = 2 * common_scale(ws)
    ints = tuple(scale_to_int(x, scale) for x in ws)
    return IsotropyWeights(ws, len(ws), Fraction(len(ws), 4), scale, ints)


def is_symmetric_pair(w: IsotropyWeights) -> bool:
    """Weight-level symmetry criterion: no two weights sum to a weight."""
    ws = set(w.ints)
    return not any(vadd(a, b) in ws for a, b in itertools.combinations(w.ints, 2))


def wolf_subsystem(parent: RootSystem) -> ClosedSubsystem:
    """The subsystem {+-theta} plus everything orthogonal to the highest
    root theta; the root datum of the Wolf pair G/N."""
    wolf = parent_context(parent).wolf
    if wolf is None:
        raise ValueError("highest_root requires an irreducible system")
    return wolf


@dataclass(frozen=True)
class ParentContext:
    """Facts about one parent g that every pair (g, h) shares, and the one
    handle on g that the pair functions take.

    Build it once per command and pass it down; it is deliberately not
    cached beyond that, so a fresh process and an in-process repeat do
    the same work. theta and wolf are None for a reducible parent;
    metric, the normalized metric matrix, is None for a reducible parent
    and for G2.
    """

    system: RootSystem
    scale: int  # twice the roots' common denominator
    int_roots: dict[Vector, tuple[int, ...]]  # root -> root times scale
    types: tuple[CartanLabel, ...]
    long_norm: int  # squared length of a long root, integer-scaled
    theta: Vector | None
    wolf: ClosedSubsystem | None
    metric: Matrix | None

    @property
    def irreducible(self) -> bool:
        return len(self.types) == 1

    @property
    def rank(self) -> int:
        return sum(t.rank for t in self.types)


def parent_context(system: RootSystem) -> ParentContext:
    """Compute the per-parent facts of system from one integer copy, at
    twice the common denominator so that half a difference of two roots
    is integral (the tests on it compare ratios, which doubling keeps)."""
    scale = 2 * common_scale(system.roots)
    iroots = [scale_to_int(r, scale) for r in system.roots]
    int_roots = dict(zip(system.roots, iroots))
    comps = int_components(iroots)
    types = tuple(sorted(int_component_type(c) for c in comps))
    theta = wolf = metric = None
    if len(types) == 1:
        base = int_simple_base(iroots)
        itheta = int_highest_root(iroots, base)
        theta = system.roots[iroots.index(itheta)]
        ends = (itheta, vneg(itheta))
        roots = tuple(
            r for r, ir in int_roots.items() if ir in ends or not idot(ir, itheta)
        )
        iwolf = [int_roots[r] for r in roots]
        if not _int_closed(set(iwolf), set(iroots)):
            raise NotClosed("the Wolf subsystem is not closed")
        wolf = ClosedSubsystem(system, roots, len(base) - rank_of(iwolf))
        if types != (CartanLabel("G", 2),):
            metric = int_normalize(comps, scale)
    long_norm = max(idot(v, v) for v in iroots)
    return ParentContext(system, scale, int_roots, types, long_norm, theta, wolf, metric)


def is_wolf_pair(ctx: ParentContext, h: ClosedSubsystem) -> bool:
    """True iff h is Weyl-equivalent to the Wolf subsystem of the parent.

    Long roots form one Weyl orbit, so h is Wolf exactly when R(h) is
    {+-gamma} plus every root orthogonal to gamma, for some long root
    gamma; such a gamma spans an A1 component of h. No Weyl group is
    needed.
    """
    if ctx.wolf is None:
        raise ValueError("is_wolf_pair requires an irreducible parent")
    if len(h.roots) != len(ctx.wolf.roots):
        return False
    if h.roots == ctx.wolf.roots:
        return True
    ih = [ctx.int_roots[r] for r in h.roots]
    for r, g in zip(h.roots, ih):
        if not lex_positive(r) or idot(g, g) != ctx.long_norm:
            continue
        if sum(1 for x in ih if idot(g, x)) != 2:  # gamma is orthogonal to the rest of h
            continue
        perp = sum(1 for x in ctx.int_roots.values() if not idot(g, x))
        if perp == len(ih) - 2:  # so h \ {+-gamma} is all of gamma-perp
            return True
    return False
