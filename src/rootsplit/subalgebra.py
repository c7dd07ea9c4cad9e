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
from typing import Container, Iterable, NamedTuple, Sequence

from .catalog import WEYL_RANK_CAP, CartanLabel, type_by_counts
from .linalg import IntVector, Vector, int_copy, lattice_radix, pack, scale_to_int
from .rootcore import RootsplitError, RootSystem, simple_keys


class NotClosed(RootsplitError):
    """The given subset is not closed under root addition in its parent."""


class ClosedSubsystem(NamedTuple):
    """The roots of parent at the sorted positions in parent.ints, and the
    rank of the central torus of h; base holds the lattice keys of h's
    simple roots (rootcore.simple_keys), which its typing reads. base
    follows from positions on one parent, so it takes part in equality and
    the hash like the other fields. roots is a rational view, made on each
    read."""

    parent: RootSystem
    positions: tuple[int, ...]
    torus_corank: int
    base: tuple[int, ...]

    @property
    def roots(self) -> tuple[Vector, ...]:
        return tuple(self.parent.roots[i] for i in self.positions)


@dataclass(frozen=True)
class IsotropyWeights:
    """W = R(g) \\ R(h); weights of the complexified isotropy representation.

    ints are the weights on scale (twice a common denominator of W),
    sorted, and keys their lattice keys (linalg.pack), which every lookup
    reads; a weight is named by its position in that order. weights is a
    rational view. index and triple are made when first read, so each W
    scans its pair sums at most once, stopping at the first that lies in
    W, and listing W never does; no table of pair sums is kept. tables
    maps each certificate splitting.find_splittings found on W to the
    generation table that verified it, which case_analysis reads.
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
    def tables(self) -> dict:
        return {}

    @cached_property
    def index(self) -> dict[int, int]:
        """Each weight's key mapped to its position."""
        return {k: i for i, k in enumerate(self.keys)}

    @cached_property
    def triple(self) -> tuple[int, int, int] | None:
        """(i, j, k) with w_i + w_j = w_k for the least (i, j), i <= j, in
        lexicographic order, whose sum lies in W; None if there is none."""
        keys, index = self.keys, self.index
        for i, a in enumerate(keys):
            for j in range(i, len(keys)):
                k = index.get(a + keys[j])
                if k is not None:
                    return i, j, k
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
    of simple roots."""
    system = ctx.system
    keys = [system.keys[i] for i in positions]
    if not _closed(keys, system.at):
        raise NotClosed(error)
    base = simple_keys(keys, set(keys))
    return ClosedSubsystem(system, tuple(positions), system.rank - len(base), base)


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
            positions.add(system.at[pack(scale_to_int(r, system.scale), system.radix)])
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
    roots. The tables the search reads are the parent's, made once per
    context (ParentContext.closure_table), so a call runs only the search.
    Dedup keeps the first subset of each Weyl class in search order and
    marks its orbit as seen by closing it under the parent's simple
    reflections, with no Weyl group built; the rank cap stays, since the
    search still lists every closed subset. Every subsystem returned is
    checked for closure.
    """
    if dedup and ctx.system.rank > WEYL_RANK_CAP:
        raise ValueError(
            f"Weyl dedup of subsystems is capped at rank {WEYL_RANK_CAP}"
        )
    neg, pos, forced, gens = ctx.closure_table
    state = [0] * len(neg)  # of a positive root: 0 undecided, 1 in, -1 out
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
    system = ctx.system
    outside = [True] * len(system.keys)
    for i in h.positions:
        outside[i] = False
    # the parent's roots are sorted, so W comes out sorted
    ints = tuple(itertools.compress(system.ints, outside))
    keys = tuple(itertools.compress(system.keys, outside))
    return IsotropyWeights(len(ints), system.scale, ints, keys)


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


@dataclass(frozen=True, eq=False)
class ParentContext:
    """Facts about one parent g that every pair (g, h) shares, and the one
    handle on g that the pair functions take.

    A system has one context (parent_context, RootSystem.context), made
    on first use and kept on the system, so each fact below is made once
    per built system, not once per command or pair; two equal but
    distinct systems have two. catalog.build and catalog.build_sum keep
    each system they build, so its context, for the whole process.
    What the axiom check makes lives on the system and is read there:
    system.keys, the lattice keys of system.ints, system.at, a key back to
    its position, system.base, the keys of the simple roots, and
    system.reflections, the simple reflections. A root is named by its
    position in system.ints, which norms, the one table of squared
    lengths, follows. Every fact below is found on the keys; components_of
    is the one grouping into components, which types_of and catalog read.
    types, long_norm, theta (the last root), wolf and closure_table are
    built on first read; theta and wolf, which only the Wolf pair reads,
    raise ValueError for a reducible parent. long_norm is read by Wolf
    recognition and by the constraint values, which take the normalized
    metric as 2 / long_norm times the standard one. Contexts compare and
    hash by identity, as handles do; a context stays a dataclass for its
    cached_property facts.
    """

    system: RootSystem
    norms: tuple[int, ...]  # idot(r, r) of each integer root, in order

    @property
    def irreducible(self) -> bool:
        return len(self.types) == 1

    @cached_property
    def long_norm(self) -> int:  # squared length of a long root, integer-scaled
        return max(self.norms)

    @cached_property
    def types(self) -> tuple[CartanLabel, ...]:
        return self.types_of(range(len(self.system.keys)), self.system.base)

    def components_of(
        self, positions: Sequence[int], base: Sequence[int]
    ) -> list[tuple[int, list[int]]]:
        """(rank, positive positions) of each component of the closed set
        at positions, whose simple roots have the keys base. Two simple
        roots are joined in the Dynkin diagram iff their sum is in the set;
        a connected diagram is one component of every root, and otherwise
        each positive root k goes with the first simple root a with k = a
        or k - a in the set: a positive root that is not simple is a
        positive root plus a simple one (rootcore.simple_keys), and a
        sum of roots of two components is no root. A root's negative is in
        its component."""
        keys = self.system.keys
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
        A component's type is the lookup of its rank, size and number of
        long roots (catalog.type_by_counts), each twice its positive
        roots', since a root's negative shares its norm."""
        types = []
        for rank, ps in self.components_of(positions, base):
            ns = [self.norms[p] for p in ps]
            types.append(type_by_counts(rank, 2 * len(ns), 2 * ns.count(max(ns))))
        return tuple(sorted(types))

    @cached_property
    def theta(self) -> IntVector:
        """The highest root, the last of system.ints: theta - r is a sum of
        simple roots, which are lexicographically positive, for every root
        r (Humphreys, Introduction to Lie Algebras, 10.4 Lemma A)."""
        if not self.irreducible:
            raise ValueError("highest_root requires an irreducible system")
        return self.system.ints[-1]

    @cached_property
    def wolf(self) -> ClosedSubsystem:  # {+-theta} and the roots orthogonal to theta
        # For a long root gamma and a root r != +-gamma, <r, gamma check> is
        # -1, 0 or 1, and it is 0 iff neither r + gamma nor r - gamma is a
        # root (were r + gamma a root, <r + gamma, gamma check> = 2 would
        # make it gamma). +-theta pass the same test: 0 and +-2 theta are
        # no roots. theta is the last root, so its key is the last key.
        self.theta  # a reducible parent has no theta: ValueError
        keys, at = self.system.keys, self.system.at
        t = keys[-1]
        positions = tuple(i for i, k in enumerate(keys) if k + t not in at and k - t not in at)
        return _subsystem(self, positions, "the Wolf subsystem is not closed")

    @cached_property
    def closure_table(self) -> tuple:
        """The tables of enumerate_closed_subsystems, on root positions:
        neg[i], the position of -root i; pos, the positive roots in order;
        forced[i][j], the positive roots that closure admits with positive
        roots i and j (their sum and difference, found on the keys, where a
        root is positive iff its key is); gens, each simple reflection as a
        map of positive roots to the positive roots of their images, under
        which Weyl dedup closes a class. They stay lists, which the search
        only reads: a copy into tuples made them 10-20% slower to build."""
        keys, at = self.system.keys, self.system.at
        neg = [at[-k] for k in keys]
        up = [i if k > 0 else neg[i] for i, k in enumerate(keys)]  # the positive one of +-i
        pos = [i for i, u in enumerate(up) if u == i]
        forced: list[list[tuple[int, ...]]] = [[()] * len(keys) for _ in keys]
        for i, j in itertools.combinations(pos, 2):
            a, b = keys[i], keys[j]
            forced[i][j] = forced[j][i] = tuple(up[at[c]] for c in (a + b, a - b) if c in at)
        gens = [[up[j] for j in p] for p in self.system.reflections]
        return neg, pos, forced, gens


def parent_context(system: RootSystem) -> ParentContext:
    """The one context of system, RootSystem.context: made on the first
    call and kept on the system, as the system keeps its keys."""
    return system.context


def is_wolf_pair(ctx: ParentContext, h: ClosedSubsystem) -> bool:
    """True iff h is Weyl-equivalent to the Wolf subsystem of the parent.

    Long roots form one Weyl orbit, so h is Wolf exactly when R(h) is
    {+-gamma} plus every root orthogonal to gamma, for some long root
    gamma; such a gamma spans an A1 component of h. Once |h| is the Wolf
    size, a long gamma in h orthogonal to the rest of h suffices: h lies
    in {+-gamma} plus the roots orthogonal to gamma, a set of the Wolf
    size since gamma is conjugate to theta, so h is that set. All of it
    is read on keys: gamma is long by the norm table, and, gamma being
    long, a root x is orthogonal to it or +-gamma iff neither x + gamma
    nor x - gamma is a root (ParentContext.wolf has the argument). No
    Weyl group is needed and no root outside h is read. A reducible
    parent raises ValueError.
    """
    if len(h.positions) != len(ctx.wolf.positions):
        return False
    if h.positions == ctx.wolf.positions:
        return True
    at, norms, hk = ctx.system.at, ctx.norms, [ctx.system.keys[i] for i in h.positions]
    return any(  # a long gamma orthogonal to the rest of h
        g > 0 and norms[p] == ctx.long_norm and not any(x + g in at or x - g in at for x in hk)
        for p, g in zip(h.positions, hk)
    )
