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
from typing import Iterable

from .catalog import WEYL_RANK_CAP
from .linalg import IntVector, Vector, int_copy, lattice_radix, pack, scale_to_int
from .rootcore import ClosedSubsystem, RootSystem, _subsystem


@dataclass(frozen=True)
class IsotropyWeights:
    """W = R(g) \\ R(h); weights of the complexified isotropy representation.

    ints are the weights on scale (twice a common denominator of W),
    sorted, and keys their lattice keys (linalg.pack) at radix, which
    every lookup reads; a weight is named by its position in that order.
    weights is a rational view. symmetric is the answer of the parity test
    of isotropy_weights for a W cut from a parent, and None for one given
    from outside. index and triple are made when first read: triple is
    None without a scan when symmetric is True, and otherwise scans the
    pair sums once, stopping at the first that lies in W; listing W never
    scans, and no table of pair sums is kept. tables maps each certificate
    splitting.find_splittings found on W to the generation table that
    verified it, which case_analysis reads.
    """

    dim_M: int
    scale: int
    ints: tuple[IntVector, ...]
    keys: tuple[int, ...]
    radix: int
    symmetric: bool | None

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
        lexicographic order, whose sum lies in W; None if there is none,
        with no scan when symmetric is True."""
        if self.symmetric:
            return None
        keys, index = self.keys, self.index
        for i, a in enumerate(keys):
            for j in range(i, len(keys)):
                k = index.get(a + keys[j])
                if k is not None:
                    return i, j, k
        return None


def closed_subsystem(g: RootSystem, roots: Iterable[Vector]) -> ClosedSubsystem:
    """Validated constructor on the parent g from rational roots (a JSON
    h); raises rootcore.NotClosed. Each root is checked for the parent's
    dimension, put onto the parent's scale once and found by its lattice
    key; the dimension check comes first, since keys of different lengths
    alias."""
    positions = set()
    try:
        for r in roots:
            if len(r) != g.ambient_dim:  # a root of another length has no key here
                raise KeyError(r)
            positions.add(g.at[pack(scale_to_int(r, g.scale), g.radix)])
    except (KeyError, ValueError):  # no root, or off the scale or the key bound
        raise ValueError("subset is not contained in the parent root system") from None
    return _subsystem(g, sorted(positions), "subset is not a closed subsystem of the parent")


def enumerate_closed_subsystems(
    g: RootSystem, dedup: bool = True
) -> list[ClosedSubsystem]:
    """All closed subsystems of the parent g (including the empty set
    and the parent itself), up to Weyl equivalence when dedup is set.

    Backtracking over positive-root in/out decisions with closure
    propagation; a sum of two admitted roots that is a root must be
    admitted, which prunes the subset lattice hard. A root is its position
    in the parent's integer roots and a subset is kept as its positive
    roots. The tables the search reads are the parent's, made once per
    built system (RootSystem.closure_table), so a call runs only the search.
    Dedup keeps the first subset of each Weyl class in search order and
    marks its orbit as seen by closing it under the parent's simple
    reflections, with no Weyl group built; the rank cap stays, since the
    search still lists every closed subset. Every subsystem returned is
    checked for closure.
    """
    if dedup and g.rank > WEYL_RANK_CAP:
        raise ValueError(
            f"Weyl dedup of subsystems is capped at rank {WEYL_RANK_CAP}"
        )
    neg, pos, forced, gens = g.closure_table
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
                    images = {frozenset(s_a[i] for i in t) for t in frontier for s_a in gens}
                    frontier = images - seen
        found = classes

    subs = [
        _subsystem(g, sorted(s.union(neg[i] for i in s)), "enumerated subset is not closed")
        for s in found
    ]
    subs.sort(key=lambda s: (len(s.positions), s.positions))  # as by roots: those are sorted
    return subs


def isotropy_weights(g: RootSystem, h: ClosedSubsystem) -> IsotropyWeights:
    """The weight set W = R(g) \\ R(h) on the integer roots of the parent
    g: the positions outside h, and whether no two weights sum to a
    weight (symmetric), read off the parent's parities in O(|R|).

    With S the simple roots of g outside h, W is symmetric iff a root
    lies in W exactly when its coefficients on S have an odd sum. Proof:
    h is closed, so h + h stays in h and h + W in W (else a weight is a
    root of h minus one). So W is symmetric iff the indicator of W is
    additive mod 2 on the root triples a + b = c. Every positive root is
    a chain of simple-root additions (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 10.2 Corollary), so that holds
    iff the indicator is the coefficient parity on S, which is additive.
    """
    if h.parent is not g and h.parent != g:
        raise ValueError("subsystem does not belong to this parent")
    outside = [True] * len(g.keys)
    for i in h.positions:
        outside[i] = False
    s = sum(1 << i for i, a in enumerate(g.base) if outside[g.at[a]])
    symmetric = [(p & s).bit_count() & 1 for p in g.parities] == outside  # 1 == True, 0 == False
    # the parent's roots are sorted, so W comes out sorted
    ints = tuple(itertools.compress(g.ints, outside))
    keys = tuple(itertools.compress(g.keys, outside))
    return IsotropyWeights(len(ints), g.scale, ints, keys, g.radix, symmetric)


def weights_from_set(weights: Iterable[Vector]) -> IsotropyWeights:
    """IsotropyWeights from a raw negation-closed weight set (for transformed
    or externally supplied inputs), converted once onto its own scale;
    raises ValueError if the weights differ in dimension. With no parent,
    its symmetry is left to the pair-sum scan of triple."""
    scale, ints = int_copy(sorted(set(weights)))
    radix = lattice_radix(ints)
    keys = tuple(pack(x, radix) for x in ints)
    return IsotropyWeights(len(ints), scale, ints, keys, radix, None)


def is_symmetric_pair(w: IsotropyWeights) -> bool:
    """Weight-level symmetry criterion: no two weights sum to a weight.

    On a W cut from a parent that the parity test of isotropy_weights
    found symmetric it makes no pair-sum lookup; otherwise it scans the
    pair sums up to the first triple (w.triple). The scan also counts
    w + w; that changes no answer, since if 2w is in the negation-closed
    W, so is (-w) + 2w = w.
    """
    return w.triple is None


def wolf_subsystem(g: RootSystem) -> ClosedSubsystem:
    """The subsystem {+-theta} plus everything orthogonal to the highest
    root theta; the root datum of the Wolf pair G/N."""
    return g.wolf


def is_wolf_pair(g: RootSystem, h: ClosedSubsystem) -> bool:
    """True iff h is Weyl-equivalent to the Wolf subsystem of the parent.

    Long roots form one Weyl orbit, so h is Wolf exactly when R(h) is
    {+-gamma} plus every root orthogonal to gamma, for some long root
    gamma; such a gamma spans an A1 component of h. Once |h| is the Wolf
    size, a long gamma in h orthogonal to the rest of h suffices: h lies
    in {+-gamma} plus the roots orthogonal to gamma, a set of the Wolf
    size since gamma is conjugate to theta, so h is that set. All of it
    is read on keys: gamma is long by the norm table, and, gamma being
    long, a root x is orthogonal to it or +-gamma iff neither x + gamma
    nor x - gamma is a root (RootSystem.wolf has the argument). No
    Weyl group is needed and no root outside h is read. A reducible
    parent raises ValueError.
    """
    if len(h.positions) != len(g.wolf.positions):
        return False
    if h.positions == g.wolf.positions:
        return True
    at, norms, hk = g.at, g.norms, [g.keys[i] for i in h.positions]
    return any(  # a long gamma orthogonal to the rest of h
        gamma > 0 and norms[p] == g.long_norm
        and not any(x + gamma in at or x - gamma in at for x in hk)
        for p, gamma in zip(h.positions, hk)
    )
