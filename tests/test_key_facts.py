"""Parent and subsystem facts read on lattice keys (the simple roots, the
types of a closed subsystem, the highest root, the Wolf subsystem and
Wolf recognition) against the oracles: the all-pairs simple base, the
Cartan-matrix types, the highest root by its maximality and the idot
rule of orthogonality."""
import random
from fractions import Fraction

import pytest

from oracles import cartan_types, highest_root_oracle, is_closed, simple_base, vadd, vneg, vsub
from parents import RANK_4_PARENTS
from rootsplit.catalog import build, build_sum, parse_label_sum, simple_labels_up_to
from rootsplit.linalg import idot, pack
from rootsplit.rootcore import ClosedSubsystem, lattice_root_system
from rootsplit.subalgebra import closed_subsystem, enumerate_closed_subsystems, is_wolf_pair

SIMPLE_LABELS = simple_labels_up_to(8)
#: seeded Weyl conjugates of each Wolf subsystem, and reflections per
#: conjugate per unit of rank
CONJUGATES, LETTERS_PER_RANK = 3, 4


def key_types(g, h):
    return list(g.types_of(h.positions, h.base))


def conjugate(g, positions, rng):
    """Oracle: the roots at positions under a seeded word of simple
    reflections of the oracle's base, reflected on integer tuples, as
    rational roots."""
    base = simple_base(g.ints)
    roots = [g.ints[i] for i in positions]
    for _ in range(LETTERS_PER_RANK * len(base)):
        a = rng.choice(base)
        roots = [vsub(r, tuple(2 * idot(a, r) // idot(a, a) * x for x in a)) for r in roots]
    return [tuple(Fraction(x, g.scale) for x in r) for r in roots]


@pytest.mark.parametrize("g", RANK_4_PARENTS)
def test_key_types_match_oracles_on_every_closed_subsystem(g):
    parent = build_sum(parse_label_sum(g))
    ints = parent.ints
    assert list(parent.types) == cartan_types(ints)
    for h in enumerate_closed_subsystems(parent, dedup=False):
        iroots = [ints[i] for i in h.positions]
        assert h.base == tuple(pack(a, parent.radix) for a in simple_base(iroots))
        assert key_types(parent, h) == cartan_types(iroots), iroots


@pytest.mark.parametrize("lab", SIMPLE_LABELS, ids=str)
def test_key_types_and_recognition_on_wolf_conjugates(lab):
    g = build(lab)
    ints = g.ints
    wolf = [ints[i] for i in g.wolf.positions]
    assert key_types(g, g.wolf) == cartan_types(wolf)
    rng = random.Random(str(lab))
    for _ in range(CONJUGATES):
        h = closed_subsystem(g, conjugate(g, g.wolf.positions, rng))
        iroots = [ints[i] for i in h.positions]
        assert key_types(g, h) == cartan_types(iroots), iroots
        assert is_wolf_pair(g, h), iroots


@pytest.mark.parametrize("lab", SIMPLE_LABELS, ids=str)
def test_parent_facts_match_the_tuple_rules(lab):
    g = build(lab)
    ints = g.ints
    assert g.base == tuple(pack(a, g.radix) for a in simple_base(ints))
    assert list(g.types) == cartan_types(ints) == [lab]
    assert g.long_norm == max(idot(r, r) for r in ints)
    theta = g.theta
    assert theta == highest_root_oracle(ints)
    assert g.wolf.positions == tuple(
        i for i, r in enumerate(ints) if r in (theta, vneg(theta)) or not idot(r, theta)
    )


@pytest.mark.parametrize("lab", SIMPLE_LABELS, ids=str)
def test_long_root_lemma(lab):
    # For a long gamma and a root r != +-gamma, r is orthogonal to gamma
    # iff neither r + gamma nor r - gamma is a root; +-gamma pass the
    # root test too, since 0 and +-2 gamma are no roots.
    ints = build(lab).ints
    roots, long = set(ints), max(idot(r, r) for r in ints)
    for g in ints:
        if idot(g, g) == long:
            for r in ints:
                apart = vadd(r, g) not in roots and vsub(r, g) not in roots
                assert apart == (r in (g, vneg(g)) or not idot(r, g)), (g, r)


@pytest.mark.parametrize("g", ["B2", "C3", "F4"])
def test_lemma_needs_a_long_root(g):
    # A short gamma has an orthogonal root r with r + gamma or r - gamma a
    # root, so the key test alone would not read orthogonality.
    ints = build(parse_label_sum(g)[0]).ints
    roots, long = set(ints), max(idot(r, r) for r in ints)
    assert any(
        not idot(r, s) and (vadd(r, s) in roots or vsub(r, s) in roots)
        for s in ints if idot(s, s) < long
        for r in ints
    )


@pytest.mark.parametrize("n", range(4, 9))
def test_recognition_needs_no_closure_and_reads_the_long_root(n):
    # The argument of is_wolf_pair never uses closure: once |h| is the
    # Wolf size, a long gamma orthogonal to the rest of h makes h Wolf.
    # A short gamma would not: in B_n, n >= 4, the short e1 with the roots
    # orthogonal to it and to nothing else (e1 +- r no root) makes a set
    # above the Wolf size. Of it, the first Wolf-size part holding +-e1 is
    # not closed, so it is no Weyl image of the Wolf subsystem; on closed
    # sets the long-root test changes no answer. The set is built
    # directly, bypassing the closure check.
    parent = build(parse_label_sum(f"B{n}")[0])
    ints, at, size = parent.ints, parent.at, len(parent.wolf.positions)
    e1 = (parent.scale,) + (0,) * (n - 1)
    g = pack(e1, parent.radix)
    apart = [i for i, k in enumerate(parent.keys) if k + g not in at and k - g not in at]
    assert len(apart) > size
    ends = [at[g], at[-g]]
    positions = tuple(sorted(ends + [i for i in apart if i not in ends][: size - 2]))
    assert not is_closed([parent.roots[i] for i in positions], parent)
    assert not is_wolf_pair(parent, ClosedSubsystem(parent, positions, 0, ()))


def test_a_system_keeps_its_facts():
    # A built system makes each parent fact once and keeps it; an equal
    # but distinct system makes its own.
    for lab in ("B3", "E6"):
        system = build(parse_label_sum(lab)[0])
        assert build(parse_label_sum(lab)[0]).wolf is system.wolf
        fresh = lattice_root_system(system.scale, system.ints)
        assert fresh == system and fresh is not system
        assert fresh.wolf == system.wolf and fresh.wolf is not system.wolf
        assert fresh.types == system.types and fresh.types is not system.types
