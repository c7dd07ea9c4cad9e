"""Axioms, validation, simple reflections and the integer copy of a root
system (rootcore), and the test oracles' inner product, reflection, Cartan
numbers, pair trichotomy and reflection closure (oracles)."""
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from oracles import (
    NormscalViolation,
    cartan_int,
    catalog_roots,
    coefficient_parities,
    dot,
    pair_class,
    reflect,
    reflection_closure,
)
from parents import RANK_4_PARENTS
from rootsplit import rootcore
from rootsplit.linalg import int_rank, vec
from rootsplit.catalog import (
    build,
    build_sum,
    direct_sum,
    label,
    parse_label_sum,
    simple_labels_up_to,
)
from rootsplit.rootcore import (
    CartanLabel,
    lattice_root_system,
    make_root_system,
    type_by_counts,
    validate_root_system,
)
from rootsplit.subalgebra import enumerate_closed_subsystems

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)
small_vecs = st.lists(rationals, min_size=2, max_size=4).map(lambda xs: vec(*xs))


class TestInner:
    def test_orthonormal_basis(self):
        assert dot(vec(1, 0, 0), vec(0, 1, 0)) == 0

    def test_length_squared(self):
        assert dot(vec(1, -1, 0), vec(1, -1, 0)) == 2

    def test_direct_expansion(self):
        assert dot(vec(1, 1, 1), vec(1, 1, -1)) == 1

    @given(small_vecs, small_vecs)
    def test_symmetric(self, u, v):
        if len(u) == len(v):
            assert dot(u, v) == dot(v, u)


class TestReflect:
    def test_negates_axis(self):
        a = vec(1, -1, 0)
        assert reflect(a, a) == vec(-1, 1, 0)

    def test_fixes_orthogonal_hyperplane(self):
        v = vec(1, 1, 0)
        assert reflect(v, vec(1, -1, 0)) == v

    def test_swaps_coordinates(self):
        assert reflect(vec(1, 0, 0), vec(1, -1, 0)) == vec(0, 1, 0)

    @given(small_vecs, small_vecs)
    def test_involution_and_isometry(self, v, a):
        if len(v) != len(a) or dot(a, a) == 0:
            return
        w = reflect(v, a)
        assert reflect(w, a) == v
        assert dot(w, w) == dot(v, v)


class TestCartanInt:
    def test_self_is_two(self):
        assert cartan_int(vec(1, -1, 0), vec(1, -1, 0)) == 2

    def test_adjacent_simple_roots(self):
        assert cartan_int(vec(1, -1, 0), vec(0, 1, -1)) == -1

    def test_exact_fraction(self):
        # Not an integer for arbitrary vectors: the function itself is exact.
        assert cartan_int(vec(3, 0), vec(1, 0)) == Fraction(2, 3)


class TestValidate:
    def test_catalog_b3_is_clean(self):
        assert validate_root_system(build(label("B", 3)).roots).ok

    def test_missing_negative_fails_reflection_closure(self):
        report = validate_root_system([vec(1)])
        assert not report.ok
        assert any(v.axiom == "R4" for v in report.violations)

    def test_forbidden_multiple(self):
        report = validate_root_system(
            [vec(1), vec(-1), vec(2), vec(-2)]
        )
        assert not report.ok
        assert any(v.axiom == "R2" for v in report.violations)

    def test_zero_vector_rejected(self):
        assert not validate_root_system([vec(0, 0), vec(1, 0), vec(-1, 0)]).ok


class TestClassifyPair:
    def test_equal_length_adjacent(self):
        pc = pair_class(vec(1, -1, 0), vec(0, 1, -1))
        assert (pc.kind, pc.cartan_value) == ("ratio1", -1)

    def test_orthogonal(self):
        assert pair_class(vec(1, -1), vec(1, 1)).kind == "orthogonal"

    def test_ratio_two(self):
        pc = pair_class(vec(1, 0), vec(1, 1))
        assert pc.kind == "ratio2"
        assert abs(pc.cartan_value) == 2

    def test_ratio_three(self):
        g2 = build(label("G", 2))
        short = min(g2.roots, key=lambda r: dot(r, r))
        long_adj = next(
            r for r in g2.roots
            if dot(r, r) == 3 * dot(short, short) and dot(r, short) != 0
        )
        pc = pair_class(short, long_adj)
        assert pc.kind == "ratio3"
        assert abs(pc.cartan_value) == 3

    def test_violation_raises(self):
        with pytest.raises(NormscalViolation):
            pair_class(vec(1, 0), vec(1, 2))


class TestReflectionClosure:
    def test_a2_from_simple_roots(self):
        closure = reflection_closure([vec(1, -1, 0), vec(0, 1, -1)])
        assert closure == build(label("A", 2)).root_set

    def test_idempotent_on_valid_system(self):
        roots = build(label("B", 2)).root_set
        assert reflection_closure(roots) == roots

    def test_rank_one(self):
        assert reflection_closure([vec(1), vec(-1)]) == frozenset(
            [vec(1), vec(-1)]
        )


#: every catalog label through rank 8 and every g of rank <= 4
COPY_SPECS = list(dict.fromkeys([str(l) for l in simple_labels_up_to(8)] + RANK_4_PARENTS))


class TestIntegerCopy:
    @pytest.mark.parametrize("g", COPY_SPECS)
    def test_one_copy_at_twice_the_common_denominator(self, g):
        # The expected copy is computed here from the rational roots.
        system = build_sum(parse_label_sum(g))
        scale = 2 * lcm(*(a.denominator for r in system.roots for a in r))
        assert system.scale == scale
        assert system.ints == tuple(tuple(a * scale for a in r) for r in system.roots)
        assert all(type(a) is int for r in system.ints for a in r)


def neg(v):
    return tuple(-a for a in v)


def agree(scale, roots):
    """The fast axiom check of the distinct nonzero integer roots, asserted
    to accept exactly when the pairwise scan finds no violation."""
    ints = tuple(sorted(roots))
    fast = rootcore._axioms_hold(rootcore.RootSystem(len(ints[0]), scale, ints))
    assert fast == (not rootcore._axiom_violations(scale, ints)), ints
    return fast


def mutated(rng, roots):
    """roots after one of: drop a root, drop a root and its negative, add a
    sum of two roots and its negative, add twice a root."""
    roots = set(roots)
    r = rng.choice(sorted(roots))
    kind = rng.randrange(4)
    if kind == 0:
        roots.discard(r)
    elif kind == 1:
        roots -= {r, neg(r)}
    elif kind == 2:
        s = tuple(a + b for a, b in zip(r, rng.choice(sorted(roots))))
        if any(s):
            roots |= {s, neg(s)}
    else:
        roots.add(tuple(2 * a for a in r))
    return roots


#: the sources of the mutated sets: many of each g of rank <= 4, a few of
#: each simple g of rank 5 and 6, whose pairwise scans cost the most
MUTATION_SOURCES = [g for g in RANK_4_PARENTS for _ in range(66)] + [
    str(l) for l in simple_labels_up_to(6) if l.rank > 4 for _ in range(8)
]

#: small integer vectors: the plane with coordinates up to 2, and space
#: with coordinates up to 1 (A3, B3 and their subsystems live there)
SMALL_POOLS = [
    [v for v in itertools.product(range(-2, 3), repeat=2) if any(v)],
    [v for v in itertools.product(range(-1, 2), repeat=3) if any(v)],
]
small_sets = st.one_of(
    *(st.sets(st.sampled_from(pool), min_size=1, max_size=10) for pool in SMALL_POOLS)
)


class TestFastAxiomCheck:
    """rootcore._axioms_hold, the O(|R|*rank) check of R2-R4, against the
    O(|R|^2) pairwise scan rootcore._axiom_violations."""

    @pytest.mark.parametrize("g", COPY_SPECS)
    def test_catalog_and_products_accepted(self, g):
        system = build_sum(parse_label_sum(g))
        assert agree(system.scale, system.ints)

    @pytest.mark.parametrize("g", RANK_4_PARENTS)
    def test_every_closed_subsystem_accepted(self, g):
        system = build_sum(parse_label_sum(g))
        for h in enumerate_closed_subsystems(system, dedup=False):
            if h.positions:
                own = make_root_system(h.roots)
                assert agree(own.scale, own.ints)

    def test_mutated_sets_agree(self):
        rng = random.Random(0)
        verdicts = []
        for g in MUTATION_SOURCES:
            system = build_sum(parse_label_sum(g))
            roots = mutated(rng, system.ints)
            if roots and rng.randrange(2):
                roots = mutated(rng, roots)
            if roots:
                verdicts.append(agree(system.scale, roots))
        assert len(verdicts) >= 2000
        assert 0 < sum(verdicts) < len(verdicts)

    def test_cartan_number_four_refused(self):
        # 2<a,b>/<a,a> = 4 for a = (1,0), b = (2,1): an integer, but no
        # reduced root system has it, and the scan finds R3 on (b, a).
        assert not agree(1, {(1, 0), (-1, 0), (2, 1), (-2, -1)})

    @given(small_sets, st.booleans())
    def test_accepts_iff_the_scan_finds_nothing(self, roots, symmetric):
        agree(1, roots | {neg(r) for r in roots} if symmetric else roots)

    def test_valid_input_never_reaches_the_scan(self, monkeypatch):
        def scan(*args):
            raise AssertionError("the pairwise scan ran on a valid system")

        monkeypatch.setattr(rootcore, "_axiom_violations", scan)
        for g in COPY_SPECS:
            # build's cache is bypassed, so every label is built and checked here
            system = direct_sum([build.__wrapped__(l) for l in parse_label_sum(g)])
            assert validate_root_system(system.roots).ok, g


#: the oracle's roots of A-D at any rank, doubled to integers on scale 2
SERIES_ROOTS = {
    s: lambda n, s=s: {tuple(int(2 * a) for a in r) for r in catalog_roots(CartanLabel(s, n))}
    for s in "ABCD"
}


class TestBeyondTheCatalogRank:
    """The axiom check on the classical series past the catalog's rank 8."""

    @pytest.mark.parametrize("n", [9, 12, 16])
    @pytest.mark.parametrize("series", sorted(SERIES_ROOTS))
    def test_accepted_at_rank_n(self, series, n):
        system = lattice_root_system(2, SERIES_ROOTS[series](n))
        assert int_rank(system.ints) == n

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("series", sorted(SERIES_ROOTS))
    def test_missing_pair_rejected(self, series, n):
        roots = SERIES_ROOTS[series](n)
        top = max(roots)
        with pytest.raises(ValueError, match="not a root system"):
            lattice_root_system(2, roots - {top, neg(top)})

    def test_catalog_keeps_its_rank_cap(self):
        with pytest.raises(ValueError, match="rank <= 8"):
            build(label("A", 9))

    @pytest.mark.parametrize("n", [9, 12, 16])
    @pytest.mark.parametrize("series", sorted(SERIES_ROOTS))
    def test_typed_at_rank_n(self, series, n):
        system = lattice_root_system(2, SERIES_ROOTS[series](n))
        assert system.types == (CartanLabel(series, n),)

    @pytest.mark.parametrize("n", [9, 12, 16])
    @pytest.mark.parametrize("series", sorted(SERIES_ROOTS))
    def test_parities_at_rank_n(self, series, n):
        check_parities(lattice_root_system(2, SERIES_ROOTS[series](n)))


def check_parities(system):
    """The walk reaches every root, and each mask is the parity of the
    root's simple coefficients, solved for apart from the keys."""
    oracle = coefficient_parities(system.ints)
    assert system.parities == tuple(oracle[r] for r in system.ints)


class TestParities:
    @pytest.mark.parametrize("lab", simple_labels_up_to(8), ids=str)
    def test_every_label(self, lab):
        check_parities(build(lab))

    @pytest.mark.parametrize("g", ["A1+A1", "B2+G2", "A2+C3"])
    def test_product_parents(self, g):
        check_parities(build_sum(parse_label_sum(g)))

    def test_an_unreached_root_raises(self):
        # a system whose base misses a simple root: the walk cannot reach
        # the roots that need it
        system = build.__wrapped__(label("A", 3))
        vars(system)["base"] = system.base[:1]
        with pytest.raises(ValueError, match="not reached from the simple roots"):
            system.parities


class TestTypeByCounts:
    """type_by_counts decodes (rank, |R|, long roots) by closed formulas."""

    @pytest.mark.parametrize("key,name", [
        ((1, 2, 2), "A1"),  # also B1 and C1
        ((2, 8, 4), "B2"),  # also C2
        ((3, 12, 12), "A3"),  # also D3
    ])
    def test_aliases_resolve_to_the_admitted_label(self, key, name):
        assert str(type_by_counts(*key)) == name

    @pytest.mark.parametrize("key", [
        (0, 0, 0), (1, 0, 0), (1, 2, 0), (2, 4, 4), (3, 48, 24), (5, 72, 72),
        (9, 240, 240), (2, 12, 12), (4, 32, 20),
    ])
    def test_a_key_no_type_has_raises(self, key):
        with pytest.raises(ValueError, match="matches no simple type"):
            type_by_counts(*key)
