"""Closed subsystems, isotropy weights, symmetric and Wolf pairs."""
import itertools

import pytest

from oracles import brute_force_closed_subsystems, dot, fraction_rank, is_closed
from parents import RANK_4_PARENTS
from rootsplit.linalg import int_rank, vec
from rootsplit.catalog import (
    build,
    build_sum,
    identify_type,
    label,
    parse_label_sum,
    simple_labels_up_to,
    weyl_group,
)
from rootsplit import catalog, rootcore
from rootsplit.pipeline import classify_all, classify_pair
from rootsplit.rootcore import NotClosed, lattice_root_system, make_root_system
from rootsplit.subalgebra import (
    closed_subsystem,
    enumerate_closed_subsystems,
    is_symmetric_pair,
    is_wolf_pair,
    isotropy_weights,
    weights_from_set,
    wolf_subsystem,
)


def weyl_canonical(wg, roots):
    """Oracle: the least sorted image of roots under W, as root indices;
    two subsystems are Weyl-conjugate exactly when these agree."""
    index = {r: i for i, r in enumerate(wg.roots)}
    members = [index[r] for r in roots]
    return min(tuple(sorted(perm[i] for i in members)) for perm in wg.elements)


def orbit_marking_classes(g):
    """Oracle: Weyl dedup by full-group orbit marking. The enumerator
    decides the positive roots in position order and leaves each out
    before it takes it in, so its search order puts first the subsystem
    whose positive-root indicator vector is least; in that order, keep
    the first subsystem of each class and mark its image under every
    element of the full Weyl group as seen."""
    perms = weyl_group(g).elements
    pos = [i for i, k in enumerate(g.keys) if k > 0]
    found = sorted(
        enumerate_closed_subsystems(g, dedup=False),
        key=lambda h: [i in h.positions for i in pos],
    )
    seen = set()
    classes = []
    for h in found:
        if frozenset(h.positions) not in seen:
            classes.append(h)
            seen.update(frozenset(p[i] for i in h.positions) for p in perms)
    return sorted(classes, key=lambda h: (len(h.positions), h.positions))


def int_rank_corank(g, h):
    """Oracle: the torus corank of h by elimination on the integer copy."""
    return g.rank - int_rank([g.ints[i] for i in h.positions])


def u3_embedding(g):
    """The sum-zero roots of B3: a closed A2 subsystem."""
    return closed_subsystem(g, [r for r in g.roots if sum(r) == 0])


class TestIsClosed:
    def test_empty_set(self):
        assert is_closed([], build(label("B", 2)))

    def test_short_roots_of_b2_not_closed(self):
        b2 = build(label("B", 2))
        assert not is_closed([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], b2)

    def test_single_pair_in_a2(self):
        a2 = build(label("A", 2))
        assert is_closed([vec(1, -1, 0), vec(-1, 1, 0)], a2)

    def test_factory_rejects_open_set(self):
        b2 = build(label("B", 2))
        with pytest.raises(NotClosed):
            closed_subsystem(b2, [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)])

    def test_factory_rejects_non_negation_closed(self):
        a2 = build(label("A", 2))
        with pytest.raises(NotClosed):
            closed_subsystem(a2, [vec(1, -1, 0)])

    def test_factory_rejects_foreign_root(self):
        g2 = build(label("G", 2))
        with pytest.raises(ValueError, match="not contained in the parent"):
            closed_subsystem(g2, [vec(1, 2)])

    def test_factory_rejects_root_past_the_last(self):
        # beyond the largest parent root, bisection lands past the end
        a2 = build(label("A", 2))
        with pytest.raises(ValueError, match="not contained in the parent"):
            closed_subsystem(a2, [vec(9, 9, 9), vec(-9, -9, -9)])

    @pytest.mark.parametrize("g", RANK_4_PARENTS)
    def test_factory_matches_rational_oracle(self, g):
        # Oracle: is_closed and fraction_rank on the rational roots, apart
        # from the integer copy, and int_rank on that copy, apart from
        # the simple roots counted on its lattice keys.
        parent = build_sum(parse_label_sum(g))
        rank = fraction_rank(parent.roots)
        for h in enumerate_closed_subsystems(parent, dedup=False):
            built = closed_subsystem(parent, h.roots)
            assert is_closed(built.roots, parent)
            assert built.torus_corank == rank - fraction_rank(h.roots)
            assert h.torus_corank == int_rank_corank(parent, h)
            assert built == h
            assert built.positions == h.positions
            assert tuple(parent.roots[i] for i in h.positions) == h.roots


class TestEnumeration:
    def test_a1_classes(self):
        a1 = build(label("A", 1))
        classes = enumerate_closed_subsystems(a1)
        assert sorted(len(c.roots) for c in classes) == [0, 2]

    def test_g2_classes(self):
        g2 = build(label("G", 2))
        classes = enumerate_closed_subsystems(g2)
        types = sorted(
            "+".join(str(l) for l in identify_type(make_root_system(c.roots)))
            if c.roots else "0"
            for c in classes
        )
        assert types == ["0", "A1", "A1", "A1+A1", "A2", "G2"]

    def test_b2_contains_long_subsystem_not_short(self):
        b2 = build(label("B", 2))
        classes = enumerate_closed_subsystems(b2)
        long_roots = frozenset(
            [vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)]
        )
        assert any(frozenset(c.roots) == long_roots for c in classes)
        short_roots = frozenset([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)])
        assert all(frozenset(c.roots) != short_roots for c in classes)

    @staticmethod
    def assert_matches_brute_force(parent):
        fast = {frozenset(c.roots)
                for c in enumerate_closed_subsystems(parent, dedup=False)}
        slow = {frozenset(s) for s in brute_force_closed_subsystems(parent)}
        assert fast == slow

    @pytest.mark.parametrize("lab", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("B", 3)])
    def test_matches_brute_force(self, lab):
        self.assert_matches_brute_force(build(label(*lab)))

    @pytest.mark.parametrize("g", ["A3", "C3", "A4", "D4", "A1+A1+A1", "A1+B2", "A1+G2"])
    def test_matches_brute_force_rank_3_4_and_products(self, g):
        self.assert_matches_brute_force(build_sum(parse_label_sum(g)))

    @staticmethod
    def assert_one_representative_per_orbit(parent):
        wg = weyl_group(parent)
        reps = [weyl_canonical(wg, h.roots) for h in enumerate_closed_subsystems(parent)]
        assert len(set(reps)) == len(reps)  # no two representatives are conjugate
        full = enumerate_closed_subsystems(parent, dedup=False)
        assert set(reps) == {weyl_canonical(wg, h.roots) for h in full}
        return reps, full

    def test_dedup_reduces_to_orbit_representatives(self):
        reps, full = self.assert_one_representative_per_orbit(build(label("B", 2)))
        assert len(reps) < len(full)

    @pytest.mark.parametrize("g", RANK_4_PARENTS)
    def test_dedup_one_representative_per_orbit(self, g):
        self.assert_one_representative_per_orbit(build_sum(parse_label_sum(g)))

    @pytest.mark.parametrize("g", RANK_4_PARENTS)
    def test_dedup_matches_full_group_orbit_marking(self, g):
        # Closing each kept class under the simple reflections keeps the
        # same representatives, in the same order, as marking its image
        # under every element of the full Weyl group.
        parent = build_sum(parse_label_sum(g))
        closure = enumerate_closed_subsystems(parent)
        marking = orbit_marking_classes(parent)
        assert closure == marking
        assert [h.positions for h in closure] == [h.positions for h in marking]
        assert [h.torus_corank for h in closure] == [h.torus_corank for h in marking]

    def test_dedup_builds_no_weyl_group(self, monkeypatch):
        def refuse(g):
            raise AssertionError("weyl_group was built")

        monkeypatch.setattr("rootsplit.catalog.weyl_group", refuse)
        monkeypatch.setattr("rootsplit.weyl_group", refuse)
        g = build(label("F", 4))
        assert enumerate_closed_subsystems(g)
        assert classify_all(4, include_products=True).pairs


class TestOneContextPerSystem:
    def test_a_system_keeps_its_context(self):
        s = build_sum(parse_label_sum("A1+B2"))
        assert s.closure_table is s.closure_table
        fresh = lattice_root_system(s.scale, s.ints)
        assert fresh == s and fresh.closure_table is not s.closure_table
        assert fresh.closure_table == s.closure_table

    def test_parent_facts_made_once_per_system(self, monkeypatch):
        # The Wolf closure check and the parent's type lookup run on the
        # first classify of a built E6 only; h's own types (A5+A1) are read
        # per pair, by describe_subsystem. A fresh E6 makes them again.
        closed, looked_up = [], []
        closed_check, lookup = rootcore._closed, rootcore.type_by_counts

        def counting_closed(sub, parent):
            closed.append(1)
            return closed_check(sub, parent)

        def counting_lookup(*key):
            looked_up.append(key)
            return lookup(*key)

        monkeypatch.setattr(rootcore, "_closed", counting_closed)
        monkeypatch.setattr(rootcore, "type_by_counts", counting_lookup)

        def classify():
            closed.clear()
            looked_up.clear()
            return classify_pair("E6", "wolf"), len(closed), sorted(looked_up)

        e6, h_types = (6, 72, 72), [(1, 2, 2), (5, 30, 30)]
        catalog.build.cache_clear()
        first = classify()
        assert first[1:] == (1, sorted([e6, *h_types]))
        for _ in range(2):
            assert classify() == (first[0], 0, h_types)
        catalog.build.cache_clear()
        assert classify() == first

    @pytest.mark.parametrize("g", ["G2", "B3", "A1+B2", "F4"])
    def test_enumeration_repeats_on_one_context(self, g):
        s = build_sum(parse_label_sum(g))
        fresh = lattice_root_system(s.scale, s.ints)
        for dedup in (True, False):
            first = enumerate_closed_subsystems(s, dedup)
            assert enumerate_closed_subsystems(s, dedup) == first
            assert enumerate_closed_subsystems(fresh, dedup) == first


class TestIsotropyWeights:
    def test_g2_over_torus(self):
        g = build(label("G", 2))
        w = isotropy_weights(closed_subsystem(g, []))
        assert len(w.weights) == 12
        assert w.dim_M == 12 and w.quaternionic_n == 3

    def test_so7_u3(self):
        b3 = build(label("B", 3))
        w = isotropy_weights(u3_embedding(b3))
        expected = {r for r in b3.roots if sum(r) != 0}
        assert set(w.weights) == expected
        assert w.quaternionic_n == 3

    def test_s4(self):
        g = build(label("B", 2))
        d2 = closed_subsystem(
            g, [vec(1, 1), vec(-1, -1), vec(1, -1), vec(-1, 1)]
        )
        w = isotropy_weights(d2)
        assert set(w.weights) == {vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)}
        assert w.dim_M == 4 and w.quaternionic_n == 1


class TestSymmetricPair:
    def test_s4_is_symmetric(self):
        w = weights_from_set([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)])
        assert is_symmetric_pair(w)

    def test_so7_u3_is_not(self):
        g = build(label("B", 3))
        assert not is_symmetric_pair(isotropy_weights(u3_embedding(g)))

    def test_rank_one(self):
        assert is_symmetric_pair(weights_from_set([vec(1, -1), vec(-1, 1)]))


def pair_sum_scan(w):
    """Oracle: no two distinct weights of W sum to a weight."""
    keys = set(w.keys)
    return not any(a + b in keys for a, b in itertools.combinations(w.keys, 2))


class TestParityCriterion:
    """The symmetric test of a W cut from a parent, read off the parent's
    simple-coefficient parities, against the pairwise scan."""

    @pytest.mark.parametrize("lab", simple_labels_up_to(8), ids=str)
    def test_wolf_pair(self, lab):
        g = build(lab)
        w = isotropy_weights(g.wolf)
        assert w.symmetric is pair_sum_scan(w) is is_symmetric_pair(w) is True

    @pytest.mark.parametrize("g", ["A5", "B5", "C5", "D5"])
    def test_every_closed_subsystem(self, g):
        parent = build_sum(parse_label_sum(g))
        flags = set()
        for h in enumerate_closed_subsystems(parent, dedup=False):
            w = isotropy_weights(h)
            assert w.symmetric == pair_sum_scan(w) == is_symmetric_pair(w), h.positions
            flags.add(w.symmetric)
        assert flags == {True, False}

    def test_symmetric_test_makes_no_pair_sum_lookup(self):
        # every lookup of the scan goes through W's index of its keys
        g = build(label("E", 8))
        w = isotropy_weights(g.wolf)
        assert is_symmetric_pair(w) and w.triple is None
        assert "index" not in vars(w)

    def test_weights_given_from_outside_are_scanned(self):
        g = build(label("B", 3))
        for h in (u3_embedding(g), g.wolf):
            w = weights_from_set(isotropy_weights(h).weights)
            assert w.symmetric is pair_sum_scan(w) is (h == g.wolf)
            assert is_symmetric_pair(w) is w.symmetric


class TestWolf:
    def test_b3_wolf_type(self):
        b3 = build(label("B", 3))
        h = wolf_subsystem(b3)
        assert vec(1, 1, 0) in h.roots and vec(-1, -1, 0) in h.roots
        types = identify_type(make_root_system(h.roots))
        assert [str(t) for t in types] == ["A1", "A1", "A1"]

    def test_a2_wolf(self):
        a2 = build(label("A", 2))
        h = wolf_subsystem(a2)
        assert len(h.roots) == 2 and h.torus_corank == 1

    @pytest.mark.parametrize("lab", simple_labels_up_to(8), ids=str)
    def test_context_wolf_matches_validating_constructor(self, lab):
        # Oracle: is_closed and fraction_rank on the rational roots, apart
        # from the integer copy, and int_rank on that copy.
        parent = build(lab)
        wolf = parent.wolf
        assert wolf == closed_subsystem(parent, wolf.roots)
        assert hash(wolf) == hash(closed_subsystem(parent, wolf.roots))  # base hashes too
        assert wolf.positions == closed_subsystem(parent, wolf.roots).positions
        assert tuple(parent.roots[i] for i in wolf.positions) == wolf.roots
        assert is_closed(wolf.roots, parent)
        assert wolf.torus_corank == fraction_rank(parent.roots) - fraction_rank(wolf.roots)
        assert wolf.torus_corank == int_rank_corank(parent, wolf)

    def test_reducible_parent_rejected(self):
        with pytest.raises(ValueError, match=r"Wolf subsystem, needs an irreducible g, not A1\+A1$"):
            wolf_subsystem(build_sum(parse_label_sum("A1+A1")))

    def test_recognition(self):
        b3 = build(label("B", 3))
        assert is_wolf_pair(wolf_subsystem(b3))
        assert not is_wolf_pair(u3_embedding(b3))

    def test_g2_long_a2_is_not_wolf(self):
        g = build(label("G", 2))
        long_roots = [r for r in g.roots if dot(r, r) == 6]
        assert not is_wolf_pair(closed_subsystem(g, long_roots))

    def test_recognition_up_to_weyl(self):
        b2 = build(label("B", 2))
        wg = weyl_group(b2)
        index = {r: i for i, r in enumerate(wg.roots)}
        h = wolf_subsystem(b2)
        for perm in wg.elements:
            image = [wg.roots[perm[index[r]]] for r in h.roots]
            assert is_wolf_pair(closed_subsystem(b2, image))

    @pytest.mark.parametrize("lab", [
        ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
        ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4),
    ])
    def test_recognition_matches_weyl_orbit(self, lab):
        # Oracle: the Weyl orbit of the Wolf subsystem, as index sets.
        parent = build(label(*lab))
        wg = weyl_group(parent)
        index = {r: i for i, r in enumerate(wg.roots)}
        target = [index[r] for r in wolf_subsystem(parent).roots]
        orbit = {frozenset(perm[i] for i in target) for perm in wg.elements}
        for h in enumerate_closed_subsystems(parent, dedup=False):
            expected = frozenset(index[r] for r in h.roots) in orbit
            assert is_wolf_pair(h) == expected, h.roots

    def test_wolf_facts_built_on_first_read(self, monkeypatch):
        # Only the Wolf pair reads theta and wolf, so a system does not
        # build them up front; reading wolf still runs the closure check.
        # The system is built afresh: the shared build keeps the facts that
        # earlier tests read.
        g = build.__wrapped__(label("B", 3))
        assert not {"theta", "wolf"} & set(vars(g))
        isotropy_weights(closed_subsystem(g, ()))
        assert not {"theta", "wolf"} & set(vars(g))
        monkeypatch.setattr("rootsplit.rootcore._closed", lambda s, p: False)
        with pytest.raises(NotClosed, match="Wolf subsystem"):
            g.wolf

    def test_wolf_pair_is_symmetric(self):
        for lab in [("A", 2), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
            g = build(label(*lab))
            w = isotropy_weights(g.wolf)
            assert is_symmetric_pair(w), str(lab)
