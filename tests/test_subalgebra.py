"""Closed subsystems, isotropy weights, symmetric and Wolf pairs."""
import pytest

from rootsplit.linalg import vec
from rootsplit.catalog import (
    build,
    build_sum,
    identify_type,
    label,
    parse_label_sum,
    simple_labels_up_to,
    weyl_group,
)
from rootsplit.pipeline import _product_labels
from rootsplit.rootcore import make_root_system
from rootsplit.subalgebra import (
    NotClosed,
    brute_force_closed_subsystems,
    closed_subsystem,
    enumerate_closed_subsystems,
    is_closed,
    is_symmetric_pair,
    is_wolf_pair,
    isotropy_weights,
    parent_context,
    weights_from_set,
    wolf_subsystem,
)


RANK_4_PARENTS = [str(l) for l in simple_labels_up_to(4)] + [
    "+".join(str(l) for l in combo) for combo in _product_labels(4, None)
]


def weyl_canonical(wg, roots):
    """Oracle: the least sorted image of roots under W, as root indices;
    two subsystems are Weyl-conjugate exactly when these agree."""
    index = {r: i for i, r in enumerate(wg.roots)}
    members = [index[r] for r in roots]
    return min(tuple(sorted(perm[i] for i in members)) for perm in wg.elements)


def u3_embedding(b3):
    """The sum-zero roots of B3: a closed A2 subsystem."""
    return closed_subsystem(b3, [r for r in b3.roots if sum(r) == 0])


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


class TestIsotropyWeights:
    def test_g2_over_torus(self):
        g2 = build(label("G", 2))
        w = isotropy_weights(g2, closed_subsystem(g2, []))
        assert len(w.weights) == 12
        assert w.dim_M == 12 and w.quaternionic_n == 3

    def test_so7_u3(self):
        b3 = build(label("B", 3))
        w = isotropy_weights(b3, u3_embedding(b3))
        expected = {r for r in b3.roots if sum(r) != 0}
        assert set(w.weights) == expected
        assert w.quaternionic_n == 3

    def test_s4(self):
        b2 = build(label("B", 2))
        d2 = closed_subsystem(
            b2, [vec(1, 1), vec(-1, -1), vec(1, -1), vec(-1, 1)]
        )
        w = isotropy_weights(b2, d2)
        assert set(w.weights) == {vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)}
        assert w.dim_M == 4 and w.quaternionic_n == 1


class TestSymmetricPair:
    def test_s4_is_symmetric(self):
        w = weights_from_set([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)])
        assert is_symmetric_pair(w)

    def test_so7_u3_is_not(self):
        b3 = build(label("B", 3))
        assert not is_symmetric_pair(isotropy_weights(b3, u3_embedding(b3)))

    def test_rank_one(self):
        assert is_symmetric_pair(weights_from_set([vec(1, -1), vec(-1, 1)]))


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

    def test_recognition(self):
        b3 = build(label("B", 3))
        ctx = parent_context(b3)
        assert is_wolf_pair(ctx, wolf_subsystem(b3))
        assert not is_wolf_pair(ctx, u3_embedding(b3))

    def test_g2_long_a2_is_not_wolf(self):
        from rootsplit.linalg import dot
        g2 = build(label("G", 2))
        long_roots = [r for r in g2.roots if dot(r, r) == 6]
        assert not is_wolf_pair(parent_context(g2), closed_subsystem(g2, long_roots))

    def test_recognition_up_to_weyl(self):
        b2 = build(label("B", 2))
        wg = weyl_group(b2)
        index = {r: i for i, r in enumerate(wg.roots)}
        h = wolf_subsystem(b2)
        ctx = parent_context(b2)
        for perm in wg.elements:
            image = [wg.roots[perm[index[r]]] for r in h.roots]
            assert is_wolf_pair(ctx, closed_subsystem(b2, image))

    @pytest.mark.parametrize("lab", [
        ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
        ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4),
    ])
    def test_recognition_matches_weyl_orbit(self, lab):
        # Oracle: the Weyl orbit of the Wolf subsystem, as index sets.
        parent = build(label(*lab))
        ctx = parent_context(parent)
        wg = weyl_group(parent)
        index = {r: i for i, r in enumerate(wg.roots)}
        target = [index[r] for r in wolf_subsystem(parent).roots]
        orbit = {frozenset(perm[i] for i in target) for perm in wg.elements}
        for h in enumerate_closed_subsystems(parent, dedup=False):
            expected = frozenset(index[r] for r in h.roots) in orbit
            assert is_wolf_pair(ctx, h) == expected, h.roots

    def test_wolf_pair_is_symmetric(self):
        for lab in [("A", 2), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
            parent = build(label(*lab))
            w = isotropy_weights(parent, wolf_subsystem(parent))
            assert is_symmetric_pair(w), str(lab)
