"""Closed subsystems, isotropy weights, symmetric and Wolf pairs."""
import pytest

from oracles import brute_force_closed_subsystems, fraction_rank, is_closed
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
from rootsplit.pipeline import classify_all
from rootsplit.rootcore import make_root_system
from rootsplit.subalgebra import (
    NotClosed,
    closed_subsystem,
    enumerate_closed_subsystems,
    is_symmetric_pair,
    is_wolf_pair,
    isotropy_weights,
    parent_context,
    weights_from_set,
    wolf_subsystem,
)


def weyl_canonical(wg, roots):
    """Oracle: the least sorted image of roots under W, as root indices;
    two subsystems are Weyl-conjugate exactly when these agree."""
    index = {r: i for i, r in enumerate(wg.roots)}
    members = [index[r] for r in roots]
    return min(tuple(sorted(perm[i] for i in members)) for perm in wg.elements)


def orbit_marking_classes(ctx):
    """Oracle: Weyl dedup by full-group orbit marking. The enumerator
    decides the positive roots in position order and leaves each out
    before it takes it in, so its search order puts first the subsystem
    whose positive-root indicator vector is least; in that order, keep
    the first subsystem of each class and mark its image under every
    element of the full Weyl group as seen."""
    perms = weyl_group(ctx).elements
    pos = [i for i, k in enumerate(ctx.keys) if k > 0]
    found = sorted(
        enumerate_closed_subsystems(ctx, dedup=False),
        key=lambda h: [i in h.positions for i in pos],
    )
    seen = set()
    classes = []
    for h in found:
        if frozenset(h.positions) not in seen:
            classes.append(h)
            seen.update(frozenset(p[i] for i in h.positions) for p in perms)
    return sorted(classes, key=lambda h: (len(h.positions), h.positions))


def int_rank_corank(ctx, h):
    """Oracle: the torus corank of h by elimination on the integer copy."""
    return ctx.rank - int_rank([ctx.system.ints[i] for i in h.positions])


def u3_embedding(ctx):
    """The sum-zero roots of B3: a closed A2 subsystem."""
    return closed_subsystem(ctx, [r for r in ctx.system.roots if sum(r) == 0])


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
        b2 = parent_context(build(label("B", 2)))
        with pytest.raises(NotClosed):
            closed_subsystem(b2, [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)])

    def test_factory_rejects_non_negation_closed(self):
        a2 = parent_context(build(label("A", 2)))
        with pytest.raises(NotClosed):
            closed_subsystem(a2, [vec(1, -1, 0)])

    def test_factory_rejects_foreign_root(self):
        g2 = parent_context(build(label("G", 2)))
        with pytest.raises(ValueError, match="not contained in the parent"):
            closed_subsystem(g2, [vec(1, 2)])

    def test_factory_rejects_root_past_the_last(self):
        # beyond the largest parent root, bisection lands past the end
        a2 = parent_context(build(label("A", 2)))
        with pytest.raises(ValueError, match="not contained in the parent"):
            closed_subsystem(a2, [vec(9, 9, 9), vec(-9, -9, -9)])

    @pytest.mark.parametrize("g", RANK_4_PARENTS)
    def test_factory_matches_rational_oracle(self, g):
        # Oracle: is_closed and fraction_rank on the rational roots, apart
        # from the integer copy, and int_rank on that copy, apart from
        # the simple roots counted on its lattice keys.
        parent = build_sum(parse_label_sum(g))
        ctx = parent_context(parent)
        rank = fraction_rank(parent.roots)
        for h in enumerate_closed_subsystems(ctx, dedup=False):
            built = closed_subsystem(ctx, h.roots)
            assert is_closed(built.roots, parent)
            assert built.torus_corank == rank - fraction_rank(h.roots)
            assert h.torus_corank == int_rank_corank(ctx, h)
            assert built == h
            assert built.positions == h.positions
            assert tuple(parent.roots[i] for i in h.positions) == h.roots


class TestEnumeration:
    def test_a1_classes(self):
        a1 = build(label("A", 1))
        classes = enumerate_closed_subsystems(parent_context(a1))
        assert sorted(len(c.roots) for c in classes) == [0, 2]

    def test_g2_classes(self):
        g2 = build(label("G", 2))
        classes = enumerate_closed_subsystems(parent_context(g2))
        types = sorted(
            "+".join(str(l) for l in identify_type(make_root_system(c.roots)))
            if c.roots else "0"
            for c in classes
        )
        assert types == ["0", "A1", "A1", "A1+A1", "A2", "G2"]

    def test_b2_contains_long_subsystem_not_short(self):
        b2 = build(label("B", 2))
        classes = enumerate_closed_subsystems(parent_context(b2))
        long_roots = frozenset(
            [vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)]
        )
        assert any(frozenset(c.roots) == long_roots for c in classes)
        short_roots = frozenset([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)])
        assert all(frozenset(c.roots) != short_roots for c in classes)

    @staticmethod
    def assert_matches_brute_force(parent):
        fast = {frozenset(c.roots)
                for c in enumerate_closed_subsystems(parent_context(parent), dedup=False)}
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
        ctx = parent_context(parent)
        wg = weyl_group(ctx)
        reps = [weyl_canonical(wg, h.roots) for h in enumerate_closed_subsystems(ctx)]
        assert len(set(reps)) == len(reps)  # no two representatives are conjugate
        full = enumerate_closed_subsystems(ctx, dedup=False)
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
        ctx = parent_context(build_sum(parse_label_sum(g)))
        closure = enumerate_closed_subsystems(ctx)
        marking = orbit_marking_classes(ctx)
        assert closure == marking
        assert [h.positions for h in closure] == [h.positions for h in marking]
        assert [h.torus_corank for h in closure] == [h.torus_corank for h in marking]

    def test_dedup_builds_no_weyl_group(self, monkeypatch):
        def refuse(ctx):
            raise AssertionError("weyl_group was built")

        monkeypatch.setattr("rootsplit.catalog.weyl_group", refuse)
        monkeypatch.setattr("rootsplit.weyl_group", refuse)
        ctx = parent_context(build(label("F", 4)))
        assert enumerate_closed_subsystems(ctx)
        assert classify_all(4, include_products=True)


class TestIsotropyWeights:
    def test_g2_over_torus(self):
        ctx = parent_context(build(label("G", 2)))
        w = isotropy_weights(ctx, closed_subsystem(ctx, []))
        assert len(w.weights) == 12
        assert w.dim_M == 12 and w.quaternionic_n == 3

    def test_so7_u3(self):
        b3 = build(label("B", 3))
        ctx = parent_context(b3)
        w = isotropy_weights(ctx, u3_embedding(ctx))
        expected = {r for r in b3.roots if sum(r) != 0}
        assert set(w.weights) == expected
        assert w.quaternionic_n == 3

    def test_s4(self):
        ctx = parent_context(build(label("B", 2)))
        d2 = closed_subsystem(
            ctx, [vec(1, 1), vec(-1, -1), vec(1, -1), vec(-1, 1)]
        )
        w = isotropy_weights(ctx, d2)
        assert set(w.weights) == {vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)}
        assert w.dim_M == 4 and w.quaternionic_n == 1


class TestSymmetricPair:
    def test_s4_is_symmetric(self):
        w = weights_from_set([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)])
        assert is_symmetric_pair(w)

    def test_so7_u3_is_not(self):
        ctx = parent_context(build(label("B", 3)))
        assert not is_symmetric_pair(isotropy_weights(ctx, u3_embedding(ctx)))

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

    @pytest.mark.parametrize("lab", simple_labels_up_to(8), ids=str)
    def test_context_wolf_matches_validating_constructor(self, lab):
        # Oracle: is_closed and fraction_rank on the rational roots, apart
        # from the integer copy, and int_rank on that copy.
        parent = build(lab)
        ctx = parent_context(parent)
        wolf = ctx.wolf
        assert wolf == closed_subsystem(ctx, wolf.roots)
        assert wolf.positions == closed_subsystem(ctx, wolf.roots).positions
        assert tuple(parent.roots[i] for i in wolf.positions) == wolf.roots
        assert is_closed(wolf.roots, parent)
        assert wolf.torus_corank == fraction_rank(parent.roots) - fraction_rank(wolf.roots)
        assert wolf.torus_corank == int_rank_corank(ctx, wolf)

    def test_reducible_parent_rejected(self):
        with pytest.raises(ValueError, match="requires an irreducible system"):
            wolf_subsystem(build_sum(parse_label_sum("A1+A1")))

    def test_recognition(self):
        b3 = build(label("B", 3))
        ctx = parent_context(b3)
        assert is_wolf_pair(ctx, wolf_subsystem(b3))
        assert not is_wolf_pair(ctx, u3_embedding(ctx))

    def test_g2_long_a2_is_not_wolf(self):
        from rootsplit.linalg import dot
        ctx = parent_context(build(label("G", 2)))
        long_roots = [r for r in ctx.system.roots if dot(r, r) == 6]
        assert not is_wolf_pair(ctx, closed_subsystem(ctx, long_roots))

    def test_recognition_up_to_weyl(self):
        b2 = build(label("B", 2))
        ctx = parent_context(b2)
        wg = weyl_group(ctx)
        index = {r: i for i, r in enumerate(wg.roots)}
        h = wolf_subsystem(b2)
        for perm in wg.elements:
            image = [wg.roots[perm[index[r]]] for r in h.roots]
            assert is_wolf_pair(ctx, closed_subsystem(ctx, image))

    @pytest.mark.parametrize("lab", [
        ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
        ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4),
    ])
    def test_recognition_matches_weyl_orbit(self, lab):
        # Oracle: the Weyl orbit of the Wolf subsystem, as index sets.
        parent = build(label(*lab))
        ctx = parent_context(parent)
        wg = weyl_group(ctx)
        index = {r: i for i, r in enumerate(wg.roots)}
        target = [index[r] for r in wolf_subsystem(parent).roots]
        orbit = {frozenset(perm[i] for i in target) for perm in wg.elements}
        for h in enumerate_closed_subsystems(ctx, dedup=False):
            expected = frozenset(index[r] for r in h.roots) in orbit
            assert is_wolf_pair(ctx, h) == expected, h.roots

    def test_wolf_facts_built_on_first_read(self, monkeypatch):
        # Only the Wolf pair and the constraints read theta, wolf and the
        # metric, so a context does not build them up front; reading wolf
        # still runs the closure check.
        ctx = parent_context(build(label("B", 3)))
        assert not {"theta", "wolf", "metric"} & set(vars(ctx))
        isotropy_weights(ctx, closed_subsystem(ctx, ()))
        assert not {"theta", "wolf", "metric"} & set(vars(ctx))
        monkeypatch.setattr("rootsplit.subalgebra._closed", lambda s, p: False)
        with pytest.raises(NotClosed, match="Wolf subsystem"):
            ctx.wolf

    def test_wolf_pair_is_symmetric(self):
        for lab in [("A", 2), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
            ctx = parent_context(build(label(*lab)))
            w = isotropy_weights(ctx, ctx.wolf)
            assert is_symmetric_pair(w), str(lab)
